"""Free complexes on monomial generators, graded Hom, Ext, and colimits
of Ext along the tower of powers of an ideal.

The resolution used for R/a (a a monomial ideal) is the classical one on
the lcm lattice of the generators: position p has one free summand per
p-element subset S of the minimal generators, shifted by deg lcm(S), and
the differential drops one generator at a time with alternating signs and
monomial coefficients lcm(S)/lcm(S minus one element).  It is exact but
not minimal, which is fine; everything downstream only needs a resolution
with explicit monomial matrices.

Comparison maps along an inclusion of ideals come from picking, for every
generator of the smaller ideal, the first generator of the larger ideal
dividing it.  On subsets the induced map multiplies by the lcm quotient
when the picks stay distinct and collapses to zero otherwise; its chain
property is verified symbolically at construction.

Cochain spaces Hom(F_p, N)_g are direct sums of components of N; all
matrices are assembled from the multiplication matrices of N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UnstabilizedError
from .grading import Degree, DegreeWindow
from .linalg import DirectedLimit, Mat, Subquotient, nullspace
from .ringcore import (
    GradedModulePresentation,
    HilbertTable,
    MonomialIdeal,
    Poly,
    mono_divides,
    mono_lcm,
    mono_quotient,
)


def _poly_mat_mul(A, B, inner: int):
    """Product of polynomial matrices given as lists of lists of Poly."""
    rows = len(A)
    cols = len(B[0]) if B else 0
    out = [[Poly.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(cols):
                b = B[k][j]
                if not b.is_zero():
                    out[i][j] = out[i][j] + a * b
    return out


class FreeComplex:
    """Complex of free graded modules with polynomial differentials.

    positions 0..top; `basis[p]` are opaque labels, `shifts[p]` their
    generator degrees (so summand c of F_p is R(-shifts[p][c])), and
    `diffs[p]` the matrix of F_p -> F_{p-1} for p >= 1, rows indexed by
    F_{p-1}.
    """

    def __init__(self, ring, basis, shifts, diffs, validate=True):
        self.ring = ring
        self.basis = [list(b) for b in basis]
        self.shifts = [list(s) for s in shifts]
        self.diffs = [None] + [d for d in diffs]  # diffs[p] for p >= 1
        if len(self.basis) != len(self.shifts):
            raise ValueError("basis/shift position count mismatch")
        if len(self.diffs) != len(self.basis):
            raise ValueError("need one differential per positive position")
        if validate:
            self._validate()

    @property
    def top(self) -> int:
        return len(self.basis) - 1

    def rank(self, p: int) -> int:
        return len(self.basis[p]) if 0 <= p <= self.top else 0

    def _validate(self):
        ring = self.ring
        for p in range(1, self.top + 1):
            d = self.diffs[p]
            if len(d) != self.rank(p - 1) or any(len(r) != self.rank(p) for r in d):
                raise ValueError("differential %d has the wrong shape" % p)
            for i in range(self.rank(p - 1)):
                for j in range(self.rank(p)):
                    entry = d[i][j]
                    if entry.is_zero():
                        continue
                    got = ring.poly_degree(entry)
                    want = self.shifts[p][j] - self.shifts[p - 1][i]
                    if got != want:
                        raise ValueError(
                            "differential %d entry (%d,%d) has degree %s, "
                            "expected %s" % (p, i, j, got, want)
                        )
        for p in range(2, self.top + 1):
            prod = _poly_mat_mul(self.diffs[p - 1], self.diffs[p], self.rank(p - 1))
            for row in prod:
                for entry in row:
                    if not entry.is_zero():
                        raise ValueError("differentials do not compose to zero")


def _lcm_of(ring, gens, S):
    """lcm of the generators indexed by S; 1 for the empty subset."""
    m = ring.one()
    for i in S:
        m = mono_lcm(m, gens[i])
    return m


def taylor_complex(ideal: MonomialIdeal, max_position: int | None = None) -> FreeComplex:
    """The lcm-lattice resolution of R/ideal, optionally truncated above."""
    ring = ideal.ring
    gens = ideal.gens
    s = len(gens)
    top = s if max_position is None else min(s, max_position)
    basis = []
    shifts = []
    index = []
    for p in range(top + 1):
        subs = list(itertools.combinations(range(s), p))
        basis.append(subs)
        index.append({S: i for i, S in enumerate(subs)})
        shifts.append([ring.monomial_degree(_lcm_of(ring, gens, S)) for S in subs])

    diffs = []
    for p in range(1, top + 1):
        mat = [
            [Poly.zero() for _ in range(len(basis[p]))]
            for _ in range(len(basis[p - 1]))
        ]
        for j, S in enumerate(basis[p]):
            lcm_S = _lcm_of(ring, gens, S)
            for t in range(p):
                S2 = S[:t] + S[t + 1 :]
                q = mono_quotient(lcm_S, _lcm_of(ring, gens, S2))
                i = index[p - 1][S2]
                mat[i][j] = mat[i][j] + Poly.monomial(q, (-1) ** t)
        diffs.append(mat)
    return FreeComplex(ring, basis, shifts, diffs)


@dataclass
class ChainMap:
    """Chain map source -> target between complexes over the same ring;
    maps[p] has rows indexed by target position p, columns by source."""

    source: FreeComplex
    target: FreeComplex
    maps: list

    def validate(self):
        ring = self.source.ring
        top = min(self.source.top, self.target.top, len(self.maps) - 1)
        for p in range(top + 1):
            m = self.maps[p]
            if len(m) != self.target.rank(p) or any(
                len(r) != self.source.rank(p) for r in m
            ):
                raise ValueError("chain map %d has the wrong shape" % p)
            for i in range(self.target.rank(p)):
                for j in range(self.source.rank(p)):
                    entry = m[i][j]
                    if entry.is_zero():
                        continue
                    got = ring.poly_degree(entry)
                    want = self.source.shifts[p][j] - self.target.shifts[p][i]
                    if got != want:
                        raise ValueError(
                            "chain map %d entry (%d,%d) has degree %s, "
                            "expected %s" % (p, i, j, got, want)
                        )
        for p in range(1, top + 1):
            lhs = _poly_mat_mul(
                self.target.diffs[p], self.maps[p], self.target.rank(p)
            )
            rhs = _poly_mat_mul(
                self.maps[p - 1], self.source.diffs[p], self.source.rank(p - 1)
            )
            if lhs != rhs:
                raise ValueError("chain property fails at position %d" % p)


def divisor_pick(source_ideal: MonomialIdeal, target_ideal: MonomialIdeal) -> list[int]:
    """For each generator of the smaller ideal, the index of the first
    generator of the containing ideal dividing it."""
    picks = []
    for m in source_ideal.gens:
        found = None
        for i, h in enumerate(target_ideal.gens):
            if mono_divides(h, m):
                found = i
                break
        if found is None:
            raise ValueError(
                "generator %s of the source ideal lies outside the target ideal"
                % source_ideal.ring.monomial_str(m)
            )
        picks.append(found)
    return picks


def _perm_sign(values) -> int:
    inv = 0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] > values[j]:
                inv += 1
    return -1 if inv % 2 else 1


def comparison_chain_map(
    source_cx: FreeComplex,
    target_cx: FreeComplex,
    source_ideal: MonomialIdeal,
    target_ideal: MonomialIdeal,
    validate: bool = True,
) -> ChainMap:
    """Chain map between resolutions over an inclusion source <= target of
    ideals, lifting the surjection R/source -> R/target of quotients."""
    ring = source_ideal.ring
    picks = divisor_pick(source_ideal, target_ideal)
    top = min(source_cx.top, target_cx.top)
    tgt_index = [
        {S: i for i, S in enumerate(target_cx.basis[p])} for p in range(top + 1)
    ]

    maps = []
    for p in range(top + 1):
        mat = [
            [Poly.zero() for _ in range(source_cx.rank(p))]
            for _ in range(target_cx.rank(p))
        ]
        for j, S in enumerate(source_cx.basis[p]):
            imgs = [picks[i] for i in S]
            if len(set(imgs)) != len(imgs):
                continue  # collapsed subset, maps to zero
            sign = _perm_sign(imgs)
            T = tuple(sorted(imgs))
            q = mono_quotient(
                _lcm_of(ring, source_ideal.gens, S), _lcm_of(ring, target_ideal.gens, T)
            )
            mat[tgt_index[p][T]][j] = Poly.monomial(q, sign)
        maps.append(mat)
    cm = ChainMap(source_cx, target_cx, maps)
    if validate:
        cm.validate()
    return cm


class CochainSpaces:
    """Degree-g cochain data Hom(F_., N)_g for a free complex."""

    def __init__(self, cx: FreeComplex, N: GradedModulePresentation, g: Degree):
        self.cx = cx
        self.N = N
        self.g = g
        self._dims: dict[int, list[int]] = {}

    def block_dims(self, p: int) -> list[int]:
        if p < 0 or p > self.cx.top:
            return []
        got = self._dims.get(p)
        if got is None:
            got = [self.N.dim(self.g + sh) for sh in self.cx.shifts[p]]
            self._dims[p] = got
        return got

    def dim(self, p: int) -> int:
        return sum(self.block_dims(p))

    def differential(self, p: int) -> Mat:
        """d^p : Hom(F_p, N)_g -> Hom(F_{p+1}, N)_g (precompose with the
        complex differential)."""
        row_dims = self.block_dims(p + 1)
        col_dims = self.block_dims(p)
        if p + 1 > self.cx.top:
            return Mat.zero(0, sum(col_dims))
        d = self.cx.diffs[p + 1]
        return Mat.block(
            row_dims,
            col_dims,
            lambda i, j: self._mult_block(d[j][i], self.cx.shifts[p][j])
            if not d[j][i].is_zero()
            else None,
        )

    def _mult_block(self, entry: Poly, src_shift: Degree) -> Mat:
        return self.N.multiplication_matrix(entry, self.g + src_shift)


def hom_of_chain_map(
    cm: ChainMap, N: GradedModulePresentation, g: Degree, p: int
) -> Mat:
    """Induced map Hom(target_p, N)_g -> Hom(source_p, N)_g."""
    src_spaces = CochainSpaces(cm.target, N, g)   # domain of the induced map
    dst_spaces = CochainSpaces(cm.source, N, g)
    row_dims = dst_spaces.block_dims(p)
    col_dims = src_spaces.block_dims(p)
    m = cm.maps[p]

    def block(i, j):
        entry = m[j][i]
        if entry.is_zero():
            return None
        return N.multiplication_matrix(entry, g + cm.target.shifts[p][j])

    return Mat.block(row_dims, col_dims, block)


def ext_subquotient(
    spaces: CochainSpaces, p: int, include_boundary: bool = True
) -> Subquotient:
    """Cohomology (or plain cocycles) of the cochain complex at position p."""
    n = spaces.dim(p)
    d_p = spaces.differential(p)
    cocycles = nullspace(d_p)
    boundaries = []
    if include_boundary and p >= 1:
        d_prev = spaces.differential(p - 1)
        boundaries = d_prev.columns()
    return Subquotient(n, cocycles, boundaries)


class GradedHomSpace:
    """Hom(M, N)_g for finitely presented M, N: solutions of the relation
    constraints, one block of unknowns per generator of M."""

    def __init__(
        self,
        M: GradedModulePresentation,
        N: GradedModulePresentation,
        g: Degree,
    ):
        self.M = M
        self.N = N
        self.degree = g
        self.block_dims = [N.dim(g + dj) for dj in M.gen_degrees]
        col_total = sum(self.block_dims)
        row_dims = [N.dim(g + col.degree) for col in M.relations]

        def block(i, j):
            p = M.relations[i].entries.get(j)
            if p is None:
                return None
            return N.multiplication_matrix(p, g + M.gen_degrees[j])

        system = Mat.block(row_dims, self.block_dims, block)
        self.basis = nullspace(system) if col_total else []

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_images(self, k: int) -> list[list[Fraction]]:
        """Coordinates in each N_{g+d_j} of where basis hom k sends the
        generators of M."""
        vec = self.basis[k]
        out = []
        ofs = 0
        for d in self.block_dims:
            out.append(vec[ofs : ofs + d])
            ofs += d
        return out


def graded_hom(M, N, g: Degree) -> GradedHomSpace:
    return GradedHomSpace(M, N, g)


def hom_table(M, N, window: DegreeWindow) -> HilbertTable:
    values = {g: GradedHomSpace(M, N, g).dim for g in window}
    support = [e - d for d in M.gen_degrees for e in N.gen_degrees]
    return HilbertTable(window, values, support_gens=support)


def graded_ext(
    i: int, ideal: MonomialIdeal, N, window: DegreeWindow
) -> HilbertTable:
    """Ext^i(R/ideal, N) tabulated over the window."""
    if i < 0:
        raise ValueError("negative cohomological index")
    cx = taylor_complex(ideal, max_position=min(len(ideal.gens), i + 1))
    values = {}
    for g in window:
        spaces = CochainSpaces(cx, N, g)
        if i > cx.top:
            values[g] = 0
        else:
            values[g] = ext_subquotient(spaces, i).dim
    support = N.gen_degrees if i == 0 else None
    return HilbertTable(window, values, support_gens=support)


class PowerTower:
    """The tower a >= a^2 >= ... >= a^n_cap with resolutions and
    comparison chain maps between consecutive stages."""

    def __init__(self, ideal: MonomialIdeal, n_cap: int, max_position: int | None):
        if n_cap < 2:
            raise ValueError("the cap must allow at least two stages")
        self.ideal = ideal
        self.n_cap = n_cap
        self.powers = [ideal.power(n) for n in range(1, n_cap + 1)]
        self.complexes = [
            taylor_complex(a, max_position) for a in self.powers
        ]
        # maps[n] : complex of a^{n+2} -> complex of a^{n+1} (stage n+1 to n+2
        # in one-based stage numbering is contravariant on Hom)
        self.maps = [
            comparison_chain_map(
                self.complexes[n + 1],
                self.complexes[n],
                self.powers[n + 1],
                self.powers[n],
            )
            for n in range(n_cap - 1)
        ]


@dataclass
class LimitAtDegree:
    """Colimit of Ext-type subquotients over a power tower at one degree."""

    degree: Degree
    stages: list[Subquotient]
    limit: DirectedLimit

    @property
    def dim(self) -> int:
        return self.limit.limit_dim


def ext_limit_at_degree(
    tower: PowerTower,
    N: GradedModulePresentation,
    g: Degree,
    position: int,
    include_boundary: bool = True,
) -> LimitAtDegree:
    stages = []
    spaces = []
    for cx in tower.complexes:
        sp = CochainSpaces(cx, N, g)
        spaces.append(sp)
        if position > cx.top:
            stages.append(Subquotient(0, [], []))
        else:
            stages.append(ext_subquotient(sp, position, include_boundary))
    transitions = []
    for n in range(tower.n_cap - 1):
        src_sq = stages[n]
        dst_sq = stages[n + 1]
        if position > tower.complexes[n].top or position > tower.complexes[n + 1].top:
            transitions.append(Mat.zero(dst_sq.dim, src_sq.dim))
            continue
        ambient = hom_of_chain_map(tower.maps[n], N, g, position)
        cols = [dst_sq.express(ambient.apply(rep)) for rep in src_sq.reps]
        transitions.append(Mat.from_columns(cols, dst_sq.dim))
    return LimitAtDegree(
        g, stages, DirectedLimit.of([sq.dim for sq in stages], transitions)
    )


@dataclass
class StabilizationReport:
    what: str
    cap: int
    per_degree: dict = field(default_factory=dict)

    @property
    def global_index(self) -> int:
        return max(self.per_degree.values(), default=1)


def colim_ext_table(
    i: int,
    ideal: MonomialIdeal,
    N: GradedModulePresentation,
    window: DegreeWindow,
    n_cap: int,
    family: str = "quotient",
) -> tuple[HilbertTable, StabilizationReport]:
    """Degreewise colimit over n of Ext^i(R/a^n, N) (family "quotient") or
    of Ext^i(a^n, N) (family "ideal", the ideal transform for i = 0).

    Raises UnstabilizedError when some degree fails to stabilize under the
    cap.  For family "ideal" the resolution of the ideal is the truncation
    of the one of R/a^n, so cochain position i+1 computes Ext^i(a^n, -),
    with boundaries dropped at i = 0.
    """
    if family not in ("quotient", "ideal"):
        raise ValueError("unknown family %r" % family)
    if i < 0:
        raise ValueError("negative cohomological index")
    position = i if family == "quotient" else i + 1
    include_boundary = family == "quotient" or i >= 1
    tower = PowerTower(ideal, n_cap, max_position=position + 1)
    what = "colim Ext^%d(%s^n, module)" % (
        i,
        "R/a" if family == "quotient" else "a",
    )
    values = {}
    report = StabilizationReport(what, n_cap)
    for g in window:
        lim = ext_limit_at_degree(tower, N, g, position, include_boundary)
        if not lim.limit.stabilized:
            raise UnstabilizedError(what, g, lim.limit.dims)
        values[g] = lim.dim
        report.per_degree[g] = lim.limit.stabilized_at
    support = None
    if family == "quotient" and i == 0:
        support = N.gen_degrees
    return HilbertTable(window, values, support_gens=support), report
