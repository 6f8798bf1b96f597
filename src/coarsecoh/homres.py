"""Free complexes on monomial generators, graded Hom, Ext, and colimits
of Ext along the tower of bracket powers of an ideal.

The resolution used for R/a (a a monomial ideal) is the classical one on
the lcm lattice of the generators: position p has one free summand per
p-element subset S of the minimal generators, shifted by deg lcm(S), and
the differential drops one generator at a time with alternating signs and
monomial coefficients lcm(S)/lcm(S minus one element).  It is exact but
not minimal, which is fine; everything downstream only needs a resolution
with explicit monomial matrices.

Stage n of a tower is the bracket power a^[n] = (g^n : g a minimal
generator of a), which equals a^n for a principal ideal.  For s
generators a^{s(n-1)+1} <= a^[n] <= a^n, so the bracket powers are
cofinal with the ordinary ones and have the same colimits; unlike a^n,
a^[n] keeps the s generators of a, in the same order, and its resolution
keeps 2^s summands.  Summand S of stage n is shifted by n deg lcm(g_S),
and since lcm(g_S^{n+1}) / lcm(g_S^n) = lcm(g_S), the comparison map from
stage n+1 to stage n is  e_S -> lcm(g_S) e_S  with sign +1 at every
stage; its chain property is still verified symbolically at
construction.  tower_table is the one loop over a window of tower
limits, and its table keeps the stage at which each degree was certified.

A tower limit is computed in three passes, each only as far as the next
needs it.  First the dimensions: ext_subquotient counts every stage as
n - rank d^p - rank d^{p-1} from ranks its complex keeps, each cochain
differential ranked once per complex, module and degree.  At position 0
(torsion) the stages are nested kernels inside N_g, so ext_stages ranks
the top stage's d^0 first, a prefix of its blocks at a time, and an
injective prefix counts every stage as 0 with no other d^0 built.
Then the steps: DirectedLimit asks for the map between two stages only
when its rule reads it, never into or out of an empty stage, so a chain
that is zero at every stage is certified from its dimensions alone.
Last the bases: a stage builds its kernel basis and class
representatives (ExtStage.subquotient) only for a step or a caller that
reads them (torsion_basis, the four-term check), and the built dimension
must equal the count.  Hom(M, N)_g likewise counts before it solves.

Every map of free modules here is a ringcore FreeMap with sparse
polynomial columns, and a presentation's relations are one FreeMap too.
Cochain spaces Hom(F_p, N)_g are direct sums of components of N, and
FreeMap.hom is the one place that assembles matrices from the
multiplication matrices of N, handing each the target degree it holds:
cochain differentials, tower transitions and the relation system of
Hom(M, N)_g all go through it.
"""

from __future__ import annotations

import functools
import itertools

from .errors import UnstabilizedError
from .grading import Degree, DegreeWindow
from .linalg import (
    DirectedLimit, Mat, RowSpan, Subquotient, cap_problem, nullspace, rank
)
from .ringcore import (
    FreeMap,
    GradedModulePresentation,
    HilbertTable,
    MonomialIdeal,
    Poly,
    mono_lcm,
    mono_quotient,
)


class FreeComplex:
    """Complex of free graded modules with polynomial differentials.

    positions 0..top; `basis[p]` are opaque labels, `shifts[p]` their
    generator degrees (so summand c of F_p is R(-shifts[p][c])), and
    `diffs[p]` the FreeMap F_p -> F_{p-1} for p >= 1, built from
    `diff_columns[p-1]`.  Differentials must compose to zero.  The ranks
    of the cochain differentials are kept per module and degree, see
    cochain_rank.
    """

    def __init__(self, ring, basis, shifts, diff_columns):
        self.ring = ring
        self.basis = [list(b) for b in basis]
        self.shifts = [list(s) for s in shifts]
        if len(self.basis) != len(self.shifts):
            raise ValueError("basis/shift position count mismatch")
        if len(diff_columns) != self.top:
            raise ValueError("need one differential per positive position")
        self.diffs = [None] + [
            FreeMap(ring, self.shifts[p], self.shifts[p - 1], cols)
            for p, cols in enumerate(diff_columns, 1)
        ]
        for p in range(2, self.top + 1):
            if any(self.diffs[p - 1].after(self.diffs[p])):
                raise ValueError("differentials do not compose to zero")
        self._ranks: dict = {}  # (N, g, p) -> rank of d^p on Hom(F., N)_g

    @property
    def top(self) -> int:
        return len(self.basis) - 1

    def cochain_rank(
        self, N: GradedModulePresentation, g: Degree, p: int
    ) -> tuple[int, RowSpan | None]:
        """rank d^p of the degree-g cochain complex Hom(F., N)_g, which is 0
        outside 0..top-1, and the RowSpan of the columns of d^p, vectors of
        Hom(F_{p+1}, N)_g, when this call eliminated them.  Each rank is
        kept as an int, so a differential is ranked once: position p
        counts its cocycles from it, and position p+1 its boundaries."""
        if not 0 <= p < self.top:
            return 0, None
        key = (N, g, p)
        if key in self._ranks:
            return self._ranks[key], None
        d_p = self.diffs[p + 1].hom(N, g)
        span = RowSpan(d_p.nrows, d_p.cols)
        self._ranks[key] = span.dim
        return span.dim, span


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
    basis = [list(itertools.combinations(range(s), p)) for p in range(top + 1)]
    shifts = [
        [ring.monomial_degree(_lcm_of(ring, gens, S)) for S in subs] for subs in basis
    ]
    diff_columns = []
    for p in range(1, top + 1):
        index = {S: i for i, S in enumerate(basis[p - 1])}
        cols = []
        for S in basis[p]:
            lcm_S = _lcm_of(ring, gens, S)
            col = {}
            for t in range(p):
                S2 = S[:t] + S[t + 1 :]
                q = mono_quotient(lcm_S, _lcm_of(ring, gens, S2))
                col[index[S2]] = Poly.monomial(q, (-1) ** t)
            cols.append(col)
        diff_columns.append(cols)
    return FreeComplex(ring, basis, shifts, diff_columns)


class ChainMap:
    """Chain map source -> target between complexes over the same ring;
    maps[p] is the FreeMap source_p -> target_p built from columns[p].
    The chain property is verified symbolically."""

    def __init__(self, source: FreeComplex, target: FreeComplex, columns):
        self.source = source
        self.target = target
        self.maps = [
            FreeMap(source.ring, source.shifts[p], target.shifts[p], cols)
            for p, cols in enumerate(columns)
        ]
        for p in range(1, len(self.maps)):
            lhs = target.diffs[p].after(self.maps[p])
            if lhs != self.maps[p - 1].after(source.diffs[p]):
                raise ValueError("chain property fails at position %d" % p)


class ExtStage:
    """Cohomology (or plain cocycles) at position p of the degree-g cochain
    complex Hom(F_., N)_g, counted before it is built.

    `dim` and `cocycle_dim` come from ranks (ext_subquotient).  The
    Subquotient, with the kernel basis of d^p and the class
    representatives, is built on the first read of `subquotient`, and its
    dimension must equal the count.  Its boundary span is the RowSpan
    ext_subquotient eliminated while counting, or, when the complex
    already held that rank, the columns of d^{p-1} eliminated once then."""

    def __init__(self, cx, N, g, p, n, cocycle_dim, dim, boundaries):
        self._at = (cx, N, g, p)
        self.n, self.cocycle_dim, self.dim = n, cocycle_dim, dim
        self._boundaries = boundaries  # () or a RowSpan; None: d^{p-1}
        self._kernel = [None]  # ker d^p, shared with cocycles_only

    def cocycles_only(self) -> "ExtStage":
        """The same cocycles with no boundaries, sharing the kernel of d^p."""
        other = ExtStage(*self._at, self.n, self.cocycle_dim, self.cocycle_dim, ())
        other._kernel = self._kernel
        return other

    @functools.cached_property
    def subquotient(self) -> Subquotient:
        cx, N, g, p = self._at
        if self._kernel[0] is None:
            self._kernel[0] = []
            if self.cocycle_dim:
                top = p == cx.top
                d_p = Mat.zero(0, self.n) if top else cx.diffs[p + 1].hom(N, g)
                self._kernel[0] = nullspace(d_p)
        if self._boundaries is None:
            self._boundaries = RowSpan(self.n, cx.diffs[p].hom(N, g).cols)
        sq = Subquotient(self.n, self._kernel[0], self._boundaries)
        if sq.dim != self.dim:
            raise AssertionError(
                "stage built with dimension %d, counted %d" % (sq.dim, self.dim)
            )
        return sq


def ext_subquotient(
    cx: FreeComplex,
    N: GradedModulePresentation,
    g: Degree,
    p: int,
    include_boundary: bool = True,
) -> ExtStage:
    """The stage at position p of the degree-g cochain complex
    Hom(F_., N)_g, whose d^p precomposes with the differential of F_{p+1},
    counted from ranks: dim = n - rank d^p - rank d^{p-1}, or
    n - rank d^p without boundaries.  An empty cochain space, as at every
    position outside 0..top, reads no rank, and a stage without cocycles
    reads no boundary rank."""
    n = sum(N.dim(g + sh) for sh in cx.shifts[p]) if 0 <= p <= cx.top else 0
    cocycle_dim = n - cx.cochain_rank(N, g, p)[0] if n else 0
    boundary_rank, boundaries = 0, ()
    if include_boundary and p >= 1 and cocycle_dim:
        boundary_rank, boundaries = cx.cochain_rank(N, g, p - 1)
    return ExtStage(cx, N, g, p, n, cocycle_dim, cocycle_dim - boundary_rank, boundaries)


class GradedHomSpace:
    """Hom(M, N)_g for finitely presented M, N: solutions of the relation
    constraints, one block of unknowns per generator of M.  `dim` is the
    number of unknowns minus the rank of the constraints; the `basis` is
    built on first read, and its length must equal `dim`."""

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
        self._constraints = M.relation_map.hom(N, g)
        self.dim = self._constraints.ncols - rank(self._constraints)

    @functools.cached_property
    def basis(self) -> list[dict]:
        basis = nullspace(self._constraints)
        if len(basis) != self.dim:
            raise AssertionError(
                "Hom basis has %d vectors, counted %d" % (len(basis), self.dim)
            )
        return basis

    def generator_images(self, k: int) -> list[dict]:
        """Coordinates in each N_{g+d_j} of where basis hom k sends the
        generators of M."""
        vec = self.basis[k]
        out = []
        ofs = 0
        for d in self.block_dims:
            out.append({i - ofs: x for i, x in vec.items() if ofs <= i < ofs + d})
            ofs += d
        return out


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
        values[g] = ext_subquotient(cx, N, g, i).dim
    support = N.gen_degrees if i == 0 else None
    return HilbertTable(window, values, support_gens=support)


class PowerTower:
    """The tower a = a^[1] >= a^[2] >= ... >= a^[n_cap] of bracket powers
    a^[n] = (g^n : g a minimal generator of a), with the resolutions of the
    stages truncated above max_position and the comparison chain maps
    between consecutive stages.

    For a principal ideal a^[n] = a^n.  In general the bracket powers are
    cofinal with the powers, so colimits along this tower are the colimits
    along a^n.  Every stage keeps the 2^s Taylor summands of a, indexed by
    the same subsets S; summand S of stage n is shifted by n deg lcm(g_S),
    and the map from stage n+1 to stage n sends e_S to lcm(g_S) e_S: both
    ways round the square send e_S to
    sum_t (-1)^t lcm(g_S)^{n+1} / lcm(g_{S minus t})^n e_{S minus t}."""

    def __init__(self, ideal: MonomialIdeal, n_cap: int, max_position: int):
        if problem := cap_problem("n_cap", n_cap):
            raise ValueError(problem)
        self.max_position = max_position
        self.complexes = [
            taylor_complex(ideal.bracket_power(n), max_position)
            for n in range(1, n_cap + 1)
        ]
        ring, gens = ideal.ring, ideal.gens
        columns = [
            [{k: Poly.monomial(_lcm_of(ring, gens, S))} for k, S in enumerate(subs)]
            for subs in self.complexes[0].basis
        ]
        # maps[n] : complex of a^[n+2] -> complex of a^[n+1] (stage n+1 to
        # n+2 in one-based stage numbering is contravariant on Hom)
        self.maps = [
            ChainMap(self.complexes[n + 1], self.complexes[n], columns)
            for n in range(n_cap - 1)
        ]


def ext_stages(
    tower: PowerTower,
    N: GradedModulePresentation,
    g: Degree,
    position: int,
    include_boundary: bool = True,
) -> list[ExtStage]:
    """The Ext-type stage at cochain position `position` of every stage of
    the tower at degree g, counted and not yet built.

    Position 0 counts from the top stage first.  There every stage is a
    subspace of N_g, the kernel of multiplication by the g_j^n, and stage
    n's kernel lies in the top stage's, since g_j^cap = g_j^(cap-n) g_j^n.
    So when a prefix of the top stage's d^0 is injective (_injective_top)
    every stage is 0: each is counted with no cocycles, and rank d^0 =
    dim N_g goes into each complex's memo for the boundary counts at
    position 1.  Otherwise every stage is counted from its own ranks.
    Either way DirectedLimit certifies the same dimensions."""
    if position == 0 and _injective_top(tower, N, g):
        n = N.dim(g)
        stages = []
        for cx in tower.complexes:
            cx._ranks[N, g, 0] = n
            stages.append(ExtStage(cx, N, g, 0, n, 0, 0, ()))
        return stages
    return [
        ext_subquotient(cx, N, g, position, include_boundary)
        for cx in tower.complexes
    ]


def _injective_top(tower: PowerTower, N: GradedModulePresentation, g: Degree) -> bool:
    """Is some prefix of the top stage's d^0 injective on N_g, which is
    nonzero?  d^0 is one block per generator, multiplication by g_j^cap
    into N_{g + cap deg g_j}; the nonempty blocks are stacked in
    increasing weight of their target degree, ties in generator order, and
    each prefix is ranked until one reaches dim N_g.  A block is built
    only when the prefixes before it fall short."""
    n = N.dim(g)
    cx = tower.complexes[-1]
    if not n or cx.top < 1:
        return False
    d1 = cx.diffs[1]
    targets = [g + sh for sh in d1.source]
    floor = N.ring.floor
    blocks = []
    for j in sorted(range(len(targets)), key=lambda j: floor(targets[j].free)[0]):
        if N.dim(targets[j]):
            blocks.append(N.multiplication_matrix(d1.columns[j][0], g, targets[j]))
            prefix = Mat.block([b.nrows for b in blocks], [n], lambda i, _: blocks[i])
            if rank(prefix) == n:
                return True
    return False


def ext_limit_at_degree(
    tower: PowerTower,
    N: GradedModulePresentation,
    g: Degree,
    position: int,
    what: str,
    stages: list[ExtStage] | None = None,
) -> tuple[list[ExtStage], DirectedLimit]:
    """The Ext-type stages at cochain position `position` over the tower
    at degree g, and their certified colimit; raises UnstabilizedError,
    labelled `what`, when the cap does not certify it.  The stages are
    ext_stages with boundaries unless the caller passes its own, counted
    by ext_stages at this position or derived from them.

    The order is dimensions, then steps, then bases.  Every stage's
    dimension comes from ranks, each cochain differential ranked once per
    complex.  DirectedLimit asks for a tower step only when its rule reads
    it, never into or out of an empty stage, so a chain that is empty at
    every stage, such as every position above the top of the complexes,
    is certified from its dimensions alone.  A step builds the
    subquotients of its two stages, and a stage's kernel basis and class
    representatives are built only there or where a caller reads them
    (torsion_basis, the four-term check)."""
    if stages is None:
        stages = ext_stages(tower, N, g, position)

    def step(n: int) -> Mat:
        src_sq, dst_sq = stages[n].subquotient, stages[n + 1].subquotient
        ambient = tower.maps[n].maps[position].hom(N, g)
        cols = [dst_sq.express(ambient.apply(rep)) for rep in src_sq.reps]
        return Mat.from_columns(cols, dst_sq.dim)

    limit = DirectedLimit.of([sq.dim for sq in stages], step)
    if not limit.stabilized:
        raise UnstabilizedError(what, g, limit.dims)
    return stages, limit


def tower_table(
    tower: PowerTower,
    N: GradedModulePresentation,
    window: DegreeWindow,
    position: int,
    what: str,
    include_boundary: bool = True,
) -> HilbertTable:
    """The certified limits at cochain position `position` of the tower
    over the window, each degree's stage in stabilized_at; a degree the cap
    does not certify raises UnstabilizedError labelled `what`.  At position
    0 (torsion, H^0) the table is supported on the generators of N."""
    if tower.max_position < position + 1:
        raise ValueError("the tower stops below cochain position %d" % (position + 1))
    values, stabilized_at = {}, {}
    for g in window:
        stages = ext_stages(tower, N, g, position, include_boundary)
        _, lim = ext_limit_at_degree(tower, N, g, position, what, stages)
        values[g] = lim.limit_dim
        stabilized_at[g] = lim.stabilized_at
    support = N.gen_degrees if position == 0 else None
    return HilbertTable(window, values, support, stabilized_at)


def colim_ext_table(
    i: int,
    ideal: MonomialIdeal,
    N: GradedModulePresentation,
    window: DegreeWindow,
    n_cap: int,
    family: str = "quotient",
) -> HilbertTable:
    """Degreewise colimit over n of Ext^i(R/a^[n], N) (family "quotient")
    or of Ext^i(a^[n], N) (family "ideal", the ideal transform for i = 0);
    the bracket powers a^[n] are cofinal with a^n, so these are the
    colimits of Ext^i(R/a^n, N) and Ext^i(a^n, N).

    Raises UnstabilizedError when some degree fails to stabilize under the
    cap.  For family "ideal" the resolution of the ideal is the truncation
    of the one of R/a^[n], so cochain position i+1 computes Ext^i(a^[n], -),
    with boundaries dropped at i = 0.
    """
    position = _tower_position(i, family)
    tower = PowerTower(ideal, n_cap, max_position=position + 1)
    return tower_ext_table(i, tower, N, window, family)


def _tower_position(i: int, family: str) -> int:
    """Cochain position of Ext^i for the family; validates both."""
    if family not in ("quotient", "ideal"):
        raise ValueError("unknown family %r" % family)
    if i < 0:
        raise ValueError("negative cohomological index")
    return i if family == "quotient" else i + 1


def tower_ext_table(
    i: int,
    tower: PowerTower,
    N: GradedModulePresentation,
    window: DegreeWindow,
    family: str = "quotient",
) -> HilbertTable:
    """colim_ext_table on a tower built once by the caller, which may share
    it between several i; the tower must reach cochain position i+1 (i+2
    for family "ideal")."""
    position = _tower_position(i, family)
    include_boundary = family == "quotient" or i >= 1
    what = "colim Ext^%d(%s^n, module)" % (i, "R/a" if family == "quotient" else "a")
    return tower_table(tower, N, window, position, what, include_boundary)
