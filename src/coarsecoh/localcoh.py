"""Graded local cohomology, torsion submodules, and ideal transforms.

Two independent routes are implemented and kept separate on purpose.

* The covering-by-localizations route: the alternating-sign complex
  over subsets of the generators (its subsets, f_S and differential
  blocks) is built once per table as a CechComplex.  At each degree,
  CechAtDegree models each localization M_{f_S} as the colimit of
  M_g -> M_{g+deg f_S} -> ... (multiplication by f_S), assembles the
  differentials on the stabilized models, ranks each once, and reads
  cohomology off positionwise from those ranks.

* The tower route: the degreewise colimit over n of Ext^i(R/a^[n], -),
  with explicit comparison maps between the resolutions of consecutive
  bracket powers (see homres).

Stage n of the tower is the bracket power a^[n] = (g^n : g a minimal
generator of a), which equals a^n for a principal ideal.  The bracket
powers are cofinal with the powers (a^{s(n-1)+1} <= a^[n] <= a^n for s
generators), so every colimit below is the one along a^n.

The torsion submodule is H^0, position 0 of the same tower: the
increasing chain of kernels of the cochain differentials d^0, which
multiply by the generators g^n of a^[n], gives honest element-level bases
inside M_g; torsion_basis is the one reader of those bases.  Every kernel
lies in the top stage's, so where a prefix of the top stage's
multiplications is already injective on M_g, homres.ext_stages counts
every stage as 0 without ranking the lower stages; the chain is still
certified by DirectedLimit like any other.

The ideal transform is the colimit over n of Ext^i(a^[n], -); its
relationship to local cohomology in one degree higher is checked, not
assumed, and the check deliberately pairs the tower-built transform with
the localization-built cohomology so the two sides come from different
machinery.

Localization rays and tower limits, torsion included, stabilize by the
end-anchored two-consecutive-images criterion of linalg.DirectedLimit
(README, design rule 2, says what that leaves uncertified).  Degrees that
fail under the configured cap raise UnstabilizedError carrying the
dimension trajectory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import UnstabilizedError
from .grading import Degree, DegreeWindow
from .homres import (
    PowerTower,
    colim_ext_table,
    ext_limit_at_degree,
    ext_stages,
    tower_table,
)
from .linalg import (
    N_CAP, RAY_CAP, DirectedLimit, Mat, cap_problem, nullspace, rank, spans_equal
)
from .ringcore import (
    GradedModulePresentation,
    HilbertTable,
    Monomial,
    MonomialIdeal,
    Poly,
    mono_mul,
)


class CechComplex:
    """The degree-free part of the alternating-sign complex over subsets
    of the generators, built once per table: the asked positions (clipped
    to 0..s), the subsets of each size they read, in
    itertools.combinations order, each subset's localization
    (deg f_S, f_S), and the nonzero blocks of each differential they read.
    H^i reads the subsets of sizes i-1, i and i+1 and the differentials
    d^{i-1} and d^i; the default asks for every position.

    blocks[p][ti, si] is the block of d^p from subset S = subsets[p][si]
    to T = subsets[p+1][ti], where S is T without its k-th element a:
    multiplication by g_a^cap with sign (-1)^k, k being also the number of
    elements of S below a.  Every other block is zero."""

    def __init__(self, gens: tuple[Monomial, ...], ring, ray_cap: int, positions=None):
        if problem := cap_problem("ray_cap", ray_cap):
            raise ValueError(problem)
        self.gens = tuple(gens)
        self.ray_cap = ray_cap
        s = len(self.gens)
        self.positions = frozenset(
            i for i in (range(s + 1) if positions is None else positions)
            if 0 <= i <= s
        )
        diffs = sorted({p for i in self.positions for p in (i - 1, i) if p >= 0})
        self.subsets: dict[int, list[tuple[int, ...]]] = {
            q: list(itertools.combinations(range(s), q))
            for q in sorted({q for p in diffs for q in (p, p + 1) if q <= s})
        }
        self.localizations: dict[tuple[int, ...], tuple[Degree, Poly]] = {}
        for S in itertools.chain.from_iterable(self.subsets.values()):
            f_S = ring.one()
            for a in S:
                f_S = mono_mul(f_S, self.gens[a])
            self.localizations[S] = (ring.monomial_degree(f_S), Poly.monomial(f_S))
        self.blocks: dict[int, dict[tuple[int, int], Poly]] = {}
        for p in diffs:
            index = {S: si for si, S in enumerate(self.subsets[p])}
            self.blocks[p] = {
                (ti, index[T[:k] + T[k + 1:]]): Poly.monomial(
                    tuple(e * ray_cap for e in self.gens[a]), (-1) ** k
                )
                for ti, T in enumerate(self.subsets.get(p + 1, ()))
                for k, a in enumerate(T)
            }


class CechAtDegree:
    """A CechComplex evaluated at one degree on stabilized localization
    models: the rays and their limits, then the differential matrices.
    Each differential is ranked once, into `ranks`, which cohomology_dim
    reads.  Only the rays of the subsets that the complex's positions read
    are built, in subset order, so only those can be refused.

    Every ray is read dimensions first.  Its stages before
    M.runway(g, deg f_S, ray_cap) are 0 without a degree built or a dim
    read; the runway is a lower bound that only skips reads, so it never
    certifies or refuses a ray, and the trajectory holds those zeros.
    DirectedLimit asks for the multiplication matrix of a ray step only
    when both of its components are nonempty and its rule reads the step,
    so a ray that is zero at every stage is certified 0 at stage 1 with no
    transition built and no rank scanned.  A differential block between
    empty limits is never asked for either (Mat.block)."""

    def __init__(self, cech: CechComplex, M: GradedModulePresentation, g: Degree):
        self.cech = cech
        self.M = M
        self.g = g
        cap = cech.ray_cap
        self.models: dict[tuple[int, ...], DirectedLimit] = {}
        # S -> g + cap deg f_S, for each ray that reaches its runway
        self.ray_ends: dict[tuple[int, ...], Degree] = {}
        for S in itertools.chain.from_iterable(cech.subsets.values()):
            d_S, f_S = cech.localizations[S]
            first = M.runway(g, d_S, cap)
            # g + k d_S for k = first..cap; the stages before are 0
            ray = [g + d_S.scale(first)] if first <= cap else []
            for _ in range(first, cap):
                ray.append(ray[-1] + d_S)
            dims = [0] * first + [M.dim(h) for h in ray]
            lim = DirectedLimit.of(
                dims,
                lambda k: M.multiplication_matrix(
                    f_S, ray[k - first], ray[k + 1 - first]
                ),
            )
            if not lim.stabilized:
                raise UnstabilizedError(
                    "localization at %s" % M.ring.poly_str(f_S), g, dims
                )
            if ray:
                self.ray_ends[S] = ray[-1]
            self.models[S] = lim
        self.matrices: dict[int, Mat] = {p: self._differential(p) for p in cech.blocks}
        for p, d_p in self.matrices.items():
            d_next = self.matrices.get(p + 1)
            if d_next is not None and not d_next.mul(d_p).is_zero():
                raise AssertionError(
                    "localization complex differential squared is nonzero"
                )
        self.ranks = {p: rank(d_p) for p, d_p in self.matrices.items()}

    def _differential(self, p: int) -> Mat:
        srcs, dsts = self.cech.subsets[p], self.cech.subsets.get(p + 1, [])
        blocks = self.cech.blocks[p]

        def block(ti, si):
            f = blocks.get((ti, si))
            if f is None:
                return None
            S, T = srcs[si], dsts[ti]
            mult = self.M.multiplication_matrix(f, self.ray_ends[S], self.ray_ends[T])
            dst = self.models[T]
            cols = [dst.express(mult.apply(b)) for b in self.models[S].basis]
            return Mat.from_columns(cols, dst.limit_dim)

        return Mat.block(
            [self.models[T].limit_dim for T in dsts],
            [self.models[S].limit_dim for S in srcs],
            block,
        )

    def cohomology_dim(self, i: int) -> int:
        """dim H^i; 0 outside positions 0..s, where the complex has no
        terms.  A position inside that range that was not asked for raises
        ValueError: its differentials were never built."""
        if i < 0 or i > len(self.cech.gens):
            return 0
        if i not in self.cech.positions:
            raise ValueError("Cech position %d was not built" % i)
        return self.matrices[i].ncols - self.ranks[i] - self.ranks.get(i - 1, 0)


def cech_table(
    ideal: MonomialIdeal,
    i: int,
    M: GradedModulePresentation,
    window: DegreeWindow,
    ray_cap: int = RAY_CAP,
) -> HilbertTable:
    if i < 0:
        raise ValueError("negative cohomological index")
    cech = CechComplex(ideal.gens, M.ring, ray_cap, (i,))
    values = {g: CechAtDegree(cech, M, g).cohomology_dim(i) for g in window}
    support = M.gen_degrees if i == 0 else None
    return HilbertTable(window, values, support_gens=support)


def torsion_submodule(
    ideal: MonomialIdeal,
    M: GradedModulePresentation,
    window: DegreeWindow,
    n_cap: int = N_CAP,
) -> HilbertTable:
    """Elements killed by a power of the ideal, per degree: position 0 of
    the bracket-power tower, whose stages are the kernels of the cochain
    differentials d^0 : M_g -> (+)_j M_{g + n deg g_j} (multiplication by
    the generators g_j^n of a^[n]) and whose maps are the inclusions.  It
    is certified like every other tower limit, in ext_limit_at_degree.
    Since a^{s(n-1)+1} <= a^[n] <= a^n for s generators, an element is
    killed by some a^[n] exactly when it is killed by some a^n."""
    return tower_table(PowerTower(ideal, n_cap, 1), M, window, 0, "torsion submodule")


def torsion_basis(tower: PowerTower, M: GradedModulePresentation, g: Degree) -> list:
    """A basis in M_g of the torsion submodule along the tower's ideal; the
    tower must reach cochain position 1.  A certified increasing chain of
    kernels ends on its limit, so this is the last stage's kernel basis.
    Refuses, labelled "torsion submodule", as torsion_submodule does."""
    stages, _ = ext_limit_at_degree(tower, M, g, 0, "torsion submodule")
    return stages[-1].subquotient.reps


def local_cohomology(
    ideal: MonomialIdeal,
    i: int,
    M: GradedModulePresentation,
    window: DegreeWindow,
    route: str = "cech",
    n_cap: int = N_CAP,
    ray_cap: int = RAY_CAP,
) -> HilbertTable:
    """Degreewise local cohomology with support in the ideal, by either
    route ("cech" or "ext")."""
    if route == "cech":
        return cech_table(ideal, i, M, window, ray_cap)
    if route == "ext":
        return colim_ext_table(i, ideal, M, window, n_cap, family="quotient")
    raise ValueError("unknown route %r" % route)


def ideal_transform(
    ideal: MonomialIdeal,
    i: int,
    M: GradedModulePresentation,
    window: DegreeWindow,
    n_cap: int = N_CAP,
) -> HilbertTable:
    """Degreewise colimit over n of Ext^i(a^[n], M), which is the one of
    Ext^i(a^n, M)."""
    return colim_ext_table(i, ideal, M, window, n_cap, family="ideal")


@dataclass
class DegreeRow:
    degree: Degree
    gamma: int
    module: int
    d0: int
    h1: int
    kernel_matches_torsion: bool
    residual_surjective: bool
    composite_zero: bool
    exact_at_transform: bool
    alternating_sum_zero: bool
    h1_routes_agree: bool

    def all_ok(self) -> bool:
        return (
            self.kernel_matches_torsion
            and self.residual_surjective
            and self.composite_zero
            and self.exact_at_transform
            and self.alternating_sum_zero
            and self.h1_routes_agree
        )


@dataclass
class TransformSequenceReport:
    """Outcome of checking, degree by degree, that the torsion submodule,
    the module, the degree-zero transform and first local cohomology fit
    into the expected four-term exact sequence, plus the comparison of
    higher transforms with local cohomology one degree up."""

    n_cap: int
    ray_cap: int
    rows: list = field(default_factory=list)
    higher: list = field(default_factory=list)  # dicts per i >= 1
    witnesses: list = field(default_factory=list)
    unstable: dict | None = None

    @property
    def verdict(self) -> str:
        """An `unstable` record wins; then any witness makes it FAILS."""
        if self.unstable is not None:
            return "UNSTABILIZED"
        return "FAILS" if self.witnesses else "OK"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_cap": self.n_cap,
            "ray_cap": self.ray_cap,
            "rows": [
                {
                    "degree": str(r.degree),
                    "torsion": r.gamma,
                    "module": r.module,
                    "transform0": r.d0,
                    "h1": r.h1,
                    "kernel_matches_torsion": r.kernel_matches_torsion,
                    "residual_surjective": r.residual_surjective,
                    "composite_zero": r.composite_zero,
                    "exact_at_transform": r.exact_at_transform,
                    "alternating_sum_zero": r.alternating_sum_zero,
                    "h1_routes_agree": r.h1_routes_agree,
                }
                for r in self.rows
            ],
            "higher_transforms": self.higher,
            "witnesses": [str(w) for w in self.witnesses],
            "unstable": self.unstable,
        }


def check_transform_sequence(
    ideal: MonomialIdeal,
    M: GradedModulePresentation,
    window: DegreeWindow,
    n_cap: int = N_CAP,
    ray_cap: int = RAY_CAP,
) -> TransformSequenceReport:
    report = TransformSequenceReport(n_cap, ray_cap)
    gens = ideal.gens
    bound = len(gens)
    try:
        tower = PowerTower(ideal, n_cap, max_position=bound + 2)
        cech_complex = CechComplex(gens, M.ring, ray_cap)  # H^1..H^s read every ray
        for g in window:
            cech = CechAtDegree(cech_complex, M, g)
            row = _sequence_row_at_degree(M, g, tower, cech)
            report.rows.append(row)
            if not row.all_ok():
                report.witnesses.append(g)
            for i in range(1, bound + 1):
                what = "colim Ext^%d(a^n, module)" % i
                _, d_i = ext_limit_at_degree(tower, M, g, i + 1, what)
                h_next = cech.cohomology_dim(i + 1)
                entry = _higher_entry(report.higher, i)
                entry["degrees_checked"] += 1
                if d_i.limit_dim != h_next:
                    entry["agree"] = False
                    entry["witnesses"].append(
                        {"degree": str(g), "transform": d_i.limit_dim, "h_next": h_next}
                    )
                    report.witnesses.append(g)
    except UnstabilizedError as err:
        report.unstable = err.payload()
    return report


def _higher_entry(higher: list, i: int) -> dict:
    for e in higher:
        if e["i"] == i:
            return e
    e = {"i": i, "agree": True, "witnesses": [], "degrees_checked": 0}
    higher.append(e)
    return e


def _sequence_row_at_degree(
    M: GradedModulePresentation,
    g: Degree,
    tower: PowerTower,
    cech: CechAtDegree,
) -> DegreeRow:
    mg = M.dim(g)
    gamma_basis = torsion_basis(tower, M, g)
    # both position-1 towers come from one kernel of d^1 per stage
    h1_stages = ext_stages(tower, M, g, 1)
    d0_stages = [stage.cocycles_only() for stage in h1_stages]
    _, d0_lim = ext_limit_at_degree(
        tower, M, g, 1, "colim Hom(a^n, module)", stages=d0_stages
    )
    _, h1_lim = ext_limit_at_degree(
        tower, M, g, 1, "colim Ext^1(R/a^n, module)", stages=h1_stages
    )
    last_stage_d0 = d0_stages[-1]
    last_stage_h1 = h1_stages[-1]
    d0_dim, h1_dim = d0_lim.limit_dim, h1_lim.limit_dim

    # insertion: v in M_g goes to the hom sending each generator m of the
    # top stage a^[n] to m*v, which is column v of that stage's d^0
    cx = tower.complexes[-1]
    top_d0 = cx.diffs[1].hom(M, g) if cx.top >= 1 else Mat.zero(0, mg)
    ins_cols = [
        d0_lim.express(last_stage_d0.subquotient.express(col))
        for col in top_d0.cols
    ]
    ins = Mat.from_columns(ins_cols, d0_dim)

    # residual: a transform class, given by a cocycle in the last stage,
    # maps to its cohomology class
    res_cols = []
    for b in d0_lim.basis:
        ambient = last_stage_d0.subquotient.lift(b)
        h1_stage_coords = last_stage_h1.subquotient.express(ambient)
        res_cols.append(h1_lim.express(h1_stage_coords))
    res = Mat.from_columns(res_cols, h1_dim)

    kernel = nullspace(ins)
    kernel_matches = spans_equal(kernel, gamma_basis, mg)
    res_rank = rank(res)
    residual_surjective = res_rank == h1_dim
    comp = res.mul(ins)
    composite_zero = comp.is_zero()
    ins_rank = mg - len(kernel)  # rank-nullity over the mg columns of ins
    exact_at_transform = ins_rank == d0_dim - res_rank
    gamma_dim = len(gamma_basis)
    alternating = gamma_dim - mg + d0_dim - h1_dim == 0
    h1_cech = cech.cohomology_dim(1)

    return DegreeRow(
        degree=g,
        gamma=gamma_dim,
        module=mg,
        d0=d0_dim,
        h1=h1_dim,
        kernel_matches_torsion=kernel_matches,
        residual_surjective=residual_surjective,
        composite_zero=composite_zero,
        exact_at_transform=exact_at_transform,
        alternating_sum_zero=alternating,
        h1_routes_agree=h1_dim == h1_cech,
    )
