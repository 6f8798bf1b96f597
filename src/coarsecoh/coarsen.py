"""Coarsening of gradings along a surjection of degree groups.

A coarsening sends a G-graded object to the same underlying object graded
by H through an epimorphism psi: G -> H; the coarse component at h
collects every fine component over the fiber of h.  Rings, ideals, and
presented modules coarsen by mapping their structural degrees through
psi, and the coarse ring needs its own positivity certificate, derived
here by a small deterministic search when one is not supplied.

The delicate operation is coarsening a *table* of dimensions: the fiber
of h is usually infinite, so summing the finitely many window entries is
only correct when everything outside the window is certified to vanish.
Three certificates are accepted, tried in this order:

  1. finite kernel: the fiber of each h is a coset of ker(psi); when the
     kernel is finite and the fine window already meets the fiber in
     |ker(psi)| degrees, the fiber has been seen in full;
  2. support generators: tables that carry the generator degrees of a
     module containing their support (Hilbert, torsion, Hom tables)
     admit an enumeration of every fine degree over h where the module
     can be nonzero, and each of those must lie in the fine window;
  3. an explicit assumption by the caller (assume_support_covered).

When no route applies the operation refuses (CoarseningRefusal) instead
of reporting a silently truncated sum.

Commutation checks compare the coarsened fine table of a graded functor
against the same functor evaluated on the coarsened input.  Both sides
use the bracket-power tower route, whose stages are finite-dimensional
for every grading; mismatch witnesses report degree and both values.
The helper check_gamma_identity performs the torsion-submodule comparison
at the element level (pushing actual basis vectors, not just dimensions),
and hom_comparison does the same for graded-Hom components, reporting
injectivity and surjectivity of the canonical comparison map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CoarseningRefusal, UnstabilizedError
from .grading import Degree, DegreeWindow, GroupEpimorphism
from .homres import GradedHomSpace, PowerTower, tower_ext_table
from .linalg import N_CAP, Mat, rank, spans_equal
from .localcoh import torsion_basis
from .ringcore import (
    ComponentSpace,
    GradedModulePresentation,
    GradedPolynomialRing,
    HilbertTable,
    MonomialIdeal,
)

WEIGHT_GRID_LIMIT = 9**5  # weights tried: the whole grid up to coarse free rank 5


def derive_coarse_certificate(
    ring: GradedPolynomialRing, psi: GroupEpimorphism
) -> tuple[int, ...]:
    """Find an integer weight vector w on the target group with
    w . free(psi(deg x_i)) > 0 for every variable.

    Tries the sign pattern of the summed coarse variable degrees first,
    then the first WEIGHT_GRID_LIMIT weights of a lazily generated grid
    with entries up to 4 in absolute value, smallest maximum entry first,
    then lexicographically.  Raises when nothing works; the caller should
    then supply an explicit certificate.
    """
    frees = [psi.apply(d).free for d in ring.var_degrees]
    r = psi.target.free_rank
    if not frees:
        return (0,) * r

    def works(w) -> bool:
        return all(sum(a * b for a, b in zip(w, f)) > 0 for f in frees)

    sums = [sum(f[k] for f in frees) for k in range(r)]
    candidate = tuple(1 if s >= 0 else -1 for s in sums)
    if works(candidate):
        return candidate
    grid = (
        w
        for m in range(5)
        for w in itertools.product(range(-m, m + 1), repeat=r)
        if max(map(abs, w), default=0) == m
    )
    for w in itertools.islice(grid, WEIGHT_GRID_LIMIT):
        if works(w):
            return w
    raise ValueError(
        "no positive weight vector found for the coarse grading; supply one in "
        "the scenario's coarse { certificate = (...) } block or as coarse_certificate"
    )


def coarsen_ring(
    ring: GradedPolynomialRing,
    psi: GroupEpimorphism,
    coarse_certificate: tuple[int, ...] | None = None,
) -> GradedPolynomialRing:
    if psi.source != ring.group:
        raise ValueError("the map does not start at the ring's degree group")
    degrees = [psi.apply(d) for d in ring.var_degrees]
    cert = (
        tuple(coarse_certificate)
        if coarse_certificate is not None
        else derive_coarse_certificate(ring, psi)
    )
    return GradedPolynomialRing(psi.target, ring.var_names, degrees, cert)


def coarsen_ideal(
    ideal: MonomialIdeal, coarse_ring: GradedPolynomialRing
) -> MonomialIdeal:
    return MonomialIdeal(coarse_ring, list(ideal.gens))


def coarsen_module(
    M: GradedModulePresentation,
    coarse_ring: GradedPolynomialRing,
    psi: GroupEpimorphism,
) -> GradedModulePresentation:
    gens = [psi.apply(d) for d in M.gen_degrees]
    return GradedModulePresentation(coarse_ring, gens, M.relation_map.columns)


@dataclass
class CoarseningCertificate:
    """How a fiber sum was certified complete."""

    route: str  # "finite-kernel" | "support-generators" | "assumed"
    note: str


def _uncovered_support(
    table: HilbertTable,
    psi: GroupEpimorphism,
    hwindow: DegreeWindow,
    fine_ring: GradedPolynomialRing,
    coarse_ring: GradedPolynomialRing,
):
    """First (h, fine degree) where the table's module might be nonzero
    over h outside the fine window, or None when fully covered."""
    for h in hwindow:
        for d in table.support_gens:
            c = h - psi.apply(d)
            for mono in coarse_ring.monomials_of_degree(c):
                e = d + fine_ring.monomial_degree(mono)
                if e not in table.window:
                    return h, e
    return None


def _fibers(
    psi: GroupEpimorphism, gwindow: DegreeWindow, hwindow: DegreeWindow
) -> dict[Degree, list[Degree]]:
    """The fine window grouped by image under psi, each fiber in window
    order: psi is applied once to each fine degree, not once per coarse
    degree.  The coarse window must lie in the target group."""
    if hwindow.group != psi.target:
        raise ValueError("target degree outside the target group")
    fibers: dict[Degree, list[Degree]] = {}
    for g in gwindow:
        fibers.setdefault(psi.apply(g), []).append(g)
    return fibers


def coarsen_table(
    table: HilbertTable,
    psi: GroupEpimorphism,
    hwindow: DegreeWindow,
    fine_ring: GradedPolynomialRing,
    coarse_ring: GradedPolynomialRing,
    assume_support_covered: bool = False,
) -> tuple[HilbertTable, CoarseningCertificate]:
    """Sum a fine dimension table along the fibers of psi.

    The sum runs over the fiber intersected with the table's window; the
    certificate establishes that nothing was missed (see the module
    docstring for the three routes).  The support route enumerates
    monomials, so both the fine ring and the coarse ring are required."""
    fibers = _fibers(psi, table.window, hwindow)
    values = {h: sum(table.get(g) for g in fibers.get(h, ())) for h in hwindow}
    support = (
        None
        if table.support_gens is None
        else [psi.apply(d) for d in table.support_gens]
    )
    out = HilbertTable(hwindow, values, support_gens=support)

    reasons = []
    failed_h = None
    if psi.kernel_is_finite():
        ker = psi.kernel_elements()
        bad = [h for h in hwindow if len(fibers.get(h, ())) != len(ker)]
        if not bad:
            note = "every fiber meets the fine window in %d degrees" % len(ker)
            return out, CoarseningCertificate("finite-kernel", note)
        failed_h = bad[0]
        reasons.append(
            "the fiber meets the fine window in %d degrees "
            "but the kernel has %d elements"
            % (len(fibers.get(bad[0], ())), len(ker))
        )
    else:
        reasons.append("the kernel of the coarsening map is infinite")

    if table.support_gens is None:
        reasons.append("the table carries no generator-degree support data")
    else:
        miss = _uncovered_support(table, psi, hwindow, fine_ring, coarse_ring)
        if miss is None:
            note = "possible support over the coarse window lies inside the fine window"
            return out, CoarseningCertificate("support-generators", note)
        failed_h = miss[0]
        reasons.append(
            "possible support at fine degree %s lies outside the fine window"
            % (miss[1],)
        )

    if assume_support_covered:
        return out, CoarseningCertificate(
            "assumed", "caller asserted the fine window covers the support"
        )
    raise CoarseningRefusal(
        failed_h,
        "; ".join(reasons)
        + " (enlarge the fine window or pass assume_support_covered)",
    )


# ---------------------------------------------------------------------------
# Element-level pushforwards.
# ---------------------------------------------------------------------------


def _push_component_vector(
    fine_comp: ComponentSpace, coarse_comp: ComponentSpace, coords: dict
) -> dict:
    """Image in the coarse component of a fine component class, using the
    shared (generator, monomial) labels of the free covers."""
    labels = fine_comp.labels
    return coarse_comp.reduce(
        {
            coarse_comp.index_of(labels[i]): x
            for i, x in fine_comp.lift(coords).items()
        }
    )


@dataclass
class GammaIdentityRow:
    h: Degree
    fine_total: int
    coarse_dim: int
    spans_agree: bool


@dataclass
class GammaIdentityReport:
    rows: list[GammaIdentityRow]
    ok: bool


def check_gamma_identity(
    ideal: MonomialIdeal,
    M: GradedModulePresentation,
    psi: GroupEpimorphism,
    gwindow: DegreeWindow,
    hwindow: DegreeWindow,
    n_cap: int = N_CAP,
    coarse_certificate: tuple[int, ...] | None = None,
) -> GammaIdentityReport:
    """Compare the coarsened torsion submodule with the torsion submodule
    of the coarsened module, as subspaces of the coarse components.

    This is an element-level check: the fine torsion bases are pushed
    through the label identification and their span is compared with the
    coarse torsion basis (rank A == rank B == rank of the stack)."""
    fibers = _fibers(psi, gwindow, hwindow)
    Rc = coarsen_ring(M.ring, psi, coarse_certificate)
    Mc = coarsen_module(M, Rc, psi)
    # every fine basis first: a fine degree over no h can refuse too
    tower = PowerTower(ideal, n_cap, max_position=1)
    fine = {g: torsion_basis(tower, M, g) for g in gwindow}
    tower = PowerTower(coarsen_ideal(ideal, Rc), n_cap, max_position=1)
    coarse = {h: torsion_basis(tower, Mc, h) for h in hwindow}
    rows = []
    for h in hwindow:
        pushed = [
            _push_component_vector(M.component(g), Mc.component(h), vec)
            for g in fibers.get(h, ())
            for vec in fine[g]
        ]
        agree = spans_equal(pushed, coarse[h], Mc.dim(h))
        rows.append(GammaIdentityRow(h, len(pushed), len(coarse[h]), agree))
    return GammaIdentityReport(rows, all(r.spans_agree for r in rows))


@dataclass
class HomComparisonRow:
    h: Degree
    fine_total: int
    coarse_dim: int
    injective: bool
    surjective: bool


def hom_comparison(
    M: GradedModulePresentation,
    N: GradedModulePresentation,
    psi: GroupEpimorphism,
    gwindow: DegreeWindow,
    hwindow: DegreeWindow,
    coarse_certificate: tuple[int, ...] | None = None,
) -> list[HomComparisonRow]:
    """Canonical map from the coarsened graded-Hom components into the
    graded Hom of the coarsened modules, one row per coarse degree.

    Each fine homogeneous hom is literally a coarse homogeneous hom; the
    check pushes the fine basis homs into coarse coordinates and reads
    injectivity and surjectivity off ranks."""
    fibers = _fibers(psi, gwindow, hwindow)
    Rc = coarsen_ring(M.ring, psi, coarse_certificate)
    Mc = coarsen_module(M, Rc, psi)
    Nc = coarsen_module(N, Rc, psi)
    rows = []
    for h in hwindow:
        coarse = GradedHomSpace(Mc, Nc, h)
        ambient = sum(coarse.block_dims)
        pushed = []
        total = 0
        for g in fibers.get(h, ()):
            fine = GradedHomSpace(M, N, g)
            total += fine.dim
            for k in range(fine.dim):
                vec = {}
                ofs = 0
                for j, image in enumerate(fine.generator_images(k)):
                    if image:  # an empty block's components are never built
                        dj = M.gen_degrees[j]
                        comp_f = N.component(g + dj)
                        comp_c = Nc.component(h + psi.apply(dj))
                        image = _push_component_vector(comp_f, comp_c, image)
                        vec.update((ofs + i, x) for i, x in image.items())
                    ofs += coarse.block_dims[j]
                pushed.append(vec)
        injective = rank(Mat.from_columns(pushed, ambient)) == total
        surjective = spans_equal(pushed, coarse.basis, ambient)
        rows.append(HomComparisonRow(h, total, coarse.dim, injective, surjective))
    return rows


# ---------------------------------------------------------------------------
# Commutation of local cohomology with coarsening.
# ---------------------------------------------------------------------------


def compare_tables(coarsened: HilbertTable, coarse: HilbertTable):
    """Entrywise comparison; witnesses list every disagreeing degree."""
    if coarsened.window != coarse.window:
        raise ValueError("tables live on different windows")
    witnesses = []
    for h in coarsened.window:
        a, b = coarsened.get(h), coarse.get(h)
        if a != b:
            witnesses.append({"degree": str(h), "coarsened": a, "coarse": b})
    return not witnesses, witnesses


@dataclass
class CommutationEntry:
    """One i of a commutation check; a single disagreeing degree makes
    agree False and is recorded as a witness."""

    i: int
    coarsened: HilbertTable
    coarse: HilbertTable
    cert: CoarseningCertificate
    agree: bool = field(init=False)
    witnesses: list[dict] = field(init=False)

    def __post_init__(self):
        self.agree, self.witnesses = compare_tables(self.coarsened, self.coarse)


@dataclass
class CommutationReport:
    n_cap: int
    entries: list[CommutationEntry]
    unstable: dict | None = None

    @property
    def verdict(self) -> str:
        """An `unstable` record wins over everything else; then any
        disagreeing entry makes the verdict FAILS."""
        if self.unstable is not None:
            return "UNSTABILIZED"
        if any(not e.agree for e in self.entries):
            return "FAILS"
        return "COMMUTES_ON_WINDOW"

    def to_json_dict(self) -> dict:
        out = {
            "verdict": self.verdict,
            "n_cap": self.n_cap,
            "entries": [
                {
                    "i": e.i,
                    "agree": e.agree,
                    "certificate": {"route": e.cert.route, "note": e.cert.note},
                    "coarsened": {str(h): e.coarsened.get(h) for h in e.coarsened.window},
                    "coarse": {str(h): e.coarse.get(h) for h in e.coarse.window},
                    "witnesses": e.witnesses,
                }
                for e in self.entries
            ],
        }
        if self.unstable is not None:
            out["unstable"] = self.unstable
        return out


def check_commutation(
    ideal: MonomialIdeal,
    M: GradedModulePresentation,
    psi: GroupEpimorphism,
    degrees_i,
    gwindow: DegreeWindow,
    hwindow: DegreeWindow,
    n_cap: int = N_CAP,
    assume_support_covered: bool = False,
    coarse_certificate: tuple[int, ...] | None = None,
) -> CommutationReport:
    """Check H^i(coarsened) == coarsened H^i on the window for each i.

    For each i both sides of the commutation square are computed: the fine
    table summed along fibers, with its fiber-sum certificate, and the
    table of the coarsened data.  The data is coarsened once, and each side
    builds one bracket-power tower reaching position max(i)+1, so every i
    shares the towers and the modules' component and multiplication caches.
    UnstabilizedError turns into an UNSTABILIZED verdict; a fiber-sum
    refusal propagates (the caller decides how to surface it)."""
    Rc = coarsen_ring(M.ring, psi, coarse_certificate)
    Mc = coarsen_module(M, Rc, psi)
    top = max([0, *degrees_i]) + 1
    fine_tower = PowerTower(ideal, n_cap, max_position=top)
    coarse_tower = PowerTower(coarsen_ideal(ideal, Rc), n_cap, max_position=top)
    entries = []
    unstable = None
    for i in degrees_i:
        try:
            fine_table = tower_ext_table(i, fine_tower, M, gwindow)
            coarsened, cert = coarsen_table(
                fine_table,
                psi,
                hwindow,
                fine_ring=M.ring,
                coarse_ring=Rc,
                assume_support_covered=assume_support_covered,
            )
            coarse = tower_ext_table(i, coarse_tower, Mc, hwindow)
        except UnstabilizedError as err:
            unstable = {"i": i, **err.payload()}
            break
        entries.append(CommutationEntry(i, coarsened, coarse, cert))
    return CommutationReport(n_cap, entries, unstable)
