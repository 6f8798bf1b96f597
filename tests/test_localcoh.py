from __future__ import annotations

import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarsecoh import homres, localcoh
from coarsecoh.errors import UnstabilizedError
from coarsecoh.grading import DegreeGroup, DegreeWindow
from coarsecoh.homres import (
    PowerTower,
    colim_ext_table,
    ext_limit_at_degree,
    ext_stages,
    ext_subquotient,
)
from coarsecoh.linalg import N_CAP, Mat, cap_problem, nullspace, rank, spans_equal
from coarsecoh.localcoh import (
    CechAtDegree,
    CechComplex,
    cech_table,
    check_transform_sequence,
    ideal_transform,
    local_cohomology,
    torsion_basis,
    torsion_submodule,
)
from coarsecoh.ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    MonomialIdeal,
    Poly,
)
from coarsecoh.scenario import parse_scenario

from helpers import (
    Z1,
    Z2,
    fine_ring_xy,
    maximal_ideal,
    quotient_module,
    ring_x,
    std_ring_xy,
    window1,
    window2,
)

# ---------------------------------------------------------------------------
# Oracles.  These are independent of the package machinery: they count
# Laurent monomials directly from the structure of the localizations.
# ---------------------------------------------------------------------------


def oracle_h1_line(g: int) -> int:
    """H^1 supported at (x) of K[x]: the cokernel of K[x]_g inside the
    Laurent line K[x, 1/x]_g.  The Laurent component is always a line and
    the image fills it exactly when g >= 0."""
    return 1 if g <= -1 else 0


def oracle_h_fine_plane(i: int, a: int, b: int) -> int:
    """Local cohomology at (x,y) of K[x,y] with the fine Z^2 grading, by
    explicit case analysis of the subset complex on Laurent monomials.

    At bidegree (a,b): the ring contributes iff a,b >= 0; the x-inverted
    piece iff b >= 0; the y-inverted piece iff a >= 0; the fully inverted
    piece always.  Checking the four sign cases kills positions 0 and 1
    and leaves a line at position 2 exactly in the negative quadrant.
    """
    if i == 2:
        return 1 if a <= -1 and b <= -1 else 0
    return 0


def oracle_h_std_plane(i: int, g: int) -> int:
    """Same computation for the standard Z grading: the fiber count of
    oracle_h_fine_plane over total degree g."""
    return sum(oracle_h_fine_plane(i, a, g - a) for a in range(-50, 50))


def oracle_h1_mod_xsq(g: int) -> int:
    """H^1 at (x,y) of K[x,y]/(x^2), standard grading.  Only the
    y-inverted localization survives (x is nilpotent there after inverting
    x, and inverting both kills everything), so H^1 is its cokernel:
    monomials x^a y^b with a in {0,1}, b < 0, a + b = g."""
    return (1 if g <= -1 else 0) + (1 if g <= 0 else 0)


def test_oracle_std_plane_sanity():
    assert [oracle_h_std_plane(2, g) for g in range(-4, 1)] == [3, 2, 1, 0, 0]


# ---------------------------------------------------------------------------
# Localization-route tables against the oracles.
# ---------------------------------------------------------------------------


def test_h1_line_cech_matches_oracle():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = cech_table(a, 1, F, window1(-6, 2), ray_cap=10)
    for g in range(-6, 3):
        assert t.get(Z1.degree((g,))) == oracle_h1_line(g)


def test_h1_line_ext_route_matches_oracle():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = local_cohomology(a, 1, F, window1(-6, 2), route="ext", n_cap=9)
    for g in range(-6, 3):
        assert t.get(Z1.degree((g,))) == oracle_h1_line(g)


def test_h2_fine_plane_both_routes_match_oracle():
    R = fine_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    w = window2((-2, -2), (0, 0))
    cech = local_cohomology(m, 2, F, w, route="cech", ray_cap=8)
    ext = local_cohomology(m, 2, F, w, route="ext", n_cap=6)
    for g in w:
        a, b = g.free
        assert cech.get(g) == oracle_h_fine_plane(2, a, b)
        assert ext.get(g) == oracle_h_fine_plane(2, a, b)


def test_h0_and_h1_vanish_on_fine_plane():
    R = fine_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    w = window2((-2, -2), (1, 1))
    assert cech_table(m, 0, F, w).total() == 0
    assert cech_table(m, 1, F, w).total() == 0


def test_h2_std_plane_matches_oracle():
    # the y-inverted localization of the standard-graded plane has
    # infinite-dimensional degree components, so the subset-complex route
    # is out of reach here and the table comes from the power tower
    R = std_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = local_cohomology(m, 2, F, window1(-4, 0), route="ext", n_cap=6)
    assert [v for _, v in t.rows()] == [3, 2, 1, 0, 0]


def test_cech_refuses_infinite_dimensional_ray():
    R = std_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z1.zero()])
    with pytest.raises(UnstabilizedError):
        cech_table(m, 2, F, window1(-4, -4))


def test_cech_radical_invariance():
    # generator sets with the same radical give the same tables
    R = fine_ring_xy()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    w = window2((-2, -2), (0, 0))
    base = cech_table(
        MonomialIdeal(R, [R.mono(x=1), R.mono(y=1)]), 2, F, w, ray_cap=10
    )
    squared = cech_table(
        MonomialIdeal(R, [R.mono(x=2), R.mono(y=1)]), 2, F, w, ray_cap=10
    )
    both = cech_table(
        MonomialIdeal(R, [R.mono(x=2), R.mono(y=2)]), 2, F, w, ray_cap=10
    )
    assert base == squared == both


def test_cech_radical_invariance_on_quotient():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    w = window1(-3, 0)
    base = cech_table(
        MonomialIdeal(R, [R.mono(x=1), R.mono(y=1)]), 1, M, w, ray_cap=10
    )
    squared = cech_table(
        MonomialIdeal(R, [R.mono(x=2), R.mono(y=1)]), 1, M, w, ray_cap=10
    )
    assert base == squared
    for g in range(-3, 1):
        assert base.get(Z1.degree((g,))) == oracle_h1_mod_xsq(g)


def test_h1_of_nilpotent_quotient_both_routes():
    R = std_ring_xy()
    m = maximal_ideal(R)
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    w = window1(-3, 1)
    cech = local_cohomology(m, 1, M, w, route="cech")
    ext = local_cohomology(m, 1, M, w, route="ext", n_cap=8)
    for g in range(-3, 2):
        d = Z1.degree((g,))
        assert cech.get(d) == oracle_h1_mod_xsq(g)
        assert ext.get(d) == oracle_h1_mod_xsq(g)


# ---------------------------------------------------------------------------
# Torsion submodules.
# ---------------------------------------------------------------------------


def test_torsion_of_truncated_line():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=3)]))
    data = torsion_submodule(a, M, window1(0, 3), n_cap=6)
    assert [v for _, v in data.rows()] == [1, 1, 1, 0]
    assert data.global_index == 3
    assert data.stabilized_at[Z1.degree((0,))] == 3
    assert data.stabilized_at[Z1.degree((2,))] == 1


def test_torsion_of_free_module_is_zero():
    R = std_ring_xy()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    data = torsion_submodule(maximal_ideal(R), F, window1(-2, 3))
    assert data.total() == 0


def test_torsion_with_zero_ideal_is_everything():
    R = ring_x()
    M = GradedModulePresentation.free(R, [Z1.zero()])
    data = torsion_submodule(MonomialIdeal(R, []), M, window1(0, 2))
    assert [v for _, v in data.rows()] == [1, 1, 1]


def test_gamma_three_routes_agree():
    R = std_ring_xy()
    m = maximal_ideal(R)
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    )
    w = window1(0, 3)
    torsion = torsion_submodule(m, M, w)
    cech = cech_table(m, 0, M, w)
    tower = colim_ext_table(0, m, M, w, n_cap=6)
    assert torsion.values == cech.values == tower.values
    assert torsion.stabilized_at == tower.stabilized_at
    assert [v for _, v in torsion.rows()] == [0, 1, 0, 0]


def test_h0_basis_is_the_torsion_basis():
    R = std_ring_xy()
    m = maximal_ideal(R)
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    )
    g = Z1.degree((1,))
    cech = CechAtDegree(CechComplex(m.gens, R, 8), M, g)
    h0 = nullspace(cech.matrices[0])  # the position-zero model is M_g itself
    gamma = torsion_basis(PowerTower(m, N_CAP, max_position=1), M, g)
    assert spans_equal(h0, gamma, M.dim(g))
    # and the class in M_1 is x, not y: basis order is (y, x)
    assert spans_equal(h0, [{1: Fraction(1)}], M.dim(g))


@st.composite
def monomial_quotients(draw, min_gens=0):
    """R/I with a monomial ideal a: 1-3 variables under the fine Z^n or the
    standard Z grading, exponents of the generators of I and a at most 2,
    a window [-1,1]^r and a tower cap n_cap.

    The number of minimal generators of a is drawn first, uniformly from
    min_gens..3, so 2-3 generators come up as often as 0-1.  The
    generators are any nonzero exponent vectors, kept when none divides
    another, so every such ideal can be drawn.  Two or three of them in
    few variables seldom are, so half of those draws make a staircase
    instead: the exponent of one variable falls strictly while that of
    another rises strictly."""
    count = draw(st.integers(min_gens, 3))
    n = draw(st.integers(2 if count >= 2 else 1, 3))
    r = n if draw(st.booleans()) else 1
    G = DegreeGroup(r)
    degrees = [G.degree([int(r == 1 or k == i) for k in range(r)]) for i in range(n)]
    R = GradedPolynomialRing(G, ["x%d" % i for i in range(n)], degrees, (1,) * r)
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    ideal_of = lambda gens: MonomialIdeal(R, [tuple(e) for e in gens])
    M = GradedModulePresentation.quotient_by_ideal(
        ideal_of(draw(st.lists(exponents.filter(any), max_size=3)))
    )
    if count >= 2 and draw(st.booleans()):
        u, v = draw(st.permutations(range(n)))[:2]
        steps = st.sets(st.integers(0, 2), min_size=count, max_size=count)
        falls, rises = sorted(draw(steps), reverse=True), sorted(draw(steps))
        gens = [draw(exponents) for _ in range(count)]
        for e, f, g in zip(gens, falls, rises):
            e[u], e[v] = f, g
    else:
        gens = draw(st.lists(exponents.filter(any), min_size=count, max_size=count))
    a = ideal_of(gens)
    assume(len(a.gens) == count)
    window = DegreeWindow.box(G, (-1,) * r, (1,) * r)
    return a, M, window, draw(st.integers(2, 7))


def _stacked_multiplication_kernel(a, M, g, n):
    """Kernel in M_g of multiplication by the generators of a^[n], stacked
    in generator order; everything when a is zero."""
    mg = M.dim(g)
    mults = [
        M.multiplication_matrix(
            Poly.monomial(mono), g, g + M.ring.monomial_degree(mono)
        )
        for mono in a.bracket_power(n).gens
    ]
    if not mults:
        return Mat.identity(mg).cols
    return nullspace(Mat.block([m.nrows for m in mults], [mg], lambda i, _: mults[i]))


@settings(max_examples=25, deadline=None, database=None)
@given(monomial_quotients())
def test_torsion_is_the_stacked_kernel_and_the_cech_h0(case):
    a, M, window, n_cap = case
    tower = PowerTower(a, n_cap, max_position=1)
    for g in window:
        try:
            torsion = torsion_submodule(a, M, DegreeWindow(window.group, [g]), n_cap)
        except UnstabilizedError:
            continue
        basis = torsion_basis(tower, M, g)
        assert basis == _stacked_multiplication_kernel(a, M, g, n_cap)
        try:
            h0 = CechAtDegree(CechComplex(a.gens, M.ring, 8, (0,)), M, g).cohomology_dim(0)
        except UnstabilizedError:
            continue
        assert torsion.get(g) == h0
    report = check_transform_sequence(a, M, window, n_cap=n_cap, ray_cap=8)
    assert report.verdict != "FAILS", report.to_json_dict()


@settings(max_examples=20, deadline=None, database=None)
@given(monomial_quotients(min_gens=2), st.data())
def test_cech_built_at_one_position_agrees_with_the_full_build(case, data):
    a, M, window, _ = case
    g = data.draw(st.sampled_from(list(window)))
    try:
        full = CechAtDegree(CechComplex(a.gens, M.ring, 5), M, g)
    except UnstabilizedError:
        return
    for i in range(len(a.gens) + 2):
        one = CechAtDegree(CechComplex(a.gens, M.ring, 5, (i,)), M, g)
        assert one.cohomology_dim(i) == full.cohomology_dim(i)


@settings(max_examples=30, deadline=None, database=None)
@given(monomial_quotients(), st.data())
def test_multiplication_into_or_out_of_an_empty_component_is_zero(case, data):
    # the Cech rays and the tower transitions never ask for these maps
    # (DirectedLimit asks only for steps between nonempty stages); asked
    # anyway, they are Mat.zero of their shape
    a, M, window, _ = case
    R = M.ring
    f = Poly.monomial(data.draw(st.sampled_from(a.gens or (R.one(),))))
    fd = R.poly_degree(f)
    for g in window:
        for h in (g, g - fd):
            src, tgt = M.dim(h), M.dim(h + fd)
            if src == 0 or tgt == 0:
                assert M.multiplication_matrix(f, h, h + fd) == Mat.zero(tgt, src)


ROOT = Path(__file__).resolve().parents[1]


def _empty_sided(M):
    return [k for k, mat in M._mult_cache.items() if not (mat.nrows and mat.ncols)]


def _label_free(M):
    return [g for g, comp in M._components.items() if not comp.labels]


def test_cech_builds_no_map_into_or_out_of_an_empty_component():
    s = parse_scenario((ROOT / "perfbench/scenarios/fine3q.scn").read_text())
    cech_table(s.ideal, 2, s.module, s.gwindow, s.ray_cap)
    assert s.module._mult_cache
    assert _empty_sided(s.module) == []


def test_ext_towers_build_no_map_into_or_out_of_an_empty_component():
    s = parse_scenario((ROOT / "scenarios/mixed-plane.scn").read_text())
    for i in (0, 1, 2):
        colim_ext_table(i, s.ideal, s.module, s.gwindow, s.n_cap)
    assert s.module._mult_cache
    assert _empty_sided(s.module) == []
    assert _label_free(s.module) == []


@pytest.mark.parametrize(
    "path, i",
    [
        ("perfbench/scenarios/fine3.scn", 3),
        ("perfbench/scenarios/fine3q.scn", 1),
        ("perfbench/scenarios/fine3q.scn", 2),
    ],
)
def test_cech_builds_no_component_and_no_zero_map_for_an_empty_degree(
    path, i, monkeypatch
):
    # most degrees of the fine Z^3 grading are empty, and most rays are
    # zero at every stage: dim reads them without a component, and the
    # ray's limit is certified from its dimensions without a transition.
    # A ray reads no stage below its runway, and each subset's deg f_S is
    # computed once per table, not once per degree.
    s = parse_scenario((ROOT / path).read_text())
    M, ring, gens = s.module, s.module.ring, s.ideal.gens
    zero_maps, reads, degree_calls = [], set(), []
    real_zero = Mat.zero
    real_dim = GradedModulePresentation.dim
    real_degree = GradedPolynomialRing.monomial_degree

    def counting_zero(nrows, ncols):
        zero_maps.append((nrows, ncols))
        return real_zero(nrows, ncols)

    def spying_dim(self, h):
        reads.add(h)
        return real_dim(self, h)

    def spying_degree(self, m):
        degree_calls.append(m)
        return real_degree(self, m)

    monkeypatch.setattr(Mat, "zero", staticmethod(counting_zero))
    monkeypatch.setattr(GradedModulePresentation, "dim", spying_dim)
    monkeypatch.setattr(GradedPolynomialRing, "monomial_degree", spying_degree)
    cech_table(s.ideal, i, M, s.gwindow, s.ray_cap)
    assert M._components
    assert _label_free(M) == []
    assert zero_maps == []
    assert len(degree_calls) == len(set(degree_calls)) <= 2 ** len(gens)
    assert reads
    for r in range(len(gens) + 1):
        for S in itertools.combinations(gens, r):
            d_S = real_degree(ring, tuple(map(sum, zip(ring.one(), *S))))
            for g in s.gwindow:
                first = M.runway(g, d_S, s.ray_cap)
                assert not reads & {g + d_S.scale(k) for k in range(first)}


# ---------------------------------------------------------------------------
# Torsion counted from the top stage: an injective prefix of the top
# stage's d^0 makes every stage 0.
# ---------------------------------------------------------------------------


def _counts(stages):
    return [(s.n, s.cocycle_dim, s.dim) for s in stages]


def _assert_top_count_is_the_full_count(a, M, window, n_cap):
    """On fresh towers, ext_stages at position 0 and the ranks it leaves in
    the memos agree with every stage counted by ext_subquotient and
    cochain_rank, and torsion_submodule certifies what the full count
    certifies, or refuses as it does."""
    top, full = PowerTower(a, n_cap, 1), PowerTower(a, n_cap, 1)
    for g in window:
        stages = ext_stages(top, M, g, 0)
        counted = [ext_subquotient(cx, M, g, 0) for cx in full.complexes]
        assert _counts(stages) == _counts(counted)
        for cx, ref in zip(top.complexes, full.complexes):
            if (M, g, 0) in cx._ranks:
                assert cx._ranks[M, g, 0] == ref.cochain_rank(M, g, 0)[0]
        one = DegreeWindow(window.group, [g])
        try:
            _, lim = ext_limit_at_degree(full, M, g, 0, "torsion submodule", counted)
        except UnstabilizedError as err:
            with pytest.raises(UnstabilizedError) as again:
                torsion_submodule(a, M, one, n_cap)
            assert again.value.payload() == err.payload()
            continue
        table = torsion_submodule(a, M, one, n_cap)
        assert table.get(g) == lim.limit_dim
        assert table.stabilized_at[g] == lim.stabilized_at


@settings(max_examples=40, deadline=None, database=None)
@given(monomial_quotients())
def test_torsion_counted_from_the_top_stage_is_the_full_count(case):
    _assert_top_count_is_the_full_count(*case)


def test_torsion_counted_from_the_top_stage_is_the_full_count_on_tor3():
    # non-monomial relations over Z + Z/3
    s = parse_scenario((ROOT / "perfbench/scenarios/tor3.scn").read_text())
    _assert_top_count_is_the_full_count(s.ideal, s.module, s.gwindow, s.n_cap)


def _multiplications(monkeypatch):
    """Every multiplication_matrix request, as the string of its f."""
    asked = []
    real = GradedModulePresentation.multiplication_matrix

    def recording(self, f, g, target):
        asked.append(self.ring.poly_str(f))
        return real(self, f, g, target)

    monkeypatch.setattr(GradedModulePresentation, "multiplication_matrix", recording)
    return asked


def test_two_blocks_of_the_top_stage_are_injective_where_neither_is(monkeypatch):
    # in K[x,y]/(xy) at degree 1, x^n kills y and y^n kills x, so each
    # block of the top stage's d^0 has a kernel but the stack of both has none
    R = std_ring_xy()
    M = quotient_module(R, {"x": 1, "y": 1})
    g = Z1.degree((1,))
    asked = _multiplications(monkeypatch)
    tower = PowerTower(maximal_ideal(R), N_CAP, max_position=1)
    stages = ext_stages(tower, M, g, 0)
    assert _counts(stages) == [(2, 0, 0)] * N_CAP
    assert [cx._ranks[M, g, 0] for cx in tower.complexes] == [2] * N_CAP
    # the top stage's two blocks, y^cap first (generator order), and no
    # block of a lower stage
    assert asked == ["y^%d" % N_CAP, "x^%d" % N_CAP]
    for f in (R.mono(x=N_CAP), R.mono(y=N_CAP)):
        target = g + R.monomial_degree(f)
        assert rank(M.multiplication_matrix(Poly.monomial(f), g, target)) == 1


def test_the_top_stage_ranks_its_lightest_block_first(monkeypatch):
    # K[x,y] with deg x = 1, deg y = 2, a = (x, y) and M = S/(y): y is
    # generator 0 and acts as zero on M, but x^cap, whose target is the
    # lighter, is injective at degree 0 and is the one block built
    R = GradedPolynomialRing(
        Z1, ("x", "y"), (Z1.degree((1,)), Z1.degree((2,))), (1,)
    )
    a = MonomialIdeal(R, [R.mono(x=1), R.mono(y=1)])
    assert a.gens[0] == R.mono(y=1)
    M = quotient_module(R, {"y": 1})
    tower = PowerTower(a, N_CAP, max_position=1)
    asked = _multiplications(monkeypatch)
    assert homres._injective_top(tower, M, Z1.zero())
    assert asked == ["x^%d" % N_CAP]


def test_torsion_is_counted_in_full_only_where_the_top_stage_kills(monkeypatch):
    # K[x,y]/(x^2, xy) with a = m: x in degree 1 is killed by x and y, so
    # only degree 1 is counted stage by stage; y^cap is injective at 0, 2, 3
    R = std_ring_xy()
    M = quotient_module(R, {"x": 2}, {"x": 1, "y": 1})
    full = []
    real = homres.ext_subquotient

    def recording(cx, N, g, p, include_boundary=True):
        full.append(g)
        return real(cx, N, g, p, include_boundary)

    monkeypatch.setattr(homres, "ext_subquotient", recording)
    table = torsion_submodule(maximal_ideal(R), M, window1(0, 3))
    assert [v for _, v in table.rows()] == [0, 1, 0, 0]
    assert full == [Z1.degree((1,))] * N_CAP


def test_tor3_torsion_builds_nothing_above_the_cheapest_injective_block(monkeypatch):
    # a = (xy, z): at the top stage z^5 is injective on every nonzero M_g
    # of the window (-2)..(8), so the (xy)^5 block, whose target lies 10
    # degrees up, is never asked for; counting every stage builds 55
    # components up to degree 18 and asks for (xy)^5 25 times
    s = parse_scenario((ROOT / "perfbench/scenarios/tor3.scn").read_text())
    asked = _multiplications(monkeypatch)
    table = torsion_submodule(s.ideal, s.module, s.gwindow, s.n_cap)
    assert table.total() == 0
    assert max(g.free[0] for g in s.module._components) <= 13
    assert "x^5*y^5" not in asked


def fine_ring_xyzw():
    """K[x,y,z,w] with its fine Z^4 grading."""
    Z4 = DegreeGroup(4)
    units = [Z4.degree(tuple(int(i == j) for j in range(4))) for i in range(4)]
    return GradedPolynomialRing(Z4, "xyzw", units, (1, 1, 1, 1))


def test_cech_complex_blocks_over_four_generators_carry_the_alternating_sign():
    R = fine_ring_xyzw()
    gens = maximal_ideal(R).gens
    cech = CechComplex(gens, R, 8)
    assert cech.positions == frozenset(range(5))
    assert sorted(cech.blocks) == [0, 1, 2, 3, 4]
    for p, blocks in cech.blocks.items():
        assert cech.subsets[p] == list(itertools.combinations(range(4), p))
        expected = {}
        for ti, T in enumerate(cech.subsets.get(p + 1, [])):
            for si, S in enumerate(cech.subsets[p]):
                if set(S) <= set(T):
                    (a,) = set(T) - set(S)
                    sign = (-1) ** len([b for b in S if b < a])
                    power = tuple(8 * e for e in gens[a])
                    expected[ti, si] = Poly({power: Fraction(sign)})
        assert blocks == expected
    for S, (d_S, f_S) in cech.localizations.items():
        exponents = tuple(sum(gens[a][v] for a in S) for v in range(4))
        assert f_S == Poly({exponents: Fraction(1)})
        assert d_S.free == exponents  # the fine grading reads the exponents


@pytest.mark.parametrize(
    "g, expected, ranks",
    [
        ((-1, -1, -1, -1), [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]),
        # only the localizations inverting x and y are nonzero here, and
        # the subsets above {x, y} make d^2 and d^3 nonzero and exact
        ((-1, -1, 0, 0), [0, 0, 0, 0, 0], [0, 0, 1, 1, 0]),
    ],
)
def test_cech_over_four_generators_reads_every_position(g, expected, ranks):
    R = fine_ring_xyzw()
    F = GradedModulePresentation.free(R, [R.group.zero()])
    cech = CechAtDegree(CechComplex(maximal_ideal(R).gens, R, 8), F, R.group.degree(g))
    assert sorted(cech.matrices) == [0, 1, 2, 3, 4]  # d o d = 0 checked on d^0..d^3
    assert [cech.cohomology_dim(i) for i in range(-1, 6)] == [0, *expected, 0]
    assert cech.ranks == dict(enumerate(ranks))


def test_check_transform_ranks_each_cech_differential_once_per_degree(monkeypatch):
    R = fine_ring_xyzw()
    F = GradedModulePresentation.free(R, [R.group.zero()])
    # every matrix ranked is counted, and kept alive so no id is reused
    ranked: dict[int, int] = {}
    alive: list[Mat] = []
    built: list[CechAtDegree] = []
    real_rank, real_init = localcoh.rank, CechAtDegree.__init__

    def counting_rank(mat):
        ranked[id(mat)] = ranked.get(id(mat), 0) + 1
        alive.append(mat)
        return real_rank(mat)

    def recording_init(self, *args):
        real_init(self, *args)
        built.append(self)

    monkeypatch.setattr(localcoh, "rank", counting_rank)
    monkeypatch.setattr(CechAtDegree, "__init__", recording_init)
    window = DegreeWindow.box(R.group, (-1, -1, -1, -1), (-1, -1, 0, 0))
    rep = check_transform_sequence(maximal_ideal(R), F, window, n_cap=6, ray_cap=8)
    assert rep.verdict == "OK"
    assert [cech.g for cech in built] == list(window)
    for cech in built:
        assert [ranked.get(id(cech.matrices[p])) for p in range(5)] == [1] * 5
    # the four-term row of a degree ranks only its residual map besides the
    # five Cech differentials: the insertion's rank comes from its kernel
    assert set(ranked.values()) == {1}
    assert len(ranked) == 6 * len(window)


def test_tables_refuse_a_degree_outside_their_window():
    # README design rule 1: no degree outside the window reads as zero
    R = ring_x()
    M = GradedModulePresentation.free(R, [Z1.zero()])
    window = window1(-2, 0)
    h1 = cech_table(MonomialIdeal(R, [R.mono(x=1)]), 1, M, window)
    hilbert = M.hilbert(window)
    assert [h1.get(g) for g in window] == [1, 1, 0]
    assert [hilbert.get(g) for g in window] == [0, 0, 1]
    for table in (h1, hilbert):
        for h in (-3, 1):
            with pytest.raises(KeyError, match="outside the tabulated window"):
                table.get(Z1.degree((h,)))


def test_cech_position_not_built_raises():
    R = fine_ring_xy()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    g = Z2.degree((-1, -1))
    cech = CechAtDegree(CechComplex(maximal_ideal(R).gens, R, 8, (2,)), F, g)
    assert cech.cohomology_dim(2) == 1
    assert () not in cech.models  # H^2 never reads the ray of M itself
    for i in (0, 1):
        with pytest.raises(ValueError):
            cech.cohomology_dim(i)
    assert cech.cohomology_dim(3) == 0  # the complex stops at position 2


# ---------------------------------------------------------------------------
# Unstabilized verdicts.
# ---------------------------------------------------------------------------


def test_cech_ray_unstabilized_under_tight_cap():
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    with pytest.raises(UnstabilizedError) as err:
        cech_table(MonomialIdeal(R, [R.mono(x=1)]), 1, F, window1(-2, -2), ray_cap=3)
    assert err.value.trajectory == [0, 0, 1, 1]


@pytest.mark.parametrize("ray_cap", [0, -1])
def test_the_cech_route_refuses_a_ray_cap_below_the_floor(ray_cap):
    # the library holds the rule the scenario parser and --raycap hold: a
    # ray with no stage would read 0 on every cell, where H^3 of fine3 is 1
    problem = re.escape(cap_problem("ray_cap", ray_cap))
    s = parse_scenario((ROOT / "perfbench/scenarios/fine3.scn").read_text())
    with pytest.raises(ValueError, match=problem):
        cech_table(s.ideal, 3, s.module, s.gwindow, ray_cap)
    with pytest.raises(ValueError, match=problem):
        local_cohomology(s.ideal, 3, s.module, s.gwindow, "cech", ray_cap=ray_cap)
    s = parse_scenario((ROOT / "perfbench/scenarios/fine3q.scn").read_text())
    with pytest.raises(ValueError, match=problem):
        check_transform_sequence(s.ideal, s.module, s.gwindow, s.n_cap, ray_cap)


def test_a_power_tower_refuses_an_n_cap_below_the_floor():
    R = ring_x()
    problem = re.escape(cap_problem("n_cap", 1))
    with pytest.raises(ValueError, match=problem):
        PowerTower(MonomialIdeal(R, [R.mono(x=1)]), 1, max_position=1)


def test_ext_tower_unstabilized_under_tight_cap():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    with pytest.raises(UnstabilizedError) as err:
        colim_ext_table(1, maximal_ideal(R), M, window1(-1, -1), n_cap=3)
    assert err.value.trajectory == [0, 2, 2]


def test_torsion_refuses_a_plateau_too_short_to_certify():
    # in K[x,y]/(x^2,xy,y^2) the class of 1 is killed from a^[2] on: four
    # stages see 0, 1, 1, 1, a plateau too short to certify; five do
    R = fine_ring_xy()
    T = quotient_module(R, {"x": 2}, {"x": 1, "y": 1}, {"y": 2})
    w = window2((0, 0), (1, 1))
    with pytest.raises(UnstabilizedError) as err:
        torsion_submodule(maximal_ideal(R), T, w, n_cap=4)
    assert err.value.payload() == {
        "what": "torsion submodule",
        "degree": "(0,0)",
        "trajectory": [0, 1, 1, 1],
    }
    data = torsion_submodule(maximal_ideal(R), T, w, n_cap=5)
    assert data.get(Z2.degree((0, 0))) == 1
    assert data.stabilized_at[Z2.degree((0, 0))] == 2


# ---------------------------------------------------------------------------
# Ideal transforms and the four-term sequence.
# ---------------------------------------------------------------------------


def test_ideal_transform_laurent_line():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = ideal_transform(a, 0, F, window1(-3, 3), n_cap=7)
    assert all(v == 1 for _, v in t.rows())


def test_transform_sequence_on_the_line():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    rep = check_transform_sequence(a, F, window1(-2, 2), n_cap=6, ray_cap=8)
    assert rep.verdict == "OK"
    by_degree = {r.degree.free[0]: r for r in rep.rows}
    assert (by_degree[-1].gamma, by_degree[-1].module, by_degree[-1].d0, by_degree[-1].h1) == (0, 0, 1, 1)
    assert (by_degree[1].gamma, by_degree[1].module, by_degree[1].d0, by_degree[1].h1) == (0, 1, 1, 0)
    assert all(r.all_ok() for r in rep.rows)
    assert rep.higher == [
        {"i": 1, "agree": True, "witnesses": [], "degrees_checked": 5}
    ]


def test_transform_sequence_two_variables_fine():
    R = fine_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    rep = check_transform_sequence(
        m, F, window2((-2, -2), (1, 1)), n_cap=6, ray_cap=8
    )
    assert rep.verdict == "OK"
    by_degree = {r.degree.free: r for r in rep.rows}
    # the transform agrees with the module itself on this window, and the
    # comparison one step up sees the actual second cohomology
    assert by_degree[(1, 1)].d0 == 1 and by_degree[(1, 1)].h1 == 0
    assert by_degree[(-1, -1)].d0 == 0 and by_degree[(-1, -1)].module == 0
    for entry in rep.higher:
        assert entry["agree"] is True
    assert all(r.all_ok() for r in rep.rows)


def test_transform_sequence_torsion_module():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    rep = check_transform_sequence(a, M, window1(0, 2), n_cap=6, ray_cap=8)
    assert rep.verdict == "OK"
    for r in rep.rows:
        assert r.gamma == r.module and r.d0 == 0 and r.h1 == 0


def _cech_off_by_one_at(monkeypatch, i):
    """Make the Cech route read one more than it computes at position i."""
    real = CechAtDegree.cohomology_dim

    def off_by_one(self, j):
        return real(self, j) + (j == i)

    monkeypatch.setattr(CechAtDegree, "cohomology_dim", off_by_one)


def test_a_wrong_h1_makes_the_four_term_check_fail_in_its_rows(monkeypatch):
    _cech_off_by_one_at(monkeypatch, 1)
    window = window2((-2, -2), (0, 0))
    R = fine_ring_xy()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    rep = check_transform_sequence(maximal_ideal(R), F, window, n_cap=6, ray_cap=8)
    assert rep.verdict == "FAILS"
    assert rep.witnesses == list(window)
    for r in rep.rows:
        assert not r.h1_routes_agree
        assert not r.all_ok()
    assert all(entry["agree"] for entry in rep.higher)


def test_a_wrong_h2_makes_the_four_term_check_fail_in_its_higher_entry(monkeypatch):
    _cech_off_by_one_at(monkeypatch, 2)
    window = window2((-2, -2), (0, 0))
    R = fine_ring_xy()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    rep = check_transform_sequence(maximal_ideal(R), F, window, n_cap=6, ray_cap=8)
    assert rep.verdict == "FAILS"
    assert rep.witnesses == list(window)
    assert all(r.all_ok() for r in rep.rows)
    first, second = rep.higher
    assert not first["agree"] and second["agree"]
    assert [w["degree"] for w in first["witnesses"]] == [str(g) for g in window]
    assert all(w["h_next"] == w["transform"] + 1 for w in first["witnesses"])


def test_a_cech_model_is_built_only_when_its_basis_is_read():
    # K[x], a = (x), M = K[x]: at degree -1 the localization K[x]_x is a
    # line but M_-1 = 0, so d^0 has no block that reads it; at degree 0
    # d^0 reads both limits
    R = ring_x()
    M = GradedModulePresentation.free(R, [Z1.zero()])
    gens = (R.mono(x=1),)
    lim = CechAtDegree(CechComplex(gens, R, 8, (0,)), M, Z1.degree((-1,))).models[(0,)]
    assert lim.limit_dim == 1 and "_model" not in vars(lim)
    assert lim.basis == [{0: Fraction(1)}] and "_model" in vars(lim)
    at_zero = CechAtDegree(CechComplex(gens, R, 8, (0,)), M, Z1.zero())
    assert [lim.limit_dim for lim in at_zero.models.values()] == [1, 1]
    assert all("_model" in vars(lim) for lim in at_zero.models.values())


def test_transform_sequence_over_the_zero_ideal():
    # every complex of the tower stops at position 0, so the top stage has
    # no d^0 and the insertion into D^0 = colim Hom(0, M) = 0 is the empty
    # map out of M_g; the zero ideal kills everything, so torsion is M
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    rep = check_transform_sequence(MonomialIdeal(R, []), F, window1(-2, 2))
    assert rep.verdict == "OK"
    for r in rep.rows:
        assert r.gamma == r.module == (1 if r.degree.free[0] >= 0 else 0)
        assert r.d0 == r.h1 == 0
        assert r.all_ok()


def test_transform_sequence_unstabilized_verdict():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    rep = check_transform_sequence(
        maximal_ideal(R), M, window1(-1, -1), n_cap=3, ray_cap=8
    )
    assert rep.verdict == "UNSTABILIZED"
    assert rep.unstable is not None
    assert rep.unstable["trajectory"]
