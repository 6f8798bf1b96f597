from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecoh import homres
from coarsecoh.coarsen import check_commutation
from coarsecoh.grading import DegreeGroup
from coarsecoh.homres import (
    ChainMap,
    FreeComplex,
    FreeMap,
    GradedHomSpace,
    PowerTower,
    colim_ext_table,
    ext_subquotient,
    graded_ext,
    hom_table,
    taylor_complex,
    tower_ext_table,
)
from coarsecoh.linalg import DirectedLimit, Mat, Subquotient, nullspace, rank
from coarsecoh.localcoh import torsion_submodule
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
    ring_x,
    std_ring_xy,
    window1,
    window2,
)


def _chain_matrix(cx, Rmod, p, g):
    """Evaluate the complex differential F_p -> F_{p-1} at degree g, using
    only ring multiplication (independent of the cochain machinery)."""
    row_dims = [Rmod.dim(g - sh) for sh in cx.shifts[p - 1]]
    col_dims = [Rmod.dim(g - sh) for sh in cx.shifts[p]]
    cols = cx.diffs[p].columns

    def block(i, j):
        if i not in cols[j]:
            return None
        return Rmod.multiplication_matrix(
            cols[j][i], g - cx.shifts[p][j], g - cx.shifts[p - 1][i]
        )

    return Mat.block(row_dims, col_dims, block)


def test_taylor_ranks_and_shifts():
    R = std_ring_xy()
    cx = taylor_complex(maximal_ideal(R))
    assert [len(b) for b in cx.basis] == [1, 2, 1]
    assert [d.free[0] for d in cx.shifts[1]] == [1, 1]
    assert cx.shifts[2][0].free == (2,)  # lcm(x, y) = xy


def test_taylor_power_generator_counts():
    R = std_ring_xy()
    m = maximal_ideal(R)
    for n in (2, 3):
        cx = taylor_complex(m.power(n), max_position=2)
        assert len(cx.basis[1]) == n + 1


def test_taylor_resolution_exact_degreewise():
    # homology vanishes in positive positions and the cokernel at position
    # zero matches the monomial-count oracle for R/a
    R = fine_ring_xy()
    a = MonomialIdeal(R, [R.mono(x=1), R.mono(y=1)])
    cx = taylor_complex(a)
    Rmod = GradedModulePresentation.free(R, [Z2.zero()])
    for g in window2((-1, -1), (3, 3)):
        mats = {p: _chain_matrix(cx, Rmod, p, g) for p in range(1, cx.top + 1)}
        for p in range(1, cx.top):
            assert len(nullspace(mats[p])) == rank(mats[p + 1])
        quotient_dim = mats[1].nrows - rank(mats[1])
        oracle = sum(
            1 for m in R.monomials_of_degree(g) if not a.contains_monomial(m)
        )
        assert quotient_dim == oracle


def test_taylor_resolution_exact_for_powers():
    R = std_ring_xy()
    a = maximal_ideal(R).power(2)
    cx = taylor_complex(a)
    Rmod = GradedModulePresentation.free(R, [Z1.zero()])
    for gi in range(0, 6):
        g = Z1.degree((gi,))
        mats = {p: _chain_matrix(cx, Rmod, p, g) for p in range(1, cx.top + 1)}
        for p in range(1, cx.top):
            assert len(nullspace(mats[p])) == rank(mats[p + 1])
        quotient_dim = mats[1].nrows - rank(mats[1])
        oracle = sum(
            1 for m in R.monomials_of_degree(g) if not a.contains_monomial(m)
        )
        assert quotient_dim == oracle


def test_comparison_map_multiplies_by_the_lcm_quotient():
    # (x^2) -> (x): the position 1 entry is x^2 / x = x, with sign +1
    R = ring_x()
    cm = PowerTower(MonomialIdeal(R, [R.mono(x=1)]), 2, max_position=1).maps[0]
    assert cm.maps[0].columns == [{0: Poly.monomial((0,))}]
    assert cm.maps[1].columns == [{0: Poly.monomial((1,))}]


def test_comparison_map_on_powers_of_two_variables():
    # (x,y)^[3] -> (x,y)^[2]: e_S goes to lcm(g_S^3)/lcm(g_S^2) e_S, and the
    # construction verifies the chain property symbolically
    R = std_ring_xy()
    cm = PowerTower(maximal_ideal(R), 3, max_position=2).maps[1]
    # generators in lex order: y^k, then x^k
    assert cm.maps[1].columns == [
        {0: Poly.monomial((0, 1))},
        {1: Poly.monomial((1, 0))},
    ]
    assert cm.maps[2].columns == [{0: Poly.monomial((1, 1))}]


@st.composite
def towers(draw):
    """A bracket-power tower of a random monomial ideal: 1-3 variables under
    the fine Z^n or the standard Z grading, 1-4 generators with exponents at
    most 3, n_cap 2-5, resolved up to a position between 1 and s+1."""
    n = draw(st.integers(1, 3))
    r = n if draw(st.booleans()) else 1
    G = DegreeGroup(r)
    degrees = [G.degree([int(r == 1 or k == i) for k in range(r)]) for i in range(n)]
    R = GradedPolynomialRing(G, ["x%d" % i for i in range(n)], degrees, (1,) * r)
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    a = MonomialIdeal(R, draw(st.lists(exps, min_size=1, max_size=4)))
    max_position = draw(st.integers(1, len(a.gens) + 1))
    return a, draw(st.integers(2, 5)), max_position


@settings(max_examples=100, deadline=None, database=None)
@given(towers())
def test_every_stage_multiplies_e_S_by_the_lcm_of_g_S(case):
    # building the tower runs the chain check at every stage; each of its
    # maps sends e_S to lcm(g_S) e_S, and stage n shifts e_S by n deg lcm(g_S)
    a, n_cap, max_position = case
    R = a.ring
    tower = PowerTower(a, n_cap, max_position)
    s = len(a.gens)
    subsets = [list(combinations(range(s), p)) for p in range(min(s, max_position) + 1)]

    def lcm(S):
        return tuple(max([0, *(a.gens[i][v] for i in S)]) for v in range(R.nvars))

    lcms = [[lcm(S) for S in subs] for subs in subsets]
    for n, cx in enumerate(tower.complexes, 1):
        assert cx.basis == subsets
        assert cx.shifts == [[R.monomial_degree(m).scale(n) for m in ms] for ms in lcms]
    for cm in tower.maps:
        assert [f.columns for f in cm.maps] == [
            [{k: Poly.monomial(m)} for k, m in enumerate(ms)] for ms in lcms
        ]


def test_entry_of_the_wrong_degree_is_refused():
    # R(-1) -> R needs an entry of degree 1; x^2 has degree 2
    R = ring_x()
    with pytest.raises(ValueError, match="has degree"):
        FreeMap(R, [Z1.degree((1,))], [Z1.zero()], [{0: Poly.monomial((2,))}])


def test_differentials_must_compose_to_zero():
    # R(-2) -x-> R(-1) -x-> R has homogeneous entries but d1 d2 = x^2
    R = ring_x()
    x = Poly.monomial((1,))
    shifts = [[Z1.degree((k,))] for k in range(3)]
    with pytest.raises(ValueError, match="compose to zero"):
        FreeComplex(R, [[()], [(0,)], [(0, 1)]], shifts, [[{0: x}], [{0: x}]])


def test_chain_property_is_checked():
    # over (x^2) <= (x) the lift of the identity is 1 at position 0 and x
    # at position 1; -x has the right degree but breaks the square
    R = ring_x()
    a1 = MonomialIdeal(R, [R.mono(x=1)])
    a2 = MonomialIdeal(R, [R.mono(x=2)])
    src, tgt = taylor_complex(a2), taylor_complex(a1)
    one, x = Poly.monomial((0,)), Poly.monomial((1,))
    ChainMap(src, tgt, [[{0: one}], [{0: x}]])
    with pytest.raises(ValueError, match="chain property fails at position 1"):
        ChainMap(src, tgt, [[{0: one}], [{0: -x}]])


def test_graded_hom_full_ring_source():
    R = std_ring_xy()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    N = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    )
    for gi in range(0, 4):
        g = Z1.degree((gi,))
        assert GradedHomSpace(F, N, g).dim == N.dim(g)


def test_graded_hom_annihilator_constraint():
    R = ring_x()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    N = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=4)]))
    t = hom_table(M, N, window1(0, 2))
    assert [v for _, v in t.rows()] == [0, 0, 1]
    hom = GradedHomSpace(M, N, Z1.degree((2,)))
    # the single hom sends the generator to the class of x^2
    assert hom.generator_images(0) == [{0: 1}]


def test_hom_vanishes_from_torsion_to_free():
    R = ring_x()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=1)]))
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = hom_table(M, F, window1(-3, 3))
    assert t.total() == 0


def test_hom_table_support_metadata():
    R = ring_x()
    M = GradedModulePresentation.free(R, [Z1.degree((1,))])
    N = GradedModulePresentation.free(R, [Z1.degree((3,))])
    t = hom_table(M, N, window1(0, 1))
    assert t.support_gens == (Z1.degree((2,)),)


def test_ext1_of_principal_ideal():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = graded_ext(1, a, F, window1(-3, 3))
    assert {int(g.strip("()")): v for g, v in t.rows()} == {
        -3: 0, -2: 0, -1: 1, 0: 0, 1: 0, 2: 0, 3: 0,
    }


def test_ext0_is_hom():
    R = std_ring_xy()
    a = MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    M = GradedModulePresentation.quotient_by_ideal(a)
    N = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=1)])
    )
    w = window1(0, 3)
    assert graded_ext(0, a, N, w).values == hom_table(M, N, w).values


def test_ext_beyond_resolution_length_is_zero():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=2)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    assert graded_ext(2, a, F, window1(-3, 3)).total() == 0


def test_ext_subquotient_is_zero_outside_the_complex():
    # Hom(F_1, R)_{-2} = R_0 for a = (x^2), so the top position is nonzero
    # there; position -1 must not read the top position from the end
    R = ring_x()
    cx = taylor_complex(MonomialIdeal(R, [R.mono(x=2)]))
    F = GradedModulePresentation.free(R, [Z1.zero()])
    g = Z1.degree((-2,))
    assert ext_subquotient(cx, F, g, cx.top).dim == 1
    for p in (-1, cx.top + 1):
        for include_boundary in (True, False):
            stage = ext_subquotient(cx, F, g, p, include_boundary)
            assert (stage.n, stage.dim, stage.subquotient.reps) == (0, 0, [])


def test_colim_ext_laurent_pattern():
    # colim_n Ext^1(R/x^n, R) has dimension 1 in every negative degree
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = colim_ext_table(1, a, F, window1(-3, -1), n_cap=6)
    assert [v for _, v in t.rows()] == [1, 1, 1]
    assert t.stabilized_at == {
        Z1.degree((-3,)): 3,
        Z1.degree((-2,)): 2,
        Z1.degree((-1,)): 1,
    }
    assert t.global_index == 3


def test_colim_ext_vanishes_in_nonnegative_degrees():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = colim_ext_table(1, a, F, window1(0, 2), n_cap=6)
    assert t.total() == 0


def test_one_tower_serves_every_index_below_its_top():
    # a tower resolved up to position 3 gives the tables of i = 0, 1, 2
    # that per-index towers give; one stopping at 2 refuses i = 2
    R = fine_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    w = window2((-2, -2), (0, 0))
    tower = PowerTower(m, 6, max_position=3)
    for i in range(3):
        shared = tower_ext_table(i, tower, F, w)
        alone = colim_ext_table(i, m, F, w, n_cap=6)
        assert shared.values == alone.values
    assert shared.total() == 4  # H^2_m(K[x,y]) is 1 where both coordinates < 0
    with pytest.raises(ValueError, match="stops below"):
        tower_ext_table(2, PowerTower(m, 6, max_position=2), F, w)


def test_hom_and_tower_tables_build_no_free_map_and_read_no_poly_degree(monkeypatch):
    # a presentation builds its relation map once, and FreeMap.hom hands
    # every multiplication the target degree it holds
    R = fine_ring_xy()
    x, y = Poly.monomial(R.mono(x=1)), Poly.monomial(R.mono(y=1))
    M = GradedModulePresentation(
        R, [Z2.zero(), Z2.degree((1, 0))],
        [{0: x * y, 1: -y}],
    )
    N = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    tower = PowerTower(maximal_ideal(R), 6, max_position=3)
    w = window2((-2, -2), (1, 1))
    calls = {"poly_degree": 0, "FreeMap": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(GradedPolynomialRing, "poly_degree", "poly_degree")
    counted(FreeMap, "__init__", "FreeMap")
    assert hom_table(M, N, w).total() > 0
    assert sum(tower_ext_table(i, tower, N, w).total() for i in range(3)) > 0
    assert calls == {"poly_degree": 0, "FreeMap": 0}


def test_ideal_transform_of_free_line():
    # colim Hom(x^n, K[x]) in degree g is the full Laurent line
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = colim_ext_table(0, a, F, window1(-2, 2), n_cap=6, family="ideal")
    assert [v for _, v in t.rows()] == [1, 1, 1, 1, 1]


def test_colim_ext_zero_module():
    R = ring_x()
    a = MonomialIdeal(R, [R.mono(x=1)])
    Z = GradedModulePresentation.free(R, [])
    t = colim_ext_table(1, a, Z, window1(-2, 0), n_cap=4)
    assert t.total() == 0
    assert t.global_index == 1


ROOT = Path(__file__).resolve().parents[1]


def _scenario(path):
    return parse_scenario((ROOT / path).read_text())


def _eager_dim(cx, N, g, p):
    """dim of the stage at position p (0..top, boundaries included) built
    the way a stage is built, but without any rank counted first."""
    n = sum(N.dim(g + sh) for sh in cx.shifts[p])
    d_p = cx.diffs[p + 1].hom(N, g) if p < cx.top else Mat.zero(0, n)
    boundaries = cx.diffs[p].hom(N, g).cols if p >= 1 else []
    return Subquotient(n, nullspace(d_p), boundaries).dim


def test_built_stages_have_the_dimension_counted_from_ranks(monkeypatch):
    # every nonzero stage of the H^2 towers of check-commute on the mixed
    # plane: the count, the built subquotient and an eager build agree
    s = _scenario("scenarios/mixed-plane.scn")
    counted = []
    real = homres.ext_subquotient

    def recording(cx, N, g, p, include_boundary=True):
        stage = real(cx, N, g, p, include_boundary)
        counted.append((stage, (cx, N, g, p)))
        return stage

    monkeypatch.setattr(homres, "ext_subquotient", recording)
    report = check_commutation(
        s.ideal, s.module, s.psi, [2], s.gwindow, s.hwindow, s.n_cap
    )
    (entry,) = report.entries
    assert entry.coarse.total() > 0
    nonzero = [(stage, at) for stage, at in counted if stage.dim]
    assert len(nonzero) > 10
    for stage, at in nonzero:
        assert stage.subquotient.dim == stage.dim == _eager_dim(*at)
    # graded_ext only counts; building each stage gives the same dimension
    s = _scenario("perfbench/scenarios/tor3.scn")
    cx = taylor_complex(s.ideal, max_position=2)
    table = graded_ext(1, s.ideal, s.module, s.gwindow)
    assert table.total() > 0
    for g in s.gwindow:
        stage = ext_subquotient(cx, s.module, g, 1)
        assert stage.subquotient.dim == stage.dim == table.get(g)
        assert stage.dim == _eager_dim(cx, s.module, g, 1)


def _kernel_builds(monkeypatch):
    """Record, for each DirectedLimit.of call, its dimensions and the
    nullspace calls made inside it; and count every nullspace call of a
    stage."""
    calls, chains = [0], []
    real_nullspace, real_of = homres.nullspace, DirectedLimit.of

    def counted(mat):
        calls[0] += 1
        return real_nullspace(mat)

    def recording(dims, step):
        before = calls[0]
        lim = real_of(dims, step)
        chains.append((list(dims), calls[0] - before))
        return lim

    monkeypatch.setattr(homres, "nullspace", counted)
    monkeypatch.setattr(DirectedLimit, "of", staticmethod(recording))
    return calls, chains


@pytest.mark.parametrize("what", ["tor3 torsion", "fine-plane H^1"])
def test_a_chain_that_is_zero_at_every_stage_builds_no_kernel(what, monkeypatch):
    calls, chains = _kernel_builds(monkeypatch)
    if what == "tor3 torsion":
        s = _scenario("perfbench/scenarios/tor3.scn")
        torsion_submodule(s.ideal, s.module, s.gwindow, s.n_cap)
    else:
        s = _scenario("scenarios/fine-plane.scn")
        check_commutation(
            s.ideal, s.module, s.psi, [1], s.gwindow, s.hwindow, s.n_cap,
            assume_support_covered=True,
        )
    zero = [built for dims, built in chains if not any(dims)]
    assert len(zero) > 10
    assert zero == [0] * len(zero)
    # a kernel is built only by a step that DirectedLimit asked for
    assert calls[0] == sum(built for _, built in chains)


def test_a_tower_table_builds_no_limit_model(monkeypatch):
    # a table reads each limit's dimension only; no limit basis is built,
    # though the limits are nonzero: H^1 of K[x] at (x) is 1 below degree 0
    limits = []
    real_of = DirectedLimit.of

    def recording(dims, step):
        limits.append(real_of(dims, step))
        return limits[-1]

    monkeypatch.setattr(DirectedLimit, "of", staticmethod(recording))
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    table = colim_ext_table(1, MonomialIdeal(R, [R.mono(x=1)]), F, window1(-3, -1), 6)
    assert [v for _, v in table.rows()] == [1, 1, 1]
    assert [lim.limit_dim for lim in limits] == [1, 1, 1]
    assert not any("_model" in vars(lim) for lim in limits)


def test_an_empty_cochain_space_reads_and_keeps_no_rank():
    # K[x] at degree -3: every cochain space of the resolution of K[x]/(x)
    # is empty, so its stages are counted with no rank read or kept
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    cx = taylor_complex(MonomialIdeal(R, [R.mono(x=1)]))
    g = Z1.degree((-3,))
    for p in (0, 1):
        stage = ext_subquotient(cx, F, g, p)
        assert (stage.n, stage.cocycle_dim, stage.dim) == (0, 0, 0)
    assert cx._ranks == {}


def test_hom_dimension_is_the_length_of_the_basis():
    s = _scenario("perfbench/scenarios/tor3.scn")
    table = hom_table(s.module, s.module2, s.gwindow)
    assert table.total() > 0
    for g in s.gwindow:
        assert table.get(g) == len(GradedHomSpace(s.module, s.module2, g).basis)
