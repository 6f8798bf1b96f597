from __future__ import annotations

from pathlib import Path

import pytest

from coarsecoh.coarsen import (
    check_commutation,
    check_gamma_identity,
    coarsen_module,
    coarsen_ring,
    coarsen_table,
    compare_tables,
    derive_coarse_certificate,
    hom_comparison,
)
from coarsecoh.errors import CoarseningRefusal, UnstabilizedError
from coarsecoh.grading import DegreeGroup, DegreeWindow, GroupEpimorphism
from coarsecoh.ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    HilbertTable,
    MonomialIdeal,
)
from coarsecoh.scenario import parse_scenario

from helpers import (
    Z1,
    Z2,
    Z_Z2,
    fiber,
    fine_ring_xy,
    forget_torsion_map,
    maximal_ideal,
    mixed_ring_xy,
    quotient_module,
    ring_x,
    sum_map,
    window1,
    window2,
)


def mixed_box(lo, hi):
    return DegreeWindow.box(Z_Z2, lo, hi)


# ---------------------------------------------------------------------------
# Ring and module coarsening.
# ---------------------------------------------------------------------------


def test_certificate_for_sum_map():
    assert derive_coarse_certificate(fine_ring_xy(), sum_map()) == (1,)


def test_certificate_for_sign_flip():
    flip = GroupEpimorphism(Z1, Z1, [Z1.degree((-1,))])
    assert derive_coarse_certificate(ring_x(), flip) == (-1,)


def test_certificate_from_the_grid_when_the_sign_pattern_fails():
    # the sign pattern (1,1) gives (-1,1) weight 0; (2,3) is the first grid
    # weight positive on both images
    psi = GroupEpimorphism(Z2, Z2, [Z2.degree((2, -1)), Z2.degree((-1, 1))])
    assert derive_coarse_certificate(fine_ring_xy(), psi) == (2, 3)


def test_certificate_search_without_a_positive_weight_raises():
    psi = GroupEpimorphism(Z2, Z1, [Z1.degree((1,)), Z1.degree((-1,))])
    with pytest.raises(ValueError) as err:
        derive_coarse_certificate(fine_ring_xy(), psi)
    # both ways to supply a certificate are named
    assert "coarse { certificate = (...) }" in str(err.value)
    assert "coarse_certificate" in str(err.value)


def test_certificate_search_stops_on_a_large_coarse_rank():
    # Z^7 -> Z^6 sending x_7 to -e_1: no weight is positive on both x_1 and
    # x_7, and the 9^6-weight grid is cut at its first WEIGHT_GRID_LIMIT
    Z7, Z6 = DegreeGroup(7), DegreeGroup(6)
    units = [tuple(int(i == k) for i in range(7)) for k in range(7)]
    ring = GradedPolynomialRing(
        Z7, tuple("x%d" % k for k in range(7)), [Z7.degree(u) for u in units], (1,) * 7
    )
    images = [Z6.degree(u[:6]) for u in units[:6]] + [Z6.degree((-1, 0, 0, 0, 0, 0))]
    with pytest.raises(ValueError, match="no positive weight vector"):
        derive_coarse_certificate(ring, GroupEpimorphism(Z7, Z6, images))


def test_coarsen_ring_rejects_wrong_source():
    with pytest.raises(ValueError):
        coarsen_ring(fine_ring_xy(), forget_torsion_map())


def test_coarsened_module_components_are_fiber_sums():
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    Rc = coarsen_ring(R, phi)
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    Mc = coarsen_module(M, Rc, phi)
    coarse = Mc.hilbert(window1(0, 3))
    fine = M.hilbert(mixed_box(0, 3))
    assert [v for _, v in coarse.rows()] == [1, 2, 2, 2]
    for h in window1(0, 3):
        assert coarse.get(h) == sum(fine.get(g) for g in fiber(phi, h, fine.window))


def test_coarsened_relations_take_their_degrees_through_psi():
    # the coarse ring derives each relation's degree from its entries alone,
    # and it is psi of the fine degree: tor3's relations are not monomial
    root = Path(__file__).resolve().parents[1]
    s = parse_scenario((root / "perfbench/scenarios/tor3.scn").read_text())
    Rc = coarsen_ring(s.ring, s.psi)
    for M in (s.module, s.module2):
        Mc = coarsen_module(M, Rc, s.psi)
        assert Mc.relation_map.source == [
            s.psi.apply(d) for d in M.relation_map.source
        ]
        assert Mc.relation_map.columns == M.relation_map.columns


# ---------------------------------------------------------------------------
# Fiber sums of tables and their certificates.
# ---------------------------------------------------------------------------


def test_coarsen_table_finite_kernel_route():
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    table, cert = coarsen_table(
        M.hilbert(mixed_box(0, 3)),
        phi,
        window1(0, 3),
        fine_ring=R,
        coarse_ring=coarsen_ring(R, phi),
    )
    assert cert.route == "finite-kernel"
    assert [v for _, v in table.rows()] == [1, 2, 2, 2]


def test_coarsen_table_finite_kernel_shortfall_is_refused():
    # the window holds (1;0) but not (1;1), and the table has no support
    # data to fall back on
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    d = Z_Z2.degree((1,), (0,))
    table = HilbertTable(DegreeWindow(Z_Z2, [d]), {d: 1})
    with pytest.raises(CoarseningRefusal) as err:
        coarsen_table(table, phi, window1(1, 1), R, coarsen_ring(R, phi))
    assert err.value.h == Z1.degree((1,))
    assert err.value.reason.startswith(
        "the fiber meets the fine window in 1 degrees but the kernel has "
        "2 elements; the table carries no generator-degree support data"
    )


def test_coarsen_table_support_route():
    R = fine_ring_xy()
    psi = sum_map()
    Rc = coarsen_ring(R, psi)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    fine = F.hilbert(window2((0, 0), (3, 3)))
    table, cert = coarsen_table(
        fine, psi, window1(0, 3), fine_ring=R, coarse_ring=Rc
    )
    assert cert.route == "support-generators"
    assert [v for _, v in table.rows()] == [1, 2, 3, 4]


def test_coarsen_table_refusal_names_degree_and_flag_truncates():
    R = fine_ring_xy()
    psi = sum_map()
    Rc = coarsen_ring(R, psi)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    fine = F.hilbert(window2((0, 0), (3, 3)))
    with pytest.raises(CoarseningRefusal) as err:
        coarsen_table(fine, psi, window1(0, 4), fine_ring=R, coarse_ring=Rc)
    assert err.value.h == Z1.degree((4,))
    # with the explicit assumption the sum is over the window only: of the
    # five fiber degrees over 4, two lie outside the 3x3 box, so the value
    # 3 undercounts the true dimension 5 -- exactly the hazard the flag
    # signs off on
    table, cert = coarsen_table(
        fine,
        psi,
        window1(0, 4),
        fine_ring=R,
        coarse_ring=Rc,
        assume_support_covered=True,
    )
    assert cert.route == "assumed"
    assert [v for _, v in table.rows()] == [1, 2, 3, 4, 3]


def test_coarsen_table_applies_psi_once_per_fine_degree(monkeypatch):
    # the fibers come from one pass over the fine window, in window order
    R = fine_ring_xy()
    psi = sum_map()
    Rc = coarsen_ring(R, psi)
    fine = GradedModulePresentation.free(R, [Z2.zero()]).hilbert(
        window2((0, 0), (3, 3))
    )
    table = HilbertTable(fine.window, fine.values)  # no support data
    hwindow = window1(0, 7)
    expected = {h: sum(fine.get(g) for g in fiber(psi, h, fine.window)) for h in hwindow}
    applied = []
    real = GroupEpimorphism.apply

    def counted(self, d):
        applied.append(d)
        return real(self, d)

    monkeypatch.setattr(GroupEpimorphism, "apply", counted)
    out, cert = coarsen_table(table, psi, hwindow, R, Rc, assume_support_covered=True)
    assert cert.route == "assumed"
    assert out.values == expected
    assert [v for _, v in out.rows()] == [1, 2, 3, 4, 3, 2, 1, 0]
    assert applied == list(fine.window)


def test_compare_tables_reports_witnesses():
    w = window1(0, 2)
    a = HilbertTable(w, {h: 1 for h in w})
    values = {h: 1 for h in w}
    values[Z1.degree((1,))] = 2
    b = HilbertTable(w, values)
    agree, witnesses = compare_tables(a, b)
    assert not agree
    assert witnesses == [{"degree": "(1)", "coarsened": 1, "coarse": 2}]
    assert compare_tables(a, a) == (True, [])


# ---------------------------------------------------------------------------
# Element-level identities.
# ---------------------------------------------------------------------------


def test_gamma_identity_mixed_nilpotent():
    # x^2 = 0 kills the whole module, so the torsion submodule is all of
    # it on both sides; the check still pushes actual basis vectors
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    a = MonomialIdeal(R, [R.mono(x=1)])
    rep = check_gamma_identity(a, M, phi, mixed_box(0, 3), window1(0, 3))
    assert rep.ok
    assert [(r.fine_total, r.coarse_dim) for r in rep.rows] == [
        (1, 1),
        (2, 2),
        (2, 2),
        (2, 2),
    ]


def test_gamma_identity_refuses_the_first_fine_degree_before_any_coarse_one():
    # in K[x,y]/(x^2,xy,y^2) the class of 1 is killed from a^[2] on, so
    # four stages see 0, 1, 1, 1 at (0,0): too short a plateau to certify.
    # The fine bases are read over the whole gwindow before any coarse
    # one, so (0,0) is refused although it lies in no fiber over hwindow
    R = fine_ring_xy()
    T = quotient_module(R, {"x": 2}, {"x": 1, "y": 1}, {"y": 2})
    gwindow, hwindow = window2((0, 0), (1, 1)), window1(1, 2)
    with pytest.raises(UnstabilizedError) as err:
        check_gamma_identity(maximal_ideal(R), T, sum_map(), gwindow, hwindow, n_cap=4)
    assert err.value.payload() == {
        "what": "torsion submodule",
        "degree": "(0,0)",
        "trajectory": [0, 1, 1, 1],
    }
    rep = check_gamma_identity(maximal_ideal(R), T, sum_map(), gwindow, hwindow, n_cap=5)
    assert rep.ok
    assert [(r.fine_total, r.coarse_dim) for r in rep.rows] == [(2, 2), (0, 0)]


def test_hom_comparison_mixed():
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    Mx = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=1)]))
    M2 = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    rows = hom_comparison(Mx, M2, phi, mixed_box(0, 3), window1(0, 3))
    assert [(r.fine_total, r.coarse_dim) for r in rows] == [
        (0, 0),
        (1, 1),
        (1, 1),
        (1, 1),
    ]
    assert all(r.injective and r.surjective for r in rows)


# ---------------------------------------------------------------------------
# Commutation of local cohomology with coarsening.
# ---------------------------------------------------------------------------


def test_commutation_mixed_forget_torsion():
    R = mixed_ring_xy()
    phi = forget_torsion_map()
    F = GradedModulePresentation.free(R, [R.group.zero()])
    rep = check_commutation(
        maximal_ideal(R),
        F,
        phi,
        [0, 2],
        mixed_box(-3, 1),
        window1(-3, 1),
        n_cap=6,
    )
    assert rep.verdict == "COMMUTES_ON_WINDOW"
    assert [e.cert.route for e in rep.entries] == ["finite-kernel"] * 2
    top = rep.entries[1]
    assert top.i == 2
    assert [v for _, v in top.coarsened.rows()] == [2, 1, 0, 0, 0]
    assert [v for _, v in top.coarse.rows()] == [2, 1, 0, 0, 0]


def test_commutation_fine_sum_map():
    R = fine_ring_xy()
    psi = sum_map()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    rep = check_commutation(
        maximal_ideal(R),
        F,
        psi,
        [0, 1, 2],
        window2((-2, -2), (0, 0)),
        window1(-2, 0),
        n_cap=7,
        assume_support_covered=True,
    )
    assert rep.verdict == "COMMUTES_ON_WINDOW"
    # the torsion table certifies through its generator degrees; the
    # higher tables carry no support data and lean on the flag
    assert [e.cert.route for e in rep.entries] == [
        "support-generators",
        "assumed",
        "assumed",
    ]
    assert [v for _, v in rep.entries[2].coarsened.rows()] == [1, 0, 0]
    assert all(e.agree for e in rep.entries)


def test_commutation_higher_needs_flag_under_infinite_kernel():
    R = fine_ring_xy()
    psi = sum_map()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    with pytest.raises(CoarseningRefusal):
        check_commutation(
            maximal_ideal(R),
            F,
            psi,
            [1],
            window2((-2, -2), (0, 0)),
            window1(-2, 0),
            n_cap=6,
        )


def test_commutation_unstabilized_verdict():
    R = fine_ring_xy()
    psi = sum_map()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    rep = check_commutation(
        maximal_ideal(R),
        F,
        psi,
        [2],
        window2((-1, -1), (0, 0)),
        window1(-1, 0),
        n_cap=2,
        assume_support_covered=True,
    )
    assert rep.verdict == "UNSTABILIZED"
    assert rep.unstable is not None
    assert rep.unstable["i"] == 2
    assert len(rep.unstable["trajectory"]) == 2
