"""Acceptance gate: nine end-to-end checks, all in exact rational arithmetic.

Each test prints one `criterion N: PASS` (or FAIL) line, visible under
`pytest -s`.  Expected values come from pattern oracles derived from first
principles inside each test, or from frozen golden data in tests/data/;
no expected number is copied from the engine under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from coarsecoh.coarsen import (
    CoarseningCertificate,
    CommutationEntry,
    CommutationReport,
    check_commutation,
    check_gamma_identity,
    hom_comparison,
)
from coarsecoh.grading import DegreeWindow
from coarsecoh.linalg import Mat, rank
from coarsecoh.localcoh import (
    cech_table,
    check_transform_sequence,
    ideal_transform,
    local_cohomology,
    torsion_submodule,
)
from coarsecoh.monoidx import (
    MonoidAlgebraElement,
    build_witness_hom,
    counterexample_report,
    graded_component_count,
    idempotency_witness,
    local_finiteness_table,
    non_finite_generation_witness,
)
from coarsecoh.ringcore import GradedModulePresentation, HilbertTable, MonomialIdeal
from coarsecoh.scenario import parse_scenario

from helpers import (
    Z1,
    Z2,
    Z_Z2,
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

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _criterion(n: int, body) -> None:
    try:
        body()
    except BaseException:
        print("criterion %d: FAIL" % n)
        raise
    print("criterion %d: PASS" % n)


# -- oracles ----------------------------------------------------------------


def laurent_two_term_dims(g: int) -> tuple[int, int]:
    """Brute-force kernel and cokernel of the two-term complex at degree g
    for K[x] supported at (x): source basis {x^g} when g >= 0 (empty
    otherwise), target basis {x^g} always (x acts invertibly), inclusion
    written out as an explicit matrix."""
    cols = [{0: Fraction(1)}] if g >= 0 else []
    r = rank(Mat.from_columns(cols, 1))
    return len(cols) - r, 1 - r


def fine_h2_oracle(a: int, b: int) -> int:
    """Top cohomology of K[x,y] at the maximal ideal, fine grading: one
    dimension per Laurent cell x^a y^b with both exponents negative that is
    killed by the two single-variable localizations."""
    return 1 if a <= -1 and b <= -1 else 0


def std_h2_oracle(h: int) -> int:
    """Fiber count of the fine pattern: lattice cells (a, b), a,b <= -1,
    a + b = h."""
    return len([a for a in range(h + 1, 0) if h - a <= -1])


# -- shared expensive runs --------------------------------------------------


@pytest.fixture(scope="module")
def mixed_run():
    scn = parse_scenario((SCENARIOS / "mixed-plane.scn").read_text())
    scn.require("group", "ring", "ideal", "module", "psi", "gwindow", "hwindow")
    rep = check_commutation(
        scn.ideal,
        scn.module,
        scn.psi,
        [0, 1, 2],
        scn.gwindow,
        scn.hwindow,
        n_cap=scn.n_cap,
        coarse_certificate=scn.coarse_certificate,
    )
    return scn, rep


@pytest.fixture(scope="module")
def fine_run():
    # the fine window is the fiber-covering band over h in [-5, 0]: a box
    # reaching the corner (-4,-4) would force a deeper power tower without
    # adding any fiber cell, and the display box of the pattern check
    # cannot certify h = -5 at all
    R = fine_ring_xy()
    m = maximal_ideal(R)
    F = GradedModulePresentation.free(R, [Z2.zero()])
    band = DegreeWindow(
        Z2,
        [
            Z2.degree((a, b))
            for a in range(-4, 1)
            for b in range(-4, 1)
            if -5 <= a + b <= 0
        ],
    )
    hw = window1(-5, 0)
    rep = check_commutation(
        m,
        F,
        sum_map(),
        [0, 1, 2],
        band,
        hw,
        n_cap=7,
        assume_support_covered=True,
        coarse_certificate=(1,),
    )
    return band, hw, rep


# -- the gate ---------------------------------------------------------------


def test_criterion_1_laurent_pattern():
    def body():
        R = ring_x()
        a = maximal_ideal(R)
        M = GradedModulePresentation.free(R, [Z1.zero()])
        w = window1(-6, 4)
        h1_cech = local_cohomology(a, 1, M, w, route="cech", ray_cap=10)
        h1_ext = local_cohomology(a, 1, M, w, route="ext", n_cap=10)
        h0_cech = cech_table(a, 0, M, w, ray_cap=10)
        h0_ext = torsion_submodule(a, M, w, n_cap=10)
        for g in w:
            want_h0, want_h1 = laurent_two_term_dims(g.free[0])
            assert h1_cech.get(g) == want_h1
            assert h1_ext.get(g) == want_h1
            assert h0_cech.get(g) == want_h0 == 0
            assert h0_ext.get(g) == want_h0
        assert [h1_cech.get(g) for g in w] == [1] * 6 + [0] * 5

    _criterion(1, body)


def test_criterion_2_fine_pattern():
    def body():
        R = fine_ring_xy()
        m = maximal_ideal(R)
        F = GradedModulePresentation.free(R, [Z2.zero()])
        w = window2((-3, -3), (1, 1))
        for i in (0, 1, 2):
            t_cech = local_cohomology(m, i, F, w, route="cech", ray_cap=8)
            t_ext = local_cohomology(m, i, F, w, route="ext", n_cap=8)
            for g in w:
                a, b = g.free
                want = fine_h2_oracle(a, b) if i == 2 else 0
                assert t_cech.get(g) == want, (i, str(g))
                assert t_ext.get(g) == want, (i, str(g))

    _criterion(2, body)


def test_criterion_3_sum_coarsening_commutes(fine_run):
    def body():
        band, hw, rep = fine_run
        # arithmetic consistency of the two oracles: summing the fine
        # pattern over a full fiber is the coarse pattern
        for h in range(-5, 1):
            assert sum(fine_h2_oracle(a, h - a) for a in range(-9, 9)) == std_h2_oracle(h)
        assert rep.verdict == "COMMUTES_ON_WINDOW"
        by_i = {e.i: e for e in rep.entries}
        assert sorted(by_i) == [0, 1, 2]
        assert by_i[0].cert.route == "support-generators"
        assert by_i[1].cert.route == "assumed"
        assert by_i[2].cert.route == "assumed"
        for i, e in by_i.items():
            for h in hw:
                want = std_h2_oracle(h.free[0]) if i == 2 else 0
                assert e.coarse.get(h) == want, (i, str(h))
                assert e.coarsened.get(h) == want, (i, str(h))
        t2 = by_i[2].coarsened
        assert t2.get(Z1.degree((-2,))) == 1
        assert t2.get(Z1.degree((-3,))) == 2

    _criterion(3, body)


def test_criterion_4_finite_kernel_commutes(mixed_run):
    def body():
        scn, rep = mixed_run
        assert scn.psi.kernel_is_finite()
        assert rep.verdict == "COMMUTES_ON_WINDOW"
        assert [e.i for e in rep.entries] == [0, 1, 2]
        for e in rep.entries:
            assert e.cert.route == "finite-kernel"
            for h in scn.hwindow:
                want = std_h2_oracle(h.free[0]) if e.i == 2 else 0
                assert e.coarse.get(h) == want, (e.i, str(h))
                assert e.coarsened.get(h) == want, (e.i, str(h))

    _criterion(4, body)


def test_criterion_5_transform_sequence():
    def checked(a, M, w):
        rep = check_transform_sequence(a, M, w)
        assert rep.verdict == "OK" and not rep.witnesses
        # the rows read D^0 off ExtStage.cocycles_only(); ideal_transform
        # reads it through ext_subquotient with the boundaries dropped
        d0 = ideal_transform(a, 0, M, w)
        assert [row.d0 for row in rep.rows] == [d0.get(g) for g in w]
        return rep

    def body():
        # scenario a: the line, supported at (x)
        R = ring_x()
        M = GradedModulePresentation.free(R, [Z1.zero()])
        rep = checked(maximal_ideal(R), M, window1(-3, 2))
        for row in rep.rows:
            g = row.degree.free[0]
            assert (row.gamma, row.module, row.d0, row.h1) == (
                0,
                1 if g >= 0 else 0,
                1,
                1 if g <= -1 else 0,
            )
            assert row.kernel_matches_torsion and row.residual_surjective
            assert row.composite_zero and row.exact_at_transform
            assert row.alternating_sum_zero and row.h1_routes_agree
        assert rep.higher == [
            {"i": 1, "agree": True, "witnesses": [], "degrees_checked": 6}
        ]

        # scenario b: the fine plane, supported at (x, y)
        R2 = fine_ring_xy()
        M2 = GradedModulePresentation.free(R2, [Z2.zero()])
        rep2 = checked(maximal_ideal(R2), M2, window2((-2, -2), (1, 1)))
        for row in rep2.rows:
            a, b = row.degree.free
            free_dim = 1 if a >= 0 and b >= 0 else 0
            assert (row.gamma, row.module, row.d0, row.h1) == (0, free_dim, free_dim, 0)
        hi = {e["i"]: e for e in rep2.higher}
        assert sorted(hi) == [1, 2]
        assert all(e["agree"] and e["degrees_checked"] == 16 for e in hi.values())

        # scenario c: a torsion module, where the torsion part is everything
        M3 = quotient_module(R, {"x": 2})
        rep3 = checked(maximal_ideal(R), M3, window1(-2, 3))
        for row in rep3.rows:
            g = row.degree.free[0]
            assert row.gamma == row.module == (1 if g in (0, 1) else 0)
            assert row.d0 == row.h1 == 0

    _criterion(5, body)


def test_criterion_6_gamma_identity():
    def body():
        # free module over the fine plane: both torsion parts vanish and
        # the identification is an equality of zero subspaces
        R = fine_ring_xy()
        F = GradedModulePresentation.free(R, [Z2.zero()])
        rep = check_gamma_identity(
            maximal_ideal(R),
            F,
            sum_map(),
            window2((-1, -1), (1, 1)),
            window1(-2, 2),
            n_cap=4,
            coarse_certificate=(1,),
        )
        assert rep.ok and all(r.spans_agree for r in rep.rows)
        assert all(r.fine_total == r.coarse_dim == 0 for r in rep.rows)

        # free module over the mixed grading
        Rm = mixed_ring_xy()
        Fm = GradedModulePresentation.free(Rm, [Z_Z2.zero()])
        repm = check_gamma_identity(
            maximal_ideal(Rm),
            Fm,
            forget_torsion_map(),
            DegreeWindow.box(Z_Z2, -1, 1),
            window1(-1, 1),
            n_cap=4,
            coarse_certificate=(1,),
        )
        assert repm.ok and all(r.fine_total == r.coarse_dim == 0 for r in repm.rows)

        # reinforcement with nonzero torsion: the square of the maximal
        # ideal leaves dimensions 1, 2 at levels 0, 1; the torsion chain at
        # (0,0) first grows at a^[2], so it takes five stages to certify
        T = quotient_module(R, {"x": 2}, {"x": 1, "y": 1}, {"y": 2})
        rept = check_gamma_identity(
            maximal_ideal(R),
            T,
            sum_map(),
            window2((0, 0), (1, 1)),
            window1(0, 2),
            n_cap=5,
            coarse_certificate=(1,),
        )
        assert rept.ok
        dims = {r.h.free[0]: (r.fine_total, r.coarse_dim) for r in rept.rows}
        assert dims == {0: (1, 1), 1: (2, 2), 2: (0, 0)}

    _criterion(6, body)


def test_criterion_7_hom_monomorphism_law():
    def body():
        rng = random.Random(74)

        def random_quotient(ring):
            gens = []
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                while e == (0, 0):
                    e = (rng.randint(0, 3), rng.randint(0, 3))
                gens.append(e)
            return GradedModulePresentation.quotient_by_ideal(
                MonomialIdeal(ring, gens)
            )

        hw = window1(0, 3)
        checked = 0
        for trial in range(25):
            if trial % 2 == 0:
                ring, psi = fine_ring_xy(), sum_map()
                gw = window2((0, 0), (3, 3))
            else:
                ring, psi = mixed_ring_xy(), forget_torsion_map()
                gw = DegreeWindow.box(Z_Z2, 0, 3)
            M = random_quotient(ring)
            N = random_quotient(ring)
            for row in hom_comparison(M, N, psi, gw, hw, coarse_certificate=(1,)):
                assert row.fine_total <= row.coarse_dim
                assert row.injective
                # every source here is finitely presented, so the
                # comparison must in fact be onto
                assert row.fine_total == row.coarse_dim
                assert row.surjective
                checked += 1
        assert checked == 100

    _criterion(7, body)


def test_criterion_8_witness_family():
    def body():
        for K in range(1, 11):
            f = build_witness_hom(K)
            assert f.support_degrees() == list(range(1, K + 1))
            assert graded_component_count(f) == K
            assert all(r["ok"] for r in local_finiteness_table(f))
            rng = random.Random(800 + K)
            alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert idempotency_witness(alpha).verified
            for _ in range(5):
                cands = [
                    MonoidAlgebraElement.basis(
                        Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    )
                    for _ in range(rng.randint(1, 4))
                ]
                gap = non_finite_generation_witness(cands)
                floor = min(c.min_exponent() for c in cands)
                assert gap.floor == floor
                assert gap.witness.min_exponent() == floor / 2
        rep = counterexample_report(10, seed=3)
        assert rep.support == list(range(1, 11))
        assert all(w.verified for w in rep.idempotency)
        assert "external theory" in rep.external_claim
        assert "Not certified here" in rep.external_claim

    _criterion(8, body)


def test_criterion_9_checker_sensitivity(mixed_run, fine_run):
    def body():
        golden = json.loads((DATA / "golden_tables.json").read_text())
        runs = {"mixed-forget-torsion": mixed_run[-1], "fine-sum": fine_run[-1]}
        for name, blob in golden.items():
            rep = runs[name]
            hw = window1(blob["hwindow"]["lo"], blob["hwindow"]["hi"])
            by_i = {e.i: e for e in rep.entries}
            for i_str, vals in blob["tables"].items():
                i = int(i_str)
                true = HilbertTable(hw, {h: vals[str(h)] for h in hw})
                # drift guard: the freshly computed run still matches gold
                fresh = by_i[i].coarse
                assert {str(h): fresh.get(h) for h in hw} == vals
                cert = CoarseningCertificate("assumed", "golden-table replay")
                base = CommutationReport(
                    blob["n_cap"], [CommutationEntry(i, true, true, cert)]
                )
                assert base.verdict == "COMMUTES_ON_WINDOW"
                for h in hw:
                    deltas = (1,) if vals[str(h)] == 0 else (1, -1)
                    for delta in deltas:
                        bad = dict(true.values)
                        bad[h] = bad[h] + delta
                        mutated = HilbertTable(hw, bad)
                        report = CommutationReport(
                            blob["n_cap"], [CommutationEntry(i, mutated, true, cert)]
                        )
                        assert report.verdict == "FAILS"
                        assert report.entries[0].witnesses == [
                            {
                                "degree": str(h),
                                "coarsened": vals[str(h)] + delta,
                                "coarse": vals[str(h)],
                            }
                        ]

    _criterion(9, body)
