from __future__ import annotations

from fractions import Fraction

import pytest

from coarsecoh.monoidx import (
    EXTERNAL_CLAIM,
    MAX_LEVEL,
    MonoidAlgebraElement,
    TailIdeal,
    WitnessHom,
    build_witness_hom,
    check_component_linearity,
    counterexample_report,
    graded_component_count,
    idempotency_witness,
    local_finiteness_table,
    non_finite_generation_witness,
    tail_membership,
)


def e(alpha) -> MonoidAlgebraElement:
    return MonoidAlgebraElement.basis(Fraction(alpha))


def oracle_hit_set(level: int, beta: Fraction) -> list[int]:
    """Which components a basis exponent should survive, computed from the
    threshold inequality alone: component k keeps e(beta) iff beta < 1/k."""
    return [k for k in range(1, level + 1) if beta < Fraction(1, k)]


# ---------------------------------------------------------------------------
# Ring arithmetic.
# ---------------------------------------------------------------------------


def test_product_adds_exponents():
    assert e("1/2") * e("1/3") == e("5/6")


def test_one_is_neutral():
    u = e("1/2") + e(2).scaled(3)
    assert e(0) * u == u


def test_square_of_a_sum():
    u = e("1/2") + e(1)
    expected = MonoidAlgebraElement(
        {Fraction(1): 1, Fraction(3, 2): 2, Fraction(2): 1}
    )
    assert u**2 == expected


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MonoidAlgebraElement({Fraction(-1, 2): 1})


def test_cancellation_gives_zero():
    assert (e(1) - e(1)).is_zero()


def test_operations_keep_no_zero_coefficient():
    # (1 - e(1)) (1 + e(1)) = 1 - e(2): the cross terms cancel and go
    assert ((e(0) - e(1)) * (e(0) + e(1))).terms == {0: 1, 2: -1}
    assert e(1).scaled(0).terms == {}
    assert (e(1) + e(1).scaled(-1)).terms == {}
    assert TailIdeal(1).reduce(e(0) + e(1)).terms == {0: 1}


# ---------------------------------------------------------------------------
# Tail ideals.
# ---------------------------------------------------------------------------


def test_tail_membership():
    half_tail = TailIdeal(Fraction(1, 2))
    m = TailIdeal.maximal()
    assert not tail_membership(half_tail, e("1/3"))
    assert tail_membership(m, e("1/3"))
    assert not tail_membership(m, e(0))
    assert tail_membership(m, MonoidAlgebraElement.zero())
    assert tail_membership(half_tail, e("1/2") + e(2))
    assert not tail_membership(half_tail, e("1/3") + e(2))


def test_reduce_drops_exactly_the_tail():
    half_tail = TailIdeal(Fraction(1, 2))
    u = e("1/3") + e("1/2").scaled(5) + e(2)
    assert half_tail.reduce(u) == e("1/3")
    assert half_tail.reduce(e("1/2")).is_zero()


# ---------------------------------------------------------------------------
# Certificates about the maximal graded ideal.
# ---------------------------------------------------------------------------


def test_idempotency_witness():
    for alpha, half in [(1, "1/2"), ("1/7", "1/14"), ("2/3", "1/3")]:
        w = idempotency_witness(Fraction(alpha))
        assert w.verified
        assert w.half == Fraction(half)
    with pytest.raises(ValueError):
        idempotency_witness(0)
    with pytest.raises(ValueError):
        idempotency_witness(Fraction(-1, 2))


def test_generation_gap_witness():
    w = non_finite_generation_witness([e("1/2")])
    assert w.witness == e("1/4")
    w = non_finite_generation_witness([e("1/2"), e("1/3") + e(1)])
    assert w.floor == Fraction(1, 3)
    assert w.witness == e("1/6")
    assert non_finite_generation_witness([e(1)]).witness == e("1/2")


def test_generation_gap_rejects_bad_candidates():
    with pytest.raises(ValueError):
        non_finite_generation_witness([])
    with pytest.raises(ValueError):
        non_finite_generation_witness([MonoidAlgebraElement.zero()])
    with pytest.raises(ValueError):
        non_finite_generation_witness([e(0) + e(1)])


# ---------------------------------------------------------------------------
# The escape family.
# ---------------------------------------------------------------------------


def test_support_is_exactly_the_level():
    for level in range(1, 11):
        hom = build_witness_hom(level)
        assert graded_component_count(hom) == level
        assert hom.support_degrees() == [Fraction(k) for k in range(1, level + 1)]


def test_zero_hom_has_empty_support():
    assert graded_component_count(WitnessHom(0, ())) == 0


def test_build_rejects_level_zero():
    with pytest.raises(ValueError):
        build_witness_hom(0)


def test_apply_matches_threshold_inequality():
    hom = build_witness_hom(3)
    images = hom.apply(e("1/2"))
    assert sorted(images) == oracle_hit_set(3, Fraction(1, 2)) == [1]
    assert images[1] == e("1/2")
    deep = hom.apply(e("1/5"))
    assert sorted(deep) == oracle_hit_set(3, Fraction(1, 5)) == [1, 2, 3]


def test_apply_rejects_elements_outside_the_ideal():
    hom = build_witness_hom(2)
    with pytest.raises(ValueError):
        hom.apply(e(0))


def test_local_finiteness_table_matches_oracle():
    hom = build_witness_hom(6)
    rows = local_finiteness_table(hom, ["1/4", 2, "1/7"])
    assert all(r["ok"] for r in rows)
    assert rows[0]["hits"] == oracle_hit_set(6, Fraction(1, 4)) == [1, 2, 3]
    assert rows[1]["hits"] == []
    assert rows[2]["hits"] == [1, 2, 3, 4, 5, 6]


def test_predicted_hit_set_is_the_fraction_comparison():
    # the predicted side is computed from beta's numerator and denominator;
    # a map with no components probes cheaply, and hits nothing
    for level in range(1, 61):
        probes = [Fraction(2)]
        for k in range(1, level + 2):
            gap = Fraction(1, 2 * k * (k + 1))
            probes += [Fraction(1, k) - gap, Fraction(1, k), Fraction(1, k) + gap]
        rows = local_finiteness_table(WitnessHom(level, ()), probes)
        for beta, row in zip(probes, rows):
            oracle = [k for k in range(1, level + 1) if Fraction(1, k) > beta]
            assert row["expected"] == oracle, (level, beta)


def test_component_linearity():
    hom = build_witness_hom(4)
    assert check_component_linearity(hom, e("3/2"), e("1/5"))
    assert check_component_linearity(hom, e(0) + e("1/2"), e("1/3") + e(4))


def test_counterexample_report():
    rep = counterexample_report(4, seed=1)
    assert rep.level == 4
    assert len(rep.support) == 4
    assert all(row["ok"] for row in rep.probes)
    assert len(rep.idempotency) == 5
    assert all(w.verified for w in rep.idempotency)
    assert len(rep.generation_gaps) == 5
    for gap in rep.generation_gaps:
        assert gap.floor > 0
        assert gap.witness.min_exponent() == gap.floor / 2
    assert rep.linearity_ok
    assert "external theory" in rep.external_claim
    assert "Not certified here" in rep.external_claim
    blob = rep.to_json_dict()
    assert blob["support_size"] == 4
    assert blob["external_claim"] == EXTERNAL_CLAIM
    assert counterexample_report(4, seed=1).to_json_dict() == blob


def test_counterexample_report_refuses_a_level_above_the_bound():
    # the map, its probe table and the report grow as level^2
    with pytest.raises(ValueError, match="from 1 to %d, got" % MAX_LEVEL):
        counterexample_report(MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="from 1 to %d, got" % MAX_LEVEL):
        build_witness_hom(10**9)


def test_counterexample_report_probes_the_map_once(monkeypatch):
    # build_witness_hom certifies the map on the probe set; the report
    # reuses those rows instead of probing the map a second time
    probed = []
    real_apply = WitnessHom.apply

    def counting_apply(self, u):
        probed.append(u)
        return real_apply(self, u)

    monkeypatch.setattr(WitnessHom, "apply", counting_apply)
    rep = counterexample_report(6, seed=2)
    assert len(probed) == len(rep.probes) == 6 + 2
    assert rep.probes == local_finiteness_table(rep.hom)
