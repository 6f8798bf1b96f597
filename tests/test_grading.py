from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecoh.grading import (
    BOX_CELL_CAP,
    Degree,
    DegreeGroup,
    DegreeWindow,
    GroupEpimorphism,
)

from helpers import fiber

Z1 = DegreeGroup(1)
Z2 = DegreeGroup(2)
Z_Z2 = DegreeGroup(1, (2,))


def test_degree_arithmetic_and_torsion_reduction():
    g = Z_Z2.degree((3,), (1,))
    h = Z_Z2.degree((-1,), (1,))
    s = g + h
    assert s.free == (2,) and s.torsion == (0,)
    assert (-h).free == (1,) and (-h).torsion == (1,)
    assert (g - g).is_zero()
    assert g.scale(2).torsion == (0,)


@st.composite
def degree_groups(draw):
    """Z^r + Z/m_1 + ... with r = 0..3 and orders from {2, 3, 4}."""
    return DegreeGroup(
        draw(st.integers(0, 3)),
        tuple(draw(st.lists(st.sampled_from([2, 3, 4]), max_size=3))),
    )


def degrees_of(draw, group):
    # raw torsion coordinates may be negative or past the order
    coords = st.integers(-9, 9)
    return group.degree(
        draw(st.lists(coords, min_size=group.free_rank, max_size=group.free_rank)),
        draw(st.lists(coords, min_size=len(group.torsion_orders),
                      max_size=len(group.torsion_orders))),
    )


@st.composite
def degree_cases(draw):
    group = draw(degree_groups())
    return group, degrees_of(draw, group), degrees_of(draw, group), draw(st.integers(-4, 5))


def _reduced(d):
    return all(0 <= t < m for t, m in zip(d.torsion, d.group.torsion_orders))


@settings(max_examples=200, deadline=None, database=None)
@given(degree_cases())
def test_degree_value_contract(case):
    G, a, b, k = case
    assert (a + b) - b == a
    assert (a - b) + b == a
    assert a + (-a) == G.zero()
    fold = G.zero()
    for _ in range(abs(k)):
        fold = fold + (a if k >= 0 else -a)
    assert a.scale(k) == fold
    assert hash(a.scale(k)) == hash(fold)
    for d in (a, b, a + b, a - b, -a, a.scale(k)):
        assert _reduced(d)
        assert d.group is G
    # an equal group built separately gives equal degrees, equal hashes,
    # and degrees that add with those of G
    twin = DegreeGroup(G.free_rank, G.torsion_orders)
    a2 = twin.degree(a.free, a.torsion)
    assert a2.group is not G
    assert a2 == a and hash(a2) == hash(a)
    assert {a: 1}[a2] == 1
    assert a2 + b == a + b and b - a2 == b - a


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 3), st.data())
def test_degrees_of_different_groups_never_meet(r, data):
    free = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    t = data.draw(st.integers(0, 1))
    in_z2 = DegreeGroup(r, (2,)).degree(free, (t,))
    in_z3 = DegreeGroup(r, (3,)).degree(free, (t,))
    other_rank = DegreeGroup(r + 1).degree(free + [0])
    assert in_z2.free == in_z3.free and in_z2.torsion == in_z3.torsion
    for x, y in ((in_z2, in_z3), (in_z3, in_z2), (in_z2, other_rank)):
        assert x != y
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y


def test_degree_str():
    assert str(Z2.degree((1, -2))) == "(1,-2)"
    assert str(Z_Z2.degree((4,), (1,))) == "(4;1)"


def test_window_box_iteration_sorted_and_deterministic():
    w = DegreeWindow.box(Z2, (-1, 0), (0, 1))
    degs = list(w)
    assert len(degs) == 4
    assert degs == sorted(degs, key=Degree.sort_key)
    assert Z2.degree((0, 0)) in w
    assert Z2.degree((2, 0)) not in w
    again = DegreeWindow.box(Z2, (-1, 0), (0, 1))
    assert list(again) == degs


def test_window_box_includes_all_torsion():
    w = DegreeWindow.box(Z_Z2, (0,), (1,))
    assert len(w) == 4
    assert Z_Z2.degree((1,), (1,)) in w


def test_empty_box_rejected():
    with pytest.raises(ValueError):
        DegreeWindow.box(Z1, (1,), (0,))


def test_box_over_the_cell_cap_is_refused_with_its_count():
    # 50,001 free values times the two torsion classes: the count is taken
    # from the bounds, so the refusal costs nothing
    assert BOX_CELL_CAP == 100_000
    with pytest.raises(ValueError, match="the box has 100002 cells"):
        DegreeWindow.box(Z_Z2, (0,), (50_000,))
    with pytest.raises(ValueError, match="the box has 10000000000 cells"):
        DegreeWindow.box(Z2, (1, 1), (100_000, 100_000))


def test_identity_epimorphism_total():
    psi = GroupEpimorphism.identity(Z_Z2)
    assert psi.verify_surjective()
    assert psi.kernel_is_finite()
    assert psi.kernel_elements() == [Z_Z2.zero()]
    d = Z_Z2.degree((7,), (1,))
    assert psi.apply(d) == d
    w = DegreeWindow.box(Z_Z2, (0,), (2,))
    e = Z_Z2.degree((1,), (1,))
    assert fiber(psi, e, w) == [e]
    assert fiber(psi, d, w) == []


def test_sum_map_on_z2():
    psi = GroupEpimorphism(Z2, Z1, (Z1.degree((1,)), Z1.degree((1,))))
    assert psi.verify_surjective()
    assert not psi.kernel_is_finite()
    w = DegreeWindow.box(Z2, (-2, -2), (0, 0))
    fib = fiber(psi, Z1.degree((-2,)), w)
    assert [d.free for d in fib] == [(-2, 0), (-1, -1), (0, -2)]


def test_projection_with_torsion_kernel():
    # Z + Z/2 onto Z, forgetting the torsion coordinate
    psi = GroupEpimorphism(Z_Z2, Z1, (Z1.degree((1,)), Z1.zero()))
    assert psi.verify_surjective()
    assert psi.kernel_is_finite()
    ker = psi.kernel_elements()
    assert [(k.free, k.torsion) for k in ker] == [((0,), (0,)), ((0,), (1,))]
    w = DegreeWindow.box(Z_Z2, (-1,), (1,))
    fib = fiber(psi, Z1.degree((0,)), w)
    assert len(fib) == len(ker) == 2


def test_non_surjective_detected():
    psi = GroupEpimorphism(Z1, Z1, (Z1.degree((2,)),))
    assert not psi.verify_surjective()


def test_doubling_into_torsion_not_surjective():
    psi = GroupEpimorphism(Z1, Z_Z2, (Z_Z2.degree((1,), (0,)),))
    # the torsion generator (0;1) is not hit
    assert not psi.verify_surjective()


Z6 = DegreeGroup(0, (6,))


@pytest.mark.parametrize(
    "source, target, images, onto",
    [
        # gcd 1 only after a second Euclid sweep of the column
        (Z2, Z1, [Z1.degree((2,)), Z1.degree((3,))], True),
        (Z2, Z1, [Z1.degree((2,)), Z1.degree((4,))], False),
        # the second column has no pivot left
        (Z1, Z2, [Z2.degree((1, 0))], False),
        # against the relation 6 of Z/6: gcd(5, 6) = 1, gcd(4, 6) = 2
        (Z1, Z6, [Z6.degree((), (5,))], True),
        (Z1, Z6, [Z6.degree((), (4,))], False),
    ],
)
def test_surjectivity_needs_a_unit_pivot_in_every_column(source, target, images, onto):
    assert GroupEpimorphism(source, target, tuple(images)).verify_surjective() is onto


def test_torsion_pushforward_must_be_well_defined():
    with pytest.raises(ValueError):
        GroupEpimorphism(Z_Z2, Z1, (Z1.degree((1,)), Z1.degree((1,))))


def test_surjective_onto_torsion_quotient():
    # Z onto Z/2 by reduction is fine even though free ranks drop
    T = DegreeGroup(0, (2,))
    psi = GroupEpimorphism(Z1, T, (T.degree((), (1,)),))
    assert psi.verify_surjective()
    assert not psi.kernel_is_finite()
