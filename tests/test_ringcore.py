from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecoh.errors import HomogeneityError
from coarsecoh.grading import DegreeGroup
from coarsecoh.linalg import Mat, nullspace, rank
from coarsecoh.ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    HilbertTable,
    MonomialIdeal,
    Poly,
    mono_lcm,
    mono_mul,
    mono_quotient,
)

from helpers import (
    Z1,
    Z2,
    Z_Z2,
    fine_ring_xy,
    maximal_ideal,
    mixed_ring_xy,
    ring_x,
    std_ring_xy,
    window1,
    window2,
)


def test_monomial_utilities():
    assert mono_lcm((2, 0), (1, 1)) == (2, 1)
    assert mono_quotient((2, 1), (1, 0)) == (1, 1)
    with pytest.raises(ValueError):
        mono_quotient((1, 0), (0, 1))


def test_poly_arithmetic():
    p = Poly.monomial((1, 0)) + Poly.monomial((0, 1), 2)
    q = Poly.monomial((1, 0)) - Poly.monomial((1, 0))
    assert q.is_zero()
    r = p * Poly.monomial((1, 1), Fraction(1, 2))
    assert r.terms == {(2, 1): Fraction(1, 2), (1, 2): Fraction(1)}


def test_monomials_of_degree_standard():
    R = std_ring_xy()
    for g in range(5):
        ms = R.monomials_of_degree(Z1.degree((g,)))
        assert len(ms) == g + 1
    assert R.monomials_of_degree(Z1.degree((-1,))) == ()
    assert R.monomials_of_degree(Z1.degree((0,))) == ((0, 0),)


def test_monomials_of_degree_fine():
    R = fine_ring_xy()
    assert R.monomials_of_degree(Z2.degree((2, 3))) == ((2, 3),)
    assert R.monomials_of_degree(Z2.degree((-1, 0))) == ()


def test_monomials_of_degree_mixed_torsion():
    R = mixed_ring_xy()
    # x^i y^j has degree (i+j ; i mod 2)
    assert len(R.monomials_of_degree(Z_Z2.degree((2,), (0,)))) == 2
    assert len(R.monomials_of_degree(Z_Z2.degree((2,), (1,)))) == 1
    assert len(R.monomials_of_degree(Z_Z2.degree((5,), (0,)))) == 3


def test_certificate_positivity_enforced():
    with pytest.raises(ValueError):
        GradedPolynomialRing(
            Z1, ("x", "y"), (Z1.degree((1,)), Z1.degree((-1,))), (1,)
        )


def test_ring_with_no_variables():
    R = GradedPolynomialRing(Z1, (), (), (1,))
    assert R.monomials_of_degree(Z1.degree((0,))) == ((),)
    assert R.monomials_of_degree(Z1.degree((1,))) == ()


def _brute_force_monomials(R, g):
    """Every exponent vector in the box e_i <= weight(g) / weight(x_i) whose
    degree is g, sorted; weights are the integer ones of R.floor."""
    w = R.floor(g.free)[0]
    box = [range(w // R.floor(d.free)[0] + 1) for d in R.var_degrees]
    return tuple(m for m in itertools.product(*box) if R.monomial_degree(m) == g)


@st.composite
def graded_rings(draw):
    """A positively graded ring over Z^r + torsion (r = 1..2, orders 2..3,
    0..3 variables) whose variable degrees may have negative free
    coordinates, with a degree of that group."""
    r = draw(st.integers(1, 2))
    G = DegreeGroup(r, tuple(draw(st.lists(st.sampled_from([2, 3]), max_size=2))))
    cert = draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    torsion = st.lists(st.integers(0, 2), min_size=len(G.torsion_orders),
                       max_size=len(G.torsion_orders))
    var_degrees = []
    for _ in range(draw(st.integers(0, 3))):
        free = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        weight = sum(c * f for c, f in zip(cert, free))
        if weight <= 0:  # lift the first coordinate to a positive weight
            free[0] += (cert[0] - weight) // cert[0]
        var_degrees.append(G.degree(free, draw(torsion)))
    names = ["x%d" % i for i in range(len(var_degrees))]
    R = GradedPolynomialRing(G, names, var_degrees, cert)
    g = G.degree(draw(st.lists(st.integers(-2, 4), min_size=r, max_size=r)),
                 draw(torsion))
    return R, g


@settings(max_examples=150, deadline=None, database=None)
@given(graded_rings())
def test_monomials_of_degree_matches_brute_force(case):
    R, g = case
    assert R.monomials_of_degree(g) == _brute_force_monomials(R, g)


@st.composite
def rays(draw):
    """A free module with 1-2 generators over a graded_rings() ring, or
    over the fine Z^r grading of the same rank, a start degree g, a
    direction d that is plus or minus the degree of a monomial (sometimes
    1, so d = 0) and a cap in 0..6."""
    R, g = draw(graded_rings())
    G = R.group
    fine = draw(st.booleans())
    if fine:
        G = DegreeGroup(G.free_rank)
        names = ["x%d" % i for i in range(G.free_rank)]
        R = GradedPolynomialRing(G, names, G.generators(), (1,) * G.free_rank)
        g = G.degree(g.free)
    free = st.lists(st.integers(-3, 3), min_size=G.free_rank, max_size=G.free_rank)
    torsion = st.tuples(*(st.integers(0, m - 1) for m in G.torsion_orders))
    gens = draw(st.lists(st.builds(G.degree, free, torsion), min_size=1, max_size=2))
    exponents = st.lists(st.integers(0, 2), min_size=R.nvars, max_size=R.nvars)
    m = draw(st.one_of(st.just(R.one()), exponents.map(tuple)))
    d = R.monomial_degree(m).scale(draw(st.sampled_from([1, -1])))
    cap = draw(st.integers(0, 6))
    return GradedModulePresentation.free(R, gens), g, d, cap, fine


@settings(max_examples=200, deadline=None, database=None)
@given(rays())
def test_runway_is_the_first_stage_that_can_be_nonzero(case):
    M, g, d, cap, fine = case
    first = M.runway(g, d, cap)
    assert 0 <= first <= cap + 1
    stages = [g + d.scale(k) for k in range(cap + 1)]
    assert [M.dim(h) for h in stages[:first]] == [0] * min(first, cap + 1)
    if fine and first <= cap:
        # the fine grading's floor is exact: a degree on it has a monomial
        assert M.dim(stages[first]) > 0


def test_monomials_under_a_rational_certificate():
    # weights 1/3, 1/6 and 17/6 under the certificate (1/3, 5/2), that is
    # 2, 1 and 17 after scaling by 6: the integer weight used for
    # positivity must keep the sign of these fractions, which neither
    # truncation nor the numerators alone do
    cert = (Fraction(1, 3), Fraction(5, 2))
    degs = (Z2.degree((1, 0)), Z2.degree((-7, 1)), Z2.degree((1, 1)))
    R = GradedPolynomialRing(Z2, "xyz", degs, cert)
    assert [R.floor(d.free)[0] for d in degs] == [2, 1, 17]
    found = 0
    for a in range(-16, 7):
        for b in range(-1, 5):
            g = Z2.degree((a, b))
            ms = R.monomials_of_degree(g)
            assert ms == _brute_force_monomials(R, g)
            found += len(ms) > 1
    assert found
    # weight exactly 0 is refused, and 1/6 accepted in either position
    with pytest.raises(ValueError):
        GradedPolynomialRing(Z2, "xy", (degs[0], Z2.degree((-15, 2))), cert)
    GradedPolynomialRing(Z2, "yx", (degs[1], degs[0]), cert)


def test_monomials_do_not_depend_on_the_order_degrees_are_asked():
    G = DegreeGroup(2, (3,))
    degs = [G.degree((1, 0), (1,)), G.degree((-1, 1), (2,)), G.degree((1, 1), (0,))]
    up, down = (GradedPolynomialRing(G, "xyz", degs, (2, 3)) for _ in range(2))
    window = [G.degree((a, b), (t,))
              for a in range(-2, 6) for b in range(-1, 5) for t in range(3)]
    asked_up = [up.monomials_of_degree(g) for g in window]
    asked_down = [down.monomials_of_degree(g) for g in reversed(window)]
    assert asked_up == asked_down[::-1]
    assert any(len(ms) > 1 for ms in asked_up)


def test_monomials_of_a_high_degree_need_no_deep_recursion():
    R = ring_x()
    assert R.monomials_of_degree(Z1.degree((5000,))) == ((5000,),)


def test_a_high_fine_degree_caches_no_empty_region():
    # every variable is >= 0 on every coordinate, so a degree with a
    # negative coordinate is empty at once: the recurrence visits the box
    # [0,40]^3 and at most its three faces shifted to -1, not the
    # 302,621 positive-weight degrees below (40,40,40)
    G = DegreeGroup(3)
    units = [G.degree(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    R = GradedPolynomialRing(G, "xyz", units, (1, 1, 1))
    assert R.monomials_of_degree(G.degree((40, 40, 40))) == ((40, 40, 40),)
    assert len(R._mono_cache) <= 41**3 + 3 * 41**2


def test_ideal_minimalization_and_powers():
    R = std_ring_xy()
    a = MonomialIdeal(R, [R.mono(x=2), R.mono(x=3)])
    assert a.gens == ((2, 0),)
    m = maximal_ideal(R)
    for n in range(1, 5):
        assert len(m.power(n).gens) == n + 1
    assert m.power(0).gens == ((0, 0),)
    assert m.power(2).contains_monomial((1, 1))
    assert not m.power(2).contains_monomial((1, 0))


def test_bracket_powers_are_cofinal_with_powers():
    # a^{s(n-1)+1} <= a^[n] <= a^n for s generators, and generator i of
    # a^[n] is g_i^n
    R = GradedPolynomialRing(Z1, ("x", "y", "z"), (Z1.degree((1,)),) * 3, (1,))
    ideals = [
        MonomialIdeal(R, [R.mono(x=1), R.mono(y=1)]),
        MonomialIdeal(R, [R.mono(x=2, y=1), R.mono(y=1, z=3)]),
        MonomialIdeal(R, [R.mono(x=1), R.mono(y=1), R.mono(z=1)]),
        MonomialIdeal(R, [R.mono(x=1, y=1), R.mono(y=2), R.mono(x=1, z=1)]),
    ]

    def inside(small, big):
        return all(big.contains_monomial(m) for m in small.gens)

    for a in ideals:
        s = len(a.gens)
        assert s in (2, 3)
        for n in range(1, 5):
            b = a.bracket_power(n)
            assert b.gens == tuple(tuple(n * e for e in g) for g in a.gens)
            assert inside(b, a.power(n))
            assert inside(a.power(s * (n - 1) + 1), b)
    with pytest.raises(ValueError):
        ideals[0].bracket_power(0)


def test_zero_ideal():
    R = ring_x()
    z = MonomialIdeal(R, [])
    assert z.is_zero()
    assert z.power(3).is_zero()


def test_hilbert_full_ring():
    R = std_ring_xy()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    t = F.hilbert(window1(-2, 4))
    assert [t.get(Z1.degree((g,))) for g in range(-2, 5)] == [0, 0, 1, 2, 3, 4, 5]


def test_hilbert_quotient_known_pattern():
    # R/(x^2, xy) in the standard grading: 1, 2, 1, 1 on degrees 0..3
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    )
    t = M.hilbert(window1(0, 3))
    assert [v for _, v in t.rows()] == [1, 2, 1, 1]
    comp2 = M.component(Z1.degree((2,)))
    assert comp2.basis_labels == [(0, (0, 2))]


def test_hilbert_vs_monomial_count_oracle():
    # dim (R/a)_g + #{monomials of degree g inside a} = dim R_g
    R = std_ring_xy()
    a = MonomialIdeal(R, [R.mono(x=3), R.mono(x=1, y=2)])
    M = GradedModulePresentation.quotient_by_ideal(a)
    for g in range(0, 7):
        d = Z1.degree((g,))
        inside = sum(1 for m in R.monomials_of_degree(d) if a.contains_monomial(m))
        assert M.dim(d) + inside == len(R.monomials_of_degree(d))


def test_shifted_free_module():
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.degree((3,))])  # R(-3)
    assert F.dim(Z1.degree((3,))) == 1
    assert F.dim(Z1.degree((2,))) == 0


def test_shift_matches_translated_window():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(x=1, y=1)])
    )
    d = Z1.degree((2,))
    S = M.shift(d)
    for g in range(-2, 4):
        assert S.dim(Z1.degree((g,))) == M.dim(Z1.degree((g + 2,)))


def test_component_reduce_lift_roundtrip():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2)])
    )
    comp = M.component(Z1.degree((3,)))
    assert comp.dim == 2  # xy^2 and y^3 survive, x^2 y dies
    coords = {0: Fraction(2), 1: Fraction(-1)}
    assert comp.reduce(comp.lift(coords)) == coords


def test_multiplication_matrix_known():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(MonomialIdeal(R, [R.mono(x=2)]))
    x = Poly.monomial(R.mono(x=1))
    g1 = Z1.degree((1,))
    mat = M.multiplication_matrix(x, g1, Z1.degree((2,)))
    # bases are exponent-lexicographic: M_1 = {y, x}, M_2 = {y^2, xy};
    # x*y = xy and x*x = 0
    assert mat == Mat([[0, 0], [1, 0]], 2)


COEFFS = [Fraction(p, q) for p in range(-3, 4) for q in (1, 2)]


@st.composite
def presentations(draw, torsions=((), (3,))):
    """A module over K[x_0..x_{n-1}] (n = 1..3), graded by Z or Z + Z/3,
    with 1..2 generators and up to 3 homogeneous relations whose entries
    take every monomial of their degree with a random, possibly zero,
    coefficient, keeping the relations with a nonzero entry; with a degree
    g and a homogeneous f != 0 built the same way on nonzero coefficients."""
    G = DegreeGroup(1, draw(st.sampled_from(torsions)))
    torsion = st.lists(st.integers(0, 2), min_size=len(G.torsion_orders),
                       max_size=len(G.torsion_orders))
    var_degrees = [G.degree([draw(st.integers(1, 2))], draw(torsion))
                   for _ in range(draw(st.integers(1, 3)))]
    names = ["x%d" % i for i in range(len(var_degrees))]
    R = GradedPolynomialRing(G, names, var_degrees, (1,))
    gens = [G.degree([draw(st.integers(0, 1))], draw(torsion))
            for _ in range(draw(st.integers(1, 2)))]

    def above(d, most):
        for _ in range(draw(st.integers(1, most))):
            d = d + draw(st.sampled_from(var_degrees))
        return d

    def poly_of(d, coeffs):
        coeff = st.sampled_from(coeffs)
        return Poly({m: draw(coeff) for m in R.monomials_of_degree(d)})

    relations = []
    for _ in range(draw(st.integers(1, 3))):
        d = above(draw(st.sampled_from(gens)), 2)
        entries = {j: poly_of(d - e, COEFFS) for j, e in enumerate(gens)}
        if any(not p.is_zero() for p in entries.values()):
            relations.append(entries)
    M = GradedModulePresentation(R, gens, relations)
    g = above(draw(st.sampled_from(gens)), 3)
    f = poly_of(above(G.zero(), 2), [c for c in COEFFS if c])
    return M, g, f


def _reference_component(M, h):
    """Relation vectors of M_h over its labels, accumulated term by term,
    and sympy's reduced row echelon form of them."""
    comp = M.component(h)
    index = {lab: i for i, lab in enumerate(comp.labels)}
    rows = []
    rels = M.relation_map
    for d, col in zip(rels.source, rels.columns):
        for m in M.ring.monomials_of_degree(h - d):
            v = [sympy.Rational(0)] * len(index)
            for j, p in col.items():
                for t, c in p.terms.items():
                    v[index[(j, mono_mul(m, t))]] += sympy.Rational(c)
            rows.append(v)
    if not rows:
        return comp, index, [], ()
    red, pivots = sympy.Matrix(rows).rref()
    red = [[Fraction(int(x.p), int(x.q)) for x in red.row(i)]
           for i in range(len(pivots))]
    return comp, index, red, pivots


@settings(max_examples=100, deadline=None, database=None)
@given(presentations())
def test_components_and_multiplication_match_sympy(case):
    M, g, f = case
    tgt_degree = g + M.ring.poly_degree(f)
    for h in (g, tgt_degree):
        comp, index, red, pivots = _reference_component(M, h)
        assert comp.dim == len(comp.labels) - len(red)
        assert comp.basis_labels == [lab for lab, i in index.items() if i not in pivots]
    src = M.component(g)
    tgt, index, red, pivots = _reference_component(M, tgt_degree)
    free = [i for i in range(len(index)) if i not in pivots]
    columns = []
    for j, m in src.basis_labels:
        v = [Fraction(0)] * len(index)
        for t, c in f.terms.items():
            v[index[(j, mono_mul(m, t))]] += c
        for row, p in zip(red, pivots):
            v = [a - v[p] * b for a, b in zip(v, row)]
        columns.append([v[i] for i in free])
    rows = [[col[i] for col in columns] for i in range(len(free))]
    assert M.multiplication_matrix(f, g, tgt_degree) == Mat(rows, len(columns))


@settings(max_examples=100, deadline=None, database=None)
@given(presentations(torsions=((3,),)), st.data())
def test_multiplication_by_lookup_matches_the_fraction_path(case, data):
    """multiplication_matrix reads integer label coordinates; the Fraction
    path reduces the product vector m * f of each basis label instead."""
    M, g, f = case
    t, c = data.draw(st.sampled_from(sorted(f.terms.items())))
    for h in (f, Poly.monomial(t, c)):
        target = g + M.ring.poly_degree(h)
        src, tgt = M.component(g), M.component(target)
        mat = M.multiplication_matrix(h, g, target)
        assert mat.ncols == src.dim and mat.nrows == tgt.dim
        expected = [
            tgt.reduce({tgt.index_of((j, mono_mul(m, u))): x for u, x in h.terms.items()})
            for j, m in src.basis_labels
        ]
        assert mat.cols == expected
        assert all(type(x) is Fraction and x for col in mat.cols for x in col.values())


@settings(max_examples=100, deadline=None, database=None)
@given(presentations(torsions=((3,),)), st.data())
def test_lookup_scaled_and_from_columns_matrices_agree(case, data):
    """A multiplication matrix, stored with the scales of its label
    lookups, and its from_columns copy agree on block, rank, nullspace,
    apply, mul and ==; multiplying by f twice is multiplying by f^2."""
    M, g, f = case
    target = g + M.ring.poly_degree(f)
    mat = M.multiplication_matrix(f, g, target)
    copy = Mat.from_columns([{k: Fraction(x, s) for k, x in w.items()}
                             for w, s in mat._pairs()], mat.nrows)
    assert rank(mat) == rank(copy)
    assert nullspace(mat) == nullspace(copy)
    rnd = data.draw(st.randoms(use_true_random=False))
    v = {k: Fraction(rnd.randint(-3, 3) or 1, rnd.randint(1, 3))
         for k in range(mat.ncols) if rnd.random() < 0.7}
    assert mat.apply(v) == copy.apply(v)
    square = Mat([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2))
                   for _ in range(mat.nrows)] for _ in range(mat.nrows)], mat.nrows)
    assert square.mul(mat) == square.mul(copy)
    if mat.nrows:
        assert mat.mul(Mat.identity(mat.ncols)) == copy
    blocks = [[mat, None], [copy, mat]]
    b_lookup = Mat.block([mat.nrows] * 2, [mat.ncols] * 2, lambda i, j: blocks[i][j])
    b_copy = Mat.block([mat.nrows] * 2, [mat.ncols] * 2,
                       lambda i, j: None if blocks[i][j] is None else copy)
    assert b_lookup == b_copy and rank(b_lookup) == rank(b_copy) == 2 * rank(copy)
    # multiplying by f twice is multiplying by f^2
    target2 = target + M.ring.poly_degree(f)
    product = M.multiplication_matrix(f, target, target2).mul(mat)
    assert product == M.multiplication_matrix(f * f, g, target2)
    assert mat == copy and copy == mat


def _reference_dim(M, h):
    """dim M_h from the monomial labels and relation vectors alone, ranked
    by sympy, without asking M for a component."""
    ring = M.ring
    labels = [(j, m) for j, d in enumerate(M.gen_degrees)
              for m in ring.monomials_of_degree(h - d)]
    index = {lab: i for i, lab in enumerate(labels)}
    rows = []
    rels = M.relation_map
    for d, col in zip(rels.source, rels.columns):
        for m in ring.monomials_of_degree(h - d):
            v = [sympy.Rational(0)] * len(labels)
            for j, p in col.items():
                for t, c in p.terms.items():
                    v[index[(j, mono_mul(m, t))]] += sympy.Rational(c)
            rows.append(v)
    return len(labels) - (sympy.Matrix(rows).rank() if rows and labels else 0)


@settings(max_examples=100, deadline=None, database=None)
@given(presentations())
def test_dim_builds_no_component_for_an_empty_degree(case):
    # degrees whose free coordinate lies below every generator's have no
    # monomial label; dim reads them as 0 and stores no component
    M, g, f = case
    G = M.ring.group
    low = min(d.free[0] for d in M.gen_degrees)
    empty = [G.degree([low - k], [t] * len(G.torsion_orders))
             for k in (1, 2) for t in (0, 1)]
    for h in [g, g + M.ring.poly_degree(f)] + empty:
        assert M.dim(h) == _reference_dim(M, h)
    assert all(M.dim(h) == 0 for h in empty)
    assert all(comp.labels for comp in M._components.values())
    assert not set(empty) & set(M._components)


def test_multiplication_composes():
    R = std_ring_xy()
    M = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.mono(x=2), R.mono(y=3)])
    )
    f = Poly.monomial(R.mono(x=1)) + Poly.monomial(R.mono(y=1), 2)
    e = Poly.monomial(R.mono(y=1))
    g = Z1.degree((1,))
    g1, g2 = g + Z1.degree((1,)), g + Z1.degree((2,))
    lhs = M.multiplication_matrix(f, g1, g2).mul(
        M.multiplication_matrix(e, g, g1)
    )
    rhs = M.multiplication_matrix(f * e, g, g2)
    assert lhs == rhs


def test_relation_homogeneity_diagnostic_names_the_entry():
    # entry 0 makes the column's degree 1; entry 1, of degree 2, implies 2
    R = std_ring_xy()
    bad = {0: Poly.monomial(R.mono(x=1)), 1: Poly.monomial(R.mono(x=2))}
    with pytest.raises(HomogeneityError) as err:
        GradedModulePresentation(R, [Z1.zero(), Z1.zero()], [bad])
    assert "relation 0, generator 1" in str(err.value)
    assert "has degree (2), expected (1)" in str(err.value)


def test_relation_entry_at_a_missing_generator_is_refused_even_when_zero():
    # the index is checked before the column's degree is looked for
    R = std_ring_xy()
    for entry in (Poly.monomial(R.mono(x=1)), Poly.zero()):
        with pytest.raises(ValueError, match="relation 0 hits generator 1, which"):
            GradedModulePresentation(R, [Z1.zero()], [{1: entry}])


def test_a_relation_with_no_nonzero_entry_is_refused():
    # a column's degree comes from its first nonzero entry, so an all-zero
    # column has none
    R = std_ring_xy()
    x = Poly.monomial(R.mono(x=1))
    for zero in ({}, {1: Poly.zero()}, {0: Poly.zero(), 1: Poly.zero()}):
        with pytest.raises(ValueError, match="relation 1 is identically zero"):
            GradedModulePresentation(R, [Z1.zero(), Z1.zero()], [{0: x}, zero])


def test_relation_degree_is_its_first_nonzero_entry_plus_that_generator():
    R = fine_ring_xy()
    x, y = Poly.monomial(R.mono(x=1)), Poly.monomial(R.mono(y=1))
    gens = [Z2.zero(), Z2.degree((1, 0))]
    M = GradedModulePresentation(
        R, gens, [{0: x * y, 1: -y}, {0: Poly.zero(), 1: x}]
    )
    assert M.relation_map.source == [Z2.degree((1, 1)), Z2.degree((2, 0))]
    assert M.relation_map.columns == [{0: x * y, 1: -y}, {1: x}]
    d = Z2.degree((2, -1))
    S = M.shift(d)
    assert S.gen_degrees == tuple(g - d for g in gens)
    assert S.relation_map.source == [e - d for e in M.relation_map.source]
    assert S.relation_map.columns == M.relation_map.columns


def test_poly_degree_mixed_raises():
    R = std_ring_xy()
    p = Poly.monomial(R.mono(x=1)) + Poly.monomial(R.mono(x=2))
    with pytest.raises(HomogeneityError):
        R.poly_degree(p)


def test_zero_module_and_unit_quotient():
    R = ring_x()
    zero = GradedModulePresentation.free(R, [])
    assert zero.dim(Z1.degree((0,))) == 0
    collapsed = GradedModulePresentation.quotient_by_ideal(
        MonomialIdeal(R, [R.one()])
    )
    assert all(collapsed.dim(Z1.degree((g,))) == 0 for g in range(-1, 3))


def test_hilbert_table_equality_and_meta():
    R = ring_x()
    F = GradedModulePresentation.free(R, [Z1.zero()])
    w = window1(0, 2)
    t1 = F.hilbert(w)
    t2 = HilbertTable(w, {g: 1 for g in w})
    assert t1 == t2  # support metadata does not enter equality
    assert t1.support_gens == (Z1.zero(),)


def test_fine_components_are_at_most_one_dimensional():
    R = fine_ring_xy()
    F = GradedModulePresentation.free(R, [Z2.zero()])
    for g in window2((-2, -2), (3, 3)):
        assert F.dim(g) in (0, 1)
