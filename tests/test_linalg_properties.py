"""The sparse kernel of coarsecoh.linalg against sympy on random rational
matrices: shapes up to 12 x 12, densities from 0 to 1, with duplicated
(rescaled) and zero rows mixed in, and entries either small (p/q with
|p| <= 4, q <= 3) or large (numerators up to 10^9 over primes up to 101,
which make the integer kernel's lcm scaling and content removal work).
sympy's exact rref is the reference.
DirectedLimit, which ranks composites on demand, is checked against the
rule that ranks every composite of the chain, kept here as reference."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsecoh.linalg import (
    Mat,
    RowSpan,
    Subquotient,
    nullspace,
    rank,
    rref,
    spans_equal,
)

from helpers import chain_limit, independent_columns

MAX = 12
PROPERTY = settings(max_examples=100, deadline=None, database=None)

# a drawn seed drives the entries: one draw per matrix keeps generation fast
seeds = st.integers(0, 2**32).map(random.Random)
VALUES = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)]
NONZERO = [x for x in VALUES if x]
PRIMES = [p for p in range(2, 102) if all(p % q for q in range(2, p))]


def large_value(rnd):
    """A nonzero rational with a numerator up to 10^9 in absolute value
    over 1 or a prime up to 101."""
    return Fraction(rnd.choice((-1, 1)) * rnd.randint(1, 10**9),
                    rnd.choice([1] + PRIMES))


@st.composite
def rows_of(draw, ncols, max_rows=MAX):
    """Random rows of length ncols at a drawn density, with rescaled
    duplicates and zero rows inserted at random places; the entries come
    from the small or from the large pool."""
    nrows = draw(st.integers(0, max_rows))
    density = draw(st.floats(0, 1))
    rnd = draw(seeds)
    large = draw(st.booleans())
    value = (lambda: large_value(rnd)) if large else (lambda: rnd.choice(NONZERO))
    rows = [
        [value() if rnd.random() < density else Fraction(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for _ in range(draw(st.integers(0, 4))):
        if len(rows) >= max_rows:
            break
        if rows and rnd.random() < 0.5:
            scale = value()
            new = [scale * x for x in rnd.choice(rows)]
        else:
            new = [Fraction(0)] * ncols
        rows.insert(rnd.randrange(len(rows) + 1), new)
    return rows


@st.composite
def matrices(draw):
    ncols = draw(st.integers(0, MAX))
    return draw(rows_of(ncols)), ncols


def vectors(n):
    return st.lists(st.sampled_from(VALUES), min_size=n, max_size=n)


def sym(rows, ncols):
    entries = [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    return sympy.Matrix(len(rows), ncols, entries)


def fracs(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


def sparse(vec):
    """The package's vector format: nonzero entries by index."""
    return {j: Fraction(x) for j, x in enumerate(vec) if x}


def dense(vec, n):
    return [vec.get(j, Fraction(0)) for j in range(n)]


def sym_rank(rows, ncols):
    return len(sym(rows, ncols).rref()[1])


def combination(rnd, rows, ncols):
    """A random vector of the row span of rows."""
    out = [Fraction(0)] * ncols
    for r in rows:
        c = rnd.choice(VALUES)
        out = [a + c * b for a, b in zip(out, r)]
    return out


@PROPERTY
@given(matrices())
def test_rref_rank_nullspace_match_sympy(case):
    rows, ncols = case
    red, pivots = rref(rows, ncols)
    ref, ref_pivots = sym(rows, ncols).rref()
    assert pivots == list(ref_pivots)
    assert red == [fracs(ref.row(i)) for i in range(len(ref_pivots))]
    mat = Mat(rows, ncols)
    assert rank(mat) == len(ref_pivots)
    assert nullspace(mat) == [sparse(fracs(v)) for v in sym(rows, ncols).nullspace()]
    # the same matrix from its sparse columns and from a 2 x 2 block split
    nrows = len(rows)
    by_columns = Mat.from_columns(
        [sparse([r[j] for r in rows]) for j in range(ncols)], nrows
    )
    row_cuts, col_cuts = [0, nrows // 2, nrows], [0, ncols // 2, ncols]
    by_blocks = Mat.block(
        [b - a for a, b in zip(row_cuts, row_cuts[1:])],
        [b - a for a, b in zip(col_cuts, col_cuts[1:])],
        lambda i, j: Mat(
            [r[col_cuts[j] : col_cuts[j + 1]] for r in rows[row_cuts[i] : row_cuts[i + 1]]],
            col_cuts[j + 1] - col_cuts[j],
        ),
    )
    for other in (by_columns, by_blocks):
        assert other == mat
        assert rank(other) == rank(mat)
        assert nullspace(other) == nullspace(mat)
        assert Subquotient(nrows, other.cols, ()).reps == independent_columns(mat)


@PROPERTY
@given(matrices(), st.data())
def test_mat_mul_and_apply_match_sympy(case, data):
    rows, ncols = case
    inner = data.draw(st.integers(0, MAX))
    other = data.draw(st.lists(vectors(inner), min_size=ncols, max_size=ncols))
    product = sym(rows, ncols) * sym(other, inner)
    expected = Mat([fracs(product.row(i)) for i in range(product.rows)], inner)
    assert Mat(rows, ncols).mul(Mat(other, inner)) == expected
    v = data.draw(vectors(ncols))
    image = sym(rows, ncols) * sympy.Matrix(ncols, 1, v)
    assert Mat(rows, ncols).apply(sparse(v)) == sparse(fracs(image))


@PROPERTY
@given(matrices(), st.data())
def test_row_span_agrees_with_ranks(case, data):
    rows, ncols = case
    # row k raises the rank exactly when it is a pivot column of the transpose
    raisers = set(sym(rows, ncols).T.rref()[1])
    dims = [RowSpan(ncols, map(sparse, rows[: k + 1])).dim for k in range(len(rows))]
    added = [d > prev for prev, d in zip([0] + dims, dims)]
    assert added == [k in raisers for k in range(len(rows))]
    span = RowSpan(ncols, map(sparse, rows))
    assert span.dim == len(raisers)
    rnd = data.draw(seeds)
    assert not span.residue(sparse(combination(rnd, rows, ncols)))
    other = data.draw(rows_of(ncols, max_rows=1))
    for v in other:
        inside = not span.residue(sparse(v))
        assert inside == (sym_rank(rows + [v], ncols) == span.dim)


@PROPERTY
@given(matrices(), st.data())
def test_subquotient_agrees_with_ranks(case, data):
    cocycles, n = case
    rnd = data.draw(seeds)
    boundaries = [combination(rnd, cocycles, n) for _ in range(rnd.randrange(7))]
    sq = Subquotient(n, map(sparse, cocycles), map(sparse, boundaries))
    assert sq.dim == sym_rank(cocycles, n) - sym_rank(boundaries, n)
    # the representatives are cocycles, independent modulo the boundaries
    reps = [dense(rep, n) for rep in sq.reps]
    assert all(rep in cocycles for rep in reps)
    assert sym_rank(boundaries + reps, n) == sym_rank(boundaries, n) + sq.dim
    # express() inverts lift() and lands in the class of its argument
    coords = sparse(data.draw(vectors(sq.dim)))
    assert sq.express(sq.lift(coords)) == coords
    v = combination(rnd, cocycles, n)
    diff = [a - b for a, b in zip(dense(sq.lift(sq.express(sparse(v))), n), v)]
    assert sym_rank(boundaries + [diff], n) == sym_rank(boundaries, n)
    outside = data.draw(rows_of(n, max_rows=1))
    for w in outside:
        if sym_rank(cocycles + [w], n) > sym_rank(cocycles, n):
            with pytest.raises(ValueError):
                sq.express(sparse(w))


@PROPERTY
@given(matrices(), st.data())
def test_spans_equal_agrees_with_ranks(case, data):
    basis, n = case
    rnd = data.draw(seeds)
    other = data.draw(rows_of(n))
    r_a = sym_rank(basis, n)
    same = r_a == sym_rank(other, n) == sym_rank(basis + other, n)
    assert spans_equal(map(sparse, basis), map(sparse, other), n) == same
    mixed = [combination(rnd, basis, n) for _ in basis]
    if sym_rank(mixed, n) == r_a:
        assert spans_equal(map(sparse, basis), map(sparse, mixed), n)


def test_overlong_vectors_are_refused_not_misread():
    # coordinates live in the columns past n; a longer vector must not
    # have its tail entries read as coordinates
    sq = Subquotient(2, [{0: Fraction(1)}], [])
    with pytest.raises(ValueError):
        sq.express({2: Fraction(1)})


def eager_limit(dims, transitions):
    """The stabilization rule of DirectedLimit.of computed from every
    composite V_n -> V_k and every rank of the chain; returns
    (stabilized_at, limit_dim, basis)."""
    m = len(dims)
    if all(d == 0 for d in dims):
        return 1, 0, []
    if m < 4:
        return None, 0, []
    comp, ranks = [], []
    for n in range(m):
        row = {n: Mat.identity(dims[n])}
        for k in range(n + 1, m):
            row[k] = transitions[k - 1].mul(row[k - 1])
        comp.append(row)
        ranks.append({k: rank(mat) for k, mat in row.items()})
    stable = [
        ranks[n][m - 1] == ranks[n + 1][m - 1] == ranks[n][m - 2]
        for n in range(m - 3)
    ]
    n_star = None
    for n in range(m - 4, -1, -1):
        if not stable[n]:
            break
        n_star = n
    if n_star is None:
        return None, 0, []
    v = ranks[n_star][m - 1]
    death = next(
        j
        for j in range(1, m)
        if all(ranks[n][n + j] == ranks[n][m - 1] for n in range(m - j))
    )
    for n in (m - 3, m - 2):
        if n + death <= m - 1 and ranks[n][n + death] != v:
            return None, 0, []
    if dims[m - 1] - ranks[m - 2][m - 1] > dims[m - 2] - ranks[m - 3][m - 2]:
        if v > 0 or dims[m - 2] == 0:
            return None, 0, []
    basis = independent_columns(comp[n_star][m - 1])
    return n_star + 1, len(basis), basis


def random_rows(rnd, nrows, ncols, density):
    return [
        [rnd.choice(NONZERO) if rnd.random() < density else Fraction(0)
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


@st.composite
def chains(draw):
    """A chain of 1-9 stages of dimension at most 4: random maps at a drawn
    density between stages of random or of equal dimensions, zero maps,
    one nilpotent map repeated, or injections into stages that grow and
    may settle (the identity on top of random rows)."""
    kind = draw(st.sampled_from(["random", "equal", "zero", "nilpotent", "growing"]))
    density = draw(st.floats(0, 1))
    rnd = draw(seeds)
    m = rnd.randint(1, 9)
    if kind == "nilpotent":
        d = rnd.randint(1, 4)
        t = Mat([[rnd.choice(VALUES) if j < i else 0 for j in range(d)]
                 for i in range(d)], d)
        return [d] * m, [t] * (m - 1)
    if kind == "growing":
        settle = rnd.randint(1, m)  # the stages from here on keep their size
        dims = [rnd.randint(0, 2)]
        for k in range(1, m):
            dims.append(dims[-1] + (k < settle and rnd.randint(0, 1)))
        transitions = [
            Mat([[int(i == j) for j in range(a)] for i in range(a)]
                + random_rows(rnd, b - a, a, density), a)
            for a, b in zip(dims, dims[1:])
        ]
        return dims, transitions
    if kind == "equal":
        dims = [rnd.randint(1, 4)] * m
    else:
        dims = [rnd.randint(0, 4) for _ in range(m)]
    if kind == "zero":
        return dims, [Mat.zero(b, a) for a, b in zip(dims, dims[1:])]
    return dims, [
        Mat(random_rows(rnd, b, a, density), a) for a, b in zip(dims, dims[1:])
    ]


@settings(max_examples=300, deadline=None, database=None)
@given(chains())
def test_directed_limit_reads_the_ranks_of_the_eager_rule(chain):
    dims, transitions = chain
    lim = chain_limit(dims, transitions)
    assert (lim.stabilized_at, lim.limit_dim, lim.basis) == eager_limit(
        dims, transitions
    )


def fraction_vector(v):
    """Does the sparse vector v hold only nonzero Fraction values?"""
    return all(type(x) is Fraction and x for x in v.values())


@PROPERTY
@given(matrices(), st.data())
def test_every_returned_vector_holds_nonzero_fractions(case, data):
    rows, n = case
    red, _ = rref(rows, n)
    assert all(type(x) is Fraction for row in red for x in row)
    assert all(map(fraction_vector, nullspace(Mat(rows, n))))
    span = RowSpan(n, map(sparse, rows))
    for w in data.draw(rows_of(n, max_rows=2)):
        assert fraction_vector(span.residue(sparse(w)))
    rnd = data.draw(seeds)
    boundaries = [combination(rnd, rows, n) for _ in range(rnd.randrange(4))]
    sq = Subquotient(n, map(sparse, rows), map(sparse, boundaries))
    assert all(map(fraction_vector, sq.reps))
    coords = sq.express(sparse(combination(rnd, rows, n)))
    assert fraction_vector(coords)
    assert fraction_vector(sq.lift(coords))


@settings(max_examples=100, deadline=None, database=None)
@given(chains())
def test_limit_basis_and_coordinates_hold_nonzero_fractions(chain):
    lim = chain_limit(*chain)
    assert all(map(fraction_vector, lim.basis))
    if lim.stabilized:
        for i, b in enumerate(lim.basis):
            assert lim.express(b) == {i: Fraction(1)}
        total = {}
        for b in lim.basis:
            for k, x in b.items():
                total[k] = total.get(k, 0) + 3 * x
        coords = lim.express({k: x for k, x in total.items() if x})
        assert fraction_vector(coords)


@PROPERTY
@given(matrices(), st.data())
def test_spans_equal_ignores_scaling_a_row(case, data):
    rows, n = case
    if not rows:
        return
    rnd = data.draw(seeds)
    k = rnd.randrange(len(rows))
    scale = large_value(rnd) if rnd.random() < 0.5 else rnd.choice(NONZERO)
    scaled = rows[:k] + [[scale * x for x in rows[k]]] + rows[k + 1:]
    assert spans_equal(map(sparse, rows), map(sparse, scaled), n)
    other = data.draw(rows_of(n))
    assert spans_equal(map(sparse, rows), map(sparse, other), n) == spans_equal(
        map(sparse, scaled), map(sparse, other), n
    )


@PROPERTY
@given(matrices(), st.data())
def test_residue_clears_the_pivots_and_differs_by_a_span_vector(case, data):
    rows, n = case
    span = RowSpan(n, map(sparse, rows))
    for w in data.draw(rows_of(n, max_rows=3)):
        v = sparse(w)
        res = span.residue(v)
        assert not set(res) & set(span.pivots)
        diff = [a - b for a, b in zip(w, dense(res, n))]
        assert not span.residue(sparse(diff))
        assert sym_rank(rows + [diff], n) == sym_rank(rows, n)
