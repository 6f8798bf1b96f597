from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coarsecoh.linalg import (
    DirectedLimit,
    Mat,
    RowSpan,
    Subquotient,
    nullspace,
    rank,
    rref,
    spans_equal,
)

from helpers import chain_limit


def _rand_matrix(rng, m, n):
    return Mat(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)],
        n,
    )


def test_rref_known():
    red, pivots = rref([[2, 4], [1, 2], [0, 1]], 2)
    assert pivots == [0, 1]
    assert red == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_rref_picks_first_nonzero_row():
    # the pivot row for column 0 must be the first row, even though the
    # second has a "nicer" entry
    red, pivots = rref([[Fraction(2, 3), 1], [1, 0]], 2)
    assert pivots == [0, 1]
    assert red[0][0] == 1


def test_rank_nullity_random():
    rng = random.Random(20260819)
    for _ in range(40):
        m = rng.randint(0, 5)
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, m, n)
        ker = nullspace(a)
        assert rank(a) + len(ker) == n
        for v in ker:
            assert a.apply(v) == {}


def test_nullspace_vectors_are_independent():
    rng = random.Random(7)
    for _ in range(20):
        a = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        ker = nullspace(a)
        assert rank(Mat.from_columns(ker, a.ncols)) == len(ker)


def test_mat_mul_apply_consistent():
    rng = random.Random(3)
    a = _rand_matrix(rng, 3, 4)
    b = _rand_matrix(rng, 4, 2)
    ab = a.mul(b)
    assert ab.cols == [a.apply(c) for c in b.cols]


def test_apply_refuses_an_index_outside_the_vector():
    a = Mat([[1, 2], [3, 4]], 2)
    assert a.apply({1: Fraction(1)}) == {0: 2, 1: 4}
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            a.apply({bad: Fraction(1)})


def test_from_columns_refuses_an_index_outside_the_column():
    # an entry at -1 would otherwise land silently in the last row
    assert Mat.from_columns([{1: Fraction(5)}], 2) == Mat([[0], [5]], 1)
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            Mat.from_columns([{0: Fraction(1)}, {bad: Fraction(1)}], 2)


def test_zero_shaped_matrices():
    z = Mat.zero(0, 3)
    assert z.apply({0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}) == {}
    assert rank(z) == 0
    assert len(nullspace(z)) == 3
    w = Mat.zero(3, 0)
    assert w.apply({}) == {}
    assert rank(w) == 0


def test_column_space_basis():
    # the first columns independent of those before them, shared with a
    a = Mat([[1, 2, 0], [2, 4, 1]], 3)
    reps = Subquotient(a.nrows, a.cols, ()).reps
    assert reps == [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}]
    assert reps[0] is a.cols[0] and reps[1] is a.cols[2]


def test_spans_equal():
    e0, e1 = {0: Fraction(1)}, {1: Fraction(1)}
    plus, minus = {0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}
    assert spans_equal([e0, e1], [plus, minus], 2)
    assert not spans_equal([e0], [e1], 2)
    assert spans_equal([], [{}], 2)


def test_row_span_incremental():
    rows = [
        {0: Fraction(1), 1: Fraction(1)},
        {0: Fraction(2), 1: Fraction(2)},
        {2: Fraction(1)},
    ]
    assert [RowSpan(3, rows[: k + 1]).dim for k in range(3)] == [1, 1, 2]
    s = RowSpan(3, rows)
    assert not s.residue({0: Fraction(3), 1: Fraction(3), 2: Fraction(7)})
    assert s.residue({0: Fraction(1)})


def test_subquotient_basic():
    # span{e1, e2} / span{e1 - e2} inside Q^3 is one dimensional
    e0, e1 = {0: Fraction(1)}, {1: Fraction(1)}
    plus, minus = {0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(-1)}
    sq = Subquotient(3, [e0, e1, plus], [minus])
    assert sq.dim == 1
    assert sq.express(e1) == {0: 1}
    assert sq.express({0: Fraction(5), 1: Fraction(5)}) == {0: 10}
    try:
        sq.express({2: Fraction(1)})
        assert False, "expected a failure outside the subquotient"
    except ValueError:
        pass


def test_subquotient_zero_boundaries():
    sq = Subquotient(2, [{0: Fraction(1), 1: Fraction(1)}], [])
    assert sq.dim == 1
    assert sq.lift({0: Fraction(2)}) == {0: 2, 1: 2}


def test_directed_limit_kernel_growth_pattern():
    # dims 0,0,1,1,1,1 with identity transitions once nonzero: the first
    # stage whose image persists is stage 3
    dims = [0, 0, 1, 1, 1, 1]
    ts = [
        Mat.zero(0, 0),
        Mat.zero(1, 0),
        Mat.identity(1),
        Mat.identity(1),
        Mat.identity(1),
    ]
    lim = chain_limit(dims, ts)
    assert lim.stabilized
    assert lim.stabilized_at == 3
    assert lim.limit_dim == 1
    v = {0: Fraction(1)}  # at stage 3
    for t in ts[2:]:
        v = t.apply(v)
    assert lim.express(v) == {0: 1}


def test_directed_limit_all_zero():
    lim = chain_limit([0, 0, 0], [Mat.zero(0, 0), Mat.zero(0, 0)])
    assert lim.stabilized and lim.limit_dim == 0 and lim.stabilized_at == 1


def test_directed_limit_asks_for_no_step_of_an_all_zero_chain():
    def step(k):
        raise AssertionError("an all-zero chain asked for step %d" % k)

    for m in (1, 3, 9):
        lim = DirectedLimit.of([0] * m, step)
        assert (lim.stabilized_at, lim.limit_dim, lim.basis) == (1, 0, [])


def test_directed_limit_rejects_a_step_of_the_wrong_shape():
    steps = [Mat.identity(1), Mat.zero(2, 1), Mat.identity(1)]
    with pytest.raises(ValueError, match="transition 2"):
        DirectedLimit.of([1, 1, 1, 1], steps.__getitem__)


def test_directed_limit_unstabilized_growth():
    # strictly growing with split injections never shows two matching ranks
    dims = [1, 2, 3, 4]
    ts = [
        Mat.from_columns([{i: Fraction(1)} for i in range(k)], k + 1)
        for k in range(1, 4)
    ]
    lim = chain_limit(dims, ts)
    assert not lim.stabilized


def test_directed_limit_plateau_then_growth_needs_room():
    # rank plateau early on, growth later: with the growth close to the
    # cap the chain is refused; with two more stages of room the late
    # plateau certifies and the early one is correctly skipped
    t_id = Mat.identity(1)
    grow = Mat([[1], [0]], 1)
    id2 = Mat.identity(2)
    tight = chain_limit([1, 1, 1, 2, 2, 2], [t_id, t_id, grow, id2, id2])
    assert not tight.stabilized
    roomy = chain_limit(
        [1, 1, 1, 2, 2, 2, 2, 2],
        [t_id, t_id, grow, id2, id2, id2, id2],
    )
    assert roomy.stabilized
    assert roomy.stabilized_at == 4
    assert roomy.limit_dim == 2


def test_directed_limit_nilpotent_death():
    # single-step ranks stay 1 forever but every two-step composite is
    # zero, so the limit is zero even though no stage ever hits dimension 0
    t = Mat([[0, 0], [1, 0]], 2)
    lim = chain_limit([2] * 6, [t] * 5)
    assert lim.stabilized
    assert lim.stabilized_at == 1
    assert lim.limit_dim == 0


def test_directed_limit_death_plus_survivor():
    # one basis line dies after two steps, another survives forever
    t = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 1]], 3)
    lim = chain_limit([3] * 7, [t] * 6)
    assert lim.stabilized
    assert lim.stabilized_at == 1
    assert lim.limit_dim == 1

    def to_end(v):
        for _ in range(6):
            v = t.apply(v)
        return v

    assert lim.express(to_end({2: Fraction(1)})) == {0: 1}
    assert lim.express(to_end({0: Fraction(1)})) == {}


def test_directed_limit_builds_its_model_on_first_read():
    # the certified composite is kept, and the basis and coordinates come
    # from one Subquotient of V_m, built when basis or express is first read
    t = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 1]], 3)
    lim = chain_limit([3] * 7, [t] * 6)
    assert lim.limit_dim == 1 and "_model" not in vars(lim)
    assert lim.basis == [{2: Fraction(1)}]
    assert "_model" in vars(lim) and lim.basis is lim.basis
    fresh = chain_limit([3] * 7, [t] * 6)
    assert fresh.express({2: Fraction(5)}) == {0: 5} and "_model" in vars(fresh)


@pytest.mark.parametrize(
    "dims, transitions",
    [
        ([2] * 6, [Mat([[0, 0], [1, 0]], 2)] * 5),
        ([1, 2, 3, 4], [Mat.zero(b, a) for a, b in [(1, 2), (2, 3), (3, 4)]]),
    ],
    ids=["nilpotent", "zero-maps"],
)
def test_a_zero_limit_keeps_no_composite_and_is_zero_in_the_last_stage(
    dims, transitions
):
    lim = chain_limit(dims, transitions)
    assert lim.stabilized and lim.limit_dim == 0
    assert lim._composite is None
    assert lim.basis == []
    assert lim.express({}) == {}
    # V_m has dimension dims[-1]: its last position holds no limit vector,
    # and a position past it is refused rather than misread
    for outside in (dims[-1] - 1, dims[-1]):
        with pytest.raises(ValueError):
            lim.express({outside: Fraction(1)})


def test_directed_limit_late_arrival_is_refused():
    # everything computed so far is zero but the very last stages pick up
    # an element; the window cannot tell whether it survives
    dims = [0, 0, 1, 1]
    ts = [Mat.zero(0, 0), Mat.zero(1, 0), Mat.identity(1)]
    lim = chain_limit(dims, ts)
    assert not lim.stabilized


def test_directed_limit_last_stage_arrival_is_refused():
    # only the last stage gains an element: no stage before it can vouch
    # for the zero the chain would otherwise certify
    lim = chain_limit([0, 0, 0, 0, 1], [Mat.zero(0, 0)] * 3 + [Mat.zero(1, 0)])
    assert not lim.stabilized


def test_directed_limit_last_stage_growth_is_refused():
    # a plateau of rank 1 that grows at the very last stage
    ids = [Mat.identity(1), Mat.identity(1)]
    lim = chain_limit([1, 1, 1, 2], ids + [Mat([[1], [0]], 1)])
    assert not lim.stabilized


@pytest.mark.parametrize("dims", [[1, 1, 1, 1], [1, 2, 3, 4], [1, 1, 1, 1, 2]])
def test_directed_limit_dying_chain_certifies_zero(dims):
    # zero maps: every stage gains new elements, the last one as many or
    # more than the one before, and everything dies in one step
    zeros = [Mat.zero(dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
    lim = chain_limit(dims, zeros)
    assert lim.stabilized
    assert lim.limit_dim == 0


def test_directed_limit_too_short_to_judge():
    assert not chain_limit([1], []).stabilized
    assert not chain_limit([1, 1], [Mat.identity(1)]).stabilized
    ids = [Mat.identity(1), Mat.identity(1)]
    assert not chain_limit([1, 1, 1], ids).stabilized


_I, _Z = Mat.identity, Mat.zero


@pytest.mark.parametrize(
    "dims, transitions, stabilized_at, basis",
    [
        # K -> 0 -> K -> K -> K -> K, identities after the gap
        ([1, 0, 1, 1, 1, 1], [_Z(0, 1), _Z(1, 0), _I(1), _I(1), _I(1)], 3, [{0: 1}]),
        # K -> K -> 0 -> 0 -> 0 -> 0
        ([1, 1, 0, 0, 0, 0], [_I(1), _Z(0, 1)] + [_Z(0, 0)] * 3, 1, []),
        # K^2 -> K^2 -> 0 -> K -> K -> K -> K
        ([2, 2, 0, 1, 1, 1, 1], [_I(2), _Z(0, 2), _Z(1, 0)] + [_I(1)] * 3, 4, [{0: 1}]),
        # K -> K -> K -> 0 -> K^2 -> K^2 -> K^2 -> K^2, a swap after the gap
        (
            [1, 1, 1, 0, 2, 2, 2, 2],
            [_I(1), _I(1), _Z(0, 1), _Z(2, 0), Mat([[0, 1], [1, 0]]), _I(2), _I(2)],
            5,
            [{1: 1}, {0: 1}],
        ),
    ],
    ids=["gap-then-identities", "dies-into-zeros", "middle-gap", "swap-after-gap"],
)
def test_directed_limit_with_empty_interior_stages(
    dims, transitions, stabilized_at, basis
):
    # a composite through an empty stage has rank 0 and is never formed
    lim = chain_limit(dims, transitions)
    assert lim.stabilized_at == stabilized_at
    assert lim.limit_dim == len(basis)
    assert lim.basis == basis
