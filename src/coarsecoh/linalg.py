"""Exact sparse linear algebra over the rationals.

A vector is a dict ``{index: Fraction}`` that holds its nonzero entries
only: a missing key is a zero, and no routine ever stores a zero.  This
is the one vector format of the package: component coordinates, matrix
columns, kernel bases, subquotient representatives and limit
coordinates all use it, and a vector's length is carried by the matrix
or space it belongs to.  Only two entry points take dense sequences, for
literal matrices: ``Mat(rows, ncols)`` and ``rref``, which also returns
dense rows.  Entries of a dense sequence are converted to ``Fraction``
there.

A matrix acts on column vectors, and a ``Mat`` is its columns, the
images of the basis vectors as every producer builds them, plus its row
count, so maps with zero rows or zero columns keep their shape.

There is one elimination kernel; it runs on primitive integer rows, is
exact and uses no modulus.  A ``RowSpan`` keeps one row ``d e_p + tail``
per pivot column p, with d > 0, content 1 and zeros at the other pivot
columns: its reduced row echelon form scaled to integers.  ``Fraction``
is only the format of the vectors going in (numerators over the lcm of
their denominators) and out (``Fraction(x, d)``).  ``rref``, ``rank``,
``Subquotient`` and ``nullspace``, one pass over the columns that turns
each dependent one into a kernel vector, use it.  ``DirectedLimit``
certifies a limit from ranks alone, and models it as one
``Subquotient`` only when its basis or coordinates are read.

The reduced row echelon form of a list of rows, and so its primitive
integer form, depends only on the space they span, not on the order of
elimination.  So the rows, the pivot columns, the kernel basis (one
vector per free column, in column order), the choice of representatives
in a subquotient (the first vectors that are independent modulo the
boundaries) and every coordinate vector are determined by the input
alone: every rank, kernel and basis in the package is deterministic for
identical input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

Q0 = Fraction(0)
Q1 = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _sparse(v) -> dict:
    """Sparse vector of a dense sequence: its nonzero entries as Fractions."""
    return {j: frac(x) for j, x in enumerate(v) if x}


def _dense(row: dict, n: int) -> list[Fraction]:
    out = [Q0] * n
    for j, x in row.items():
        out[j] = x
    return out


def _ints(v: dict) -> tuple[dict, int]:
    """(w, s): s the lcm of the denominators of v, w the new vector s v."""
    s = lcm(*[x.denominator for x in v.values()])
    if s == 1:
        return {k: x.numerator for k, x in v.items()}, 1
    return {k: x.numerator * (s // x.denominator) for k, x in v.items()}, s


def _fracs(w: dict, s: int) -> dict:
    """The vector w / s of an integer vector w, as Fractions."""
    return {k: Fraction(x, s) for k, x in w.items()}


def _primitive(a: int, t: dict) -> int:
    """Divide t in place, and a, by their content signed like a; return a."""
    g = gcd(a, *t.values())
    g = g if a > 0 else -g
    if g != 1:
        for k in t:
            t[k] //= g
    return a // g


def _check_length(v: dict, n: int) -> None:
    """Refuse a vector with an entry outside positions 0..n-1, which would
    otherwise be read as a wrong row, column or coordinate."""
    if v and (min(v) < 0 or max(v) >= n):
        raise ValueError("vector has an entry outside positions 0..%d" % (n - 1))


def _addmul(v: dict, c: Fraction, w: dict) -> None:
    """v += c * w in place, dropping the entries that cancel."""
    for k, x in w.items():
        y = v.get(k)
        if y is None:
            v[k] = c * x
        else:
            y += c * x
            if y:
                v[k] = y
            else:
                del v[k]


class Mat:
    """Rational matrix with explicit shape, acting on column vectors.

    ``Mat(rows, ncols)`` takes dense rows, for literal matrices; every
    other constructor and method speaks sparse vectors.  ``cols`` holds
    one sparse column per matrix column, a vector of Q^nrows; columns are
    not changed after the matrix is built, so they may be shared."""

    __slots__ = ("cols", "nrows")

    def __init__(self, rows, ncols: int | None = None):
        rows = list(rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self.cols = [_sparse([r[j] for r in rows]) for j in range(ncols)]
        self.nrows = len(rows)

    @staticmethod
    def _of(cols: list[dict], nrows: int) -> "Mat":
        m = object.__new__(Mat)
        m.cols = cols
        m.nrows = nrows
        return m

    @property
    def ncols(self) -> int:
        return len(self.cols)

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Mat":
        return Mat._of([{} for _ in range(ncols)], nrows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._of([{i: Q1} for i in range(n)], n)

    @staticmethod
    def from_columns(cols: list[dict], nrows: int) -> "Mat":
        """The matrix whose column j is the vector cols[j] of Q^nrows."""
        for c in cols:
            _check_length(c, nrows)
        return Mat._of(cols, nrows)

    @staticmethod
    def block(row_dims, col_dims, block_fn) -> "Mat":
        """Block matrix; block_fn(i, j) gives block (i, j), shaped
        row_dims[i] x col_dims[j], or None for a zero block.  It is only
        asked for blocks with both dimensions nonzero, row by row."""
        cols = [{} for _ in range(sum(col_dims))]
        r0 = 0
        for i, rd in enumerate(row_dims):
            c0 = 0
            for j, cd in enumerate(col_dims):
                blk = block_fn(i, j) if rd and cd else None
                if blk is not None:
                    if blk.nrows != rd or blk.ncols != cd:
                        raise ValueError("block (%d,%d) has the wrong shape" % (i, j))
                    for col, bcol in zip(cols[c0 : c0 + cd], blk.cols):
                        for b, x in bcol.items():
                            col[r0 + b] = x
                c0 += cd
            r0 += rd
        return Mat._of(cols, sum(row_dims))

    def is_zero(self) -> bool:
        return not any(self.cols)

    def apply(self, v: dict) -> dict:
        _check_length(v, self.ncols)
        out: dict = {}
        for j, x in v.items():
            _addmul(out, x, self.cols[j])
        return out

    def mul(self, other: "Mat") -> "Mat":
        """self  o  other, as composition of column-vector maps."""
        if other.nrows != self.ncols:
            raise ValueError("shape mismatch in composition")
        return Mat._of([self.apply(c) for c in other.cols], self.nrows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.cols == other.cols
        )

    def __repr__(self):
        dense = [[c.get(i, Q0) for c in self.cols] for i in range(self.nrows)]
        return "Mat(%r, ncols=%d)" % (dense, self.ncols)


class RowSpan:
    """Row span of Q^n in reduced echelon form: pivot column p holds the
    primitive integer row ``_d[p] e_p + _tails[p]``.  ``residue`` clears
    the pivot columns of a vector, which is zero exactly for the span's
    members."""

    def __init__(self, n: int, rows=()):
        self.n = n
        self._d: dict[int, int] = {}
        self._tails: dict[int, dict] = {}
        # rows go in as integer rows, rightmost leading entry first: the span
        # does not depend on the order, and a row that leads left of every
        # pivot so far has no pivot row to clear
        ints = (_ints(r)[0] for r in rows if r)
        for w in sorted(ints, key=min, reverse=True):
            self._reduce(w)
            if w:
                self._insert(w)

    def _reduce(self, w: dict) -> int:
        """Scale the integer vector w by the lcm of the pivot values it hits,
        returned, and clear those pivots in place: each row is zero at the
        other pivots, so one pass suffices."""
        d, tails = self._d, self._tails
        hits = [p for p in w if p in tails]
        if not hits:
            return 1
        s = lcm(*[d[p] for p in hits])
        if s != 1:
            for k in w:
                w[k] *= s
        for p in hits:
            _addmul(w, -(w.pop(p) // d[p]), tails[p])
        return s

    def _insert(self, w: dict) -> None:
        """Add the integer vector w, nonzero and reduced, as the row of its
        leftmost column: every row holding that column is cross-multiplied
        with w and divided by its content."""
        lead = min(w)
        a = _primitive(w.pop(lead), w)
        d, tails = self._d, self._tails
        for p, t in tails.items():
            c = t.pop(lead, None)
            if c is not None:
                t = tails[p] = {k: x * a for k, x in t.items()}
                _addmul(t, -c, w)
                d[p] = _primitive(d[p] * a, t)
        d[lead] = a
        tails[lead] = w

    @property
    def dim(self) -> int:
        return len(self._tails)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._tails)

    def residue(self, v: dict) -> dict:
        """v with the pivot columns of the span cleared; v itself when it
        has none."""
        if not any(p in self._tails for p in v):
            return v
        w, s = _ints(v)
        return _fracs(w, s * self._reduce(w))


class _Coordinates(RowSpan):
    """Coordinates with respect to independent vectors b_0, b_1, ... of Q^n:
    b_i enters the span as b_i + e_(n+i), so every row x + t of the span
    satisfies x = sum t_i b_i.  Reducing w leaves, when w lies in the span
    of the b_i, nothing below column n and minus its coordinates from
    column n on.  Both methods read an integer w and scale s as w / s."""

    def take(self, w: dict, s: int) -> dict | None:
        """Take w / s as the next vector unless it depends on the earlier
        ones: None when it was taken, its coordinates when it depends."""
        n = self.n
        _check_length(w, n)
        s *= self._reduce(w)
        if w and min(w) < n:
            w[n + self.dim] = s
            self._insert(w)
            return None
        return {k - n: Fraction(-x, s) for k, x in w.items()}

    def of(self, w: dict, s: int) -> dict | None:
        """Coordinates of w / s, or None if it is outside the span."""
        n = self.n
        _check_length(w, n)
        s *= self._reduce(w)
        if w and min(w) < n:
            return None
        return {k - n: Fraction(-x, s) for k, x in w.items()}


def rref(rows, ncols: int):
    """Reduced row echelon form.

    Returns (reduced_nonzero_rows, pivot_columns), the rows in pivot
    order."""
    span = RowSpan(ncols, map(_sparse, rows))
    red = []
    for p in span.pivots:
        row = _dense(_fracs(span._tails[p], span._d[p]), ncols)
        row[p] = Q1
        red.append(row)
    return red, span.pivots


def rank(mat: Mat) -> int:
    return RowSpan(mat.nrows, mat.cols).dim


def spans_equal(vecs_a, vecs_b, n: int) -> bool:
    """Do two lists of vectors of Q^n span the same subspace?  They do
    exactly when their integer echelon forms agree."""
    a, b = RowSpan(n, vecs_a), RowSpan(n, vecs_b)
    return a._d == b._d and a._tails == b._tails


def nullspace(mat: Mat) -> list[dict]:
    """Basis of the kernel, one vector per free column, in column order:
    the columns are taken in order, and a column f that depends on the
    earlier independent columns gives e_f minus its coordinates in them."""
    span = _Coordinates(mat.nrows)
    pivots: list[int] = []
    basis = []
    for f, c in enumerate(mat.cols):
        coords = span.take(*_ints(c)) if c else {}
        if coords is None:
            pivots.append(f)
        else:
            v = {f: Q1}
            for i, x in coords.items():
                v[pivots[i]] = -x
            basis.append(v)
    return basis


class Subquotient:
    """A subquotient  span(cocycles) / span(boundaries)  of Q^n.

    Boundaries, vectors or a ``RowSpan`` of Q^n already eliminated (which
    the subquotient then owns), must lie in the cocycle span.  Basis
    classes are represented by the first cocycle vectors that are
    independent modulo boundaries (``reps`` holds those vectors
    themselves, which must not change); express() writes any ambient
    vector of the cocycle span in this basis.
    """

    def __init__(self, n: int, cocycles, boundaries):
        self.n = n
        if not isinstance(boundaries, RowSpan):
            boundaries = RowSpan(n, boundaries)
        self._boundaries = boundaries
        self._classes = _Coordinates(n)
        self.reps: list[dict] = []
        for v in cocycles:
            if self._classes.take(*self._modulo_boundaries(v)) is None:
                self.reps.append(v)

    def _modulo_boundaries(self, v: dict) -> tuple[dict, int]:
        """(w, s) with w / s the vector v with the boundary pivots cleared."""
        w, s = _ints(v)
        return w, s * self._boundaries._reduce(w)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def express(self, v: dict) -> dict:
        """Coordinates of the class of v in the chosen basis."""
        coeffs = self._classes.of(*self._modulo_boundaries(v))
        if coeffs is None:
            raise ValueError("vector lies outside the subquotient")
        return coeffs

    def lift(self, coords: dict) -> dict:
        v: dict = {}
        for k, c in coords.items():
            _addmul(v, c, self.reps[k])
        return v


N_CAP = 6  # default number of tower stages
RAY_CAP = 8  # default length of a Cech localization ray
# The least caps with which the chains DirectedLimit reads, a PowerTower (torsion
# is its position 0) and a localization ray, can be built; a nonzero limit takes 4
# stages (README, design rule 2), so at these floors a limit is 0 or refused.
CAP_FLOORS = {"n_cap": 2, "ray_cap": 1}


def cap_problem(name: str, value: int) -> str | None:
    """Why a cap value is refused, or None when it is allowed."""
    if value >= CAP_FLOORS[name]:
        return None
    return "caps must be positive, and n_cap at least 2: got %s = %d" % (name, value)


@dataclass
class DirectedLimit:
    """Colimit of a finite chain  V_1 -> V_2 -> ... -> V_m  of Q-spaces.

    The chain is a finite window onto an infinite system, so stabilization
    is certified from ranks of long composites rather than single steps.
    Write r[n][k] for the rank of the composite V_n -> V_k.  Stage n
    (with n <= m-3) is called stable when

        r[n][m] == r[n+1][m] == r[n][m-1],

    that is, the rank of the composite to the end of the window changes
    neither when the starting stage advances nor when the anchor is pulled
    back a step.  `stabilized_at` is the smallest stage from which every
    later checkable stage is stable (the scan is anchored at the deepest
    checkable stage, so growth near the cap disqualifies the whole chain).
    The certified rank v then gets a tail guard, one test: when every
    step already has the rank of its composite to the end (r[n][n+1] ==
    r[n][m] for every n <= m-2), so that nothing dies after one step, the
    step into the last stage must have rank v as well, otherwise the
    window ends on unexplained elements and the chain is refused.  That
    is all that is left of "every late stage with J steps of room reaches
    rank v", for J the shortest composite length whose ranks agree with
    the ranks to the end: when J >= 2 only stage m-2 can have room, and
    the scan has read r[m-2][m] == v.  The last stage gets a
    guard of its own: when it gains more elements (its dimension minus the
    rank of the map into it) than the stage before it, the growth is only
    taken for more of a dying chain's dying, that is when v == 0 and the
    stage before the last is not empty.  So 0 -> 0 -> 0 -> K and
    K -> K -> K -> K^2 (identities, then an inclusion) are refused rather
    than read off from the stages before the growth, while
    K -> K^2 -> K^3 -> K^4 with zero maps certifies 0.  Chains whose maps
    eventually become isomorphisms, chains killed by nilpotents
    (single-step ranks stay positive but composites die), and mixtures of
    the two all certify; strictly growing chains and chains whose last
    stages pick up new elements do not.

    The limit is modelled by the image of the composite V_n* -> V_m inside
    V_m; stability makes that image independent of the stage chosen from
    n* up to m-2, which is what lets callers push vectors forward from any
    certified stage and express them in the `basis`.  `limit_dim` is the
    rank v the rule has read.  The model is one ``Subquotient`` of V_m,
    the span of the composite's columns modulo nothing, built the first
    time `basis` or `express` is read: its basis is the independent
    columns of the composite, shared with it, since no column of a
    ``Mat`` is changed after it is built.  A limit of dimension 0 keeps no
    composite, and its model is the zero subspace of V_m.

    The chain is given by its dimensions and a function `step`: step(k)
    is the map V_{k+1} -> V_{k+2}, for k = 0..m-2.  The dimensions come
    first, and a step is asked for only when the rule reads it.  A map
    into or out of an empty stage is zero, so a composite through an empty
    stage has rank 0 and is never formed, and its steps are never asked
    for.  In particular an all-zero chain needs no transitions: it is
    certified 0 at stage 1 from its dimensions alone, with no step asked
    for and no rank scanned.  A composite V_n -> V_k is built as
    (V_{n+1} -> V_k) o (V_n -> V_{n+1}), and ranked only when the rule
    reads its rank: the scan stops at its first unstable stage, and the
    rest of the rule reads only the ranks it names, so most of the
    m(m-1)/2 composites are never formed, nor is the composite of a limit
    of dimension 0.
    """

    dims: list[int]
    stabilized_at: int | None = None
    limit_dim: int = 0
    _composite: Mat | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def of(dims, step) -> "DirectedLimit":
        dims = list(dims)
        m = len(dims)
        lim = DirectedLimit(dims)
        if not any(dims):
            lim.stabilized_at = 1
            return lim
        # composites and their ranks in 0-based indexing, built on demand:
        # comps[n, k] is V_{n+1} -> V_{k+1}, made as comps[n+1, k] o T_n,
        # and comps[k, k + 1] is the step T_k
        comps: dict[tuple[int, int], Mat] = {}
        ranks: dict[tuple[int, int], int] = {}

        def transition(k: int) -> Mat:
            if (k, k + 1) not in comps:
                t = comps[k, k + 1] = step(k)
                if t.ncols != dims[k] or t.nrows != dims[k + 1]:
                    raise ValueError("transition %d has the wrong shape" % (k + 1))
            return comps[k, k + 1]

        def comp(n: int, k: int) -> Mat:
            j = n
            while j < k - 1 and (j, k) not in comps:
                j += 1
            mat = comps[j, k] if j < k - 1 else transition(j)
            for j in range(j - 1, n - 1, -1):
                mat = comps[j, k] = mat.mul(transition(j))
            return mat

        def r(n: int, k: int) -> int:
            if (n, k) not in ranks:
                ranks[n, k] = rank(comp(n, k)) if all(dims[n : k + 1]) else 0
            return ranks[n, k]

        n_star = None
        for n in range(m - 4, -1, -1):
            if r(n, m - 1) == r(n + 1, m - 1) == r(n, m - 2):
                n_star = n
            else:
                break
        if n_star is None:
            return lim
        v = r(n_star, m - 1)
        if all(r(n, n + 1) == r(n, m - 1) for n in range(m - 2)):
            if r(m - 2, m - 1) != v:
                return lim
        if dims[m - 1] - r(m - 2, m - 1) > dims[m - 2] - r(m - 3, m - 2):
            if v > 0 or dims[m - 2] == 0:
                return lim
        lim.stabilized_at = n_star + 1  # stages are numbered from 1
        lim.limit_dim = v
        if v:
            lim._composite = comp(n_star, m - 1)
        return lim

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None

    @functools.cached_property
    def _model(self) -> Subquotient:
        cols = self._composite.cols if self._composite is not None else ()
        sq = Subquotient(self.dims[-1], cols, ())
        if sq.dim != self.limit_dim:
            raise AssertionError(
                "limit built with dimension %d, counted %d" % (sq.dim, self.limit_dim)
            )
        return sq

    @property
    def basis(self) -> list[dict]:
        return self._model.reps

    def express(self, v_end: dict) -> dict:
        """Coordinates in the limit basis of a vector of V_m lying in it."""
        if not self.stabilized:
            raise ValueError("limit not stabilized")
        return self._model.express(v_end)
