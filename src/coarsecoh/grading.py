"""Degree groups, degrees, windows, and epimorphisms between degree groups.

A degree group is Z^r direct sum Z/m_1 x ... x Z/m_t, presented by its free
rank and the tuple of torsion orders.  Degrees are (free part, torsion
part) with the torsion part kept reduced.  ``DegreeGroup.degree`` is the
only place a degree is validated: it checks the shape against the group,
coerces every coordinate to int and reduces the torsion part.  Arithmetic
between degrees of one group (``+``, ``-``, negation, ``scale``) builds
its result directly and only reduces the torsion coordinates modulo their
orders, so the long runs of additions in rays, monomial recurrences and
fiber walks pay no validation.  Windows are explicit finite boxes on the
free part crossed with the full torsion group; nothing is ever widened
implicitly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, mod, sub

from .linalg import RowSpan


@dataclass(frozen=True)
class DegreeGroup:
    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for m in self.torsion_orders:
            if m < 2:
                raise ValueError("torsion orders must be at least 2")

    def degree(self, free=(), torsion=()) -> "Degree":
        free = tuple(map(int, free))
        torsion = tuple(map(int, torsion))
        if len(free) != self.free_rank or len(torsion) != len(self.torsion_orders):
            raise ValueError("degree shape does not match the group")
        return Degree(self, free, tuple(map(mod, torsion, self.torsion_orders)))

    def zero(self) -> "Degree":
        return self.degree((0,) * self.free_rank, (0,) * len(self.torsion_orders))

    def torsion_tuples(self):
        return itertools.product(*[range(m) for m in self.torsion_orders])

    @property
    def generator_count(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def generators(self) -> list["Degree"]:
        gens = []
        for i in range(self.free_rank):
            f = [0] * self.free_rank
            f[i] = 1
            gens.append(self.degree(f, (0,) * len(self.torsion_orders)))
        for k in range(len(self.torsion_orders)):
            t = [0] * len(self.torsion_orders)
            t[k] = 1
            gens.append(self.degree((0,) * self.free_rank, t))
        return gens

    def __str__(self):
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        parts.extend("Z/%d" % m for m in self.torsion_orders)
        return " * ".join(parts) if parts else "0"


class Degree:
    """An element of a degree group: free coordinates and reduced torsion
    coordinates, as tuples of ints.

    Build degrees with ``DegreeGroup.degree``, which validates them.  A
    degree is never changed after it is built: its hash is computed once,
    at construction.  Equality compares the hash, then the coordinates,
    then the group; degrees of different groups are never equal."""

    __slots__ = ("group", "free", "torsion", "_hash")

    def __init__(self, group: DegreeGroup, free: tuple, torsion: tuple):
        self.group = group
        self.free = free
        self.torsion = torsion
        self._hash = hash((free, torsion))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Degree):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.free == other.free
            and self.torsion == other.torsion
            and (self.group is other.group or self.group == other.group)
        )

    def __repr__(self):
        return "Degree(group=%r, free=%r, torsion=%r)" % (
            self.group, self.free, self.torsion,
        )

    def _group_of(self, other: "Degree") -> DegreeGroup:
        group = self.group
        if other.group is not group and other.group != group:
            raise ValueError("degrees live in different groups")
        return group

    def __add__(self, other: "Degree") -> "Degree":
        group = self._group_of(other)
        torsion = self.torsion
        if torsion:
            torsion = tuple(
                (a + b) % m
                for a, b, m in zip(torsion, other.torsion, group.torsion_orders)
            )
        return Degree(group, tuple(map(add, self.free, other.free)), torsion)

    def __sub__(self, other: "Degree") -> "Degree":
        group = self._group_of(other)
        torsion = self.torsion
        if torsion:
            torsion = tuple(
                (a - b) % m
                for a, b, m in zip(torsion, other.torsion, group.torsion_orders)
            )
        return Degree(group, tuple(map(sub, self.free, other.free)), torsion)

    def __neg__(self) -> "Degree":
        group = self.group
        return Degree(
            group,
            tuple(-a for a in self.free),
            tuple(-a % m for a, m in zip(self.torsion, group.torsion_orders)),
        )

    def scale(self, k: int) -> "Degree":
        group = self.group
        return Degree(
            group,
            tuple(k * a for a in self.free),
            tuple(k * a % m for a, m in zip(self.torsion, group.torsion_orders)),
        )

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def sort_key(self):
        return (self.free, self.torsion)

    def __str__(self):
        f = ",".join(str(a) for a in self.free)
        if self.torsion:
            return "(%s;%s)" % (f, ",".join(str(a) for a in self.torsion))
        return "(%s)" % f


# The most degrees DegreeWindow.box enumerates; a larger box is refused
# before any degree is built.
BOX_CELL_CAP = 100_000


class DegreeWindow:
    """Finite, explicitly enumerated set of degrees, iterated in sorted order.

    ``box`` builds the usual window: an inclusive box on the free part
    crossed with every torsion tuple.
    """

    def __init__(self, group: DegreeGroup, degrees):
        self.group = group
        seen = {}
        for d in degrees:
            if d.group != group:
                raise ValueError("window degree outside the group")
            seen[d] = None
        self.degrees = tuple(sorted(seen, key=Degree.sort_key))
        self._set = frozenset(self.degrees)
        self.free_box: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @staticmethod
    def box(group: DegreeGroup, lo, hi) -> "DegreeWindow":
        lo = (lo,) * group.free_rank if isinstance(lo, int) else tuple(lo)
        hi = (hi,) * group.free_rank if isinstance(hi, int) else tuple(hi)
        if len(lo) != group.free_rank or len(hi) != group.free_rank:
            raise ValueError("box bounds must match the free rank")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("empty box")
        cells = math.prod(b - a + 1 for a, b in zip(lo, hi))
        cells *= math.prod(group.torsion_orders)
        if cells > BOX_CELL_CAP:
            raise ValueError(
                "the box has %d cells, more than the %d a window may have"
                % (cells, BOX_CELL_CAP)
            )
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        degs = [
            group.degree(f, t)
            for f in itertools.product(*ranges)
            for t in group.torsion_tuples()
        ]
        w = DegreeWindow(group, degs)
        w.free_box = (lo, hi)
        return w

    def __contains__(self, d: Degree) -> bool:
        return d in self._set

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self):
        return len(self.degrees)

    def __eq__(self, other):
        return isinstance(other, DegreeWindow) and self._set == other._set

    def __hash__(self):
        return hash(self._set)


def _lattice_is_all(rows: list[list[int]], n: int) -> bool:
    """Does the integer row span of `rows` equal Z^n?

    Euclidean column sweep; the lattice is everything exactly when each
    column yields a pivot of absolute value 1.
    """
    work = [list(r) for r in rows]
    top = 0
    for col in range(n):
        while True:
            nz = [i for i in range(top, len(work)) if work[i][col]]
            if not nz:
                return False
            sel = min(nz, key=lambda i: abs(work[i][col]))
            work[top], work[sel] = work[sel], work[top]
            done = True
            for i in range(top + 1, len(work)):
                if work[i][col]:
                    q = work[i][col] // work[top][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[top])]
                    if work[i][col]:
                        done = False
            if done:
                break
        if abs(work[top][col]) != 1:
            return False
        top += 1
    return True


@dataclass(frozen=True)
class GroupEpimorphism:
    """Homomorphism between degree groups, given on the standard generators.

    `images` lists the image of each free generator, then of each torsion
    generator.  Construction checks well-definedness on torsion; use
    verify_surjective() to certify that it is onto.
    """

    source: DegreeGroup
    target: DegreeGroup
    images: tuple[Degree, ...]

    def __post_init__(self):
        if len(self.images) != self.source.generator_count:
            raise ValueError(
                "need one image per source generator (%d free + %d torsion)"
                % (self.source.free_rank, len(self.source.torsion_orders))
            )
        for img in self.images:
            if img.group != self.target:
                raise ValueError("generator image outside the target group")
        for k, m in enumerate(self.source.torsion_orders):
            img = self.images[self.source.free_rank + k]
            if not img.scale(m).is_zero():
                raise ValueError(
                    "torsion generator %d of order %d maps to an element "
                    "not killed by %d" % (k, m, m)
                )

    @staticmethod
    def identity(group: DegreeGroup) -> "GroupEpimorphism":
        return GroupEpimorphism(group, group, tuple(group.generators()))

    def apply(self, d: Degree) -> Degree:
        if d.group != self.source:
            raise ValueError("degree outside the source group")
        out = self.target.zero()
        coords = list(d.free) + list(d.torsion)
        for c, img in zip(coords, self.images):
            if c:
                out = out + img.scale(c)
        return out

    def verify_surjective(self) -> bool:
        n = self.target.generator_count
        rows = []
        for img in self.images:
            rows.append(list(img.free) + list(img.torsion))
        for k, m in enumerate(self.target.torsion_orders):
            row = [0] * n
            row[self.target.free_rank + k] = m
            rows.append(row)
        return _lattice_is_all(rows, n)

    def kernel_is_finite(self) -> bool:
        """The kernel is finite exactly when the free parts of the free
        generator images span a rank equal to the source free rank."""
        r = self.source.free_rank
        rows = [{k: c for k, c in enumerate(img.free) if c} for img in self.images[:r]]
        return RowSpan(self.target.free_rank, rows).dim == r

    def kernel_elements(self) -> list[Degree]:
        """All kernel elements, for a finite kernel (they are torsion)."""
        if not self.kernel_is_finite():
            raise ValueError("kernel is infinite")
        out = []
        zf = (0,) * self.source.free_rank
        for t in self.source.torsion_tuples():
            d = self.source.degree(zf, t)
            if self.apply(d).is_zero():
                out.append(d)
        return sorted(out, key=Degree.sort_key)
