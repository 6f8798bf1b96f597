"""Multigraded polynomial rings over Q and finitely presented graded modules.

Conventions fixed here and used everywhere else:

* monomials are exponent tuples, one entry per variable;
* the shift M(g) satisfies  M(g)_d = M_{g+d},  so a free module with a
  generator in degree d is R(-d) and its degree-g component has basis the
  monomials of degree g - d;
* every ring carries a positivity certificate: a rational weight vector w
  with  w . (free part of deg x_i) > 0  for each variable.  This makes
  every graded component finite dimensional and effectively enumerable,
  at any degree, so windows only scope output, never computability.
  Positivity is tested against w times the lcm of its denominators, an
  integer vector giving weights of the same sign as w.
  The monomials of a degree h != 0 are the x_i-multiples of those of
  h - deg x_i; the ring's cache keeps every degree below each one asked.

Components of a finitely presented module are computed as explicit
quotient spaces: monomial basis of the free cover in that degree, modulo
the row reduced relation image.  The chosen basis (unreduced monomial
labels outside the pivot set) is deterministic.  Dimensions come first:
a degree in which no generator has monomials is empty, and dim says so
from the ring's monomial cache without building a component.  Every
reader that needs only a dimension asks dim, so a ComponentSpace is
built only for a degree that has labels.  Along a ray g + k d, runway
names the first stage that can be nonzero, from the weight and the
nonnegative coordinates alone (the ring's floor); the stages before it
are 0 and need no read.  It is a lower bound that only skips reads: the
stage it names may be 0 too, so it never certifies or refuses a limit.

A relation is given by its entries alone, one dict {generator index:
Poly} per column, and the presentation derives its degree.  So shifting
a presentation, or coarsening it along psi, passes the same columns to a
new presentation, whose generator degrees and ring give the new
relation degrees.

A component's relation rows are each relation column, scaled to integers
once per presentation, times monomials.  It keeps the quotient
coordinates of each label read as an integer vector and scale (see
linalg), and a multiplication matrix looks its columns up there.

A presentation owns its components and its multiplication cache, and
nothing in them points back at it: dropping the presentation frees them
all by reference counting, with no cycle left for the garbage collector.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul, sub

from .errors import HomogeneityError
from .grading import Degree, DegreeGroup, DegreeWindow
from .linalg import Mat, Q0, RowSpan, frac, int_combination, int_vector

Monomial = tuple  # of int exponents


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_quotient(a: Monomial, b: Monomial) -> Monomial:
    """a / b, requiring divisibility."""
    if not mono_divides(b, a):
        raise ValueError("monomial %r does not divide %r" % (b, a))
    return tuple(map(sub, a, b))


class Poly:
    """Polynomial with rational coefficients, stored as monomial -> coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in dict(terms).items():
                c = frac(c)
                if c:
                    self.terms[tuple(m)] = c

    @staticmethod
    def monomial(m: Monomial, c=1) -> "Poly":
        return Poly({tuple(m): frac(c)})

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items())

    def key(self):
        return tuple(self.items_sorted())

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Q0) + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Q0) + c1 * c2
        return Poly(out)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Poly(%r)" % (self.terms,)


class GradedPolynomialRing:
    """K[x_1..x_n] graded by a degree group, with a positivity certificate."""

    def __init__(
        self,
        group: DegreeGroup,
        var_names,
        var_degrees,
        certificate,
    ):
        self.group = group
        self.var_names = tuple(var_names)
        self.var_degrees = tuple(var_degrees)
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be distinct")
        for d in self.var_degrees:
            if d.group != group:
                raise ValueError("variable degree outside the grading group")
        if len(self.var_degrees) != len(self.var_names):
            raise ValueError("need one degree per variable")
        self.certificate = tuple(frac(c) for c in certificate)
        if len(self.certificate) != group.free_rank:
            raise ValueError("certificate length must equal the free rank")
        # the certificate times the lcm of its denominators: an integer
        # weight with the sign of the rational one, for every positivity test
        scale = math.lcm(*(c.denominator for c in self.certificate))
        self._int_certificate = tuple(
            int(c * scale) for c in self.certificate
        )
        # coordinate k of deg x_1 .. deg x_n, for each free then torsion k
        self._degree_rows = (
            [tuple(d.free[k] for d in self.var_degrees)
             for k in range(group.free_rank)],
            [tuple(d.torsion[k] for d in self.var_degrees)
             for k in range(len(group.torsion_orders))],
        )
        # free coordinates on which no variable has a negative degree: a
        # degree negative on one of them has no monomials
        self._nonneg_coords = tuple(
            k for k, row in enumerate(self._degree_rows[0]) if min(row, default=0) >= 0
        )
        for name, d in zip(self.var_names, self.var_degrees):
            if self.floor(d.free)[0] <= 0:
                raise ValueError(
                    "certificate fails positivity on variable %s of degree %s"
                    % (name, d)
                )
        self._mono_cache: dict[Degree, tuple[Monomial, ...]] = {}

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def floor(self, free) -> tuple[int, ...]:
        """The linear forms of a free part that a degree with monomials
        keeps >= 0: its weight times a fixed positive integer, then its
        coordinates in _nonneg_coords.  Of the degrees of weight 0, only
        0 itself has a monomial."""
        return (sum(map(mul, self._int_certificate, free)),
                *[free[k] for k in self._nonneg_coords])

    def one(self) -> Monomial:
        return (0,) * self.nvars

    def mono(self, **powers) -> Monomial:
        e = [0] * self.nvars
        for name, p in powers.items():
            e[self.var_names.index(name)] = int(p)
        return tuple(e)

    def monomial_degree(self, m: Monomial) -> Degree:
        free_rows, torsion_rows = self._degree_rows
        return self.group.degree(
            [sum(map(mul, m, row)) for row in free_rows],
            [sum(map(mul, m, row)) for row in torsion_rows],
        )

    def poly_degree(self, p: Poly) -> Degree | None:
        """Common degree of all terms, None for the zero polynomial."""
        degs = {self.monomial_degree(m) for m in p.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError(
                "polynomial mixes degrees %s"
                % ", ".join(sorted(str(d) for d in degs))
            )
        return degs.pop()

    def monomials_of_degree(self, g: Degree) -> tuple[Monomial, ...]:
        """All monomials of exact degree g, in lexicographic exponent order.

        Recurrence: mons(h) = {x_i * m : m in mons(h - deg x_i)}, mons(0) = {1},
        and no degree below the floor has monomials: one of weight <= 0
        other than 0, or one negative on a free coordinate where every
        variable is >= 0; the recurrence stops at both without descending.
        Variables weigh > 0, so finitely many degrees lie below g; an
        explicit stack fills them in and the cache keeps each of them as
        well as g."""
        cache = self._mono_cache
        mons = cache.get(g)  # only degrees of this group are ever cached
        if mons is not None:  # an empty degree caches ()
            return mons
        if g.group != self.group:
            raise ValueError("degree outside the grading group")
        floor = self.floor
        stack = [(g, None)]
        while stack:
            h, below = stack.pop()
            if h in cache:
                continue
            if below is not None:  # every degree in below is cached by now
                cache[h] = tuple(sorted({m[:i] + (m[i] + 1,) + m[i + 1:]
                                         for i, b in enumerate(below)
                                         for m in cache[b]}))
                continue
            fl = floor(h.free)
            if min(fl) < 0 or fl[0] == 0:
                cache[h] = (self.one(),) if h.is_zero() else ()
            else:
                below = [h - d for d in self.var_degrees]
                stack.append((h, below))
                stack.extend((b, None) for b in below if b not in cache)
        return cache[g]

    def monomial_str(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.var_names, m):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def poly_str(self, p: Poly) -> str:
        if p.is_zero():
            return "0"
        chunks = []
        for m, c in p.items_sorted():
            ms = self.monomial_str(m)
            if c == 1 and any(m):
                chunks.append(ms)
            elif ms == "1":
                chunks.append(str(c))
            else:
                chunks.append("%s*%s" % (c, ms))
        return " + ".join(chunks)


class MonomialIdeal:
    """Ideal generated by monomials, stored by its minimal generators."""

    def __init__(self, ring: GradedPolynomialRing, gens):
        self.ring = ring
        gens = sorted({tuple(g) for g in gens})
        # a generator survives when no other generator divides it
        self.gens: tuple[Monomial, ...] = tuple(
            g for g in gens if not any(h != g and mono_divides(h, g) for h in gens)
        )

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring is other.ring
            and self.gens == other.gens
        )

    def is_zero(self) -> bool:
        return not self.gens

    def contains_monomial(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def power(self, n: int) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("nonnegative powers only")
        if n == 0:
            return MonomialIdeal(self.ring, [self.ring.one()])
        prods = set()
        for combo in itertools.combinations_with_replacement(self.gens, n):
            m = self.ring.one()
            for g in combo:
                m = mono_mul(m, g)
            prods.add(m)
        return MonomialIdeal(self.ring, prods)

    def bracket_power(self, n: int) -> "MonomialIdeal":
        """a^[n] = (g^n : g a minimal generator), for n >= 1.

        Generator i of the result is gens[i]^n: raising every exponent by
        the same factor keeps both the lex order and minimality.  For s
        generators a^{s(n-1)+1} <= a^[n] <= a^n, so the bracket powers are
        cofinal with the ordinary ones."""
        if n < 1:
            raise ValueError("bracket powers start at n = 1")
        return MonomialIdeal(self.ring, [tuple(n * e for e in g) for g in self.gens])

    def __repr__(self):
        return "MonomialIdeal(%s)" % ", ".join(
            self.ring.monomial_str(g) for g in self.gens
        )


class ComponentSpace:
    """Degree-g component of a finitely presented module, as a quotient
    of the monomial basis of the free cover by the relation image.  It
    reads the module only while it is built and keeps no reference to it."""

    def __init__(self, module: "GradedModulePresentation", degree: Degree):
        self.degree = degree
        ring = module.ring
        labels: list[tuple[int, Monomial]] = []
        for j, dj in enumerate(module.gen_degrees):
            for m in ring.monomials_of_degree(degree - dj):
                labels.append((j, m))
        self.labels = labels
        self._index = index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        # with no labels every relation product is empty: build none
        self.relations = RowSpan(n, ints=[
            {index[(j, mono_mul(m, t))]: c for (j, t), c in col}
            for d, col in zip(module.relation_map.source, module._int_relations)
            for m in ring.monomials_of_degree(degree - d)
        ] if n else [])
        piv = set(self.relations.pivots)
        self.basis_positions = [i for i in range(n) if i not in piv]
        self.basis_labels = [labels[i] for i in self.basis_positions]
        self._coordinate = {i: k for k, i in enumerate(self.basis_positions)}
        self._label_coords: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self.basis_positions)

    def index_of(self, label) -> int:
        return self._index[label]

    def label_coordinates(self, label) -> tuple[dict, int]:
        """(w, s), w / s the quotient coordinates of a label; w is shared."""
        i = self._index[label]
        if i not in self._label_coords:
            self._label_coords[i] = {self._coordinate[k]: x
                                     for k, x in self.relations.unit_residue(i).items()}
        return self._label_coords[i], self.relations.pivot_value(i)

    def reduce(self, vec: dict) -> dict:
        """Quotient coordinates of an ambient free-cover vector."""
        coordinate = self._coordinate
        return {coordinate[i]: x for i, x in self.relations.residue(vec).items()}

    def lift(self, coords: dict) -> dict:
        """The ambient vector of quotient coordinates: the basis labels
        are ambient labels outside the relation pivots."""
        positions = self.basis_positions
        return {positions[k]: x for k, x in coords.items()}


class FreeMap:
    """Homogeneous map  F -> F'  of graded free modules.

    Summand j of the source is R(-source[j]) and summand i of the target
    is R(-target[i]); `columns[j]` holds the nonzero entries {i: Poly} of
    column j, the image of the j-th generator, and a zero entry given is
    dropped.  An entry (i, j) must have degree source[j] - target[i]; the
    indices i are trusted.  A presentation's relations are one FreeMap,
    from the relation degrees it derives to the generator degrees, so its
    refusals call column j relation j and target summand i generator i."""

    def __init__(self, ring, source_shifts, target_shifts, columns):
        self.source = list(source_shifts)
        self.target = list(target_shifts)
        columns = list(columns)
        if len(columns) != len(self.source):
            raise ValueError("need one column per source summand")
        self.columns = []
        for j, col in enumerate(columns):
            entries = {}
            for i, p in col.items():
                if p.is_zero():
                    continue
                got = ring.poly_degree(p)
                want = self.source[j] - self.target[i]
                if got != want:
                    raise HomogeneityError(
                        "relation %d, generator %d: entry has degree %s, "
                        "expected %s" % (j, i, got, want)
                    )
                entries[i] = p
            self.columns.append(entries)

    def after(self, first: "FreeMap") -> list[dict]:
        """Columns of the composite  self o first, nonzero entries only."""
        out = []
        for col in first.columns:
            acc: dict = {}
            for k, a in col.items():
                for i, b in self.columns[k].items():
                    acc[i] = acc[i] + b * a if i in acc else b * a
            out.append({i: e for i, e in acc.items() if not e.is_zero()})
        return out

    def hom(self, N: "GradedModulePresentation", g: Degree) -> Mat:
        """The induced map  Hom(target, N)_g -> Hom(source, N)_g.

        Hom(R(-t), N)_g is N_{g+t}, so block (j, i) is multiplication by
        entry (i, j) from N_{g+target[i]} to N_{g+source[j]}."""
        cols = self.columns
        src = [g + s for s in self.source]
        tgt = [g + t for t in self.target]
        return Mat.block(
            [N.dim(h) for h in src],
            [N.dim(h) for h in tgt],
            lambda j, i: N.multiplication_matrix(cols[j][i], tgt[i], src[j])
            if i in cols[j]
            else None,
        )


class GradedModulePresentation:
    """Finitely presented graded module: free cover generator degrees plus
    homogeneous relation columns, each a dict {generator index: Poly}.
    A column's degree is not given: it is the degree of its first nonzero
    entry, in generator order, plus that generator's degree, so a column
    with no nonzero entry is refused.  The relations are one FreeMap,
    relation_map, from those degrees to the generator degrees; building
    it checks every entry against its column's degree."""

    def __init__(self, ring: GradedPolynomialRing, gen_degrees, relations=()):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        for d in self.gen_degrees:
            if d.group != ring.group:
                raise ValueError("generator degree outside the grading group")
        relations = list(relations)
        self.relation_map = FreeMap(
            ring,
            [self._relation_degree(r, col) for r, col in enumerate(relations)],
            self.gen_degrees,
            relations,
        )
        self._int_relations = [list(int_vector(
            {(j, t): c for j, p in col.items() for t, c in p.terms.items()}
        )[0].items()) for col in self.relation_map.columns]
        self._components: dict[Degree, ComponentSpace] = {}
        self._mult_cache: dict = {}

    def _relation_degree(self, r: int, col: dict) -> Degree:
        """The degree of relation r, from one term of its first nonzero
        entry; FreeMap then checks every entry against it.  An entry at a
        missing generator is refused first, zero or not."""
        for i in col:
            if not 0 <= i < len(self.gen_degrees):
                raise ValueError(
                    "relation %d hits generator %d, which does not exist" % (r, i)
                )
        first = min((i for i, p in col.items() if not p.is_zero()), default=None)
        if first is None:
            raise ValueError("relation %d is identically zero" % r)
        term = next(iter(col[first].terms))
        return self.ring.monomial_degree(term) + self.gen_degrees[first]

    @staticmethod
    def free(ring: GradedPolynomialRing, gen_degrees) -> "GradedModulePresentation":
        return GradedModulePresentation(ring, gen_degrees, ())

    @staticmethod
    def quotient_by_ideal(ideal: MonomialIdeal) -> "GradedModulePresentation":
        ring = ideal.ring
        cols = [{0: Poly.monomial(g)} for g in ideal.gens]
        return GradedModulePresentation(ring, [ring.group.zero()], cols)

    def component(self, g: Degree) -> ComponentSpace:
        """M_g with its basis and coordinates, built once per degree.  Only
        callers that need vectors in M_g ask for it; the dimension alone
        comes from dim, which builds nothing for an empty degree."""
        comp = self._components.get(g)
        if comp is None:
            comp = ComponentSpace(self, g)
            self._components[g] = comp
        return comp

    def dim(self, g: Degree) -> int:
        """dim M_g.  It is 0, with no component built or stored, when no
        generator degree d_j leaves monomials of degree g - d_j; otherwise
        it is the dimension of the component."""
        comp = self._components.get(g)
        if comp is not None:
            return comp.dim
        mons = self.ring.monomials_of_degree
        if not any(mons(g - d) for d in self.gen_degrees):
            return 0
        return self.component(g).dim

    def hilbert(self, window: DegreeWindow) -> "HilbertTable":
        return HilbertTable(
            window,
            {g: self.dim(g) for g in window},
            support_gens=self.gen_degrees,
        )

    def runway(self, g: Degree, d: Degree, cap: int) -> int:
        """The least k in 0..cap at which M_{g + k d} can be nonzero, or
        cap + 1 if there is none.  Stage k can be nonzero only if some
        generator degree d_j leaves g + k d - d_j on the ring's floor (no
        linear form of GradedPolynomialRing.floor negative); the floor is
        linear, so each form x + k y >= 0 bounds k from below (y > 0) or
        above (y < 0), and no Degree is built or monomial looked up.
        Every stage before the runway is 0.  It is a lower bound only:
        the stage it names may be 0 as well."""
        floor = self.ring.floor
        base, step = floor(g.free), floor(d.free)
        firsts = []
        for dj in self.gen_degrees:
            lo, hi = 0, cap
            for x, y in zip(map(sub, base, floor(dj.free)), step):
                if y > 0:
                    lo = max(lo, -(x // y))
                elif y < 0:
                    hi = min(hi, x // -y)
                elif x < 0:
                    hi = -1
            if lo <= hi:
                firsts.append(lo)
        return min(firsts, default=cap + 1)

    def multiplication_matrix(self, f: Poly, g: Degree, target: Degree) -> Mat:
        """Matrix of multiplication by nonzero homogeneous f from M_g to
        M_target, in the chosen component bases.  The caller passes the
        target degree g + deg f that it holds, and it is trusted."""
        key = (f.key(), g)
        cached = self._mult_cache.get(key)
        if cached is not None:
            return cached
        src, tgt = self.component(g), self.component(target)
        terms, s = int_vector(f.terms)
        mat = Mat.of_ints([
            int_combination([(c, tgt.label_coordinates((j, mono_mul(m, t))))
                             for t, c in terms.items()], s)
            for j, m in src.basis_labels
        ], tgt.dim)
        self._mult_cache[key] = mat
        return mat

    def shift(self, d: Degree) -> "GradedModulePresentation":
        """The shifted module M(d), with  M(d)_g = M_{g+d}."""
        return GradedModulePresentation(
            self.ring,
            [x - d for x in self.gen_degrees],
            self.relation_map.columns,
        )


class HilbertTable:
    """Per-degree dimensions over a window.

    `support_gens`, when present, lists generator degrees of a module that
    contains whatever the table measures; coarsening uses it to certify
    that fiber sums are finite.  `stabilized_at`, on tower tables only,
    maps each degree to the stage at which its limit was certified, and
    `global_index` is the largest of them (1 on an empty window).
    """

    def __init__(
        self, window: DegreeWindow, values: dict, support_gens=None, stabilized_at=None
    ):
        self.window = window
        self.values = {g: int(values[g]) for g in window}
        self.support_gens = tuple(support_gens) if support_gens is not None else None
        self.stabilized_at = stabilized_at

    @property
    def global_index(self) -> int:
        return max(self.stabilized_at.values(), default=1)

    def get(self, d: Degree) -> int:
        if d not in self.window:
            raise KeyError("degree %s outside the tabulated window" % d)
        return self.values[d]

    def total(self) -> int:
        return sum(self.values.values())

    def __eq__(self, other):
        return (
            isinstance(other, HilbertTable)
            and self.window == other.window
            and self.values == other.values
        )

    def rows(self) -> list[tuple[str, int]]:
        return [(str(g), self.values[g]) for g in self.window]

    def __repr__(self):
        return "HilbertTable({%s})" % ", ".join(
            "%s: %d" % (g, v) for g, v in sorted(self.values.items(), key=lambda kv: kv[0].sort_key())
        )
