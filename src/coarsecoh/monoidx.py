"""Exact workbench for the rational-exponent monoid algebra.

This module studies the algebra whose basis is indexed by nonnegative
rational exponents, with product e(a) * e(b) = e(a + b) and grading by
exponent.  Every graded piece is one-dimensional, but the grading group
(the rationals) is not finitely generated, so none of the integer-graded
machinery in the rest of the package applies here.  What does carry over
is exact arithmetic: elements are finite rational combinations of basis
vectors, the ideals spanned by all exponents at or beyond a threshold are
decidable term by term, and quotients by such ideals have canonical
representatives (drop the terms the ideal absorbs).

The payoff is a concrete escape family of graded maps out of the maximal
graded ideal m (all exponents strictly positive).  For each level K we
take the quotients by the tail ideals with thresholds 1, 1/2, ..., 1/K,
shift the k-th quotient into degree k, and map m into the direct sum by
the canonical projections.  The k-th component is nonzero, witnessed by
the basis element with exponent 1/(k+1), which clears the k-th projection
because 1/(k+1) < 1/k; the components land in pairwise distinct degrees,
so the graded support of the level-K map has size exactly K.  Elements of
the graded Hom module have finite support by construction, so no single
graded element dominates the whole family, while every finite level is an
honest graded map and the projections assemble coherently (each basis
element of m hits only finitely many components, verified exactly on a
probe set).  The jump from "every finite level is certified" to the
infinite-level statement -- that the canonical comparison monomorphism
from regraded Hom into the Hom of the regraded modules fails to be
surjective over this ring -- is external theory; reports label that claim
as imported, never as checked here.

Two structural facts about m that the construction leans on are certified
alongside it: m is idempotent (every e(a) with a > 0 is the square of
e(a/2), which again lies in m), and m is not finitely generated (given
any finite set of members, halving the least exponent that occurs
produces a member of m that no combination of the candidates can reach,
by an exact exponent bound).

Degrees in this module are plain ``fractions.Fraction`` values; the
finitely generated degree groups of :mod:`coarsecoh.grading` never
appear.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MonoidAlgebraElement",
    "TailIdeal",
    "WitnessComponent",
    "WitnessHom",
    "IdempotencyWitness",
    "GenerationGapWitness",
    "CounterexampleReport",
    "tail_membership",
    "idempotency_witness",
    "non_finite_generation_witness",
    "build_witness_hom",
    "graded_component_count",
    "local_finiteness_table",
    "check_component_linearity",
    "counterexample_report",
    "EXTERNAL_CLAIM",
]


def _coeff_term(coeff: Fraction, alpha: Fraction) -> str:
    e = "e(%s)" % (alpha,)
    if coeff == 1:
        return e
    if coeff == -1:
        return "-" + e
    return "%s*%s" % (coeff, e)


class MonoidAlgebraElement:
    """A finite rational combination of basis elements e(alpha), alpha >= 0.

    ``terms`` maps each exponent to its nonzero coefficient; the zero
    element is the empty mapping.  All operations return fresh elements,
    and all arithmetic is exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean: dict[Fraction, Fraction] = {}
        for alpha, coeff in (terms or {}).items():
            a = Fraction(alpha)
            c = Fraction(coeff)
            if a < 0:
                raise ValueError("exponent %s is negative" % (a,))
            if c != 0:
                clean[a] = c
        self.terms = clean

    @classmethod
    def _of(cls, items) -> "MonoidAlgebraElement":
        """The element of (exponent, coefficient) pairs with distinct
        exponents that are already checked Fractions, as are the
        coefficients; only zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.terms = {a: c for a, c in items if c}
        return out

    @classmethod
    def basis(cls, alpha) -> "MonoidAlgebraElement":
        return cls({Fraction(alpha): Fraction(1)})

    @classmethod
    def zero(cls) -> "MonoidAlgebraElement":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero element has no exponents")
        return min(self.terms)

    def scaled(self, c) -> "MonoidAlgebraElement":
        factor = Fraction(c)
        return MonoidAlgebraElement._of(
            (a, factor * v) for a, v in self.terms.items()
        )

    def __add__(self, other: "MonoidAlgebraElement") -> "MonoidAlgebraElement":
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms[a] + c if a in terms else c
        return MonoidAlgebraElement._of(terms.items())

    def __sub__(self, other: "MonoidAlgebraElement") -> "MonoidAlgebraElement":
        return self + other.scaled(-1)

    def __mul__(self, other: "MonoidAlgebraElement") -> "MonoidAlgebraElement":
        terms: dict[Fraction, Fraction] = {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                s = a + b
                terms[s] = terms[s] + c * d if s in terms else c * d
        return MonoidAlgebraElement._of(terms.items())

    def __pow__(self, n: int) -> "MonoidAlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = MonoidAlgebraElement.basis(0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonoidAlgebraElement)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [_coeff_term(self.terms[a], a) for a in sorted(self.terms)]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class TailIdeal:
    """The span of every basis element whose exponent clears a threshold.

    ``TailIdeal(tau)`` denotes the ideal generated by all e(alpha) with
    alpha >= tau, and ``TailIdeal.maximal()`` its strict counterpart with
    alpha > 0, the maximal graded ideal.  Exponents only grow under
    multiplication, so each of these spans is already an ideal, and it
    contains an arbitrary element exactly when it contains every basis
    term of that element.
    """

    __slots__ = ("threshold", "strict")

    def __init__(self, threshold, strict: bool = False):
        t = Fraction(threshold)
        if t < 0:
            raise ValueError("threshold %s is negative" % (t,))
        self.threshold = t
        self.strict = bool(strict)

    @classmethod
    def maximal(cls) -> "TailIdeal":
        return cls(0, strict=True)

    def contains_exponent(self, alpha) -> bool:
        """Whether e(alpha) lies in the ideal, for an int or Fraction alpha."""
        if self.strict:
            return alpha > self.threshold
        return alpha >= self.threshold

    def reduce(self, u: MonoidAlgebraElement) -> MonoidAlgebraElement:
        """Canonical representative of u in the quotient: drop every term
        the ideal contains."""
        return MonoidAlgebraElement._of(
            (a, c) for a, c in u.terms.items() if not self.contains_exponent(a)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TailIdeal)
            and self.threshold == other.threshold
            and self.strict == other.strict
        )

    def __repr__(self) -> str:
        op = ">" if self.strict else ">="
        return "<e(a) | a %s %s>" % (op, self.threshold)


def tail_membership(ideal: TailIdeal, u: MonoidAlgebraElement) -> bool:
    """Whether u lies in the ideal: every term's exponent must clear the
    threshold.  The zero element belongs vacuously."""
    return all(ideal.contains_exponent(a) for a in u.terms)


# ---------------------------------------------------------------------------
# Structural certificates for the maximal graded ideal.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdempotencyWitness:
    """Record that e(alpha) = e(alpha/2)**2 with both factors inside the
    maximal graded ideal."""

    alpha: Fraction
    half: Fraction
    verified: bool


def idempotency_witness(alpha) -> IdempotencyWitness:
    """Exhibit e(alpha) as a product of two members of the maximal graded
    ideal, certifying m*m = m one exponent at a time."""
    a = Fraction(alpha)
    if a <= 0:
        raise ValueError("need a strictly positive exponent, got %s" % (a,))
    half = a / 2
    m = TailIdeal.maximal()
    factor = MonoidAlgebraElement.basis(half)
    ok = (
        factor * factor == MonoidAlgebraElement.basis(a)
        and tail_membership(m, factor)
    )
    if not ok:
        raise ArithmeticError("idempotency bookkeeping broke at %s" % (a,))
    return IdempotencyWitness(a, half, True)


@dataclass(frozen=True)
class GenerationGapWitness:
    """A member of the maximal graded ideal that a given finite candidate
    set cannot generate.

    ``floor`` is the least exponent occurring in the candidates.  Every
    multiple of a candidate has all exponents >= floor, because exponents
    add and ring exponents are >= 0, so any combination of the candidates
    stays at or above the floor; the witness sits strictly below it.
    """

    floor: Fraction
    witness: MonoidAlgebraElement
    reason: str


def non_finite_generation_witness(
    candidates: Iterable[MonoidAlgebraElement],
) -> GenerationGapWitness:
    """Given finitely many members of the maximal graded ideal, produce a
    member they cannot generate, with the exponent bound that proves it."""
    gens = list(candidates)
    if not gens:
        raise ValueError("need at least one candidate generator")
    m = TailIdeal.maximal()
    for s in gens:
        if s.is_zero():
            raise ValueError("the zero element is not a useful candidate")
        if not tail_membership(m, s):
            raise ValueError(
                "candidate %r lies outside the maximal graded ideal" % (s,)
            )
    floor = min(s.min_exponent() for s in gens)
    if not 0 < floor / 2 < floor:
        raise ArithmeticError("exponent bound broke at floor %s" % (floor,))
    witness = MonoidAlgebraElement.basis(floor / 2)
    reason = (
        "every combination of the candidates has all exponents >= %s, "
        "while the witness exponent is %s" % (floor, floor / 2)
    )
    return GenerationGapWitness(floor, witness, reason)


# ---------------------------------------------------------------------------
# The escape family.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessComponent:
    """One coordinate of a level-K escape map: the projection of m onto
    the quotient by the tail ideal with threshold 1/k, shifted into
    degree k, together with the probe that certifies it nonzero."""

    k: int
    shift: Fraction
    ideal: TailIdeal
    probe: MonoidAlgebraElement
    probe_image: MonoidAlgebraElement


@dataclass(frozen=True)
class WitnessHom:
    """Level-K member of the escape family.

    The components project onto quotients by ever-shorter tail ideals and
    land in pairwise distinct degrees 1..K, so the graded support has size
    exactly ``level``.  ``WitnessHom(0, ())`` is the zero map.
    """

    level: int
    components: tuple[WitnessComponent, ...]

    def apply(self, u: MonoidAlgebraElement) -> dict[int, MonoidAlgebraElement]:
        """Nonzero component images of u, keyed by component index.  The
        domain is the maximal graded ideal."""
        if not tail_membership(TailIdeal.maximal(), u):
            raise ValueError("%r lies outside the maximal graded ideal" % (u,))
        out: dict[int, MonoidAlgebraElement] = {}
        for c in self.components:
            image = c.ideal.reduce(u)
            if not image.is_zero():
                out[c.k] = image
        return out

    def support_degrees(self) -> list[Fraction]:
        """Degrees carrying a nonzero component, in increasing order."""
        return [c.shift for c in self.components if not c.probe_image.is_zero()]


def graded_component_count(f: WitnessHom) -> int:
    """Number of degrees in which f has a nonzero component; the graded
    support size."""
    return len(f.support_degrees())


def _probe_exponents(level: int) -> list[Fraction]:
    probes = [Fraction(1, j) for j in range(1, level + 2)]
    probes.append(Fraction(2))
    return probes


def build_witness_hom(level: int) -> WitnessHom:
    """Construct and certify the level-K escape map.

    Certified exactly, per component k = 1..level: the probe e(1/(k+1))
    survives the k-th projection, so the component in degree k is nonzero;
    and on the probe set {1/j : j <= level+1, j >= 1} plus one exponent
    beyond every threshold, each probe hits exactly the components whose
    threshold exceeds its exponent, which is a finite set.
    """
    return _certified_witness_hom(level)[0]


MAX_LEVEL = 500  # the map, its probe table and a report all grow as level^2


def _certified_witness_hom(level: int) -> tuple[WitnessHom, list[dict]]:
    """build_witness_hom's map together with the local-finiteness table
    that certified it, so a report need not probe the map again."""
    if not 1 <= level <= MAX_LEVEL:
        raise ValueError("level must be from 1 to %d, got %s" % (MAX_LEVEL, level))
    comps = []
    for k in range(1, level + 1):
        ideal = TailIdeal(Fraction(1, k))
        probe = MonoidAlgebraElement.basis(Fraction(1, k + 1))
        image = ideal.reduce(probe)
        if image.is_zero():
            raise ArithmeticError("probe died in component %s" % (k,))
        comps.append(WitnessComponent(k, Fraction(k), ideal, probe, image))
    hom = WitnessHom(level, tuple(comps))
    probes = local_finiteness_table(hom)
    for row in probes:
        if not row["ok"]:
            raise ArithmeticError(
                "component bookkeeping broke at exponent %s" % row["exponent"]
            )
    return hom, probes


def local_finiteness_table(
    hom: WitnessHom, exponents: Iterable | None = None
) -> list[dict]:
    """Per-probe record of which components a basis element survives:
    the observed hit set, the predicted one {k : 1/k > beta}, and whether
    they agree (they must)."""
    betas = (
        [Fraction(b) for b in exponents]
        if exponents is not None
        else _probe_exponents(hom.level)
    )
    rows = []
    for beta in betas:
        hits = sorted(hom.apply(MonoidAlgebraElement.basis(beta)))
        # 1/k > beta = n/d exactly when k < d/n, that is k < ceil(d/n)
        top = min(hom.level + 1, -(-beta.denominator // beta.numerator))
        expected = list(range(1, top))
        rows.append(
            {
                "exponent": str(beta),
                "hits": hits,
                "expected": expected,
                "ok": hits == expected,
            }
        )
    return rows


def check_component_linearity(
    hom: WitnessHom, r: MonoidAlgebraElement, u: MonoidAlgebraElement
) -> bool:
    """Whether every component satisfies pi(r*u) = r*pi(u) in its
    quotient, computed on canonical representatives."""
    for c in hom.components:
        lhs = c.ideal.reduce(r * u)
        rhs = c.ideal.reduce(r * c.ideal.reduce(u))
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Assembled report.
# ---------------------------------------------------------------------------

EXTERNAL_CLAIM = (
    "Certified here: each level-K map is a well-defined graded map out of "
    "the maximal graded ideal with graded support of size exactly K, so no "
    "finite bound covers the family; the ideal is idempotent and defeats "
    "every finite candidate generating set it was probed with. Not "
    "certified here: the infinite-level statement that the canonical "
    "comparison monomorphism from regraded Hom into the Hom of the "
    "regraded modules fails to be surjective over this ring. That final "
    "step is external theory, imported rather than checked by this tool."
)


@dataclass
class CounterexampleReport:
    """Everything the escape family certifies at one level, plus the
    explicit disclaimer about what it does not certify."""

    level: int
    support: list[Fraction]
    probes: list[dict]
    idempotency: list[IdempotencyWitness]
    generation_gaps: list[GenerationGapWitness]
    linearity_ok: bool
    external_claim: str
    hom: WitnessHom  # the certified map itself; not part of the JSON report

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "support_degrees": [str(g) for g in self.support],
            "support_size": len(self.support),
            "local_finiteness": self.probes,
            "idempotency": [
                {
                    "exponent": str(w.alpha),
                    "square_root_exponent": str(w.half),
                    "verified": w.verified,
                }
                for w in self.idempotency
            ],
            "generation_gaps": [
                {
                    "floor": str(w.floor),
                    "witness": repr(w.witness),
                    "reason": w.reason,
                }
                for w in self.generation_gaps
            ],
            "linearity_ok": self.linearity_ok,
            "external_claim": self.external_claim,
        }


def _random_positive_fraction(rng: random.Random, top: int = 24) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, top))


def _random_ideal_member(rng: random.Random) -> MonoidAlgebraElement:
    u = MonoidAlgebraElement.basis(_random_positive_fraction(rng))
    if rng.random() < 0.5:
        extra = MonoidAlgebraElement.basis(_random_positive_fraction(rng))
        u = u + extra.scaled(rng.randint(1, 3))
    return u


_SAMPLES = 5  # random witnesses of each kind in a report


def counterexample_report(level: int, seed: int = 0) -> CounterexampleReport:
    """Build the level-K escape map and assemble all its certificates:
    support size, local finiteness on the probe set, idempotency of the
    maximal graded ideal on random exponents, generation-gap witnesses
    for random finite candidate sets, and component linearity on random
    homogeneous pairs.  Deterministic for a fixed seed."""
    hom, probes = _certified_witness_hom(level)
    rng = random.Random(seed)
    idem = [
        idempotency_witness(_random_positive_fraction(rng))
        for _ in range(_SAMPLES)
    ]
    gaps = []
    for _ in range(_SAMPLES):
        cands = [
            _random_ideal_member(rng) for _ in range(rng.randint(1, 4))
        ]
        gaps.append(non_finite_generation_witness(cands))
    linearity_ok = all(
        check_component_linearity(
            hom,
            MonoidAlgebraElement.basis(
                Fraction(rng.randint(0, 12), rng.randint(1, 12))
            ),
            MonoidAlgebraElement.basis(_random_positive_fraction(rng)),
        )
        for _ in range(_SAMPLES)
    )
    return CounterexampleReport(
        level=level,
        support=hom.support_degrees(),
        probes=probes,
        idempotency=idem,
        generation_gaps=gaps,
        linearity_ok=linearity_ok,
        external_claim=EXTERNAL_CLAIM,
        hom=hom,
    )
