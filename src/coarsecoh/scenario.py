"""Line-oriented scenario files: parsing, validation, canonical form.

A scenario file declares the data the command-line tools need: the
grading group, the ring, an ideal, one or two modules, an optional
regrading map with its target window, and caps for the limit processes.
Blocks look like

    group { free = 2; torsion = [] }
    ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (1,1) }
    ideal { gens = [x, y] }
    module { gens = [(0,0)]; relations = [] }
    psi { free = 1; torsion = []; images = [(1), (1)] }
    gwindow { lo = (-2,-2); hi = (0,0) }
    hwindow { lo = (-2); hi = (0) }
    caps { n_cap = 7; ray_cap = 8 }

with '#' starting a comment that runs to the end of the line.  Degrees
are written the way reports print them: the free coordinates, then a
semicolon and the torsion coordinates when the group has torsion, as in
(1;1).  The psi block describes the target group (free rank and torsion
orders) followed by the image of each source generator, free generators
first.  Relation rows list one polynomial per module generator; the
presentation infers the row's degree from its first nonzero entry, and
an entry that disagrees is reported by relation and generator index.

The block table ``_BLOCKS`` is the one place a block's keys, dependencies
and rendering live: each entry names the block, the Scenario field it
fills, its required and optional keys, the block it needs, and the
functions that build and render it.  parse_scenario and
serialize_scenario both walk that table in its order.  One lexer cuts the
text into tokens with offsets; blocks, entries, list and tuple items and
polynomial terms are all cut from that one token list, and scalar values
convert their raw text with int or Fraction.

Parsing is total-or-error: the first violated rule raises ScenarioError
carrying the line and column of the offending text.  serialize_scenario
renders the validated form canonically, and reparsing that text yields an
equal scenario.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .errors import HomogeneityError, ScenarioError
from .grading import Degree, DegreeGroup, DegreeWindow, GroupEpimorphism
from .linalg import CAP_FLOORS, N_CAP, RAY_CAP, cap_problem
from .ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    MonomialIdeal,
    Poly,
)

__all__ = ["Scenario", "parse_scenario", "serialize_scenario"]


@dataclass
class Scenario:
    """Validated contents of a scenario file.

    Only ``group`` and ``caps`` are always present (caps fall back to
    N_CAP and RAY_CAP); every other field is None when its block is
    absent, and each command checks for what it needs via require().
    """

    group: DegreeGroup
    ring: GradedPolynomialRing | None = None
    ideal: MonomialIdeal | None = None
    module: GradedModulePresentation | None = None
    module2: GradedModulePresentation | None = None
    psi: GroupEpimorphism | None = None
    coarse_certificate: tuple | None = None
    gwindow: DegreeWindow | None = None
    hwindow: DegreeWindow | None = None
    n_cap: int = N_CAP
    ray_cap: int = RAY_CAP

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                block = next(b.name for b in _BLOCKS if b.field == name)
                raise ScenarioError(
                    "this command needs a %s block in the scenario" % block
                )

    def __eq__(self, other) -> bool:
        return isinstance(other, Scenario) and serialize_scenario(
            self
        ) == serialize_scenario(other)


# ---------------------------------------------------------------------------
# The lexer and the spans cut from it.
# ---------------------------------------------------------------------------

# Numbers (p or p/q), names, and every other non-space character on its own.
# Brackets, separators and operators are therefore always single tokens.
_TOKEN = re.compile(r"(?P<num>\d+/\d+|\d+)|(?P<name>[A-Za-z_]\w*)|\S")
_COMMENT = re.compile(r"#.*")


def _lex(text: str) -> tuple[str, list[re.Match]]:
    """The text with comments blanked (offsets unchanged) and its tokens."""
    clean = _COMMENT.sub(lambda m: " " * len(m[0]), text)
    return clean, list(_TOKEN.finditer(clean))


def _fail(text: str, offset: int, message: str):
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    raise ScenarioError(message, line, col)


class _Span:
    """Tokens ``toks[lo:hi]``, lying in ``text[start:end]``; errors about
    the span point at ``start``."""

    __slots__ = ("text", "toks", "lo", "hi", "start", "end")

    def __init__(self, text: str, toks: list, lo: int, hi: int, start: int, end: int):
        self.text = text
        self.toks = toks
        self.lo = lo
        self.hi = hi
        self.start = start
        self.end = end

    @property
    def raw(self) -> str:
        if self.lo == self.hi:
            return ""
        return self.text[self.toks[self.lo].start() : self.toks[self.hi - 1].end()]

    @property
    def is_name(self) -> bool:
        return self.hi - self.lo == 1 and self.toks[self.lo].lastgroup == "name"

    def fail(self, message: str, offset: int | None = None):
        _fail(self.text, self.start if offset is None else offset, message)

    def trim(self) -> "_Span":
        """The span pointing at its first token (its end when empty)."""
        lo, hi, end = self.lo, self.hi, self.end
        first = self.toks[lo].start() if lo < hi else end
        return _Span(self.text, self.toks, lo, hi, first, end)

    def split(self, sep: str) -> list["_Span"]:
        """Cut at the `sep` tokens outside brackets."""
        text, toks, lo, hi, start = self.text, self.toks, self.lo, self.hi, self.start
        pieces = []
        depth = 0
        for k in range(lo, hi):
            tok = toks[k]
            word = tok[0]
            if word == sep and depth == 0:
                pieces.append(_Span(text, toks, lo, k, start, tok.start()))
                lo, start = k + 1, tok.end()
            elif word in ("(", "["):
                depth += 1
            elif word in (")", "]"):
                depth -= 1
                if depth < 0:
                    self.fail("unbalanced %r" % word, tok.start())
        pieces.append(_Span(text, toks, lo, hi, start, self.end))
        return pieces

    def inside(self, opener: str, closer: str, what: str) -> "_Span":
        """The span between this span's outer brackets."""
        raw = self.raw
        if not (raw.startswith(opener) and raw.endswith(closer)):
            self.fail("expected a %s, got %r" % (what, raw))
        first, last = self.toks[self.lo], self.toks[self.hi - 1]
        return _Span(
            self.text, self.toks, self.lo + 1, self.hi - 1, first.end(), last.start()
        )


# ---------------------------------------------------------------------------
# Value parsers.
# ---------------------------------------------------------------------------


def _int(v: _Span) -> int:
    try:
        return int(v.raw)
    except ValueError:
        v.fail("expected an integer, got %r" % v.raw)


def _rational(v: _Span) -> Fraction:
    try:
        return Fraction(v.raw)
    except (ValueError, ZeroDivisionError):
        v.fail("expected a rational number, got %r" % v.raw)


def _list_items(v: _Span) -> list[_Span]:
    inner = v.inside("[", "]", "[...] list")
    if inner.lo == inner.hi:
        return []
    return [piece.trim() for piece in inner.split(",")]


def _tuple_parts(v: _Span, converter) -> tuple[tuple, tuple | None]:
    sides = v.inside("(", ")", "(...) tuple").split(";")
    if len(sides) > 2:
        v.fail("a degree tuple has at most one ';'")

    def side(s: _Span) -> tuple:
        if s.lo == s.hi:
            return ()
        return tuple(converter(piece) for piece in s.split(","))

    free = side(sides[0])
    torsion = side(sides[1]) if len(sides) == 2 else None
    return free, torsion


def _degree(v: _Span, group: DegreeGroup) -> Degree:
    free, torsion = _tuple_parts(v, _int)
    try:
        return group.degree(free, torsion or ())
    except ValueError as err:
        v.fail(str(err))


def _certificate(v: _Span) -> tuple:
    free, torsion = _tuple_parts(v, _rational)
    if torsion:
        v.fail("the certificate uses only the free coordinates")
    return free


# Polynomial grammar: sign? term (('+'|'-') sign? term)*, where a term is
# '*'-separated factors, each a rational number or a variable with an
# optional '^' power.
def _poly(v: _Span, ring: GradedPolynomialRing) -> Poly:
    tokens = v.toks[v.lo : v.hi]
    for k, tok in enumerate(tokens):
        if not tok.lastgroup and tok[0] not in ("+", "-", "*", "^"):
            after = tokens[k - 1].end() if k else v.start
            rest = v.text[tok.start() : tokens[-1].end()]
            v.fail("bad polynomial syntax at %r" % rest, after)
    if not tokens:
        v.fail("expected a polynomial")
    index = {name: k for k, name in enumerate(ring.var_names)}
    result = Poly.zero()
    end = tokens[-1].end()
    k = 0

    def term(sign: Fraction) -> Poly:
        nonlocal k
        coeff = sign
        expo = [0] * ring.nvars
        while True:
            if k >= len(tokens):
                v.fail("expected a factor", end)
            tok = tokens[k]
            if not tok.lastgroup:
                v.fail("expected a factor, got %r" % tok[0], tok.start())
            k += 1
            if tok.lastgroup == "num":
                try:
                    coeff *= Fraction(tok[0])
                except ZeroDivisionError:
                    v.fail("zero denominator in coefficient %r" % tok[0], tok.start())
            else:
                if tok[0] not in index:
                    v.fail("unknown variable %r" % tok[0], tok.start())
                power = 1
                if k < len(tokens) and tokens[k][0] == "^":
                    k += 1
                    if k >= len(tokens) or tokens[k].lastgroup != "num":
                        v.fail("expected an exponent after '^'", tok.start())
                    if "/" in tokens[k][0]:
                        v.fail("exponents must be integers", tokens[k].start())
                    power = int(tokens[k][0])
                    k += 1
                expo[index[tok[0]]] += power
            if k < len(tokens) and tokens[k][0] == "*":
                k += 1
                continue
            return Poly.monomial(tuple(expo), coeff)

    first = True
    while k < len(tokens):
        sign = Fraction(1)
        tok = tokens[k]
        if tok[0] == "-":
            sign = Fraction(-1)
            k += 1
        elif tok[0] == "+":
            if first:
                v.fail("a polynomial cannot start with '+'", tok.start())
            k += 1
            if k < len(tokens) and tokens[k][0] == "-":
                sign = Fraction(-1)
                k += 1
        elif not first:
            v.fail("expected '+' or '-' between terms", tok.start())
        result = result + term(sign)
        first = False
    return result


# ---------------------------------------------------------------------------
# Block builders and renderers.  A builder takes the scenario built so far,
# the block's span and its values in the table's key order (None for an
# absent optional key); a renderer returns the value texts in that order.
# ---------------------------------------------------------------------------


def _group(free: _Span, torsion: _Span, where: _Span) -> DegreeGroup:
    # the values fail at their own positions; only DegreeGroup's refusal
    # gets the block's
    rank = _int(free)
    orders = tuple(_int(piece) for piece in _list_items(torsion))
    try:
        return DegreeGroup(rank, orders)
    except ValueError as err:
        where.fail(str(err))


def _build_ring(s: Scenario, where, vars_, degrees, certificate):
    names = []
    for piece in _list_items(vars_):
        if not piece.is_name:
            piece.fail("bad variable name %r" % piece.raw)
        names.append(piece.raw)
    degs = [_degree(piece, s.group) for piece in _list_items(degrees)]
    cert = _certificate(certificate)
    try:
        return GradedPolynomialRing(s.group, names, degs, cert)
    except ValueError as err:
        certificate.fail(str(err))


def _monomial(v: _Span, ring: GradedPolynomialRing):
    p = _poly(v, ring)
    terms = list(p.terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        v.fail("ideal generators must be plain monomials, got %r" % v.raw)
    return terms[0][0]


def _build_ideal(s: Scenario, where, gens) -> MonomialIdeal:
    gens = [_monomial(piece, s.ring) for piece in _list_items(gens)]
    return MonomialIdeal(s.ring, gens)


def _build_module(s: Scenario, where, gens, relations) -> GradedModulePresentation:
    ring = s.ring
    gen_degrees = [_degree(piece, ring.group) for piece in _list_items(gens)]
    columns = []
    for r, row_span in enumerate(_list_items(relations) if relations else ()):
        row = _list_items(row_span)
        if len(row) != len(gen_degrees):
            row_span.fail(
                "relation %d has %d entries but the module has %d generators"
                % (r, len(row), len(gen_degrees))
            )
        polys = [_poly(piece, ring) for piece in row]
        for j, p in enumerate(polys):
            try:
                ring.poly_degree(p)
            except HomogeneityError:
                row[j].fail("relation %d, entry %d is not homogeneous" % (r, j))
        if all(p.is_zero() for p in polys):
            row_span.fail("relation %d is identically zero" % r)
        columns.append(dict(enumerate(polys)))
    try:
        return GradedModulePresentation(ring, gen_degrees, columns)
    except HomogeneityError as err:
        (relations or gens).fail(str(err))


def _build_psi(s: Scenario, where, free, torsion, images) -> GroupEpimorphism:
    target = _group(free, torsion, free)
    degs = [_degree(piece, target) for piece in _list_items(images)]
    try:
        psi = GroupEpimorphism(s.group, target, tuple(degs))
    except ValueError as err:
        images.fail(str(err))
    if not psi.verify_surjective():
        images.fail("psi is not surjective onto the target group")
    return psi


def _window(group: DegreeGroup, lo: _Span, hi: _Span) -> DegreeWindow:
    lo_free, lo_torsion = _tuple_parts(lo, _int)
    hi_free, hi_torsion = _tuple_parts(hi, _int)
    if lo_torsion or hi_torsion:
        lo.fail("window bounds use only the free coordinates")
    try:
        return DegreeWindow.box(group, lo_free, hi_free)
    except ValueError as err:
        lo.fail(str(err))


def _build_caps(s: Scenario, where, *values) -> None:
    for name, v in zip(CAP_FLOORS, values):
        if v is not None:
            setattr(s, name, _int(v))
    for name in CAP_FLOORS:
        problem = cap_problem(name, getattr(s, name))
        if problem:
            where.fail(problem)


def _list_text(items) -> str:
    return "[%s]" % ", ".join(str(x) for x in items)


def _tuple_text(values) -> str:
    return "(%s)" % ",".join(str(v) for v in values)


def _group_texts(s: Scenario, g: DegreeGroup) -> tuple[str, str]:
    return "%d" % g.free_rank, _list_text(g.torsion_orders)


def _module_texts(s: Scenario, M: GradedModulePresentation) -> tuple[str, str]:
    rows = [
        _list_text(
            s.ring.poly_str(col.get(j, Poly.zero()))
            for j in range(len(M.gen_degrees))
        )
        for col in M.relation_map.columns
    ]
    return _list_text(M.gen_degrees), _list_text(rows)


def _window_texts(s: Scenario, w: DegreeWindow) -> tuple[str, str]:
    if w.free_box is None:
        raise ValueError("only box windows can be serialized")
    return _tuple_text(w.free_box[0]), _tuple_text(w.free_box[1])


# ---------------------------------------------------------------------------
# The block table, in parse and render order.
# ---------------------------------------------------------------------------


class _Block(namedtuple("_Block", "name field required optional needs build render")):
    """A block: the Scenario field it fills (None for caps, whose keys are
    fields), its keys, the block it needs, and its builder and renderer."""

    @property
    def keys(self) -> tuple[str, ...]:
        return self.required + self.optional


_BLOCKS = (
    _Block(
        "group", "group", ("free", "torsion"), (), None,
        lambda s, where, free, torsion: _group(free, torsion, where),
        _group_texts,
    ),
    _Block(
        "ring", "ring", ("vars", "degrees", "certificate"), (), None, _build_ring,
        lambda s, ring: (
            _list_text(ring.var_names),
            _list_text(ring.var_degrees),
            _tuple_text(ring.certificate),
        ),
    ),
    _Block(
        "ideal", "ideal", ("gens",), (), "ring", _build_ideal,
        lambda s, ideal: (_list_text(s.ring.monomial_str(g) for g in ideal.gens),),
    ),
    _Block(
        "module", "module", ("gens",), ("relations",), "ring",
        _build_module, _module_texts,
    ),
    _Block(
        "module2", "module2", ("gens",), ("relations",), "ring",
        _build_module, _module_texts,
    ),
    _Block(
        "psi", "psi", ("free", "torsion", "images"), (), None, _build_psi,
        lambda s, psi: _group_texts(s, psi.target) + (_list_text(psi.images),),
    ),
    _Block(
        "coarse", "coarse_certificate", ("certificate",), (), None,
        lambda s, where, certificate: _certificate(certificate),
        lambda s, cert: (_tuple_text(cert),),
    ),
    _Block(
        "gwindow", "gwindow", ("lo", "hi"), (), None,
        lambda s, where, lo, hi: _window(s.group, lo, hi),
        _window_texts,
    ),
    _Block(
        "hwindow", "hwindow", ("lo", "hi"), (), "psi",
        lambda s, where, lo, hi: _window(s.psi.target, lo, hi),
        _window_texts,
    ),
    _Block(
        "caps", None, (), tuple(CAP_FLOORS), None, _build_caps,
        lambda s, _: tuple("%d" % getattr(s, name) for name in CAP_FLOORS),
    ),
)
_BLOCK_NAMES = tuple(b.name for b in _BLOCKS)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _find_blocks(text: str, toks: list) -> dict[str, _Span]:
    """Map block name to the span between its braces, or die pointing at
    the first malformed spot."""
    found: dict[str, _Span] = {}
    k = 0
    while k < len(toks):
        head = toks[k]
        if head.lastgroup != "name":
            _fail(text, head.start(), "expected a block name")
        name = head[0]
        if name not in _BLOCK_NAMES:
            _fail(
                text,
                head.start(),
                "unknown block %r (expected one of: %s)"
                % (name, ", ".join(_BLOCK_NAMES)),
            )
        if name in found:
            _fail(text, head.start(), "duplicate %s block" % name)
        if k + 1 == len(toks) or toks[k + 1][0] != "{":
            at = toks[k + 1].start() if k + 1 < len(toks) else len(text) - 1
            _fail(text, at, "expected '{' after block name")
        opener = toks[k + 1]
        closers = (j for j in range(k + 2, len(toks)) if toks[j][0] == "}")
        close = next(closers, None)
        if close is None:
            _fail(text, opener.start(), "unclosed block %s" % name)
        closer = toks[close]
        found[name] = _Span(text, toks, k + 2, close, opener.end(), closer.start())
        k = close + 1
    return found


def _block_values(block: _Block, span: _Span) -> dict[str, _Span]:
    """The block's `key = value` entries, by key."""
    entries = []
    for piece in span.split(";"):
        if piece.lo == piece.hi:
            continue
        eq = next(
            (k for k in range(piece.lo, piece.hi) if piece.toks[k][0] == "="), None
        )
        if eq is None:
            piece.fail("expected 'key = value'")
        sign = piece.toks[eq]
        key = _Span(piece.text, piece.toks, piece.lo, eq, piece.start, sign.start())
        if not key.is_name:
            piece.fail("bad key %r" % key.raw)
        value = _Span(piece.text, piece.toks, eq + 1, piece.hi, sign.end(), piece.end)
        entries.append((key.raw, value.trim()))
    given: dict[str, _Span] = {}
    for key, value in entries:
        if key not in block.keys:
            value.fail(
                "unknown key %r in %s block (expected: %s)"
                % (key, block.name, ", ".join(block.keys))
            )
        if key in given:
            value.fail("duplicate key %r in %s block" % (key, block.name))
        given[key] = value
    return given


def parse_scenario(text: str) -> Scenario:
    text, toks = _lex(text)
    found = _find_blocks(text, toks)
    # the first block, the grading group, is the one every scenario needs
    if _BLOCKS[0].name not in found:
        raise ScenarioError("a scenario needs a %s block" % _BLOCKS[0].name)
    scenario = Scenario(None)  # filled in table order, the group first
    for block in _BLOCKS:
        span = found.get(block.name)
        if span is None:
            continue
        given = _block_values(block, span)
        if block.needs and block.needs not in found:
            # 'an hwindow': the h is read as a letter
            article = "an" if block.name[0] in "aeiouh" else "a"
            raise ScenarioError(
                "%s %s block needs a %s block" % (article, block.name, block.needs)
            )
        for key in block.required:
            if key not in given:
                span.fail("%s block is missing %r" % (block.name, key))
        values = [given.get(key) for key in block.keys]
        value = block.build(scenario, span, *values)
        if block.field:
            setattr(scenario, block.field, value)
    return scenario


def serialize_scenario(s: Scenario) -> str:
    lines = []
    for block in _BLOCKS:
        value = getattr(s, block.field) if block.field else s
        if value is None:
            continue
        pairs = zip(block.keys, block.render(s, value))
        lines.append(
            "%s { %s }" % (block.name, "; ".join("%s = %s" % kv for kv in pairs))
        )
    return "\n".join(lines) + "\n"
