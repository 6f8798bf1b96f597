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
first.  Relation rows list one polynomial per module generator; the row's
degree is inferred from its first nonzero entry, and an entry that
disagrees is reported by relation and generator index.

Parsing is total-or-error: the first violated rule raises ScenarioError
carrying the line and column of the offending text.  serialize_scenario
renders the validated form canonically, and reparsing that text yields an
equal scenario.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import HomogeneityError, ScenarioError
from .grading import Degree, DegreeGroup, DegreeWindow, GroupEpimorphism
from .homres import N_CAP
from .localcoh import RAY_CAP
from .ringcore import (
    GradedModulePresentation,
    GradedPolynomialRing,
    MonomialIdeal,
    Poly,
    RelationColumn,
)

__all__ = ["Scenario", "parse_scenario", "serialize_scenario"]

_BLOCKS = (
    "group",
    "ring",
    "ideal",
    "module",
    "module2",
    "psi",
    "coarse",
    "gwindow",
    "hwindow",
    "caps",
)


# The least caps the limit processes can run with: a power tower (torsion
# is its position 0) compares two stages, a localization ray needs one step.
CAP_FLOORS = {"n_cap": 2, "ray_cap": 1}


def cap_problem(name: str, value: int) -> str | None:
    """Why a cap value is refused, or None when it is allowed."""
    if value < CAP_FLOORS[name]:
        return "caps must be positive, and n_cap at least 2: got %s = %d" % (
            name,
            value,
        )
    return None


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
                block = {"coarse_certificate": "coarse"}.get(name, name)
                raise ScenarioError(
                    "this command needs a %s block in the scenario" % block
                )

    def __eq__(self, other) -> bool:
        return isinstance(other, Scenario) and serialize_scenario(
            self
        ) == serialize_scenario(other)


# ---------------------------------------------------------------------------
# Low-level scanning.
# ---------------------------------------------------------------------------


def _position(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return line, col


def _fail(text: str, offset: int, message: str):
    line, col = _position(text, offset)
    raise ScenarioError(message, line, col)


def _strip_comments(text: str) -> str:
    out = []
    for chunk in text.split("\n"):
        cut = chunk.find("#")
        if cut >= 0:
            chunk = chunk[:cut] + " " * (len(chunk) - cut)
        out.append(chunk)
    return "\n".join(out)


_HEADER = re.compile(r"[A-Za-z_]\w*")


def _scan_blocks(text: str, clean: str) -> dict[str, tuple[str, int]]:
    """Map block name to (inner text, inner offset), or die pointing at
    the first malformed spot."""
    blocks: dict[str, tuple[str, int]] = {}
    pos = 0
    n = len(clean)
    while True:
        while pos < n and clean[pos].isspace():
            pos += 1
        if pos >= n:
            return blocks
        m = _HEADER.match(clean, pos)
        if not m:
            _fail(text, pos, "expected a block name")
        name = m.group(0)
        if name not in _BLOCKS:
            _fail(
                text,
                pos,
                "unknown block %r (expected one of: %s)"
                % (name, ", ".join(_BLOCKS)),
            )
        if name in blocks:
            _fail(text, pos, "duplicate %s block" % name)
        pos = m.end()
        while pos < n and clean[pos].isspace():
            pos += 1
        if pos >= n or clean[pos] != "{":
            _fail(text, pos if pos < n else n - 1, "expected '{' after block name")
        close = clean.find("}", pos)
        if close < 0:
            _fail(text, pos, "unclosed block %s" % name)
        blocks[name] = (clean[pos + 1 : close], pos + 1)
        pos = close + 1


def _split_top(raw: str, base: int, sep: str) -> list[tuple[str, int]]:
    """Split on a separator at zero paren/bracket depth, keeping offsets."""
    pieces = []
    depth = 0
    start = 0
    for k, ch in enumerate(raw):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                _fail_raw(base + k, "unbalanced %r" % ch)
        elif ch == sep and depth == 0:
            pieces.append((raw[start:k], base + start))
            start = k + 1
    pieces.append((raw[start:], base + start))
    return pieces


_SOURCE = ""  # module-level backing for error positions inside helpers


def _fail_raw(offset: int, message: str):
    _fail(_SOURCE, offset, message)


def _entries(raw: str, base: int) -> list[tuple[str, str, int]]:
    out = []
    for piece, off in _split_top(raw, base, ";"):
        if not piece.strip():
            continue
        eq = piece.find("=")
        if eq < 0:
            _fail_raw(off, "expected 'key = value'")
        key = piece[:eq].strip()
        if not _HEADER.fullmatch(key):
            _fail_raw(off, "bad key %r" % key.strip())
        value = piece[eq + 1 :]
        pad = len(value) - len(value.lstrip())
        out.append((key, value.strip(), off + eq + 1 + pad))
    return out


def _block_dict(name: str, raw: str, base: int, allowed: tuple[str, ...]):
    entries = {}
    for key, value, off in _entries(raw, base):
        if key not in allowed:
            _fail_raw(
                off,
                "unknown key %r in %s block (expected: %s)"
                % (key, name, ", ".join(allowed)),
            )
        if key in entries:
            _fail_raw(off, "duplicate key %r in %s block" % (key, name))
        entries[key] = (value, off)
    return entries


def _need(entries: dict, name: str, key: str, base: int):
    if key not in entries:
        _fail_raw(base, "%s block is missing %r" % (name, key))
    return entries[key]


# ---------------------------------------------------------------------------
# Value parsers.
# ---------------------------------------------------------------------------


def _int(raw: str, off: int) -> int:
    try:
        return int(raw)
    except ValueError:
        _fail_raw(off, "expected an integer, got %r" % raw)


def _rational(raw: str, off: int) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        _fail_raw(off, "expected a rational number, got %r" % raw)


def _list_items(raw: str, off: int) -> list[tuple[str, int]]:
    if not (raw.startswith("[") and raw.endswith("]")):
        _fail_raw(off, "expected a [...] list, got %r" % raw)
    inner = raw[1:-1]
    if not inner.strip():
        return []
    return [
        (piece.strip(), p + (len(piece) - len(piece.lstrip())))
        for piece, p in _split_top(inner, off + 1, ",")
    ]


def _tuple_parts(raw: str, off: int, converter) -> tuple[tuple, tuple | None]:
    if not (raw.startswith("(") and raw.endswith(")")):
        _fail_raw(off, "expected a (...) tuple, got %r" % raw)
    inner = raw[1:-1]
    sides = _split_top(inner, off + 1, ";")
    if len(sides) > 2:
        _fail_raw(off, "a degree tuple has at most one ';'")

    def side(text: str, base: int) -> tuple:
        if not text.strip():
            return ()
        return tuple(
            converter(piece.strip(), p)
            for piece, p in _split_top(text, base, ",")
        )

    free = side(*sides[0])
    torsion = side(*sides[1]) if len(sides) == 2 else None
    return free, torsion


def _degree(raw: str, off: int, group: DegreeGroup) -> Degree:
    free, torsion = _tuple_parts(raw, off, _int)
    try:
        return group.degree(free, torsion or ())
    except ValueError as err:
        _fail_raw(off, str(err))


def _int_list(raw: str, off: int) -> list[int]:
    return [_int(piece, p) for piece, p in _list_items(raw, off)]


# Polynomial grammar: sign? term (('+'|'-') sign? term)*, where a term is
# '*'-separated factors, each a rational number or a variable with an
# optional '^' power.
_POLY_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_]\w*|[-+*^])")


def _poly(raw: str, off: int, ring: GradedPolynomialRing) -> Poly:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(raw):
        m = _POLY_TOKEN.match(raw, pos)
        if not m:
            if raw[pos:].strip():
                _fail_raw(off + pos, "bad polynomial syntax at %r" % raw[pos:].strip())
            break
        tokens.append((m.group(1), off + m.start(1)))
        pos = m.end()
    if not tokens:
        _fail_raw(off, "expected a polynomial")
    index = {name: k for k, name in enumerate(ring.var_names)}
    result = Poly.zero()
    end = off + len(raw.rstrip())
    k = 0

    def term(sign: Fraction) -> Poly:
        nonlocal k
        coeff = sign
        expo = [0] * ring.nvars
        while True:
            if k >= len(tokens):
                _fail_raw(end, "expected a factor")
            tok, at = tokens[k]
            if tok in "+-*^":
                _fail_raw(at, "expected a factor, got %r" % tok)
            k += 1
            if tok[0].isdigit():
                coeff *= Fraction(tok)
            else:
                if tok not in index:
                    _fail_raw(at, "unknown variable %r" % tok)
                power = 1
                if k < len(tokens) and tokens[k][0] == "^":
                    k += 1
                    if k >= len(tokens) or not tokens[k][0][0].isdigit():
                        _fail_raw(at, "expected an exponent after '^'")
                    if "/" in tokens[k][0]:
                        _fail_raw(tokens[k][1], "exponents must be integers")
                    power = int(tokens[k][0])
                    k += 1
                expo[index[tok]] += power
            if k < len(tokens) and tokens[k][0] == "*":
                k += 1
                continue
            return Poly.monomial(tuple(expo), coeff)

    first = True
    while k < len(tokens):
        sign = Fraction(1)
        tok, at = tokens[k]
        if tok == "-":
            sign = Fraction(-1)
            k += 1
        elif tok == "+":
            if first:
                _fail_raw(at, "a polynomial cannot start with '+'")
            k += 1
            if k < len(tokens) and tokens[k][0] == "-":
                sign = Fraction(-1)
                k += 1
        elif not first:
            _fail_raw(at, "expected '+' or '-' between terms")
        result = result + term(sign)
        first = False
    return result


# ---------------------------------------------------------------------------
# Block builders.
# ---------------------------------------------------------------------------


def _build_group(entries: dict, base: int) -> DegreeGroup:
    free_raw, free_off = _need(entries, "group", "free", base)
    torsion_raw, torsion_off = _need(entries, "group", "torsion", base)
    try:
        return DegreeGroup(
            _int(free_raw, free_off), tuple(_int_list(torsion_raw, torsion_off))
        )
    except ValueError as err:
        _fail_raw(base, str(err))


def _build_ring(entries: dict, base: int, group: DegreeGroup) -> GradedPolynomialRing:
    vars_raw, vars_off = _need(entries, "ring", "vars", base)
    degs_raw, degs_off = _need(entries, "ring", "degrees", base)
    cert_raw, cert_off = _need(entries, "ring", "certificate", base)
    names = []
    for piece, off in _list_items(vars_raw, vars_off):
        if not _HEADER.fullmatch(piece):
            _fail_raw(off, "bad variable name %r" % piece)
        names.append(piece)
    degrees = [_degree(piece, off, group) for piece, off in _list_items(degs_raw, degs_off)]
    cert_free, cert_torsion = _tuple_parts(cert_raw, cert_off, _rational)
    if cert_torsion:
        _fail_raw(cert_off, "the certificate uses only the free coordinates")
    try:
        return GradedPolynomialRing(group, names, degrees, cert_free)
    except ValueError as err:
        _fail_raw(cert_off, str(err))


def _monomial(raw: str, off: int, ring: GradedPolynomialRing):
    p = _poly(raw, off, ring)
    terms = list(p.terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        _fail_raw(off, "ideal generators must be plain monomials, got %r" % raw)
    return terms[0][0]


def _build_ideal(entries: dict, base: int, ring: GradedPolynomialRing) -> MonomialIdeal:
    gens_raw, gens_off = _need(entries, "ideal", "gens", base)
    gens = [
        _monomial(piece, off, ring) for piece, off in _list_items(gens_raw, gens_off)
    ]
    return MonomialIdeal(ring, gens)


def _build_module(
    name: str, entries: dict, base: int, ring: GradedPolynomialRing
) -> GradedModulePresentation:
    gens_raw, gens_off = _need(entries, name, "gens", base)
    gen_degrees = [
        _degree(piece, off, ring.group)
        for piece, off in _list_items(gens_raw, gens_off)
    ]
    columns = []
    rel_off = gens_off
    if "relations" in entries:
        rel_raw, rel_off = entries["relations"]
        for r, (row_raw, row_off) in enumerate(_list_items(rel_raw, rel_off)):
            row = _list_items(row_raw, row_off)
            if len(row) != len(gen_degrees):
                _fail_raw(
                    row_off,
                    "relation %d has %d entries but the module has %d generators"
                    % (r, len(row), len(gen_degrees)),
                )
            polys = [_poly(piece, off, ring) for piece, off in row]
            degree = None
            for j, p in enumerate(polys):
                if p.is_zero():
                    continue
                try:
                    pd = ring.poly_degree(p)
                except HomogeneityError:
                    _fail_raw(
                        row[j][1],
                        "relation %d, entry %d is not homogeneous" % (r, j),
                    )
                if degree is None:
                    degree = pd + gen_degrees[j]
            if degree is None:
                _fail_raw(row_off, "relation %d is identically zero" % r)
            columns.append(
                RelationColumn(
                    degree, {j: p for j, p in enumerate(polys) if not p.is_zero()}
                )
            )
    try:
        return GradedModulePresentation(ring, gen_degrees, columns)
    except HomogeneityError as err:
        _fail_raw(rel_off, str(err))


def _build_psi(entries: dict, base: int, source: DegreeGroup) -> GroupEpimorphism:
    free_raw, free_off = _need(entries, "psi", "free", base)
    torsion_raw, torsion_off = _need(entries, "psi", "torsion", base)
    images_raw, images_off = _need(entries, "psi", "images", base)
    try:
        target = DegreeGroup(
            _int(free_raw, free_off), tuple(_int_list(torsion_raw, torsion_off))
        )
    except ValueError as err:
        _fail_raw(free_off, str(err))
    images = [
        _degree(piece, off, target)
        for piece, off in _list_items(images_raw, images_off)
    ]
    try:
        psi = GroupEpimorphism(source, target, tuple(images))
    except ValueError as err:
        _fail_raw(images_off, str(err))
    if not psi.verify_surjective():
        _fail_raw(images_off, "psi is not surjective onto the target group")
    return psi


def _build_window(
    name: str, entries: dict, base: int, group: DegreeGroup
) -> DegreeWindow:
    lo_raw, lo_off = _need(entries, name, "lo", base)
    hi_raw, hi_off = _need(entries, name, "hi", base)
    lo_free, lo_torsion = _tuple_parts(lo_raw, lo_off, _int)
    hi_free, hi_torsion = _tuple_parts(hi_raw, hi_off, _int)
    if lo_torsion or hi_torsion:
        _fail_raw(lo_off, "window bounds use only the free coordinates")
    try:
        return DegreeWindow.box(group, lo_free, hi_free)
    except ValueError as err:
        _fail_raw(lo_off, str(err))


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_scenario(text: str) -> Scenario:
    global _SOURCE
    _SOURCE = text
    clean = _strip_comments(text)
    blocks = _scan_blocks(text, clean)
    if "group" not in blocks:
        raise ScenarioError("a scenario needs a group block")

    def block(name: str, allowed: tuple[str, ...]):
        if name not in blocks:
            return None, 0
        raw, base = blocks[name]
        return _block_dict(name, raw, base, allowed), base

    entries, base = block("group", ("free", "torsion"))
    group = _build_group(entries, base)
    scenario = Scenario(group)

    entries, base = block("ring", ("vars", "degrees", "certificate"))
    if entries is not None:
        scenario.ring = _build_ring(entries, base, group)

    entries, base = block("ideal", ("gens",))
    if entries is not None:
        if scenario.ring is None:
            raise ScenarioError("an ideal block needs a ring block")
        scenario.ideal = _build_ideal(entries, base, scenario.ring)

    for name in ("module", "module2"):
        entries, base = block(name, ("gens", "relations"))
        if entries is not None:
            if scenario.ring is None:
                raise ScenarioError("a %s block needs a ring block" % name)
            setattr(
                scenario, name, _build_module(name, entries, base, scenario.ring)
            )

    entries, base = block("psi", ("free", "torsion", "images"))
    if entries is not None:
        scenario.psi = _build_psi(entries, base, group)

    entries, base = block("coarse", ("certificate",))
    if entries is not None:
        cert_raw, cert_off = _need(entries, "coarse", "certificate", base)
        free, torsion = _tuple_parts(cert_raw, cert_off, _rational)
        if torsion:
            _fail_raw(cert_off, "the certificate uses only the free coordinates")
        scenario.coarse_certificate = free

    entries, base = block("gwindow", ("lo", "hi"))
    if entries is not None:
        scenario.gwindow = _build_window("gwindow", entries, base, group)

    entries, base = block("hwindow", ("lo", "hi"))
    if entries is not None:
        if scenario.psi is None:
            raise ScenarioError("an hwindow block needs a psi block")
        scenario.hwindow = _build_window(
            "hwindow", entries, base, scenario.psi.target
        )

    entries, base = block("caps", ("n_cap", "ray_cap"))
    if entries is not None:
        if "n_cap" in entries:
            scenario.n_cap = _int(*entries["n_cap"])
        if "ray_cap" in entries:
            scenario.ray_cap = _int(*entries["ray_cap"])
        for name in CAP_FLOORS:
            problem = cap_problem(name, getattr(scenario, name))
            if problem:
                _fail_raw(base, problem)

    return scenario


# ---------------------------------------------------------------------------
# Canonical serialization.
# ---------------------------------------------------------------------------


def _render_free_tuple(values) -> str:
    return "(%s)" % ",".join(str(v) for v in values)


def serialize_scenario(s: Scenario) -> str:
    lines = []
    lines.append(
        "group { free = %d; torsion = [%s] }"
        % (s.group.free_rank, ", ".join(str(m) for m in s.group.torsion_orders))
    )
    ring = s.ring
    if ring is not None:
        lines.append(
            "ring { vars = [%s]; degrees = [%s]; certificate = %s }"
            % (
                ", ".join(ring.var_names),
                ", ".join(str(d) for d in ring.var_degrees),
                _render_free_tuple(ring.certificate),
            )
        )
    if s.ideal is not None:
        lines.append(
            "ideal { gens = [%s] }"
            % ", ".join(ring.monomial_str(g) for g in s.ideal.gens)
        )
    for name in ("module", "module2"):
        M = getattr(s, name)
        if M is None:
            continue
        rows = []
        for col in M.relations:
            entries = [
                ring.poly_str(col.entries.get(j, Poly.zero()))
                for j in range(len(M.gen_degrees))
            ]
            rows.append("[%s]" % ", ".join(entries))
        lines.append(
            "%s { gens = [%s]; relations = [%s] }"
            % (
                name,
                ", ".join(str(d) for d in M.gen_degrees),
                ", ".join(rows),
            )
        )
    if s.psi is not None:
        t = s.psi.target
        lines.append(
            "psi { free = %d; torsion = [%s]; images = [%s] }"
            % (
                t.free_rank,
                ", ".join(str(m) for m in t.torsion_orders),
                ", ".join(str(d) for d in s.psi.images),
            )
        )
    if s.coarse_certificate is not None:
        lines.append(
            "coarse { certificate = %s }"
            % _render_free_tuple(s.coarse_certificate)
        )
    for name in ("gwindow", "hwindow"):
        w = getattr(s, name)
        if w is None:
            continue
        if w.free_box is None:
            raise ValueError("only box windows can be serialized")
        lo, hi = w.free_box
        lines.append(
            "%s { lo = %s; hi = %s }"
            % (name, _render_free_tuple(lo), _render_free_tuple(hi))
        )
    lines.append("caps { n_cap = %d; ray_cap = %d }" % (s.n_cap, s.ray_cap))
    return "\n".join(lines) + "\n"
