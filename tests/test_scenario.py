from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsecoh.cli import main
from coarsecoh.errors import ScenarioError
from coarsecoh.scenario import parse_scenario, serialize_scenario

ROOT = Path(__file__).resolve().parents[1]

FINE = """\
# fine-graded plane with the coordinate-sum regrading
group { free = 2; torsion = [] }
ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (1,1) }
ideal { gens = [x, y] }
module { gens = [(0,0), (1,0)]; relations = [[x^2*y, -x*y], [0, 3/2*y^2]] }
psi { free = 1; torsion = []; images = [(1), (1)] }
gwindow { lo = (-2,-2); hi = (0,0) }
hwindow { lo = (-2); hi = (0) }
caps { n_cap = 7; ray_cap = 9 }
"""

MIXED = """\
group { free = 1; torsion = [2] }
ring { vars = [x, y]; degrees = [(1;1), (1;0)]; certificate = (1) }
ideal { gens = [x^2, x*y] }
module { gens = [(0;0)]; relations = [[x^2]] }
psi { free = 1; torsion = []; images = [(1), (0)] }
coarse { certificate = (1) }
gwindow { lo = (-3); hi = (1) }
hwindow { lo = (-3); hi = (1) }
"""


def test_parse_fine_scenario():
    s = parse_scenario(FINE)
    assert s.ring.var_names == ("x", "y")
    assert s.ideal.gens == ((0, 1), (1, 0))
    assert len(s.module.gen_degrees) == 2
    assert len(s.module.relation_map.columns) == 2
    assert str(s.psi.images[0]) == "(1)"
    assert len(s.gwindow) == 9
    assert len(s.hwindow) == 3
    assert (s.n_cap, s.ray_cap) == (7, 9)


def test_parse_mixed_scenario():
    s = parse_scenario(MIXED)
    assert s.group.torsion_orders == (2,)
    assert str(s.ring.var_degrees[0]) == "(1;1)"
    assert s.coarse_certificate == (Fraction(1),)
    # the box ranges over both torsion classes at each free value
    assert len(s.gwindow) == 10
    assert (s.n_cap, s.ray_cap) == (6, 8)


@pytest.mark.parametrize("text", [FINE, MIXED])
def test_round_trip_is_identity(text):
    first = parse_scenario(text)
    canonical = serialize_scenario(first)
    second = parse_scenario(canonical)
    assert second == first
    assert serialize_scenario(second) == canonical


def _error(text: str) -> ScenarioError:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    return err.value


def test_unknown_block_is_rejected_with_position():
    e = _error("group { free = 1; torsion = [] }\nblob { x = 1 }\n")
    assert e.line == 2
    assert "unknown block 'blob'" in str(e)


def test_duplicate_block_is_rejected():
    e = _error("group { free = 1; torsion = [] }\ngroup { free = 1; torsion = [] }\n")
    assert "duplicate group block" in str(e)


def test_missing_group_is_rejected():
    assert "needs a group block" in str(_error("caps { n_cap = 3 }\n"))


def test_unknown_key_is_rejected():
    e = _error("group { free = 1; torsion = []; rank = 2 }\n")
    assert "unknown key 'rank'" in str(e)


def test_missing_key_is_rejected():
    assert "missing 'torsion'" in str(_error("group { free = 1 }\n"))


def test_nonpositive_certificate_is_rejected():
    text = (
        "group { free = 2; torsion = [] }\n"
        "ring { vars = [x, y]; degrees = [(1,0), (0,1)]; certificate = (0,0) }\n"
    )
    e = _error(text)
    assert e.line == 2
    assert "positivity" in str(e)


def test_ideal_generators_must_be_monomials():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "ideal { gens = [x + 1] }\n"
    )
    assert "plain monomials" in str(_error(text))


def test_unknown_variable_in_polynomial():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "ideal { gens = [z] }\n"
    )
    e = _error(text)
    assert e.line == 3
    assert "unknown variable 'z'" in str(e)


def test_inhomogeneous_relation_entry_named():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0)]; relations = [[x + x^2]] }\n"
    )
    e = _error(text)
    assert "relation 0, entry 0 is not homogeneous" in str(e)


def test_mixed_degree_relation_entry_named():
    # both entries are homogeneous but imply different column degrees
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0), (0)]; relations = [[x^2, x]] }\n"
    )
    e = _error(text)
    assert "relation 0, generator 1" in str(e)


def test_relation_entry_of_the_wrong_degree_exits_1(tmp_path, capsys):
    # the presentation's degree check, reported at the entry's position
    path = tmp_path / "case.scn"
    path.write_text(
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0), (0)]; relations = [[x, x^2]] }\n"
        "gwindow { lo = (0); hi = (2) }\n"
    )
    assert main(["hilbert", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: line 3, column 41: relation 0, generator 1: "
        "entry has degree (2), expected (1)\n"
    )


def test_relation_row_length_checked():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0), (0)]; relations = [[x]] }\n"
    )
    assert "has 1 entries but the module has 2" in str(_error(text))


def test_zero_relation_rejected():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0)]; relations = [[0]] }\n"
    )
    assert "identically zero" in str(_error(text))


def test_non_surjective_psi_rejected():
    text = (
        "group { free = 1; torsion = [] }\n"
        "psi { free = 1; torsion = []; images = [(2)] }\n"
    )
    assert "not surjective" in str(_error(text))


def test_hwindow_requires_psi():
    text = "group { free = 1; torsion = [] }\nhwindow { lo = (0); hi = (1) }\n"
    assert "needs a psi block" in str(_error(text))


def test_empty_box_rejected():
    text = "group { free = 1; torsion = [] }\ngwindow { lo = (1); hi = (0) }\n"
    assert "empty box" in str(_error(text))


def test_degree_shape_mismatch_rejected():
    text = (
        "group { free = 2; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1,1) }\n"
    )
    assert "shape" in str(_error(text))


def test_column_points_into_the_line():
    text = "group { free = 1; torsion = [] }\nblob { }\n"
    e = _error(text)
    assert (e.line, e.col) == (2, 1)


@pytest.mark.parametrize(
    "text, where",
    [
        ("group { free = x; torsion = [] }", (1, 16)),
        (
            "group { free = 1; torsion = [] }\n"
            "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
            "psi { free = y; torsion = []; images = [(1)] }\n",
            (3, 14),
        ),
    ],
    ids=["group", "psi"],
)
def test_bad_group_integer_names_one_position(text, where):
    # the value's own position, not the block's pasted in front of it
    e = _error(text)
    assert (e.line, e.col) == where
    bad = text[text.rindex("free = ") + 7]
    assert str(e) == "line %d, column %d: expected an integer, got %r" % (
        where + (bad,)
    )


def test_zero_denominator_coefficient_is_a_scenario_error():
    text = (
        "group { free = 1; torsion = [] }\n"
        "ring { vars = [x]; degrees = [(1)]; certificate = (1) }\n"
        "module { gens = [(0)]; relations = [[1/0*x]] }\n"
    )
    e = _error(text)
    assert (e.line, e.col) == (3, 38)
    assert "zero denominator in coefficient '1/0'" in str(e)


def test_oversized_window_is_refused_before_enumeration():
    # one cell more than the cap of 100,000: refused from the bounds alone,
    # at the window's lo, instead of enumerating 100,001 degrees
    e = _error(
        "group { free = 1; torsion = [] }\ngwindow { lo = (0); hi = (100000) }\n"
    )
    assert (e.line, e.col) == (2, 16)
    assert "the box has 100001 cells, more than the 100000" in str(e)


# ---------------------------------------------------------------------------
# Parser fuzz: every shipped and inline scenario, with a few edits drawn from
# scenario characters and a handful of troublesome tokens, must either be
# refused with a ScenarioError or round-trip exactly.
# ---------------------------------------------------------------------------


def _inline_scenarios() -> list[str]:
    """The scenario texts written out in this module."""
    tree = ast.parse(Path(__file__).read_text())
    return sorted(
        {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "{ " in node.value
        }
    )


SEED_TEXTS = [
    path.read_text()
    for folder in ("scenarios", "tests/data", "perfbench/scenarios")
    for path in sorted((ROOT / folder).glob("*.scn"))
] + _inline_scenarios()
EDIT_PIECES = sorted(set("".join(SEED_TEXTS))) + ["-1", "99999", "1/0"]
EDIT = st.tuples(
    st.sampled_from(("delete", "insert", "cut")),
    st.integers(0, 10**4),
    st.sampled_from(EDIT_PIECES),
)


def _edited(text: str, edits) -> str:
    """Apply (kind, position, piece) edits: delete one character, insert the
    piece, or cut the text off; positions wrap around the current length."""
    for kind, where, piece in edits:
        at = where % (len(text) + 1)
        if kind == "delete":
            text = text[:at] + text[at + 1 :]
        elif kind == "insert":
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at]
    return text


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(SEED_TEXTS), st.lists(EDIT, min_size=1, max_size=4))
# a coefficient with a zero denominator
@example(FINE, [("insert", FINE.index("x^2*y"), "1/0")])
# a window of about three million cells
@example(FINE, [("insert", FINE.index("(-2,-2)") + 2, "99999")])
def test_edited_scenarios_are_refused_or_round_trip(text, edits):
    text = _edited(text, edits)
    try:
        first = parse_scenario(text)
    except ScenarioError:
        return
    canonical = serialize_scenario(first)
    second = parse_scenario(canonical)
    assert second == first
    assert serialize_scenario(second) == canonical
