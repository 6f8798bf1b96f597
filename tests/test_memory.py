"""A finished computation is freed by reference counting alone.

A presentation owns its components and its multiplication cache, and
nothing in them points back at it, so dropping the scenario frees the
whole job at once: no reference cycle waits for a garbage collection.
"""

from __future__ import annotations

import gc
import types
import weakref
from pathlib import Path

import pytest

from coarsecoh import cli
from coarsecoh.coarsen import check_commutation
from coarsecoh.homres import graded_ext
from coarsecoh.localcoh import cech_table
from coarsecoh.scenario import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
MIXED = str(ROOT / "scenarios/mixed-plane.scn")
FINE = str(ROOT / "scenarios/fine-plane.scn")
FINE3Q = str(ROOT / "perfbench/scenarios/fine3q.scn")
TOR3 = str(ROOT / "perfbench/scenarios/tor3.scn")


def _graded_ext(s):
    return graded_ext(1, s.ideal, s.module, s.gwindow)


def _cech_table(s):
    return cech_table(s.ideal, 1, s.module, s.gwindow, s.ray_cap)


def _check_commutation(s):
    return check_commutation(
        s.ideal, s.module, s.psi, [0, 1, 2], s.gwindow, s.hwindow, s.n_cap
    )


@pytest.mark.parametrize(
    "path, compute",
    [(TOR3, _graded_ext), (FINE3Q, _cech_table), (MIXED, _check_commutation)],
    ids=["graded_ext", "cech_table", "check_commutation"],
)
def test_dropping_the_scenario_frees_its_presentation(path, compute):
    s = parse_scenario(Path(path).read_text())
    result = compute(s)
    assert s.module._components and s.module._mult_cache
    ref = weakref.ref(s.module)
    gc.disable()
    try:
        del s, result
        assert ref() is None
    finally:
        gc.enable()


# one command line per subcommand, plus the refusal (exit 3) of cech
COMMAND_LINES = [
    ["hilbert", TOR3],
    ["hom", TOR3],
    ["ext", TOR3, "--i", "1", "--n", "2"],
    ["gamma", TOR3],
    ["cech", FINE3Q, "--i", "1"],
    ["cech", MIXED, "--i", "1"],
    ["lc", MIXED, "--i", "1", "--route", "ext"],
    ["dtransform", MIXED, "--i", "1"],
    ["coarsen", TOR3],
    ["check-commute", MIXED, "--i", "0,1,2"],
    ["check-transform", FINE],
    ["counterexample", "--k", "40"],
]


def _defined_in_coarsecoh(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("coarsecoh")
    return type(obj).__module__.startswith("coarsecoh")


def test_every_command_is_run():
    assert {argv[0] for argv in COMMAND_LINES} == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv",
    COMMAND_LINES,
    ids=lambda argv: " ".join(Path(a).stem if a.endswith(".scn") else a for a in argv),
)
def test_no_command_leaves_cyclic_garbage(argv, capsys):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(argv + ["--json"])
        gc.collect()
        leaked = sorted({repr(type(o)) for o in gc.garbage if _defined_in_coarsecoh(o)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert code == (3 if argv[:2] == ["cech", MIXED] else 0)
    assert leaked == []
