"""Byte-level pins of the command-line reports.

Each case is one command line over the small inline scenarios of
test_cli.py.  Its recorded outcome is the exit code, the TSV table and
the JSON report without its ``_generated_at`` line; a report the command
never wrote is recorded as null.  The cases cover every subcommand and
every verdict path: OK, FAILS, UNSTABILIZED, REFUSED and a missing block.

After an intended change to the reports, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from coarsecoh.cli import main
from test_cli import FINE, LINE, TORSION, TRUNCATED

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SCENARIOS = {
    "LINE": LINE,
    "TORSION": TORSION,
    "HOM": TORSION + "module2 { gens = [(0)]; relations = [[x^2]] }\n",
    "FINE": FINE,
    "NEGATIVE": FINE.replace(
        "gwindow { lo = (0,0); hi = (3,3) }", "gwindow { lo = (-2,-2); hi = (0,0) }"
    ),
    "TRUNCATED": TRUNCATED,
}

CASES = {
    "hilbert": "hilbert LINE",
    "hom-missing-block": "hom LINE",
    "hom": "hom HOM",
    "ext-power": "ext TORSION --i 0 --n 2",
    "gamma": "gamma TORSION",
    "gamma-unstabilized": "gamma TORSION --ncap 2",
    "cech": "cech LINE --i 1",
    "lc-cech": "lc LINE --i 1",
    "lc-ext": "lc LINE --i 1 --route ext --ncap 8",
    "lc-unstabilized": "lc NEGATIVE --i 2 --route ext --ncap 2",
    "dtransform": "dtransform LINE --i 0",
    "coarsen-refused": "coarsen FINE",
    "coarsen-assumed": "coarsen FINE --assume-support-covered",
    "commute-ok": "check-commute FINE --i 0 --assume-support-covered",
    "commute-refused": "check-commute FINE --i 1",
    "commute-fails": "check-commute TRUNCATED --i 0 --assume-support-covered",
    "commute-unstabilized":
        "check-commute TRUNCATED --ncap 2 --assume-support-covered",
    "transform-ok": "check-transform TORSION",
    "transform-unstabilized": "check-transform LINE --ncap 2 --raycap 2",
    "counterexample": "counterexample --k 5",
}


def outcome(command: str, workdir: Path) -> dict:
    """Exit code, TSV and timestamp-free JSON of one command line."""
    argv = []
    for word in command.split():
        if word in SCENARIOS:
            path = workdir / (word + ".scn")
            path.write_text(SCENARIOS[word])
            word = str(path)
        argv.append(word)
    base = workdir / "report"
    for suffix in (".json", ".tsv"):
        base.with_suffix(suffix).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(base)])
    json_path, tsv_path = base.with_suffix(".json"), base.with_suffix(".tsv")
    return {
        "exit": code,
        "json": None if not json_path.exists() else "".join(
            line for line in json_path.read_text().splitlines(keepends=True)
            if '"_generated_at":' not in line
        ),
        "tsv": tsv_path.read_text() if tsv_path.exists() else None,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_bytes(case, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case]
    assert outcome(CASES[case], tmp_path) == expected


def test_golden_cases_are_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case: outcome(CASES[case], Path(tmp)) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
