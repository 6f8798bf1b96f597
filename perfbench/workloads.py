"""The benchmark's fixed jobs, grouped into workloads, and how each job's
outcome is judged.

A job is one command line of the public CLI.  Its outcome is its exit code
plus its ``--json`` report with the ``_generated_at`` line dropped; the
expected outcomes were recorded at the seed commit and live in
``perfbench/expected/<job id>.out``.  Some jobs also carry an independent
check that does not come from recorded output: a mathematical fact about
the answer, or a verdict the shipped scenarios are documented to give.

Paths are relative to the root of a checkout, which is the working
directory of every benchmark process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path("perfbench")
SRC_DIR = Path("src")
EXPECTED_DIR = BENCH_DIR / "expected"
STAMP_KEY = '"_generated_at":'


def _laurent_h3(code: int, report: dict) -> str | None:
    # H^3_m(K[x,y,z]) with the fine Z^3 grading is 1 exactly in the degrees
    # with every coordinate <= -1, and the window (-4..-1)^3 lies inside that.
    table = report.get("table", {})
    if code != 0 or len(table) != 64 or any(v != 1 for v in table.values()):
        return "cech fine3 --i 3 is not 1 on all 64 cells"
    return None


def _verdict(expected_code: int, verdict: str) -> Callable[[int, dict], str | None]:
    def check(code: int, report: dict) -> str | None:
        if code != expected_code or report.get("verdict") != verdict:
            return "expected verdict %s with exit %d, got %s with exit %d" % (
                verdict, expected_code, report.get("verdict"), code,
            )
        return None

    return check


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    check: Callable[[int, dict], str | None] | None = None


MIXED = "scenarios/mixed-plane.scn"
FINE = "scenarios/fine-plane.scn"
FINE3 = str(BENCH_DIR / "scenarios/fine3.scn")
FINE3Q = str(BENCH_DIR / "scenarios/fine3q.scn")
TOR3 = str(BENCH_DIR / "scenarios/tor3.scn")

WORKLOADS: dict[str, tuple[Job, ...]] = {
    # Ext power towers (homres), big sparse rref (linalg), DirectedLimit, and
    # both fiber-sum certificate routes of coarsen; the ROADMAP's headline
    # check-commute targets live here.
    "tower-plane": (
        Job("commute-mixed", ("check-commute", MIXED, "--i", "0,1,2"),
            _verdict(0, "COMMUTES_ON_WINDOW")),
        Job("commute-fine-assumed",
            ("check-commute", FINE, "--i", "0,1,2", "--assume-support-covered"),
            _verdict(0, "COMMUTES_ON_WINDOW")),
        Job("transform-fine", ("check-transform", FINE), _verdict(0, "OK")),
    ),
    # Degree arithmetic and monomial enumeration on a 3-variable fine grading;
    # only tiny eliminations and no tower, so tower or kernel changes should
    # leave it unchanged while degree-core or ray changes move it.
    "cech-fine3": (
        Job("cech-fine3-h3", ("cech", FINE3, "--i", "3"), _laurent_h3),
        Job("cech-fine3q-h1", ("cech", FINE3Q, "--i", "1")),
        Job("cech-fine3q-h2", ("cech", FINE3Q, "--i", "2")),
        Job("cech-mixed-refusal", ("cech", MIXED, "--i", "1"),
            _verdict(3, "UNSTABILIZED")),
    ),
    # Non-monomial relations: component reduction and medium-density
    # elimination with non-unit coefficients, ideal powers recomputed per
    # degree, mostly-missed multiplication caches, plus the monoid family.
    "relations-torsion3": (
        Job("tor3-hilbert", ("hilbert", TOR3)),
        Job("tor3-hom", ("hom", TOR3)),
        Job("tor3-ext1-n2", ("ext", TOR3, "--i", "1", "--n", "2")),
        Job("tor3-gamma", ("gamma", TOR3)),
        Job("tor3-coarsen", ("coarsen", TOR3)),
        Job("counterexample-k40", ("counterexample", "--k", "40")),
    ),
}


def scenario_files(jobs) -> list[str]:
    """Scenario paths the jobs read, in first-use order."""
    out: list[str] = []
    for job in jobs:
        for arg in job.argv:
            if arg.endswith(".scn") and arg not in out:
                out.append(arg)
    return out


def outcome_text(code: int, json_text: str) -> str:
    """The comparable outcome: exit code, then the report without its
    timestamp line."""
    kept = [ln for ln in json_text.splitlines() if STAMP_KEY not in ln]
    return "exit %d\n%s\n" % (code, "\n".join(kept))


def judge(job: Job, code: int, json_text: str, expected: str) -> str | None:
    """None when the outcome is right, else the reason it is not."""
    if outcome_text(code, json_text) != expected:
        return "outcome differs from the recorded one"
    if job.check is not None:
        try:
            report = json.loads(json_text)
        except ValueError:
            return "the report is not JSON"
        return job.check(code, report)
    return None
