"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The expected refusal (exit 3, UNSTABILIZED) counts as a success, and
   the same job with any other exit code does not.
2. A corrupted expected outcome makes a run report fail_frac > 0 and
   exit non-zero (costs one relations-torsion3 pass, about 10 s).
3. In a directory holding only BENCHMARK.json and perfbench/, without the
   program, a run exits non-zero and prints no result.

Scratch files go to perfbench/out/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import BENCH_DIR, EXPECTED_DIR, WORKLOADS, judge, outcome_text
from worker import run_pass

SCRATCH = BENCH_DIR / "out" / "selfcheck"
RUN = [sys.executable, str(BENCH_DIR / "run.py"), "--seed", "0", "--seconds", "1"]


def refusal_is_success() -> list[str]:
    job = next(j for j in WORKLOADS["cech-fine3"] if j.id == "cech-mixed-refusal")
    problems = []
    [result] = run_pass([job], EXPECTED_DIR)
    if result["reason"] is not None:
        problems.append("the expected refusal was judged a failure: " + result["reason"])
    recorded = (EXPECTED_DIR / (job.id + ".out")).read_text()
    report = recorded.split("\n", 1)[1]
    for code in (0, 1, 2, 4):
        forged = outcome_text(code, report)
        if judge(job, code, report, forged) is None:
            problems.append("the refusal job passed with exit %d" % code)
    return problems


def corruption_is_caught() -> list[str]:
    expected = SCRATCH / "expected"
    shutil.rmtree(expected, ignore_errors=True)
    shutil.copytree(EXPECTED_DIR, expected)
    target = expected / "tor3-hilbert.out"
    text = target.read_text()
    target.write_text(text.replace('"(0;0)": 1', '"(0;0)": 2'))
    if target.read_text() == text:
        return ["the corruption left %s unchanged" % target]
    proc = subprocess.run(
        RUN + ["--workload", "relations-torsion3", "--trace", "0",
               "--expected", str(expected)],
        capture_output=True, text=True, timeout=170,
    )
    problems = []
    if proc.returncode == 0:
        problems.append("a corrupted expected outcome left the exit code at 0")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not result.get("failed", 0) > 0 or result.get("correct", True):
        problems.append("a corrupted expected outcome did not count as failed")
    if not any(ln.split()[:1] == ["fail_frac"] and float(ln.split()[1]) > 0
               for ln in lines):
        problems.append("a corrupted expected outcome left fail_frac at 0")
    return problems


def bare_directory_refuses() -> list[str]:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run(
        RUN + ["--workload", "cech-fine3", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    problems = []
    if proc.returncode == 0:
        problems.append("a run without the program exited 0")
    if proc.stdout.strip():
        problems.append("a run without the program printed a result")
    return problems


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    problems = refusal_is_success() + corruption_is_caught() + bare_directory_refuses()
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
