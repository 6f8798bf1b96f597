"""coarsecoh benchmark: fixed CLI jobs, timed end to end, checked, traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and their jobs are in
workloads.py.  Each pass runs every job of the workload once, in an order
drawn from --seed, inside one fresh worker process (worker.py) with no
threads; the seed never changes a job's inputs, so the recorded expected
outcomes hold for every seed.  Passes repeat while another one still fits
in --seconds; there is always at least one.  Every job's outcome is
checked, and a wrong one makes the run exit 1.

With --trace 0 the run reports, as medians over its passes:
  solve_s        wall seconds of one pass (the sum of its job times)
  slowest_job_s  wall seconds of the longest job in a pass
  peak_rss_mb    peak resident memory of the pass's worker
and setup_s, the median over SETUP_REPEATS fresh interpreters of the time
to start, import coarsecoh and parse every scenario the workload uses.

With --trace 1 it adds one traced pass after the untraced ones and
reports the per-layer metrics of layers.py, with trace.overhead_s being
the traced pass's solve_s minus the untraced median.  The spans are
written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it say the same for
people, with fail_frac = failed / attempted.  Outside a checkout with
src/coarsecoh the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS
from workloads import BENCH_DIR, EXPECTED_DIR, SRC_DIR, WORKLOADS, scenario_files

SETUP_REPEATS = 7
RUN_LIMIT_S = 170  # every process of a run must have ended by then
OUT_DIR = BENCH_DIR / "out"

SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import coarsecoh
from coarsecoh.scenario import parse_scenario
for path in {paths!r}:
    with open(path) as fh:
        parse_scenario(fh.read())
"""


def fail(message: str) -> None:
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def check_layout(jobs, expected_dir: Path) -> None:
    needed = [SRC_DIR / "coarsecoh" / "cli.py"]
    needed += [Path(p) for p in scenario_files(jobs)]
    needed += [expected_dir / (job.id + ".out") for job in jobs]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        fail("run from the root of a coarsecoh checkout; missing: "
             + ", ".join(missing))


def run_child(argv, deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the run limit" % argv[1])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s exited with %d" % (argv[1], proc.returncode))
    return proc


def measure_setup(jobs, deadline: float) -> float:
    code = SETUP_CODE.format(src=str(SRC_DIR), paths=scenario_files(jobs))
    argv = [sys.executable, "-c", code]
    run_child(argv, deadline)  # untimed: leaves the bytecode cache warm
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child(argv, deadline)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(workload: str, order, expected_dir: Path, deadline: float,
             spans: Path | None = None) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), workload,
            "--order", ",".join(order), "--expected", str(expected_dir)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    proc = run_child(argv, deadline)
    result = json.loads(proc.stdout.splitlines()[-1])
    seconds = [job["seconds"] for job in result["jobs"]]
    result["solve_s"] = sum(seconds)
    result["slowest_job_s"] = max(seconds)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED_DIR,
                        help="directory of expected outcomes (for the self-check)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = WORKLOADS[args.workload]
    check_layout(jobs, args.expected)
    ids = [job.id for job in jobs]
    rng = random.Random(args.seed)

    setup_s = None if args.trace else measure_setup(jobs, deadline)
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(args.workload, rng.sample(ids, len(ids)),
                               args.expected, deadline))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    traced = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        traced = run_pass(args.workload, rng.sample(ids, len(ids)),
                          args.expected, deadline, spans)

    def median(key):
        return statistics.median(p[key] for p in passes)

    every = passes + ([traced] if traced else [])
    failures = [j for p in every for j in p["jobs"] if j["reason"] is not None]
    attempted = sum(len(p["jobs"]) for p in every)
    print("workload %s  seed %d  passes %d%s" % (
        args.workload, args.seed, len(passes), "  + 1 traced" if traced else ""))
    for p in every:
        print("  order " + ",".join(j["id"] for j in p["jobs"]))
    for job_id in ids:
        print("  job %-22s %.4f s (median)" % (job_id, statistics.median(
            j["seconds"] for p in passes for j in p["jobs"] if j["id"] == job_id)))
    for job in failures:
        print("  FAILED %s: %s" % (job["id"], job["reason"]))

    if traced:
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["solve_s"] - median("solve_s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in METRICS}
    else:
        metrics = {
            "solve_s": {"value": median("solve_s"), "unit": "s"},
            "slowest_job_s": {"value": median("slowest_job_s"), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_kb") / 1024, "unit": "MB"},
        }
    for name, m in metrics.items():
        print("  %-34s %s %s" % (name, m["value"], m["unit"]))
    print("  %-34s %s (%d of %d jobs)" % (
        "fail_frac", len(failures) / attempted, len(failures), attempted))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
