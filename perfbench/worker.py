"""One pass over a workload's jobs, in this process, with no threads.

    python3 perfbench/worker.py WORKLOAD --order ID,ID,... [--trace SPANS]
                                [--expected DIR]

Runs each job through ``coarsecoh.cli.main`` in the given order, times it
by wall clock, judges its outcome, and prints one JSON line: per-job
seconds and verdicts, and the peak resident memory of this process.  With
``--trace`` the layers are wrapped first (see layers.py), the per-layer
metrics join the JSON line, and the spans go to the file SPANS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from workloads import EXPECTED_DIR, SRC_DIR, WORKLOADS, judge


def import_cli():
    """coarsecoh.cli from this checkout's src/, never from elsewhere."""
    src = SRC_DIR.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import coarsecoh.cli

    if Path(coarsecoh.cli.__file__).resolve().parent.parent != src:
        raise ImportError("coarsecoh was not imported from %s" % src)
    return coarsecoh.cli


def run_job(cli, job) -> tuple[float, int, str]:
    """Wall seconds, exit code and JSON report of one job."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(job.argv) + ["--json"])
        except SystemExit as err:  # argparse exits on usage errors
            code = err.code if isinstance(err.code, int) else 1
    return perf_counter() - start, code, out.getvalue()


def run_pass(jobs, expected_dir: Path, tracer=None) -> list[dict]:
    cli = import_cli()
    results = []
    for job in jobs:
        expected = (expected_dir / (job.id + ".out")).read_text()
        if tracer is not None:
            tracer.job = job.id
        start = perf_counter()
        try:
            seconds, code, json_text = run_job(cli, job)
        except Exception as err:  # a crashing job is a failed job, not a crashed pass
            seconds, reason = perf_counter() - start, "raised %r" % err
        else:
            reason = judge(job, code, json_text, expected)
        results.append({"id": job.id, "seconds": seconds, "reason": reason})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--order", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--expected", type=Path, default=EXPECTED_DIR)
    args = parser.parse_args(argv)
    by_id = {job.id: job for job in WORKLOADS[args.workload]}
    jobs = [by_id[i] for i in args.order.split(",")]
    tracer = None
    if args.trace:
        import_cli()
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    results = run_pass(jobs, args.expected, tracer)
    line = {
        "jobs": results,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        line["layers"] = tracer.metrics()
        tracer.write_spans(args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
