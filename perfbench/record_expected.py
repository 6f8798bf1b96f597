"""Record the expected outcome of every job from the code in this checkout.

    python3 perfbench/record_expected.py

Writes perfbench/expected/<job id>.out for every job of every workload.
Run it only on a commit whose answers are trusted; the benchmark then
holds later commits to the same bytes.
"""

from __future__ import annotations

from workloads import EXPECTED_DIR, WORKLOADS, outcome_text
from worker import import_cli, run_job


def main() -> None:
    cli = import_cli()
    EXPECTED_DIR.mkdir(exist_ok=True)
    for jobs in WORKLOADS.values():
        for job in jobs:
            seconds, code, json_text = run_job(cli, job)
            (EXPECTED_DIR / (job.id + ".out")).write_text(outcome_text(code, json_text))
            print("%-22s exit %d  %.2f s" % (job.id, code, seconds))


if __name__ == "__main__":
    main()
