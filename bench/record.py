#!/usr/bin/env python3
"""Write bench/expected.json: exit code and stdout SHA-256 of every timed and
coverage job (run once with --seed 0), and the SHA-256 of the goldens the
reproduce presets compare against.

    python3 bench/record.py

Run it only on a commit whose CLI output is known good; the benchmark gates
every later commit against what it writes.  Robustness probes are not
recorded: their expected exit codes are the documented ones in run.py.
"""

import json
import sys

import run


def main() -> int:
    cli = run.load_cli()
    jobs = {}
    for argv in [a for w in run.WORKLOADS.values() for a in w] + run.COVERAGE:
        job = run.Job(tuple(argv), "timed", 0, None)
        outcome = run.run_job(cli, job, seed=0)
        if not isinstance(outcome.exit, int):
            sys.exit(f"{job.name}: {outcome.exit}")
        jobs[job.name] = {"exit_code": outcome.exit, "stdout_sha256": outcome.stdout_sha256}
    goldens = {g: run.sha256_file(run.SRC / "freesub" / "golden" / g) for g in run.GOLDENS}
    data = {"jobs": jobs, "goldens": goldens}
    run.EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
