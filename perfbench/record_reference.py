"""Record reference.json: each workload's checked values on the reference seed.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs every workload part once on ``DEFAULT_SEED`` and stores what ``gate.py``
compares on that seed.  Re-record only when a change is meant to alter the
numbers beyond ``gate.REFERENCE_RTOL``, and say so in the change.
"""

import json
import shutil
import sys

import envinfo
import gate
import run
from workloads import DEFAULT_SEED, PARTS


def main() -> int:
    workers = envinfo.nproc()
    envinfo.pin_blas_threads(workers)
    cli_main = run.load_cli()
    run.OUT.mkdir(exist_ok=True)
    reference = {}
    for name, part in PARTS.items():
        session = run.Session(cli_main, part, DEFAULT_SEED, workers)
        session.reference = None
        _, outcome = session.invoke()
        if outcome.failed:
            print(f"{name}: {outcome.problems}", file=sys.stderr)
            return 1
        reference[name] = outcome.record
        shutil.rmtree(session.work, ignore_errors=True)
    gate.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
