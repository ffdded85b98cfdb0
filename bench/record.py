"""Record the digest of every answer the benchmark checks by digest.

    python3 bench/record.py

Runs each workload's job list once (seed 0) and writes bench/expected.json.
Run it only at a commit whose answers are known to be right: every later
run compares against these digests.
"""

import json
import os
import shutil
import sys

from run import ROOT, WORKLOADS, spawn

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    try:
        for workload in WORKLOADS:
            result, err, _ = spawn(workload, 0, "record", workdir, 600)
            if result is None or result["failures"]:
                print(f"{workload}: {err or result['failures']}", file=sys.stderr)
                return 1
            digests.update(result["digests"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
