"""One sample of a workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``run`` (time the job list), ``trace`` (time it with spans
recorded), ``setup`` (only import and build the inputs) or ``record``
(return the digests of the answers checked by digest, for expected.json).  magiclab is
imported from the checkout's ``src/``; run.py checks the path printed in
``module``.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

# Modules only the harness (jobs.py) needs, imported before the set-up
# clock starts so that set-up time is magiclab's own.
import contextlib  # noqa: F401
import io  # noqa: F401
import random  # noqa: F401
import subprocess  # noqa: F401

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_jobs(job_list, recorder=None, record=False):
    """Time each job's call and check its answer; a failing job never aborts.

    Returns ``(run_s, overhead_s, failures, digests)``: the summed call
    time, the CLI process time outside ``cli.main`` (traced cli-paper
    only), ``[job id, reason]`` for every job that raised or answered
    wrongly, and with ``record`` the digest of each answer that is checked
    by digest, in place of its check.
    """
    import jobs

    run_s = overhead_s = 0.0
    failures: list[list[str]] = []
    digests: dict[str, str] = {}
    for job in job_list:
        if recorder:
            recorder.on = True
        t = perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a failing job is counted, not fatal
            failures.append([job.id, f"raised {type(exc).__name__}: {exc}"])
            continue
        finally:
            run_s += perf_counter() - t
            if recorder:
                recorder.on = False
        if isinstance(result, jobs.CliRun):
            overhead_s += result.wall_s - result.main_s
        if record and job.recorded:
            digests[job.id] = jobs.digest(result)
            continue
        try:
            problem = job.check(result)
        except Exception as exc:  # a check that crashes marks a wrong answer
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append([job.id, problem])
    return run_s, overhead_s, failures, digests


def main() -> int:
    workload, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    sys.path.insert(0, SRC)

    start = perf_counter()
    import magiclab

    import jobs

    traced_cli = mode == "trace" and workload == "cli-paper"
    run_cli = jobs.CliRunner(
        dict(os.environ, PYTHONPATH=SRC),
        os.path.join(workdir, f"cli-spans-{os.getpid()}.json") if traced_cli else None,
    )
    job_list = jobs.build(workload, seed, workdir, run_cli)
    setup_s = perf_counter() - start

    out = {
        "setup_s": setup_s,
        "module": magiclab.__file__,
        "joblist": hashlib.sha256("\n".join(j.id for j in job_list).encode()).hexdigest()[:16],
        "attempted": len(job_list),
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0

    recorder = None
    if mode == "trace":
        import spans

        if not traced_cli:
            recorder = spans.Recorder()
            recorder.install()

    run_s, overhead_s, failures, digests = run_jobs(job_list, recorder, mode == "record")
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out.update(run_s=run_s, peak_rss_mb=rss_kb / 1024, failures=failures)
    if mode == "record":
        out["digests"] = digests
    if mode == "trace":
        raw = recorder.spans if recorder else spans.merge(run_cli.spans)
        with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
            targets = json.load(fh)["targets"][workload]
        layers = spans.summarize(raw, targets)
        if traced_cli:
            layers["cli.process_overhead_s"] = overhead_s
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
