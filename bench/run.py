"""Benchmark of magiclab: closed-loop workloads with every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample runs the workload's fixed
job list (bench/jobs.py) once, in a fresh interpreter (bench/worker.py)
that imports magiclab from the checkout's ``src/``, so no cache carries
over between samples.  Samples run one at a time, back to back, for
about ``S`` seconds.  Before them a few interpreters only import and
build the inputs, to time set-up.

With ``--trace 0`` the final line holds the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` traced samples (spans around the
calls into each module) alternate with untraced ones, and the final
line holds the per-layer metrics; the lines before it report the
end-to-end metrics of the untraced samples as well.  The last line of
stdout is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from spans import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "magiclab", "__init__.py")
WORKLOADS = ("vertex-enum", "count-sweep", "semigroup-oracle", "cli-paper")
SETUP_PROBES = 10
# Hard stop for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0


def spawn(workload: str, seed: int, mode: str, workdir: str, timeout: float):
    """Run one worker to completion; returns (result or None, error, wall)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode, workdir]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # The worker may have a CLI process of its own: end the group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{mode} sample timed out", perf_counter() - start
    wall = perf_counter() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"{mode} sample failed: {tail[0]}", wall
    return json.loads(lines[-1]), None, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(args, per_layer: list[str]) -> dict:
    deadline = perf_counter() + DEADLINE_S
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems: list[str] = []
    failures: list[list[str]] = []
    attempted = failed = 0
    setups: list[float] = []
    runs: list[dict] = []
    traces: list[dict] = []
    seen = {"module": set(), "joblist": set()}
    try:
        probe = None
        for _ in range(SETUP_PROBES):
            probe, err, _ = spawn(args.workload, args.seed, "setup", workdir, deadline - perf_counter())
            if probe is None:
                raise SystemExit(f"set-up failed: {err}")
            setups.append(probe["setup_s"])
        per_sample_jobs = probe["attempted"]
        modes = ("trace", "run") if args.trace else ("run",)
        min_samples = 3 if args.trace else 1
        walls: list[float] = []
        start = perf_counter()
        while True:
            mode = modes[len(walls) % len(modes)]
            result, err, wall = spawn(args.workload, args.seed, mode, workdir, deadline - perf_counter())
            walls.append(wall)
            if result is None:
                attempted += per_sample_jobs
                failed += per_sample_jobs
                failures.append([mode, err])
            else:
                attempted += result["attempted"]
                failed += len(result["failures"])
                failures += result["failures"]
                setups.append(result["setup_s"])
                seen["module"].add(os.path.realpath(result["module"]))
                seen["joblist"].add(result["joblist"])
                (traces if mode == "trace" else runs).append(result)
            elapsed = perf_counter() - start
            next_wall = statistics.median(walls)
            if len(walls) >= min_samples and elapsed + next_wall > args.seconds:
                break
            if perf_counter() + next_wall > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if seen["module"] - {os.path.realpath(PACKAGE)}:
        problems.append(f"magiclab imported from {sorted(seen['module'])}, not {PACKAGE}")
    if len(seen["joblist"]) > 1:
        problems.append("samples of one seed ran different job lists")
    for name in EXACT_COUNTS:
        values = {t["layers"][name] for t in traces}
        if len(values) > 1:
            problems.append(f"{name} differs between traced samples: {sorted(values)}")
    if not runs or (args.trace and not traces):
        problems.append("no sample completed")

    run_s = [r["run_s"] for r in runs] or [0.0]
    end_to_end = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs] or [0.0]),
    }
    q1, q3 = quartiles(run_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "module": sorted(seen["module"]),
        "joblist": sorted(seen["joblist"]),
        "jobs_per_sample": per_sample_jobs,
        "run_s_samples": len(runs),
        "run_s_q1": q1,
        "run_s_q3": q3,
        "setup_s_samples": len(setups),
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:10],
        "problems": problems,
    }
    metrics = end_to_end
    if args.trace:
        layers = {}
        for name in per_layer:
            values = [t["layers"].get(name, 0.0) for t in traces] or [0.0]
            # Exact counts agree across samples; keep them whole numbers.
            layers[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        traced_run_s = statistics.median([t["run_s"] for t in traces] or [0.0])
        layers["trace_overhead_frac"] = traced_run_s / end_to_end["run_s"] - 1 if runs else 0.0
        report["traced_samples"] = len(traces)
        report["end_to_end"] = end_to_end
        metrics = layers
    return {
        "report": report,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        print(f"error: no magiclab source at {PACKAGE}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    out = measure(args, [m["name"] for m in bench["per_layer"]])
    report = out.pop("report")
    print(json.dumps(report, sort_keys=True))
    shown = dict(report.get("end_to_end", {}), **out["metrics"])
    for name, value in shown.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"failed_frac = {report['failed_frac']!r} frac ({out['failed']} of {out['attempted']} jobs)")
    out["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in out["metrics"].items()
    }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
