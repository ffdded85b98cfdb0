"""Checks of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py

Run from the root of a checkout; the package is imported from ``src/``.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import jobs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from magiclab import geometry, graphs, labelings, semigroups  # noqa: E402
from magiclab.errors import BudgetExceededError  # noqa: E402


def _job(job_id, tmp_path, workload="vertex-enum", expected=None):
    job_list = jobs.build(workload, 0, str(tmp_path), expected=expected)
    (job,) = [j for j in job_list if j.id == job_id]
    return job


def test_recorded_answers_pass(tmp_path):
    job_list = [j for j in jobs.build("vertex-enum", 0, str(tmp_path)) if "g5" not in j.id]
    _, _, failures, _ = worker.run_jobs(job_list)
    assert failures == []


def test_wrong_recorded_digest_is_a_failure(tmp_path):
    job = _job("gnp_2_2/P/vertices", tmp_path, expected={"gnp_2_2/P/vertices": "0" * 16})
    _, _, failures, _ = worker.run_jobs([job])
    assert len(failures) == 1 and "recorded" in failures[0][1]


def test_wrong_oracle_value_is_a_failure(tmp_path):
    job = _job("g4/P/denominator", tmp_path)
    wrong = jobs.Job(job.id, job.call, lambda r: jobs._expect(r, 4, "denominator"))
    _, _, failures, _ = worker.run_jobs([job, wrong])
    assert failures == [["g4/P/denominator", "denominator: got 3, expected 4"]]


def test_raising_job_is_counted_and_the_run_goes_on(tmp_path):
    def boom():
        raise BudgetExceededError("over budget")

    jobs_in = [jobs.Job("boom", boom, lambda r: None), _job("g2/P/vertices", tmp_path)]
    _, _, failures, _ = worker.run_jobs(jobs_in)
    assert failures == [["boom", "raised BudgetExceededError: over budget"]]


def test_same_seed_same_job_list(tmp_path):
    def ids(seed):
        return [j.id for j in jobs.build("semigroup-oracle", seed, str(tmp_path))]

    assert ids(7) == ids(7)
    rng_a, rng_b = jobs.random.Random(7), jobs.random.Random(8)
    assert [jobs._random_loop_graph(rng_a, i) for i in range(5)] != [
        jobs._random_loop_graph(rng_b, i) for i in range(5)
    ]


def test_wrappers_reach_functions_bound_by_name():
    recorder = spans.Recorder()
    recorder.install()
    assert semigroups.enumerate_magic_bounded is labelings.enumerate_magic_bounded
    assert semigroups.enumerate_magic_bounded.__wrapped__ is not None
    g = graphs.make_gn(3)
    elem = semigroups.SemigroupElement(labelings.lstar(3), 2)
    recorder.on = True
    semigroups.verify_completely_fundamental(g, "P", elem, 2)
    recorder.on = False
    names = [s[0] for s in recorder.spans]
    assert names[0] == "semigroups.verify_completely_fundamental"
    assert "labelings.enumerate_magic_bounded" in names
    metrics = spans.summarize(recorder.spans, ["semigroups", "labelings.enumerate"])
    assert metrics["semigroups.oracle_candidates"] > 0
    assert abs(metrics["target_self_frac"] - 1.0) < 1e-9


def test_gn_vertex_oracle_matches_geometry():
    for n in (2, 3, 4):
        assert set(geometry.polytope_vertices(graphs.make_gn(n), "P")) == jobs.gn_vertices(n)


def test_empty_directory_gives_no_result(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            with open(os.path.join(HERE, name), "rb") as src:
                (tmp_path / "bench" / name).write_bytes(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src:
        (tmp_path / "BENCHMARK.json").write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vertex-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") and "correct" in json.loads(line)
                   for line in proc.stdout.splitlines())
