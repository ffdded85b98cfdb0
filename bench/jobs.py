"""The benchmark's four workloads as fixed lists of checked jobs.

A job is ``Job(id, call, check)``.  ``call()`` is the timed call into
magiclab; ``check(result)`` runs untimed and returns None for a right
answer or a message saying what is wrong.  Library functions are looked
up through their module at call time, so the wrappers of spans.py see
every call.

Checks use an independent oracle where one exists (the closed form for
gn counts, the known gn vertex set, denominator and quasiperiod, the
defining properties of a Stanley decomposition, perfect matchings) and
otherwise compare a digest of the answer with one recorded in
expected.json at the commit that introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from magiclab import (
    cli,
    geometry,
    graphs,
    labelings,
    quasipolynomials,
    semigroups,
    verification,
)
from magiclab.labelings import Labeling, li_matching, lstar
from magiclab.quasipolynomials import Quasipolynomial
from magiclab.semigroups import CFVerdict, QuasiperiodCertificate, SemigroupElement

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass
class Job:
    id: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # True when the check compares with a digest in expected.json.
    recorded: bool = False


# ---------------------------------------------------------------- answers


def canonical(x):
    """A JSON-ready form of any answer a job returns."""
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Labeling):
        return list(x.labels)
    if isinstance(x, SemigroupElement):
        return [list(x.labeling.labels), x.height]
    if isinstance(x, Quasipolynomial):
        return x.to_json()
    if isinstance(x, CFVerdict):
        return [x.refuted, x.m_max, x.m, canonical(x.b), canonical(x.c)]
    if isinstance(x, QuasiperiodCertificate):
        return [x.verdict, x.bipartite, canonical(x.forced_edge), x.vacuous]
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, CliRun):
        return [x.code, x.stdout]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    text = json.dumps(canonical(x), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, str]:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class JobList:
    """Collects jobs; a job without an oracle is checked by digest."""

    def __init__(self, expected: dict[str, str], run_cli=None):
        self.expected = expected
        self.run_cli = run_cli
        self.jobs: list[Job] = []

    def add(self, job_id: str, call, check=None) -> None:
        def by_digest(result, job_id=job_id):
            want = self.expected.get(job_id)
            if want is None:
                return "no recorded digest"
            got = digest(result)
            return None if got == want else f"digest {got} != recorded {want}"

        def both(result):
            return (check(result) if check else None) or by_digest(result)

        self.jobs.append(Job(job_id, call, both if check else by_digest, recorded=True))

    def add_oracle(self, job_id: str, call, check) -> None:
        self.jobs.append(Job(job_id, call, check))


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# -------------------------------------------------------------- gn oracles


def gn_vertices(n: int) -> set:
    """Vertices of P(gn): 0, the n matchings and lstar/(n-1)."""
    zero = tuple(Fraction(0) for _ in range(3 * n))
    verts = {zero, tuple(Fraction(x, n - 1) for x in lstar(n).labels)}
    for i in range(1, n + 1):
        verts.add(tuple(Fraction(x) for x in li_matching(n, i).labels))
    return verts


def gn_cf_elements(n: int) -> set:
    """CF elements of the P-semigroup of gn: each vertex times its denominator."""
    elems = {(tuple([0] * 3 * n), 1), (lstar(n).labels, n - 1)}
    for i in range(1, n + 1):
        elems.add((li_matching(n, i).labels, 1))
    return elems


def _check_stanley(lab: Labeling, pieces, matchings) -> str | None:
    g = lab.graph
    total = [0] * len(g.edges)
    bipartite = graphs.is_bipartite(g) is not None
    for piece in pieces:
        idx = labelings.is_magic(piece)
        if idx not in (1, 2) or (bipartite and idx != 1):
            return f"piece {piece.labels} has index {idx}"
        if idx == 1:
            support = tuple(i for i, x in enumerate(piece.labels) if x)
            if set(piece.labels) - {0, 1} or support not in matchings:
                return f"index-1 piece {piece.labels} is not a perfect matching"
        total = [t + p for t, p in zip(total, piece.labels)]
    return _expect(tuple(total), lab.labels, "sum of pieces")


def _check_all_stanley(pairs, matchings) -> str | None:
    for lab, pieces in pairs:
        problem = _check_stanley(lab, pieces, matchings)
        if problem:
            return f"{lab.labels}: {problem}"
    return None


# ---------------------------------------------------------------- workloads


FACTS = {
    "vertices": (geometry, "polytope_vertices"),
    "denominator": (geometry, "polytope_denominator"),
    "dimension": (geometry, "polytope_dimension"),
    "cf_elements": (semigroups, "cf_elements"),
}


def gn_oracles(n: int) -> dict:
    """Checks for the P facts of gn(n) that need no recorded answer."""
    return {
        "vertices": lambda r: _expect(set(r), gn_vertices(n), "vertex set"),
        "denominator": lambda r: _expect(r, n - 1, "denominator"),
        "cf_elements": lambda r: _expect(
            {(e.labeling.labels, e.height) for e in r}, gn_cf_elements(n), "CF elements"
        ),
    }


def vertex_enum(b: JobList, seed: int, workdir: str) -> None:
    """Polytope facts, each asked for separately, P and Q."""
    corpus = [(f"g{n}", graphs.make_gn(n), n) for n in (2, 3, 4)]
    corpus += [
        (f"gnp_{n}_{p}", graphs.make_gnp(n, p), None) for n, p in ((2, 2), (3, 2), (2, 3), (3, 3))
    ]
    corpus += [
        ("two_loops", graphs.bouquet(2), None),
        ("bridged_blocks", verification.bridged_blocks(), None),
    ]
    for name, g, n in corpus:
        for kind in "PQ":
            oracles = gn_oracles(n) if n and kind == "P" else {}
            for fact, (module, fn) in FACTS.items():
                job_id = f"{name}/{kind}/{fact}"
                call = lambda module=module, fn=fn, g=g, kind=kind: getattr(module, fn)(g, kind)
                if fact in oracles:
                    b.add_oracle(job_id, call, oracles[fact])
                else:
                    b.add(job_id, call)
    g5 = graphs.make_gn(5)
    b.add_oracle(
        "g5/P/vertices", lambda: geometry.polytope_vertices(g5, "P"), gn_oracles(5)["vertices"]
    )


def _series_check(n: int, kmax: int):
    def check(run: CliRun) -> str | None:
        lines = run.stdout.splitlines()
        if run.code != 0 or lines[0] != "k,magic_count,index_count":
            return f"exit {run.code}, header {lines[:1]}"
        got = [int(line.split(",")[1]) for line in lines[1:]]
        want = [quasipolynomials.closed_form_mn(n, k) for k in range(kmax + 1)]
        return _expect(got, want, "magic counts")

    return check


def count_sweep(b: JobList, seed: int, workdir: str) -> None:
    """Counting and the Ehrhart sweep; vertex enumeration is a small part."""
    for n, kmax in ((4, 20), (5, 16)):
        path = _write_graph(workdir, f"g{n}", graphs.make_gn(n))
        argv = ["series", "--graph", path, "--kmax", str(kmax), "--with-index", "--format", "csv"]
        b.add(f"series/g{n}/{kmax}", lambda argv=argv: _main_in_process(argv), _series_check(n, kmax))
    g5 = graphs.make_gn(5)
    b.add_oracle(
        "count/g5/25",
        lambda: labelings.count_magic_k(g5, 25),
        lambda r: _expect(r, quasipolynomials.closed_form_mn(5, 25), "count"),
    )
    corpus = [("gnp_3_3", graphs.make_gnp(3, 3)), ("gnp_2_3", graphs.make_gnp(2, 3))]
    corpus += [(f"cycle{n}", graphs.cycle_graph(n)) for n in (5, 6, 7, 8)]
    corpus += [("path4", graphs.path_graph(4)), ("bridged_blocks", verification.bridged_blocks())]
    for name, g in corpus:
        for kind in "PQ":
            b.add(
                f"ehrhart/{name}/{kind}",
                lambda g=g, kind=kind: quasipolynomials.ehrhart_of_polytope(g, kind),
            )
    g3 = graphs.make_gn(3)
    b.add_oracle(
        "ehrhart/g3/P",
        lambda: quasipolynomials.ehrhart_of_polytope(g3, "P"),
        lambda q: _expect(q.minimum_quasiperiod(), 2, "minimum quasiperiod")
        or _expect(
            [q.evaluate(k) for k in range(30)],
            [quasipolynomials.closed_form_mn(3, k) for k in range(30)],
            "values against the closed form",
        ),
    )


# Seeded random loop graphs in semigroup-oracle.  Each is small, so the
# seed changes the job list but barely moves the workload's run time.
RANDOM_GRAPHS = 24


def _random_loop_graph(rng: random.Random, idx: int):
    """A random path with up to two chords and one or two loops."""
    nv = rng.randint(4, 6)
    vs = [f"r{idx}_{i}" for i in range(nv)]
    edges = [(vs[i], vs[i + 1]) for i in range(nv - 1)]
    chords = [(vs[i], vs[j]) for i in range(nv) for j in range(i + 2, nv)]
    edges += rng.sample(chords, rng.randint(0, 2))
    edges += [(v, v) for v in rng.sample(vs, rng.randint(1, 2))]
    return graphs.build_graph(vs, edges)


def semigroup_oracle(b: JobList, seed: int, workdir: str) -> None:
    """Materialised labelings: the CF oracle and Stanley decompositions."""
    for n, m_max in ((4, 8), (5, 6), (6, 4)):
        g = graphs.make_gn(n)
        elems = {
            "zero": SemigroupElement(Labeling(g, [0] * 3 * n), 1),
            "l1": SemigroupElement(li_matching(n, 1), 1),
            f"l{n}": SemigroupElement(li_matching(n, n), 1),
            "lstar": SemigroupElement(lstar(n), n - 1),
        }
        for name, e in elems.items():
            b.add_oracle(
                f"cf-oracle/g{n}/{name}/m{m_max}",
                lambda g=g, e=e, m=m_max: semigroups.verify_completely_fundamental(g, "P", e, m),
                lambda v: _expect(v.refuted, False, "refuted"),
            )
        bad = SemigroupElement(lstar(n), n)
        b.add_oracle(
            f"cf-oracle/g{n}/lstar-height-{n}/m1",
            lambda g=g, bad=bad: semigroups.verify_completely_fundamental(g, "P", bad, 1),
            lambda v, bad=bad: _expect(v.refuted, True, "refuted")
            or _expect(
                tuple(x + y for x, y in zip(v.b.labeling.labels, v.c.labeling.labels)),
                tuple(v.m * x for x in bad.labeling.labels),
                "b + c",
            ),
        )
    g5 = graphs.make_gn(5)
    g5_matchings = set(graphs.perfect_matchings(g5))
    for k in range(1, 10):
        b.add(
            f"stanley/g5/index{k}",
            lambda k=k: [
                (lab, semigroups.stanley_decompose(lab))
                for lab in labelings.enumerate_index_k(g5, k)
            ],
            lambda pairs: _check_all_stanley(pairs, g5_matchings),
        )
    rng = random.Random(seed)
    for idx in range(RANDOM_GRAPHS):
        g = _random_loop_graph(rng, idx)
        matchings = set(graphs.perfect_matchings(g))
        k = rng.randint(2, 4)
        b.add_oracle(
            f"stanley/random{idx}/index{k}",
            lambda g=g, k=k: [
                (lab, semigroups.stanley_decompose(lab))
                for lab in labelings.enumerate_index_k(g, k)
            ],
            lambda pairs, matchings=matchings: _check_all_stanley(pairs, matchings),
        )
    for name, g in verification.corpus():
        b.add(f"certify/{name}", lambda g=g: semigroups.certify_small_quasiperiod(g))
        b.add(f"preclusion/{name}", lambda g=g: graphs.matching_preclusion_class(g))
        b.add(f"matchings/{name}", lambda g=g: graphs.perfect_matchings(g))


# The checks of verify-paper that each finish well under 20 s on their own.
# minimum-quasiperiod-values and quasiperiod-divides-denominator fit the
# Ehrhart quasipolynomial of gn(5) and take about 17-22 s and 28 s on a
# 2-vCPU Xeon VM; either would fill a whole run, so they are left out.
VERIFY_CHECKS = (
    "g4-ehrhart-exact",
    "closed-form-counts",
    "gn-vertex-denominators",
    "two-loop-example",
    "difference-floor-identity",
    "stanley-decomposition",
    "small-quasiperiod-certificates",
    "gnp-count-invariance",
    "cf-element-oracle",
)


def cli_paper(b: JobList, seed: int, workdir: str) -> None:
    """One fresh ``magiclab`` process per command, output checked byte for byte."""
    g3 = _write_graph(workdir, "g3", graphs.make_gn(3))
    g4 = _write_graph(workdir, "g4", graphs.make_gn(4))
    g5 = _write_graph(workdir, "g5", graphs.make_gn(5))
    commands = [
        ["vertices", "--graph", g4, "--format", "json"],
        ["ehrhart", "--graph", g4, "--format", "json"],
        ["series", "--graph", g4, "--kmax", "10", "--with-index", "--format", "csv"],
        ["count", "--graph", g5, "-k", "18"],
        ["cf", "--graph", g3, "--verify", "--m-max", "3", "--format", "json"],
        ["check", "--graph", g4, "--format", "json"],
    ]
    commands += [["verify-paper", "--filter", name] for name in VERIFY_CHECKS]
    for argv in commands:
        job_id = "cli/" + " ".join(os.path.basename(a) for a in argv)
        b.add(job_id, lambda argv=argv: b.run_cli(argv), lambda r: _expect(r.code, 0, "exit code"))


WORKLOADS = {
    "vertex-enum": vertex_enum,
    "count-sweep": count_sweep,
    "semigroup-oracle": semigroup_oracle,
    "cli-paper": cli_paper,
}


def build(workload: str, seed: int, workdir: str, run_cli=None, expected=None) -> list[Job]:
    """The job list of a workload; ``run_cli`` runs cli-paper's commands."""
    b = JobList(load_expected() if expected is None else expected, run_cli)
    WORKLOADS[workload](b, seed, workdir)
    return b.jobs


# --------------------------------------------------------------- CLI runs


@dataclass
class CliRun:
    code: int
    stdout: str
    wall_s: float = 0.0
    main_s: float = 0.0


def _write_graph(workdir: str, name: str, g) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graphs.graph_to_json(g) + "\n")
    return path


def _main_in_process(argv) -> CliRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return CliRun(code, out.getvalue())


class CliRunner:
    """Runs each CLI command in a fresh interpreter and waits for it.

    ``env`` must put the checkout's ``src/`` on PYTHONPATH.  With
    ``trace_file`` set the process is bench/traced_cli.py, which leaves
    the spans of its call there; they are collected in ``spans``.
    """

    TIMEOUT_S = 150.0

    def __init__(self, env: dict[str, str], trace_file: str | None = None):
        self.env = dict(env)
        self.command = [sys.executable, "-m", "magiclab"]
        self.trace_file = trace_file
        self.spans: list[list] = []
        if trace_file:
            self.command = [sys.executable, os.path.join(HERE, "traced_cli.py")]
            self.env["BENCH_SPANS_FILE"] = trace_file

    def __call__(self, argv) -> CliRun:
        start = perf_counter()
        proc = subprocess.Popen(
            self.command + list(argv),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
        )
        try:
            stdout, _ = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        run = CliRun(proc.returncode, stdout, perf_counter() - start)
        if self.trace_file:
            with open(self.trace_file, encoding="utf-8") as fh:
                spans = json.load(fh)
            os.remove(self.trace_file)
            run.main_s = sum(end - begin for _, begin, end, parent, _ in spans if parent < 0)
            self.spans.append(spans)
        return run
