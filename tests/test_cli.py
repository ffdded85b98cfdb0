"""Command line interface behavior and exit codes."""

import argparse
import json

import pytest

from magiclab import (
    Labeling,
    Quasipolynomial,
    bouquet,
    closed_form_mn,
    cycle_graph,
    ehrhart_of_polytope,
    graph_from_json,
    graph_to_json,
    labeling_to_json,
    lstar,
    make_gn,
)
from magiclab.cli import build_parser, main
from test_semigroups import hub_labeling


@pytest.fixture
def g2_path(tmp_path):
    path = tmp_path / "g2.json"
    assert main(["gen", "--family", "gn", "-n", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def g4_path(tmp_path):
    path = tmp_path / "g4.json"
    assert main(["gen", "--family", "gn", "-n", "4", "-o", str(path)]) == 0
    return str(path)


class TestGen:
    def test_written_file_round_trips(self, g4_path):
        with open(g4_path) as fh:
            g = graph_from_json(fh.read())
        assert g == make_gn(4)

    def test_gnp_to_stdout(self, capsys):
        assert main(["gen", "--family", "gnp", "-n", "2", "-p", "2"]) == 0
        out = capsys.readouterr().out.strip()
        g = graph_from_json(out)
        assert len(g.vertices) == 10 and len(g.edges) == 10

    def test_gnp_requires_p(self, capsys):
        assert main(["gen", "--family", "gnp", "-n", "2"]) == 2

    def test_bad_n(self, capsys):
        assert main(["gen", "--family", "gn", "-n", "1"]) == 2

    # -p 0 as well: a falsy value must not slip through as "no -p".
    @pytest.mark.parametrize("p", ["5", "0"])
    def test_gn_takes_no_p(self, capsys, p):
        assert main(["gen", "--family", "gn", "-n", "2", "-p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family gn takes no -p\n"


class TestCount:
    def test_human(self, g4_path, capsys):
        assert main(["count", "--graph", g4_path, "-k", "3"]) == 0
        assert capsys.readouterr().out.strip() == "36"

    def test_k0(self, g2_path, capsys):
        assert main(["count", "--graph", g2_path, "-k", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_long_cycle(self, tmp_path, capsys):
        path = tmp_path / "c1200.json"
        path.write_text(graph_to_json(cycle_graph(1200)))
        assert main(["count", "--graph", str(path), "-k", "1"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_k5_square(self, g2_path, capsys):
        assert main(["count", "--graph", g2_path, "-k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "36"

    def test_json(self, g4_path, capsys):
        assert main(["count", "--graph", g4_path, "-k", "3", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"k": 3, "count": "36"}

    def test_csv(self, g2_path, capsys):
        assert main(["count", "--graph", g2_path, "-k", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "k,count\n2,9\n"

    def test_missing_graph_file(self, capsys):
        assert main(["count", "--graph", "/nonexistent.json", "-k", "1"]) == 2

    def test_deterministic_output(self, g4_path, capsys):
        main(["count", "--graph", g4_path, "-k", "3", "--format", "json"])
        first = capsys.readouterr().out
        main(["count", "--graph", g4_path, "-k", "3", "--format", "json"])
        assert capsys.readouterr().out == first


class TestSeries:
    def test_csv_with_index(self, g4_path, capsys):
        assert (
            main(
                [
                    "series",
                    "--graph",
                    g4_path,
                    "--kmax",
                    "4",
                    "--with-index",
                    "--format",
                    "csv",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,magic_count,index_count"
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "4", "10", "20", "35"]

    def test_square_counts(self, g2_path, capsys):
        assert main(["series", "--graph", g2_path, "--kmax", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["1", "4", "9", "16"]

    def test_ndjson(self, g2_path, capsys):
        assert main(["series", "--graph", g2_path, "--kmax", "2", "--format", "json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows == [
            {"k": 0, "magic_count": "1"},
            {"k": 1, "magic_count": "4"},
            {"k": 2, "magic_count": "9"},
        ]

    def test_edgeless_graph_counts_one(self, tmp_path, capsys):
        path = tmp_path / "edgeless.json"
        path.write_text('{"vertices":["a","b"],"edges":[]}')
        assert main(["series", "--graph", str(path), "--kmax", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["1", "1", "1", "1"]


    def test_budget_caps_the_whole_sweep(self, g4_path, capsys):
        # One budget over every pass of the sweep: 212 state transitions for
        # k = 0..3 on gn(4); four separate count_magic_k calls take 372.
        argv = ["series", "--graph", g4_path, "--kmax", "3", "--with-index"]
        assert main(argv + ["--budget", "211"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: counting exceeded the budget of 211 state transitions (reached 212)"
        )
        assert main(argv + ["--budget", "212"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "3\t36\t20"


class TestEhrhart:
    def test_g4_json(self, g4_path, capsys):
        assert main(["ehrhart", "--graph", g4_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["period"] == 3
        assert data["minimum_quasiperiod"] == 3
        assert data["denominator"] == 3
        assert data["constituents"][0] == ["1", "2", "25/18", "4/9", "1/18"]
        assert data["constituents"][1] == ["10/9", "2", "25/18", "4/9", "1/18"]
        assert data["constituents"][2] == data["constituents"][0]

    def test_g2_polynomial(self, g2_path, capsys):
        assert main(["ehrhart", "--graph", g2_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["period"] == 1 and data["constituents"] == [["1", "2", "1"]]

    def test_two_loops(self, tmp_path, capsys):
        path = tmp_path / "loops.json"
        path.write_text('{"vertices":["v"],"edges":[["v","v"],["v","v"]]}')
        assert main(["ehrhart", "--graph", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["constituents"] == [["1", "2", "1"]]

    def test_vertex_enumeration_runs_once(self, g4_path, capsys, monkeypatch):
        from magiclab import geometry

        monkeypatch.delenv("MAGIC_BUDGET", raising=False)
        geometry._polytope_facts.cache_clear()
        real = geometry._enumerate_vertices
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "_enumerate_vertices", counted)
        assert main(["ehrhart", "--graph", g4_path]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, g, kind", [("g4", make_gn(4), "P"), ("two_loops", bouquet(2), "Q")]
    )
    def test_json_round_trips_through_from_json(
        self, name, g, kind, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.delenv("MAGIC_BUDGET", raising=False)
        path = tmp_path / f"{name}.json"
        path.write_text(graph_to_json(g))
        argv = ["ehrhart", "--graph", str(path), "--polytope", kind, "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert Quasipolynomial.from_json(out) == ehrhart_of_polytope(g, kind)

    def test_csv_not_offered(self, g2_path):
        with pytest.raises(SystemExit) as err:
            main(["ehrhart", "--graph", g2_path, "--format", "csv"])
        assert err.value.code == 2


    def test_q_of_the_graph_with_no_vertices_is_empty(self, tmp_path, capsys):
        # Its only labeling has index 0, so nothing has index 1: Q is empty
        # in the geometry as in the counts.
        path = tmp_path / "empty.json"
        path.write_text('{"vertices":[],"edges":[]}')
        assert main(["ehrhart", "--graph", str(path), "--polytope", "Q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "polytope is empty" in captured.err
        assert main(["ehrhart", "--graph", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["constituents"] == [["1"]]


class TestVertices:
    def test_q_of_the_graph_with_no_vertices(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices":[],"edges":[]}')
        argv = ["vertices", "--graph", str(path), "--format", "json"]
        assert main(argv + ["--polytope", "Q"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == [[]]

    def test_q_segment(self, g2_path, capsys):
        assert main(["vertices", "--graph", g2_path, "--polytope", "Q", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, data)) == sorted(
            [
                ("0", "1", "1", "0", "1", "0"),
                ("1", "0", "0", "1", "0", "1"),
            ]
        )

    def test_p_contains_thirds(self, g4_path, capsys):
        assert main(["vertices", "--graph", g4_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ["1"] * 4 + ["1/3"] * 8 in data


class TestCf:
    def test_json_elements(self, g2_path, capsys):
        assert main(["cf", "--graph", g2_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {"labels": [0, 0, 0, 0, 0, 0], "height": 1} in data
        assert {"labels": [1, 1, 1, 1, 1, 1], "height": 1} in data

    def test_verify_passes(self, g2_path, capsys):
        assert main(["cf", "--graph", g2_path, "--verify", "--m-max", "2"]) == 0
        assert "unrefuted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "graph, kind",
        [('{"vertices":["v"],"edges":[]}', "Q"), (graph_to_json(make_gn(3)), "P")],
        ids=["one_vertex_no_element", "g3"],
    )
    def test_verify_rejects_m_max_0_on_every_graph(
        self, graph, kind, tmp_path, capsys, monkeypatch
    ):
        from magiclab import semigroups

        path = tmp_path / "g.json"
        path.write_text(graph)
        # The gate runs before the elements are computed, not after.
        monkeypatch.setattr(semigroups, "cf_elements", None)
        argv = ["cf", "--graph", str(path), "--polytope", kind, "--verify", "--m-max", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: m_max must be at least 1\n"


class TestDecompose:
    def test_lstar3(self, tmp_path, capsys):
        gpath = tmp_path / "g3.json"
        gpath.write_text(graph_to_json(make_gn(3)))
        lpath = tmp_path / "lab.json"
        lpath.write_text(labeling_to_json(lstar(3)))
        assert (
            main(
                [
                    "decompose",
                    "--graph",
                    str(gpath),
                    "--labeling",
                    str(lpath),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 3 and all(p["index"] == 1 for p in data)

    def test_budget_exit_code(self, tmp_path, capsys):
        gpath = tmp_path / "g3.json"
        gpath.write_text(graph_to_json(make_gn(3)))
        lpath = tmp_path / "lab.json"
        lpath.write_text(labeling_to_json(lstar(3)))
        argv = ["decompose", "--graph", str(gpath), "--labeling", str(lpath)]
        assert main(argv + ["--budget", "5"]) == 3
        assert "budget" in capsys.readouterr().err
        assert main(argv) == 0

    def test_extraction_fits_in_the_pool_budget(self, tmp_path, capsys):
        # lstar(3) scaled to index 2,100: the candidate search passes at a
        # budget of 25, not 24, and the extraction tries three counts.
        lab = lstar(3)
        gpath = tmp_path / "g3.json"
        gpath.write_text(graph_to_json(lab.graph))
        lpath = tmp_path / "lab.json"
        big = Labeling(lab.graph, tuple(700 * x for x in lab.labels))
        lpath.write_text(labeling_to_json(big))
        argv = ["decompose", "--graph", str(gpath), "--labeling", str(lpath)]
        assert main(argv + ["--budget", "24", "--format", "json"]) == 3
        assert "search exceeded" in capsys.readouterr().err
        assert main(argv + ["--budget", "25", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 2100

    def test_boolean_label_is_a_usage_error(self, tmp_path, capsys):
        gpath = tmp_path / "g3.json"
        gpath.write_text(graph_to_json(make_gn(3)))
        lpath = tmp_path / "lab.json"
        text = labeling_to_json(lstar(3)).replace(",1,", ",true,", 1)
        assert "true" in text
        lpath.write_text(text)
        argv = ["decompose", "--graph", str(gpath), "--labeling", str(lpath)]
        assert main(argv) == 2

    def test_hash_mismatch(self, tmp_path, capsys):
        gpath = tmp_path / "g4.json"
        gpath.write_text(graph_to_json(make_gn(4)))
        lpath = tmp_path / "lab.json"
        lpath.write_text(labeling_to_json(lstar(3)))
        assert main(["decompose", "--graph", str(gpath), "--labeling", str(lpath)]) == 2

    def test_undecomposable_labeling_is_a_usage_error(self, tmp_path, capsys):
        lab = hub_labeling()
        gpath = tmp_path / "hub.json"
        gpath.write_text(graph_to_json(lab.graph))
        lpath = tmp_path / "lab.json"
        lpath.write_text(labeling_to_json(lab))
        assert main(["decompose", "--graph", str(gpath), "--labeling", str(lpath)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines() == [
            "error: labeling has no decomposition into magic labelings of index 1 and 2"
        ]


class TestCheck:
    def test_bridged_blocks_report(self, tmp_path, capsys):
        from magiclab.verification import bridged_blocks

        path = tmp_path / "bb.json"
        path.write_text(graph_to_json(bridged_blocks()))
        assert main(["check", "--graph", str(path), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bipartite"] is True
        assert data["matching_preclusion"] == "one"
        assert data["certificate"] == "polynomial"
        assert data["forced_max_edge"] is not None
        assert len(data["leaves"]) == 2

    def test_g4_report(self, g4_path, capsys):
        assert main(["check", "--graph", g4_path, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["certificate"] == "no_certificate"
        assert data["matching_preclusion"] == "greater_than_one"

    def test_budget_caps_the_preclusion_search(self, g4_path, capsys, monkeypatch):
        # The preclusion search runs first; the certificate is never reached.
        from magiclab import semigroups

        def unreached(*args, **kwargs):
            raise AssertionError("the preclusion search ignored the budget")

        monkeypatch.setattr(semigroups, "certify_small_quasiperiod", unreached)
        assert main(["check", "--graph", g4_path, "--budget", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: search exceeded the budget of 0 nodes")


class TestFn:
    def test_value(self, capsys):
        assert main(["fn", "-n", "3", "-k", "7"]) == 0
        assert capsys.readouterr().out.strip() == "39"

    def test_json(self, capsys):
        assert main(["fn", "-n", "1", "-k", "4", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 1, "k": 4, "value": "10"}


class TestBudgets:
    def test_count_budget_exit_code(self, g4_path, capsys):
        assert main(["count", "--graph", g4_path, "-k", "6", "--budget", "5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: counting exceeded the budget of 5 state transitions")

    def test_count_past_the_gate_of_a_dear_q_keeps_the_default_budget(self, tmp_path, capsys):
        # gn(14)'s Q takes 29.8M pair tests, past the default budget of
        # 10^7; at k = 15, its gate, the lookups stay under their caps.
        path = tmp_path / "g14.json"
        assert main(["gen", "--family", "gn", "-n", "14", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["count", "--graph", str(path), "-k", "15"]) == 0
        assert str(closed_form_mn(14, 15)) in capsys.readouterr().out

    def test_vertices_budget_exit_code(self, g4_path, capsys):
        assert main(["vertices", "--graph", g4_path, "--budget", "5"]) == 3
        assert "budget" in capsys.readouterr().err

    def test_vertices_budget_after_a_cached_run(self, g4_path, capsys):
        assert main(["vertices", "--graph", g4_path]) == 0
        assert main(["vertices", "--graph", g4_path, "--budget", "5"]) == 3

    def test_env_var_budget(self, g4_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGIC_BUDGET", "5")
        assert main(["count", "--graph", g4_path, "-k", "6"]) == 3

    def test_flag_overrides_env(self, g4_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGIC_BUDGET", "5")
        assert main(["count", "--graph", g4_path, "-k", "3", "--budget", "10000000"]) == 0

    def test_bad_env_value(self, g4_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGIC_BUDGET", "lots")
        assert main(["count", "--graph", g4_path, "-k", "1"]) == 2

    def test_negative_flag_is_usage_error(self, g4_path, capsys, monkeypatch):
        monkeypatch.delenv("MAGIC_BUDGET", raising=False)
        assert main(["count", "--graph", g4_path, "-k", "1", "--budget", "-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_negative_env_value_is_usage_error(self, g4_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGIC_BUDGET", "-1")
        assert main(["count", "--graph", g4_path, "-k", "1"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_zero_budget_is_exceeded(self, g4_path, capsys, monkeypatch):
        monkeypatch.setenv("MAGIC_BUDGET", "0")
        assert main(["count", "--graph", g4_path, "-k", "1"]) == 3
        monkeypatch.delenv("MAGIC_BUDGET")
        assert main(["count", "--graph", g4_path, "-k", "1", "--budget", "0"]) == 3


def _subcommands():
    parser = build_parser()
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


BUDGETED = [
    name
    for name, p in _subcommands().items()
    if any("--budget" in a.option_strings for a in p._actions)
]


def test_every_searching_subcommand_offers_a_budget():
    assert set(BUDGETED) == {
        "count",
        "series",
        "ehrhart",
        "vertices",
        "cf",
        "decompose",
        "check",
    }


@pytest.mark.parametrize("name", BUDGETED)
def test_zero_budget_exits_3_on_every_budgeted_subcommand(
    name, g4_path, tmp_path, capsys, monkeypatch
):
    # Required options are filled from the parser, so a new subcommand
    # with --budget is checked as soon as it is registered.
    monkeypatch.delenv("MAGIC_BUDGET", raising=False)
    lab_path = tmp_path / "lab.json"
    lab_path.write_text(labeling_to_json(lstar(4)))
    values = {"graph": g4_path, "labeling": str(lab_path), "k": "6", "kmax": "6"}
    argv = [name]
    for action in _subcommands()[name]._actions:
        if action.required:
            argv += [action.option_strings[-1], values[action.dest]]
    assert main(argv + ["--budget", "0"]) == 3
    assert capsys.readouterr().out == ""


class TestVerifyPaper:
    def test_filtered_run_passes(self, capsys):
        assert main(["verify-paper", "--filter", "two-loop"]) == 0
        out = capsys.readouterr().out
        assert "PASS two-loop-example" in out
        assert "1/1 checks passed" in out

    def test_unknown_filter_is_usage_error(self, capsys):
        assert main(["verify-paper", "--filter", "zzz"]) == 2

    def test_budget_is_not_an_option(self, capsys):
        # The checks run fixed inputs; a budget could only fail them.
        with pytest.raises(SystemExit) as err:
            main(["verify-paper", "--filter", "two-loop", "--budget", "0"])
        assert err.value.code == 2

    def test_quasiperiod_filter_selects_mqp_checks(self, capsys):
        from magiclab import verification

        names = [
            r.name for r in verification.run_checks("quasiperiod")
        ]
        assert names == [
            "minimum-quasiperiod-values",
            "quasiperiod-divides-denominator",
            "small-quasiperiod-certificates",
        ]

    def test_fault_injection_fails_named_check(self, capsys, monkeypatch):
        from magiclab import quasipolynomials

        real = quasipolynomials.f_n

        def corrupted(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (3, 9) else value

        monkeypatch.setattr(quasipolynomials, "f_n", corrupted)
        assert main(["verify-paper", "--filter", "difference-floor"]) == 1
        out = capsys.readouterr().out
        assert "FAIL difference-floor-identity" in out


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_negative_k_is_usage_error(self, g2_path):
        assert main(["count", "--graph", g2_path, "-k", "-1"]) == 2

    def test_negative_kmax_is_usage_error(self, g2_path, capsys):
        assert main(["series", "--graph", g2_path, "--kmax", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "kmax" in captured.err

    # The JSON decoder recurses once per nesting level.
    def test_deeply_nested_graph_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["count", "--graph", str(path), "-k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: graph JSON is nested too deeply"]

    def test_deeply_nested_labeling_file(self, g2_path, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main(["decompose", "--graph", g2_path, "--labeling", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: labeling JSON is nested too deeply"]
