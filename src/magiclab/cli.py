"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget
exceeded.  All machine-readable output is deterministic: identical
inputs produce byte-identical JSON and CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import geometry, graphs, labelings, quasipolynomials, semigroups, verification
from .errors import BudgetExceededError, as_int

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 10**7  # when neither --budget nor MAGIC_BUDGET sets one


def _budget(args) -> int:
    budget = args.budget
    if budget is None:
        raw = os.environ.get("MAGIC_BUDGET", str(DEFAULT_BUDGET))
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"MAGIC_BUDGET must be an integer, got {raw!r}")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    return budget


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return graphs.graph_from_json(fh.read())


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _report(fmt: str, payload, lines) -> None:
    """Print ``payload`` as one JSON line under ``json``, else ``lines``."""
    if fmt == "json":
        _print_json(payload)
    else:
        for line in lines:
            print(line)


def _emit(fmt: str, columns, rows, human) -> None:
    """Print a table whose rows are tuples in ``columns`` order.

    Cells are already in output form (counts as strings), so ``json``
    prints one object per row, ``csv`` a header and then the rows, and
    ``human`` the line ``human(row)`` for each row.
    """
    if fmt == "json":
        for row in rows:
            _print_json(dict(zip(columns, row)))
    elif fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(map(str, row)))
    else:
        for row in rows:
            print(human(row))


def _cmd_count(args, g, budget) -> int:
    value = labelings.count_magic_k(g, args.k, budget=budget)
    _emit(args.format, ("k", "count"), [(args.k, str(value))], lambda row: row[1])
    return EXIT_OK


def _cmd_series(args, g, budget) -> int:
    magic, index = labelings.count_series(g, args.kmax, budget=budget)
    columns = ("k", "magic_count")
    series = [magic]
    if args.with_index:
        columns += ("index_count",)
        series.append(index)
    rows = [(k, *map(str, counts)) for k, counts in enumerate(zip(*series))]
    _emit(args.format, columns, rows, lambda row: "\t".join(map(str, row)))
    return EXIT_OK


def _format_polynomial(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*t" if c != 1 else "t")
        else:
            terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
    return " + ".join(terms) if terms else "0"


def _cmd_ehrhart(args, g, budget) -> int:
    kind = args.polytope
    q = quasipolynomials.ehrhart_of_polytope(g, kind, budget=budget)
    den = geometry.polytope_denominator(g, kind, budget=budget)
    payload = json.loads(q.to_json())
    payload.update(polytope=kind, denominator=den, minimum_quasiperiod=q.period)
    lines = [f"polytope: {kind}", f"denominator: {den}"]
    lines += [f"minimum quasiperiod: {q.period}", f"period: {q.period}"]
    lines += [
        f"residue {r}: {_format_polynomial(cs)}" for r, cs in enumerate(q.constituents)
    ]
    _report(args.format, payload, lines)
    return EXIT_OK


def _cmd_vertices(args, g, budget) -> int:
    verts = geometry.polytope_vertices(g, args.polytope, budget=budget)
    rows = [tuple(geometry.format_point(v)) for v in verts]
    if args.format == "json":
        _print_json(rows)
    else:
        columns = tuple(f"e{i}" for i in range(len(g.edges)))
        _emit(args.format, columns, rows, lambda row: "(" + ", ".join(row) + ")")
    return EXIT_OK


def _cmd_cf(args, g, budget) -> int:
    if args.verify:
        # Before the vertex enumeration, and also on a graph with no element.
        as_int(args.m_max, "m_max", 1)
    elems = semigroups.cf_elements(g, args.polytope, budget=budget)
    verdicts = [
        semigroups.verify_completely_fundamental(
            g, args.polytope, elem, args.m_max, budget=budget
        )
        for elem in (elems if args.verify else ())
    ]
    payload = [{"labels": list(e.labeling.labels), "height": e.height} for e in elems]
    notes = [
        f" refuted at m={v.m}" if v.refuted else f" unrefuted up to m={v.m_max}"
        for v in verdicts
    ] or [""] * len(elems)
    lines = [
        f"labels={e['labels']} height={e['height']}{note}"
        for e, note in zip(payload, notes)
    ]
    for entry, v in zip(payload, verdicts):
        entry["refuted"] = v.refuted
    _report(args.format, payload, lines)
    return EXIT_VERIFY if any(v.refuted for v in verdicts) else EXIT_OK


def _cmd_decompose(args, g, budget) -> int:
    with open(args.labeling, "r", encoding="utf-8") as fh:
        lab = labelings.labeling_from_json(g, fh.read())
    pieces = semigroups.stanley_decompose(lab, budget=budget)
    payload = [
        {"labels": list(p.labels), "index": labelings.is_magic(p)} for p in pieces
    ]
    lines = [f"labels={e['labels']} index={e['index']}" for e in payload]
    _report(args.format, payload, lines or ["zero labeling: empty decomposition"])
    return EXIT_OK


def _cmd_check(args, g, budget) -> int:
    leaf_list = graphs.leaves(g)
    mprec = graphs.matching_preclusion_class(g, budget=budget)
    cert = semigroups.certify_small_quasiperiod(g, budget=budget)
    edge = cert.forced_edge
    payload = {
        "bipartite": cert.bipartite,
        "leaves": [[v, list(e)] for v, e in leaf_list],
        "matching_preclusion": mprec,
        "forced_max_edge": list(edge) if edge else None,
        "forced_max_vacuous": cert.vacuous,
        "certificate": cert.verdict,
    }
    forced = "vacuous (only the zero labeling is magic)" if cert.vacuous else edge
    lines = [
        f"bipartite: {'yes' if cert.bipartite else 'no'}",
        f"leaves: {', '.join(v for v, _ in leaf_list) or 'none'}",
        f"matching preclusion class: {mprec}",
        f"forced max edge: {forced or 'none'}",
        f"certificate: {cert.verdict}",
    ]
    _report(args.format, payload, lines)
    return EXIT_OK


def _cmd_gen(args) -> int:
    gn = args.family == "gn"
    if gn != (args.p is None):
        raise ValueError("family gn takes no -p" if gn else "family gnp requires -p")
    g = graphs.make_gn(args.n) if gn else graphs.make_gnp(args.n, args.p)
    text = graphs.graph_to_json(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_fn(args) -> int:
    value = quasipolynomials.f_n(args.n, args.k)
    rows = [(args.n, args.k, str(value))]
    _emit(args.format, ("n", "k", "value"), rows, lambda row: row[2])
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    results = verification.run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name}")
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Exact counting and polytope analysis of magic edge labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table, report = ("human", "json", "csv"), ("human", "json")

    def add(name, func, help, formats=table, *, graph=True, polytope=False):
        # Every subcommand that reads a graph searches it, so --graph
        # brings --budget along, and main hands it the graph and budget.
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func)
        if graph:
            p.add_argument("--graph", required=True, help="path to a graph JSON file")
        if polytope:
            p.add_argument("--polytope", choices=("P", "Q"), default="P")
        if formats:
            p.add_argument("--format", choices=formats, default="human")
        if graph:
            p.add_argument(
                "--budget",
                type=int,
                default=None,
                help="search budget (default MAGIC_BUDGET or 10^7)",
            )
        return p

    p = add("count", _cmd_count, "count magic labelings with labels <= k")
    p.add_argument("-k", type=int, required=True)

    p = add(
        "series",
        _cmd_series,
        "count series for k = 0..kmax; --budget caps the state transitions "
        "of the whole sweep, not of each count",
    )
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument(
        "--with-index",
        action="store_true",
        help="also count labelings by exact index",
    )

    add(
        "ehrhart",
        _cmd_ehrhart,
        "fit the counting quasipolynomial",
        report,
        polytope=True,
    )

    add("vertices", _cmd_vertices, "enumerate polytope vertices exactly", polytope=True)

    p = add(
        "cf",
        _cmd_cf,
        "completely fundamental semigroup elements",
        report,
        polytope=True,
    )
    p.add_argument("--verify", action="store_true", help="run the brute-force oracle")
    p.add_argument("--m-max", type=int, default=3)

    p = add(
        "decompose",
        _cmd_decompose,
        "split a magic labeling into small pieces",
        report,
    )
    p.add_argument("--labeling", required=True, help="path to a labeling JSON file")

    add("check", _cmd_check, "structural report for a graph", report)

    p = add("gen", _cmd_gen, "write a built-in family graph as JSON", None, graph=False)
    p.add_argument("--family", choices=("gn", "gnp"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, default=None)
    p.add_argument("-o", "--output", default=None)

    p = add("fn", _cmd_fn, "evaluate the summatory binomial function", graph=False)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)

    p = add(
        "verify-paper",
        _cmd_verify_paper,
        "run the built-in verification checks",
        None,
        graph=False,
    )
    p.add_argument("--filter", default=None, help="only run checks containing this")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "graph" in vars(args):
            return args.func(args, _load_graph(args.graph), _budget(args))
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
