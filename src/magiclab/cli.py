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
from .errors import BudgetExceededError

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


def _cmd_count(args) -> int:
    g = _load_graph(args.graph)
    value = labelings.count_magic_k(g, args.k, budget=_budget(args))
    _emit(args.format, ("k", "count"), [(args.k, str(value))], lambda row: row[1])
    return EXIT_OK


def _cmd_series(args) -> int:
    g = _load_graph(args.graph)
    magic, index = labelings.count_series(g, args.kmax, budget=_budget(args))
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


def _cmd_ehrhart(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget(args)
    q = quasipolynomials.ehrhart_of_polytope(g, args.polytope, budget=budget)
    den = geometry.polytope_denominator(g, args.polytope, budget=budget)
    mqp = q.period  # ehrhart_of_polytope minimizes the period
    if args.format == "json":
        payload = json.loads(q.to_json())
        payload.update(polytope=args.polytope, denominator=den, minimum_quasiperiod=mqp)
        _print_json(payload)
    else:
        print(f"polytope: {args.polytope}")
        print(f"denominator: {den}")
        print(f"minimum quasiperiod: {mqp}")
        print(f"period: {q.period}")
        for r, cs in enumerate(q.constituents):
            print(f"residue {r}: {_format_polynomial(cs)}")
    return EXIT_OK


def _cmd_vertices(args) -> int:
    g = _load_graph(args.graph)
    verts = geometry.polytope_vertices(g, args.polytope, budget=_budget(args))
    rows = [tuple(geometry.format_point(v)) for v in verts]
    if args.format == "json":
        _print_json(rows)
    else:
        columns = tuple(f"e{i}" for i in range(len(g.edges)))
        _emit(args.format, columns, rows, lambda row: "(" + ", ".join(row) + ")")
    return EXIT_OK


def _cmd_cf(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget(args)
    elems = semigroups.cf_elements(g, args.polytope, budget=budget)
    verdicts = [
        semigroups.verify_completely_fundamental(
            g, args.polytope, elem, args.m_max, budget=budget
        )
        for elem in (elems if args.verify else ())
    ]
    if args.format == "json":
        payload = [
            {"labels": list(e.labeling.labels), "height": e.height} for e in elems
        ]
        for entry, v in zip(payload, verdicts):
            entry["refuted"] = v.refuted
        _print_json(payload)
    else:
        notes = [
            f" refuted at m={v.m}" if v.refuted else f" unrefuted up to m={v.m_max}"
            for v in verdicts
        ] or [""] * len(elems)
        for elem, note in zip(elems, notes):
            print(f"labels={list(elem.labeling.labels)} height={elem.height}{note}")
    return EXIT_VERIFY if any(v.refuted for v in verdicts) else EXIT_OK


def _cmd_decompose(args) -> int:
    g = _load_graph(args.graph)
    with open(args.labeling, "r", encoding="utf-8") as fh:
        lab = labelings.labeling_from_json(g, fh.read())
    pieces = semigroups.stanley_decompose(lab, budget=_budget(args))
    if args.format == "json":
        payload = [
            {"labels": list(p.labels), "index": labelings.is_magic(p)}
            for p in pieces
        ]
        _print_json(payload)
    else:
        if not pieces:
            print("zero labeling: empty decomposition")
        for p in pieces:
            print(f"labels={list(p.labels)} index={labelings.is_magic(p)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget(args)
    leaf_list = graphs.leaves(g)
    mprec = graphs.matching_preclusion_class(g)
    cert = semigroups.certify_small_quasiperiod(g, budget=budget)
    edge = cert.forced_edge
    if args.format == "json":
        _print_json(
            {
                "bipartite": cert.bipartite,
                "leaves": [[v, list(e)] for v, e in leaf_list],
                "matching_preclusion": mprec,
                "forced_max_edge": list(edge) if edge else None,
                "forced_max_vacuous": cert.vacuous,
                "certificate": cert.verdict,
            }
        )
    else:
        print(f"bipartite: {'yes' if cert.bipartite else 'no'}")
        print(f"leaves: {', '.join(v for v, _ in leaf_list) or 'none'}")
        print(f"matching preclusion class: {mprec}")
        if cert.vacuous:
            print("forced max edge: vacuous (only the zero labeling is magic)")
        else:
            print(f"forced max edge: {edge if edge else 'none'}")
        print(f"certificate: {cert.verdict}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "gn":
        g = graphs.make_gn(args.n)
    else:
        if args.p is None:
            raise ValueError("family gnp requires -p")
        g = graphs.make_gnp(args.n, args.p)
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
        # brings --budget along.
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
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
