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
from fractions import Fraction

from . import geometry, labelings, quasipolynomials, semigroups, verification
from .errors import BudgetExceededError
from .graphs import (
    graph_from_json,
    graph_to_json,
    is_bipartite,
    leaves,
    make_gn,
    make_gnp,
    matching_preclusion_class,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

DEFAULT_BUDGET = 10**7


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("MAGIC_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"MAGIC_BUDGET must be an integer, got {raw!r}")


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _cmd_count(args) -> int:
    g = _load_graph(args.graph)
    value = labelings.count_magic_k(g, args.k, budget=_budget(args))
    if args.format == "json":
        _print_json({"k": args.k, "count": str(value)})
    elif args.format == "csv":
        print("k,count")
        print(f"{args.k},{value}")
    else:
        print(value)
    return EXIT_OK


def _cmd_series(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget(args)
    rows = []
    for k in range(args.kmax + 1):
        row = {"k": k, "magic_count": labelings.count_magic_k(g, k, budget=budget)}
        if args.with_index:
            row["index_count"] = labelings.count_index_k(g, k, budget=budget)
        rows.append(row)
    if args.format == "json":
        for row in rows:
            _print_json({k: str(v) if k != "k" else v for k, v in row.items()})
    elif args.format == "csv":
        header = "k,magic_count" + (",index_count" if args.with_index else "")
        print(header)
        for row in rows:
            cells = [str(row["k"]), str(row["magic_count"])]
            if args.with_index:
                cells.append(str(row["index_count"]))
            print(",".join(cells))
    else:
        for row in rows:
            cells = [str(row["k"]), str(row["magic_count"])]
            if args.with_index:
                cells.append(str(row["index_count"]))
            print("\t".join(cells))
    return EXIT_OK


def _format_polynomial(coeffs) -> str:
    if not coeffs:
        return "0"
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
    q = quasipolynomials.ehrhart_of_polytope(
        g, args.polytope, budget=_budget(args), vertex_budget=_budget(args)
    )
    den = geometry.polytope_denominator(g, args.polytope, budget=_budget(args))
    mqp = q.minimum_quasiperiod()
    if args.format == "json":
        _print_json(
            {
                "polytope": args.polytope,
                "period": q.period,
                "constituents": [[str(c) for c in cs] for cs in q.constituents],
                "minimum_quasiperiod": mqp,
                "denominator": den,
            }
        )
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
    if args.format == "json":
        print(
            json.dumps(
                [geometry.format_point(v) for v in verts],
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    elif args.format == "csv":
        print(",".join(f"e{i}" for i in range(len(g.edges))))
        for v in verts:
            print(",".join(geometry.format_point(v)))
    else:
        for v in verts:
            print("(" + ", ".join(geometry.format_point(v)) + ")")
    return EXIT_OK


def _cmd_cf(args) -> int:
    g = _load_graph(args.graph)
    elems = semigroups.cf_elements(g, args.polytope, budget=_budget(args))
    refuted = []
    verdicts = []
    if args.verify:
        for elem in elems:
            verdict = semigroups.verify_completely_fundamental(
                g, args.polytope, elem, args.m_max, budget=_budget(args)
            )
            verdicts.append(verdict)
            if verdict.refuted:
                refuted.append(elem)
    if args.format == "json":
        payload = []
        for i, elem in enumerate(elems):
            entry = {"labels": list(elem.labeling.labels), "height": elem.height}
            if args.verify:
                entry["refuted"] = verdicts[i].refuted
            payload.append(entry)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for i, elem in enumerate(elems):
            line = f"labels={list(elem.labeling.labels)} height={elem.height}"
            if args.verify:
                v = verdicts[i]
                line += (
                    f" refuted at m={v.m}" if v.refuted else f" unrefuted up to m={v.m_max}"
                )
            print(line)
    if refuted:
        return EXIT_VERIFY
    return EXIT_OK


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
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        if not pieces:
            print("zero labeling: empty decomposition")
        for p in pieces:
            print(f"labels={list(p.labels)} index={labelings.is_magic(p)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget(args)
    coloring = is_bipartite(g)
    leaf_list = leaves(g)
    mprec = matching_preclusion_class(g)
    cert = semigroups.certify_small_quasiperiod(g, budget=budget)
    edge = cert.forced_edge
    if args.format == "json":
        _print_json(
            {
                "bipartite": coloring is not None,
                "leaves": [[v, list(e)] for v, e in leaf_list],
                "matching_preclusion": mprec,
                "forced_max_edge": list(edge) if edge else None,
                "forced_max_vacuous": cert.vacuous,
                "certificate": cert.verdict,
            }
        )
    else:
        print(f"bipartite: {'yes' if coloring is not None else 'no'}")
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
        g = make_gn(args.n)
    else:
        if args.p is None:
            raise ValueError("family gnp requires -p")
        g = make_gnp(args.n, args.p)
    text = graph_to_json(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_fn(args) -> int:
    value = quasipolynomials.f_n(args.n, args.k)
    if args.format == "json":
        _print_json({"n": args.n, "k": args.k, "value": str(value)})
    elif args.format == "csv":
        print("n,k,value")
        print(f"{args.n},{args.k},{value}")
    else:
        print(value)
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


def _add_graph_arg(p) -> None:
    p.add_argument("--graph", required=True, help="path to a graph JSON file")


def _add_format_arg(p, choices=("human", "json", "csv")) -> None:
    p.add_argument("--format", choices=choices, default="human")


def _add_budget_arg(p) -> None:
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="search budget (default MAGIC_BUDGET or 10^7)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Exact counting and polytope analysis of magic edge labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count magic labelings with labels <= k")
    _add_graph_arg(p)
    p.add_argument("-k", type=int, required=True)
    _add_format_arg(p)
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("series", help="count series for k = 0..kmax")
    _add_graph_arg(p)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument(
        "--with-index",
        action="store_true",
        help="also count labelings by exact index",
    )
    _add_format_arg(p)
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("ehrhart", help="fit the counting quasipolynomial")
    _add_graph_arg(p)
    p.add_argument("--polytope", choices=("P", "Q"), default="P")
    _add_format_arg(p, choices=("human", "json"))
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("vertices", help="enumerate polytope vertices exactly")
    _add_graph_arg(p)
    p.add_argument("--polytope", choices=("P", "Q"), default="P")
    _add_format_arg(p)
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_vertices)

    p = sub.add_parser("cf", help="completely fundamental semigroup elements")
    _add_graph_arg(p)
    p.add_argument("--polytope", choices=("P", "Q"), default="P")
    p.add_argument("--verify", action="store_true", help="run the brute-force oracle")
    p.add_argument("--m-max", type=int, default=3)
    _add_format_arg(p, choices=("human", "json"))
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("decompose", help="split a magic labeling into small pieces")
    _add_graph_arg(p)
    p.add_argument("--labeling", required=True, help="path to a labeling JSON file")
    _add_format_arg(p, choices=("human", "json"))
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check", help="structural report for a graph")
    _add_graph_arg(p)
    _add_format_arg(p, choices=("human", "json"))
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="write a built-in family graph as JSON")
    p.add_argument("--family", choices=("gn", "gnp"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fn", help="evaluate the summatory binomial function")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    _add_format_arg(p)
    p.set_defaults(func=_cmd_fn)

    p = sub.add_parser("verify-paper", help="run the built-in verification checks")
    p.add_argument("--filter", default=None, help="only run checks containing this")
    _add_budget_arg(p)
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
