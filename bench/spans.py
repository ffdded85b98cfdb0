"""Spans around the calls into each magiclab module, recorded from outside.

The library has no tracing of its own yet, so the benchmark wraps the
public functions that mark a layer boundary.  A wrapper is installed in
every ``magiclab.*`` namespace that holds the function: ``semigroups``,
``verification`` and ``cli`` bind ``labelings`` and ``graphs`` functions
by name, and patching only the defining module would miss their calls.

Spans stay in memory as ``[name, start, end, parent, size]`` rows, where
``parent`` indexes the enclosing span (-1 for a root) and ``size`` is the
result's length or integer value (solutions counted, vertices found).
They are written out only when a run ends.

Per-element helpers that run inside hot loops (``is_magic``,
``vertex_sum``, ``max_label``, ``binomial``, ``point_denominator``) are
left unwrapped; their time is self time of the caller.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "geometry": (
        "magic_constraints",
        "solve_rational",
        "matrix_rank",
        "polytope_vertices",
        "polytope_denominator",
        "polytope_dimension",
    ),
    "graphs": (
        "is_bipartite",
        "leaves",
        "perfect_matchings",
        "has_perfect_matching",
        "matching_preclusion_class",
        "forced_max_edge",
    ),
    "labelings": (
        "count_magic_k",
        "count_index_k",
        "enumerate_magic_k",
        "enumerate_index_k",
        "enumerate_magic_bounded",
    ),
    "quasipolynomials": (
        "f_n",
        "closed_form_mn",
        "iterated_difference_of_fn",
        "fit_quasipolynomial",
        "ehrhart_of_polytope",
    ),
    "semigroups": (
        "cf_elements",
        "verify_completely_fundamental",
        "stanley_decompose",
        "certify_small_quasiperiod",
        "decompose_over_generators",
    ),
    "verification": ("run_check",),
    "cli": ("main",),
}

MODULES = tuple(LAYERS)
COUNT_FNS = ("labelings.count_magic_k", "labelings.count_index_k")
ENUM_FNS = (
    "labelings.enumerate_magic_k",
    "labelings.enumerate_index_k",
    "labelings.enumerate_magic_bounded",
)
MATCHING_FNS = (
    "graphs.perfect_matchings",
    "graphs.has_perfect_matching",
    "graphs.matching_preclusion_class",
)


def _size(result) -> int | None:
    if isinstance(result, bool):
        return int(result)
    if isinstance(result, int):
        return result
    if isinstance(result, (list, tuple)):
        return len(result)
    return None


def _span_name(module: str, fn_name: str, args, kwargs) -> str:
    # run_check and cli.main are one function each but many layers to a
    # reader: name their spans after the check and the subcommand.
    if module == "verification":
        return f"verification.{args[0] if args else kwargs['name']}"
    if module == "cli":
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.{argv[0] if argv else '?'}"
    return f"{module}.{fn_name}"


class Recorder:
    """Keeps spans in memory while ``on`` is set; wrappers call through."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.on = False

    def wrap(self, module: str, fn_name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(
                [
                    _span_name(module, fn_name, args, kwargs),
                    perf_counter(),
                    None,
                    stack[-1] if stack else -1,
                    None,
                ]
            )
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            spans[idx][4] = _size(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS in every namespace that binds it."""
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "magiclab" or name.startswith("magiclab."))
        ]
        for module, names in LAYERS.items():
            home = sys.modules[f"magiclab.{module}"]
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(module, fn_name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)


def merge(span_lists) -> list[list]:
    """Concatenate span lists from several processes, fixing parent links."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        for name, start, end, parent, size in spans:
            out.append([name, start, end, parent + base if parent >= 0 else -1, size])
    return out


def summarize(spans, targets) -> dict:
    """Per-layer metrics, keyed as in BENCHMARK.json, from raw spans.

    ``targets`` names the modules (or ``labelings.count`` and
    ``labelings.enumerate``) a workload is meant to load; their share of
    the traced self time is ``target_self_frac``.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    under: dict[tuple[str, str], list] = defaultdict(list)
    for i, (name, start, end, parent, size) in enumerate(spans):
        self_s[name] += end - start - child_time[i]
        incl_s[name] += end - start
        calls[name] += 1
        sizes[name] += size or 0
        under[(spans[parent][0] if parent >= 0 else "", name)].append(size or 0)

    def total(table, names):
        return sum(table[n] for n in names)

    solves = len(under[("geometry.polytope_vertices", "geometry.solve_rational")])
    found = sizes["geometry.polytope_vertices"]
    count_self = total(self_s, COUNT_FNS)
    solutions = total(sizes, COUNT_FNS)
    samples = sum(
        len(under[("quasipolynomials.ehrhart_of_polytope", fn)]) for fn in COUNT_FNS
    )
    candidates = sum(
        under[("semigroups.verify_completely_fundamental", "labelings.enumerate_magic_bounded")]
    )
    metrics = {
        "geometry.polytope_vertices.self_s": self_s["geometry.polytope_vertices"],
        "geometry.solve_rational.calls": solves,
        "geometry.solve_rational.self_s": self_s["geometry.solve_rational"],
        "geometry.vertices_found": found,
        "geometry.vertex_yield": found / solves if solves else 0.0,
        "geometry.matrix_rank.self_s": self_s["geometry.matrix_rank"],
        "labelings.count.self_s": count_self,
        "labelings.count.calls": total(calls, COUNT_FNS),
        "labelings.solutions": solutions,
        "labelings.solutions_per_s": solutions / count_self if count_self else 0.0,
        "labelings.enumerate.self_s": total(self_s, ENUM_FNS),
        "quasipolynomials.samples": samples,
        "quasipolynomials.fit_quasipolynomial.self_s": self_s[
            "quasipolynomials.fit_quasipolynomial"
        ],
        "semigroups.verify_completely_fundamental.self_s": self_s[
            "semigroups.verify_completely_fundamental"
        ],
        "semigroups.oracle_candidates": candidates,
        "semigroups.stanley_decompose.self_s": self_s["semigroups.stanley_decompose"],
        "semigroups.stanley_pieces": sizes["semigroups.stanley_decompose"],
        "graphs.matching.self_s": total(self_s, MATCHING_FNS),
        "graphs.matchings_found": sizes["graphs.perfect_matchings"]
        + sizes["graphs.has_perfect_matching"],
    }
    traced = sum(self_s.values())
    module_self = defaultdict(float)
    for name, seconds in self_s.items():
        module_self[name.split(".", 1)[0]] += seconds
    for module in MODULES:
        metrics[f"{module}.self_frac"] = module_self[module] / traced if traced else 0.0
    for name, seconds in incl_s.items():
        if name.startswith(("verification.", "cli.")):
            metrics[f"{name}.s"] = seconds
    groups = {**module_self, "labelings.count": count_self}
    groups["labelings.enumerate"] = metrics["labelings.enumerate.self_s"]
    share = sum(groups[t] for t in targets)
    metrics["target_self_frac"] = share / traced if traced else 0.0
    return metrics


# Counts fixed by the job list: traced samples must agree on them exactly.
EXACT_COUNTS = (
    "geometry.solve_rational.calls",
    "geometry.vertices_found",
    "labelings.count.calls",
    "labelings.solutions",
    "quasipolynomials.samples",
    "semigroups.oracle_candidates",
    "semigroups.stanley_pieces",
    "graphs.matchings_found",
)
