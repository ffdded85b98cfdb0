"""Source invariants of the library, checked on the syntax tree.

No computational path may use floating point: every module under
``src/magiclab`` is parsed and searched for float literals, any use of
the name ``float`` (calls included) and the floating-point functions of
``math``.  The vertex enumeration's double description, the row
reduction behind dimensions and the quasipolynomial fit, the face
enumeration behind the fit's per-coefficient periods, and the counting
DP with its label bounds, run on integers alone and never name
``Fraction``.  No function
calls itself by name, so no input can reach the recursion limit.  Every
name the package exports is used by another module or by a test.  Every
``budget`` parameter with a default defaults to None, which means no cap.
Only ``errors.py`` names ``operator.index``: integer input is judged by
its one gate, ``errors.as_ints``, and each public callable that takes an
integer raises ValueError for a float.  An integer argument with a least
value is held to it by ``errors.as_int`` (or, for a label vector, by
``labelings._edge_bounds``): one below the least raises ValueError with
the one message "<name> must be nonnegative" or "<name> must be at least
<least>", and a float "<name> must be integers"; a ``budget`` that is
not None passes ``as_int`` where its phase counts.  Only
``labelings._made`` builds an object past its checks (through
``__new__``), so the library has one unchecked path for the labelings
it makes; the index it may carry is the true one and shows in no
comparison, hash or repr.

The seven value classes share the semantics of ``errors.Value``, and
importing ``magiclab.cli`` in a fresh interpreter loads none of
``dataclasses``, ``hashlib`` or ``inspect``.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import magiclab
from magiclab import (
    BudgetExceededError,
    CFVerdict,
    Graph,
    Labeling,
    QuasiperiodCertificate,
    Quasipolynomial,
    SemigroupElement,
    binomial,
    bouquet,
    cf_elements,
    closed_form_mn,
    coefficient_periods,
    count_index_k,
    count_magic_k,
    count_series,
    cycle_graph,
    enumerate_index_k,
    enumerate_magic_bounded,
    enumerate_magic_k,
    f_n,
    graph_hash,
    is_magic,
    iterated_difference_of_fn,
    li_matching,
    lstar,
    make_gn,
    make_gnp,
    path_graph,
    polytope_vertices,
    stanley_decompose,
    verify_completely_fundamental,
    vertex_sum,
)
from magiclab.labelings import _made
from magiclab.verification import CheckResult

MODULES = sorted(Path(magiclab.__file__).parent.glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp", "pow"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: use of float")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    found.append(f"{where}: from math import {alias.name}")
    return found


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"geometry.py", "labelings.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "y = float(3)", "import math\nz = math.sqrt(2)", "from math import log"],
)
def test_detector_catches(source):
    assert float_uses(ast.parse(source))


INTEGER_ONLY = {
    "geometry.py": (
        "_primitive",
        "_combine",
        "_reduce",
        "_null_space",
        "_extreme_rays",
        "coefficient_periods",
    ),
    "labelings.py": ("_bounds", "_assignment_order", "_count"),
}


def fraction_uses(tree: ast.AST, names) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in names:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Name) and node.id == "Fraction") or (
                    isinstance(node, ast.Attribute) and node.attr == "Fraction"
                ):
                    found.append(f"{fn.name}, line {node.lineno}")
    return found


@pytest.mark.parametrize("module", sorted(INTEGER_ONLY))
def test_integer_only_functions_never_name_fraction(module):
    path = Path(magiclab.__file__).parent / module
    tree = ast.parse(path.read_text(), str(path))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert defined >= set(INTEGER_ONLY[module])
    assert fraction_uses(tree, INTEGER_ONLY[module]) == []


@pytest.mark.parametrize(
    "module, source",
    [
        ("geometry.py", "def _reduce(rows):\n    return [fractions.Fraction(1)]"),
        ("geometry.py", "def _combine():\n    Fraction"),
        ("labelings.py", "def _bounds(inc, target, caps):\n    return Fraction(target, 2)"),
        ("labelings.py", "def _count(g, caps):\n    return [fractions.Fraction(c) for c in caps]"),
    ],
)
def test_fraction_detector_catches(module, source):
    assert fraction_uses(ast.parse(source), INTEGER_ONLY[module])


def self_calls(tree: ast.AST) -> list[str]:
    """Calls of a function to itself, by name or as ``self``/``cls``."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and isinstance(f.value, ast.Name)
                    and f.value.id in ("self", "cls")
                ):
                    found.append(f"{fn.name}, line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_recursion(path):
    assert self_calls(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "def f(n):\n    return f(n - 1)",
        "def outer():\n    def search(i):\n        return search(i + 1)",
        "class A:\n    def walk(self):\n        self.walk()",
    ],
)
def test_recursion_detector_catches(source):
    assert self_calls(ast.parse(source))


def test_recursion_detector_passes_other_calls():
    source = "def f(x):\n    return g(x) + x.f() + json.f()\ndef g(x):\n    return f"
    assert self_calls(ast.parse(source)) == []


def used_names(tree: ast.AST) -> set[str]:
    """Names a module reads, bare or as attributes, leaving out each
    top-level definition's uses of its own name."""
    used = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(top, "name", None))
        used |= names
    return used


def unreferenced(exported, sources) -> list[str]:
    used = set().union(*(used_names(ast.parse(source)) for source in sources))
    return sorted(set(exported) - used)


def test_every_export_is_used():
    paths = [p for p in MODULES if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert unreferenced(magiclab.__all__, [p.read_text() for p in paths]) == []


def test_export_detector_catches():
    source = "def used():\n    return 1\n\ndef dead(n):\n    return dead(n)\n\nx = used()"
    assert unreferenced(["used", "dead"], [source]) == ["dead"]
    # A use outside the definition counts wherever it comes.
    assert unreferenced(["f"], ["g = f\ndef f():\n    return f"]) == []


def budget_defaults(tree: ast.AST) -> list[str]:
    """Defaulted ``budget`` parameters whose default is not None."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            positional = args.posonlyargs + args.args
            # Defaults belong to the last positional parameters; a
            # keyword-only parameter without one has None.
            pairs = list(zip(reversed(positional), reversed(args.defaults)))
            pairs += zip(args.kwonlyargs, args.kw_defaults)
            for arg, default in pairs:
                if arg.arg == "budget" and default is not None and not (
                    isinstance(default, ast.Constant) and default.value is None
                ):
                    found.append(f"{fn.name}, line {default.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_budgets_default_to_none(path):
    assert budget_defaults(ast.parse(path.read_text(), str(path))) == []


def test_budget_detector_catches():
    source = (
        "def f(g, *, budget=10**7):\n    pass\n"
        "def h(budget: int = LIMIT, x=None):\n    pass\n"
    )
    assert budget_defaults(ast.parse(source)) == ["f, line 1", "h, line 3"]
    source = (
        "def f(budget=None, *, b=3):\n    pass\n"
        "def g(budget, *, k=1):\n    pass\n"
        "def h(*, budget: int | None = None):\n    pass\n"
    )
    assert budget_defaults(ast.parse(source)) == []


def index_uses(tree: ast.AST) -> list[str]:
    """Places that name ``operator.index``, as an attribute or an import."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "index"
            and isinstance(node.value, ast.Name)
            and node.value.id == "operator"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "operator"
            and any(alias.name == "index" for alias in node.names)
        ):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_names_operator_index(path):
    uses = index_uses(ast.parse(path.read_text(), str(path)))
    assert bool(uses) == (path.name == "errors.py")


def test_index_detector_catches():
    assert index_uses(ast.parse("import operator\nx = operator.index(y)"))
    assert index_uses(ast.parse("from operator import add, index"))
    source = "import operator\nx = operator.le(a, b) + s.index(c) + index"
    assert index_uses(ast.parse(source)) == []


def new_uses(tree: ast.AST) -> list[str]:
    """The function around each use of a ``__new__`` attribute
    (``<module>`` outside any function)."""
    found = []
    stack = [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Attribute) and node.attr == "__new__":
            found.append(where)
        stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def test_only_made_builds_unchecked_objects():
    uses = {p.name: new_uses(ast.parse(p.read_text(), str(p))) for p in MODULES}
    assert {name: found for name, found in uses.items() if found} == {
        "labelings.py": ["_made"]
    }


def test_new_detector_catches():
    source = (
        "def f(g, t):\n    return object.__new__(Labeling)\n"
        "class A:\n    def g(self):\n        return super().__new__(A)\n"
        "x = Labeling.__new__(Labeling)\n"
    )
    assert sorted(new_uses(ast.parse(source))) == ["<module>", "f", "g"]
    assert new_uses(ast.parse("def f(g, t):\n    return Labeling(g, t)")) == []


G3 = make_gn(3)
NON_INTEGER_CALLS = {
    "make_gn": lambda: make_gn(2.5),
    "make_gnp": lambda: make_gnp(2, 1.0),
    "bouquet": lambda: bouquet(2.0),
    "path_graph": lambda: path_graph(3.0),
    "cycle_graph": lambda: cycle_graph(3.0),
    "lstar": lambda: lstar(3.0),
    "li_matching": lambda: li_matching(3, 1.0),
    "binomial": lambda: binomial(2.0, 1),
    "f_n": lambda: f_n(1.5, 3),
    "closed_form_mn": lambda: closed_form_mn(2, 1.0),
    "iterated_difference_of_fn": lambda: iterated_difference_of_fn(2.0, 0, 1),
    "verify_completely_fundamental": lambda: verify_completely_fundamental(
        G3, "P", cf_elements(G3, "P")[-1], m_max=2.0
    ),
    "evaluate": lambda: Quasipolynomial(1, ((1,),)).evaluate(2.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_a_non_integer_argument_raises_value_error(call):
    with pytest.raises(ValueError, match="must be integers"):
        call()


G2 = make_gn(2)
ZERO2 = Labeling(G2, (0,) * 6)
# Per integer argument: the name its messages use, its least value, and a
# call that passes the value as that argument and is valid at the least.
INTEGER_GATES = {
    "make_gn-n": ("n", 2, make_gn),
    "make_gnp-n": ("n", 2, lambda x: make_gnp(x, 1)),
    "make_gnp-p": ("p", 1, lambda x: make_gnp(2, x)),
    "bouquet": ("loop count", 0, bouquet),
    "path_graph": ("vertex count", 1, path_graph),
    "cycle_graph": ("vertex count", 3, cycle_graph),
    "li_matching-i": ("i", 1, lambda x: li_matching(3, x)),
    "count_series": ("kmax", 0, lambda x: count_series(G2, x)),
    "count_magic_k": ("k", 0, lambda x: count_magic_k(G2, x)),
    "count_index_k": ("k", 0, lambda x: count_index_k(G2, x)),
    "enumerate_magic_k": ("k", 0, lambda x: enumerate_magic_k(G2, x)),
    "enumerate_index_k": ("k", 0, lambda x: enumerate_index_k(G2, x)),
    "Labeling": ("labels", 0, lambda x: Labeling(G2, (x, 0, 0, 0, 0, 0))),
    "enumerate_magic_bounded-caps": (
        "caps",
        0,
        lambda x: enumerate_magic_bounded(G2, (x, 1, 1, 1, 1, 1)),
    ),
    "enumerate_magic_bounded-floors": (
        "floors",
        0,
        lambda x: enumerate_magic_bounded(G2, (1,) * 6, floors=(x, 0, 0, 0, 0, 0)),
    ),
    "f_n-n": ("n", 1, lambda x: f_n(x, 3)),
    "f_n-k": ("k", 0, lambda x: f_n(2, x)),
    "closed_form_mn-n": ("n", 2, lambda x: closed_form_mn(x, 3)),
    "closed_form_mn-k": ("k", 0, lambda x: closed_form_mn(2, x)),
    "iterated_difference_of_fn-n": ("n", 1, lambda x: iterated_difference_of_fn(x, 0, 3)),
    "iterated_difference_of_fn-i": ("i", 0, lambda x: iterated_difference_of_fn(3, x, 3)),
    "iterated_difference_of_fn-t": ("t", 0, lambda x: iterated_difference_of_fn(3, 1, x)),
    "Quasipolynomial": ("period", 1, lambda x: Quasipolynomial(x, ((1,),))),
    "SemigroupElement": ("height", 0, lambda x: SemigroupElement(ZERO2, x)),
    "verify_completely_fundamental": (
        "m_max",
        1,
        lambda x: verify_completely_fundamental(G2, "P", cf_elements(G2, "P")[-1], x),
    ),
}


@pytest.mark.parametrize("what, least, call", INTEGER_GATES.values(), ids=INTEGER_GATES)
def test_an_integer_argument_has_one_gate(what, least, call):
    call(least)
    bound = "nonnegative" if least == 0 else f"at least {least}"
    with pytest.raises(ValueError) as below:
        call(least - 1)
    assert str(below.value) == f"{what} must be {bound}"
    with pytest.raises(ValueError, match=f"^{what} must be integers$"):
        call(2.5)


# One public entry per budgeted phase, and the phase that budget 0 stops
# first: the budget is gated where the phase counts, so a float, a string
# or a negative budget is bad input, while 0 caps the first unit of work.
BUDGETS = {
    "enumerate_magic_k": ("search", lambda b: enumerate_magic_k(G3, 2, budget=b)),
    "count_magic_k": ("counting", lambda b: count_magic_k(G3, 2, budget=b)),
    # Past gn(3)'s gate of 4: the index route's lookups never raise.
    "count_series-index-route": ("counting", lambda b: count_series(G3, 8, budget=b)),
    "polytope_vertices": (
        "vertex enumeration",
        lambda b: polytope_vertices(G3, "P", budget=b),
    ),
    "coefficient_periods": (
        "vertex enumeration",
        lambda b: coefficient_periods(G3, "Q", budget=b),
    ),
    "stanley_decompose": ("search", lambda b: stanley_decompose(lstar(3), budget=b)),
}


@pytest.mark.parametrize("phase, call", BUDGETS.values(), ids=BUDGETS)
def test_a_budget_is_a_nonnegative_integer(phase, call):
    for bad, message in ((1.5, "integers"), ("5", "integers"), (-1, "nonnegative")):
        with pytest.raises(ValueError, match=f"^budget must be {message}$"):
            call(bad)
    with pytest.raises(BudgetExceededError) as err:
        call(0)
    assert err.value.phase == phase
    call(None)


def loop_graph():
    return Graph(("a", "b"), (("a", "b"), ("b", "b")))


# Per class: its fields, then two builders that make a fresh value on every
# call, the second with different fields from the first.
VALUES = {
    "Graph": (("vertices", "edges"), loop_graph, lambda: Graph(("a", "b"), (("a", "b"),))),
    "Labeling": (
        ("graph", "labels"),
        lambda: Labeling(loop_graph(), (1, 2)),
        lambda: Labeling(loop_graph(), (2, 1)),
    ),
    "Quasipolynomial": (
        ("period", "constituents"),
        lambda: Quasipolynomial(2, ((Fraction(1, 2), 1), (0, 1))),
        lambda: Quasipolynomial(1, ((0, 1),)),
    ),
    "SemigroupElement": (
        ("labeling", "height"),
        lambda: SemigroupElement(Labeling(loop_graph(), (2, 0)), 2),
        lambda: SemigroupElement(Labeling(loop_graph(), (2, 0)), 3),
    ),
    "CFVerdict": (
        ("refuted", "m_max", "m", "b", "c"),
        lambda: CFVerdict(True, 3, m=2, b=SemigroupElement(Labeling(loop_graph(), (1, 0)), 1)),
        lambda: CFVerdict(False, 3),
    ),
    "QuasiperiodCertificate": (
        ("verdict", "bipartite", "forced_edge", "vacuous"),
        lambda: QuasiperiodCertificate("polynomial", True, forced_edge=("a", "b")),
        lambda: QuasiperiodCertificate("no_certificate", True),
    ),
    "CheckResult": (
        ("name", "passed", "detail"),
        lambda: CheckResult("x", True),
        lambda: CheckResult("x", False),
    ),
}
ONE_VALUE = [(names, make) for names, make, _ in VALUES.values()]


def fields(value, names) -> dict:
    return {f: getattr(value, f) for f in names}


@pytest.mark.parametrize("names, make, make_other", VALUES.values(), ids=VALUES)
def test_equal_fields_mean_equal_values(names, make, make_other):
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    # Keyword construction from the fields gives the same value.
    assert type(a)(**fields(a, names)) == a


@pytest.mark.parametrize("names, make", ONE_VALUE, ids=VALUES)
def test_never_equal_to_another_class_or_its_fields(names, make):
    a = make()
    assert a != tuple(fields(a, names).values())
    assert a != fields(a, names)
    sub = type("Sub", (type(a),), {})(**fields(a, names))
    assert a != sub and sub != a
    for _, other in ONE_VALUE:
        if other is not make:
            assert a != other()


@pytest.mark.parametrize("names, make", ONE_VALUE, ids=VALUES)
def test_repr_names_the_class_and_its_fields(names, make):
    a = make()
    args = ", ".join(f"{f}={v!r}" for f, v in fields(a, names).items())
    assert repr(a) == f"{type(a).__name__}({args})"


def test_repr_reads_as_a_constructor_call():
    assert repr(Graph(("a", "b"), (("a", "b"),))) == (
        "Graph(vertices=('a', 'b'), edges=(('a', 'b'),))"
    )
    assert repr(CheckResult("x", True)) == "CheckResult(name='x', passed=True, detail='')"


@pytest.mark.parametrize("names, make", ONE_VALUE, ids=VALUES)
def test_values_are_immutable(names, make):
    a = make()
    before = fields(a, names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert fields(a, names) == before and not hasattr(a, "extra")


def test_keyword_construction_and_defaults():
    verdict = CFVerdict(refuted=False, m_max=3)
    assert (verdict.m, verdict.b, verdict.c) == (None, None, None)
    assert CheckResult("x", True).detail == ""
    cert = QuasiperiodCertificate(verdict="polynomial", bipartite=True)
    assert (cert.forced_edge, cert.vacuous) == (None, False)
    assert Labeling(labels=[1, 2], graph=loop_graph()).labels == (1, 2)


def test_cached_properties_leave_equality_alone():
    a, b = loop_graph(), loop_graph()
    assert a.incidence == {"a": (0,), "b": (0, 1)} and a.degrees == {"a": 1, "b": 3}
    assert a == b and hash(a) == hash(b)


def test_made_labelings_equal_checked_ones():
    g = make_gn(3)
    assert _made(g, (1,) * 9) == Labeling(g, (1,) * 9)
    assert hash(_made(g, (1,) * 9)) == hash(Labeling(g, (1,) * 9))


def made_labelings():
    """Labelings the library makes, each with whether it carries its
    index from its maker: search solutions (with floors too), Stanley
    pieces, CF elements and both parts of a P and a Q refutation."""
    g, c3 = make_gn(3), cycle_graph(3)
    floors = (1,) + (0,) * 8
    doubled = SemigroupElement(Labeling(c3, (2, 2, 2)), 4)
    refutations = [
        verify_completely_fundamental(g, "P", SemigroupElement(lstar(3), 3), 1),
        verify_completely_fundamental(c3, "Q", doubled, 1),
    ]
    assert all(v.refuted for v in refutations)
    q_parts = [refutations[1].b.labeling, refutations[1].c.labeling]
    carried = [
        *enumerate_index_k(g, 2),
        *enumerate_magic_bounded(g, (2,) * 9, floors=floors),
        *stanley_decompose(lstar(3)),
        *stanley_decompose(Labeling(c3, (4, 4, 4))),
        *(e.labeling for e in cf_elements(g, "Q")),
        *q_parts,
    ]
    computed = [
        *(e.labeling for e in cf_elements(g, "P")),
        refutations[0].c.labeling,
    ]
    return [(lab, True) for lab in carried] + [(lab, False) for lab in computed]


# A carried index is the true one, and equality, hash and repr stay those
# of the checked labeling with the same labels.
def test_a_carried_index_is_true_and_invisible():
    for lab, carried in made_labelings():
        assert ("_index" in vars(lab)) == carried
        (index,) = {vertex_sum(lab, v) for v in lab.graph.vertices}
        assert is_magic(lab) == index
        checked = Labeling(lab.graph, lab.labels)
        assert lab == checked and hash(lab) == hash(checked)
        assert "_index" not in repr(lab) and repr(lab) == repr(checked)


def test_a_non_magic_labeling_is_not_magic_twice():
    lab = Labeling(make_gn(3), (1,) + (0,) * 8)
    assert is_magic(lab) is None
    assert is_magic(lab) is None


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import magiclab.cli
loaded = set(sys.modules) - before
from magiclab import labeling_from_json, labeling_to_json, lstar
first = "hashlib" in sys.modules
lab = lstar(3)
back = labeling_from_json(lab.graph, labeling_to_json(lab))
print(json.dumps({
    "loaded": sorted(loaded),
    "hashlib_before_first_use": first,
    "hashlib_after": "hashlib" in sys.modules,
    "round_trip": back == lab,
    "graph_hash": json.loads(labeling_to_json(lab))["graph_hash"],
}))
"""


def test_cli_start_up_skips_unneeded_stdlib():
    src = Path(magiclab.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    probe = json.loads(out.stdout)
    assert "magiclab.verification" in probe["loaded"]
    assert {"dataclasses", "hashlib", "inspect"} & set(probe["loaded"]) == set()
    # hashlib loads on the first graph_hash call, and the hash is unchanged.
    assert not probe["hashlib_before_first_use"] and probe["hashlib_after"]
    assert probe["round_trip"]
    assert probe["graph_hash"] == graph_hash(make_gn(3)) == "e41af53b44e12913"
