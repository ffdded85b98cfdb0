"""Source invariants of the library, checked on the syntax tree.

No computational path may use floating point: every module under
``src/magiclab`` is parsed and searched for float literals, any use of
the name ``float`` (calls included) and the floating-point functions of
``math``.
"""

import ast
from pathlib import Path

import pytest

import magiclab

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
