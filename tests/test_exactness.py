"""The library computes in ints and Fractions only: a scan of the source for
the ways a float or an inexact library could enter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zonalg"

INEXACT_MODULES = {"numpy", "scipy", "sympy"}
EXACT_MATH = {"comb", "factorial", "gcd", "lcm", "prod"}

# the one float the library makes: the wall time ``verify`` logs to stderr
ALLOWED = {("cli.py", "_cmd_verify", "time.time")}


def _findings(path):
    """(function, what) for each float literal, ``float(`` call, inexact
    import, ``math`` function outside EXACT_MATH and ``time`` call in a file;
    function is the innermost enclosing def, or None at module level."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((func, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((func, "float("))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    out.append((func, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in INEXACT_MODULES:
                out.append((func, f"from {node.module}"))
            if root == "math":
                out.extend((func, f"math.{a.name}") for a in node.names if a.name not in EXACT_MATH)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in EXACT_MATH:
                out.append((func, f"math.{node.attr}"))
            elif node.value.id == "time":
                out.append((func, f"time.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_inexact_arithmetic(path):
    bad = [(f, what) for f, what in _findings(path) if (path.name, f, what) not in ALLOWED]
    assert not bad, f"{path.name}: {bad}"


def test_scan_sees_each_kind_of_float(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\n"
        "from math import sqrt, gcd\n"
        "import math, time\n"
        "def f(x):\n"
        "    return float(x) + 0.5 + math.log(x) + math.prod(x) + time.time()\n"
    )
    assert set(_findings(path)) == {
        (None, "import numpy"),
        (None, "math.sqrt"),
        ("f", "float("),
        ("f", "literal 0.5"),
        ("f", "math.log"),
        ("f", "time.time"),
    }


def test_the_allowed_float_is_still_there():
    assert ("_cmd_verify", "time.time") in _findings(SRC / "cli.py")
