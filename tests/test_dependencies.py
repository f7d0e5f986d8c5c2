"""The simulator and its tests use only their declared dependencies.

scipy, hypothesis and pytest-benchmark may be installed where the suite is
developed, but pyproject.toml does not declare them; an import of one
would fail in CI, and a `pytest.importorskip` of one would skip there
without a word.
"""

import ast
import os
import warnings

import pytest

UNDECLARED = frozenset({"scipy", "hypothesis", "pytest_benchmark"})
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# Calls that import a module named by their first argument.
IMPORT_CALLS = frozenset({"importorskip", "import_module", "__import__"})


def undeclared_imports(source: str) -> list:
    """(line, module) for each import of an undeclared package in `source`,
    by statement or by an import call with a literal module name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif (
            isinstance(node, ast.Call) and node.args
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in IMPORT_CALLS
        ):
            names = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.split(".")[0] in UNDECLARED]
    return found


def python_files():
    for top in ("src", "tests"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def test_scanner_finds_each_form_of_import():
    source = "\n".join([
        "import scipy.stats",
        "from hypothesis import given",
        "import numpy, pytest_benchmark",
        "pytest.importorskip('scipy')",
        "importlib.import_module('hypothesis.strategies')",
        "from .scipy import x",
        "import numpy as np",
    ])
    assert undeclared_imports(source) == [
        (1, "scipy.stats"), (2, "hypothesis"), (3, "pytest_benchmark"),
        (4, "scipy"), (5, "hypothesis.strategies"),
    ]


@pytest.mark.parametrize("path", list(python_files()))
def test_no_undeclared_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert undeclared_imports(fh.read()) == []


def test_a_deprecation_warning_from_cfsl_code_is_an_error():
    # pyproject.toml turns a DeprecationWarning attributed to a cfsl module
    # into an error; one from elsewhere stays a warning.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old call", DeprecationWarning, "models.py", 1,
                               module="cfsl.models")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("old call", DeprecationWarning, "other.py", 1,
                               module="other")
