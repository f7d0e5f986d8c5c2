"""The line ledger's counting rule (`tools/src_ledger.py`) on a small source,
and a guard against functions that nothing in `src/cfsl` names."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_ledger.py"
spec = importlib.util.spec_from_file_location("src_ledger", TOOL)
src_ledger = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_ledger)

SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment keeps its line

# A comment-only line.


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring,

    over three lines."""
    text = """a multi-line
string that is not a docstring"""
    "a string statement after the first"
    return (math.pi
            * r ** 2)


async def later():
    """Async docstring."""
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # Code: import, class, size, def, text (2 lines), the late string,
    # return (2 lines) and async def.
    assert src_ledger.count(SOURCE) == (SOURCE.count("\n"), 10)
    assert src_ledger.docstring_lines(SOURCE) == {1, 2, 10, 16, 17, 18, 27}


def test_ledger_prints_every_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_ledger.ledger(tmp_path) == [("a.py", 27, 10), ("b.py", 2, 1)]
    assert src_ledger.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "29", "11"]


# Functions that nothing in `src/cfsl` names, kept on purpose.
UNCALLED = {
    "labeling.utility": "the benchmark's probe of the selection utility (bench/)",
    "data.DeviceDataset.pool_features": "how the tests read a pool in pool order",
}


def functions(node, prefix):
    """(qualified name, node) of every function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, name)
        else:
            yield from functions(child, prefix)


def names(tree):
    """(name, line) of every name, attribute and imported name in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def uncalled(root: Path) -> set:
    """Functions of the package at `root` named nowhere in it outside their
    own body, dunders aside."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, line in names(tree):
            uses.setdefault(name, []).append((module, line))
    found = set()
    for module, tree in trees.items():
        for qualified, node in functions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(m == module and node.lineno <= line <= node.end_lineno
                   for m, line in uses.get(name, [])):
                found.add(qualified)
    return found


def test_every_function_is_named_somewhere_else_in_the_package():
    root = Path(__file__).resolve().parent.parent / "src" / "cfsl"
    assert uncalled(root) == set(UNCALLED)


def test_uncalled_rule_on_a_small_package(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n\n"
        "def loop(n):\n    return loop(n - 1)\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def size(self):\n        return self.area()\n\n"
        "    def area(self):\n        return used()\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n")
    # `loop` names itself only in its own body; `size` is named nowhere.
    assert uncalled(tmp_path) == {"a.loop", "a.Box.size"}
