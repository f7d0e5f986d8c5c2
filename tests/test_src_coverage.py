"""The coverage tool's rule (`tools/src_coverage.py`) on a small package."""

import importlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_coverage.py"
spec = importlib.util.spec_from_file_location("src_coverage", TOOL)
src_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_coverage)

SOURCE = '''"""Module docstring,
two lines."""


def sign(x):
    """Function docstring."""
    if x < 0:
        return -1
    return max(0,
               x)


class Box:
    """Class docstring."""

    def size(self):
        return 2
'''


def test_unexecuted_rule_on_a_small_package(tmp_path, monkeypatch):
    pkg = tmp_path / "coverage_demo"
    pkg.mkdir()
    (pkg / "a.py").write_text(SOURCE)
    # Code lines: def, if, both returns (the second over two lines), class,
    # def size and its return; no docstring line and no line 0.
    assert src_coverage.code_lines(pkg / "a.py") == {5, 7, 8, 9, 10, 13, 16, 17}
    # A namespace package: `a` is its only module.
    monkeypatch.syspath_prepend(str(tmp_path))

    def run():
        return importlib.import_module("coverage_demo.a").sign(3)

    missed, result = src_coverage.unexecuted(pkg, run)
    # The import runs the module's lines; sign(3) skips the negative branch,
    # and nothing calls Box.size.
    assert result == 3
    assert missed == {"a.py": [8, 17]}
