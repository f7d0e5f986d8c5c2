"""The line ledger's counting rule (`tools/src_ledger.py`) on a small source."""

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
