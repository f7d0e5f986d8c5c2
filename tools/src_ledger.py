"""Line ledger of the `cfsl` package: two counts per module of `src/cfsl`.

- lines: what `wc -l` prints, the count of newline characters;
- code: lines holding a non-comment token outside the module, class and
  function docstrings. Blank lines, comment-only lines and docstring lines
  do not count; a line of code with a trailing comment does.

Run from the repository root, standard library only:

    python3 tools/src_ledger.py [DIR]

DIR defaults to `src/cfsl` next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: layout and comments.
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers (1-based) of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(wc -l lines, code lines) of one module's source."""
    docs = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docs)


def ledger(root: Path) -> list:
    """[(module file name, lines, code lines)] of every `.py` file in root."""
    return [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(root.glob("*.py"))]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "cfsl"
    rows = ledger(root)
    width = max([len(name) for name, _, _ in rows] + [len("total")])
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
