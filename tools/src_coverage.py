"""Line coverage of the `cfsl` package by the tier-1 tests.

Runs the tier-1 suite in this process under `sys.settrace`, tracing only
the modules of `src/cfsl`, and prints each module's unexecuted lines. A
module's lines are those its code objects map instructions to
(`co_lines()`), less its module, class and function docstring lines (the
rule of `tools/src_ledger.py`). An unexecuted line is allowed only when
`ALLOWED` names it, with the reason no in-process test runs it.

Run from the repository root, standard library and pytest only:

    PYTHONPATH=src python3 tools/src_coverage.py [PYTEST ARGS]

The pytest arguments default to the tier-1 suite, `tests`. Exits 1 when a
test fails, when a line outside `ALLOWED` is unexecuted, or when an entry of
`ALLOWED` no longer names an unexecuted line.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from src_ledger import docstring_lines  # noqa: E402

# (module file name, the line's stripped source): why no in-process test runs it.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is the script, in test_module_entry_point's subprocess",
}


def code_lines(path: Path) -> set:
    """Line numbers of one module that its code objects map an instruction
    to, docstring lines aside."""
    source = path.read_text(encoding="utf-8")
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # Line 0 (a module's entry) and None name no source line.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstring_lines(source)


def executed_lines(paths, run) -> tuple:
    """({path: line numbers executed} of the modules at `paths` while `run()`
    runs, `run()`'s result). Any tracer already set is restored."""
    wanted = {os.path.realpath(p): set() for p in paths}
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            seen[name] = wanted.get(os.path.realpath(name))
        return None if seen[name] is None else local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return {Path(p): lines for p, lines in wanted.items()}, result


def unexecuted(root: Path, run) -> tuple:
    """({module file name: sorted unexecuted lines} of every module under
    `root` that has any, `run()`'s result)."""
    paths = sorted(root.glob("*.py"))
    executed, result = executed_lines(paths, run)
    missed = {}
    for path in paths:
        lines = sorted(code_lines(path) - executed[Path(os.path.realpath(path))])
        if lines:
            missed[path.name] = lines
    return missed, result


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    repo = Path(__file__).resolve().parent.parent
    root = repo / "src" / "cfsl"
    missed, status = unexecuted(
        root, lambda: pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(repo / "tests")])]))
    stale = set(ALLOWED)
    unexpected = 0
    for name, lines in missed.items():
        text = (root / name).read_text(encoding="utf-8").splitlines()
        for line in lines:
            key = (name, text[line - 1].strip())
            stale.discard(key)
            if key in ALLOWED:
                print(f"{name}:{line}: allowed, {ALLOWED[key]}")
            else:
                unexpected += 1
                print(f"{name}:{line}: unexecuted: {key[1]}")
    for name, line in sorted(stale):
        print(f"{name}: allowed line {line!r} is executed or gone; drop it from ALLOWED")
    print(f"{unexpected} unexecuted lines outside the allowlist, {len(stale)} stale entries")
    return 1 if status != 0 or unexpected or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
