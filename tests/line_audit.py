"""List the lines of `src/gsflows` that the tier-1 suite never executes.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
and prints each executable line of `src/gsflows/*.py` that no test ran, as
`path:line: source`, then the count.  A line is executable when the
compiled module attributes an instruction to it.  Lines that run only in a
child process (the tests that start `python -m gsflows.cli`) are not seen.
Extra arguments go to pytest.  From the repository root:

    PYTHONPATH=src python tests/line_audit.py

The script uses only the stdlib and pytest; the name has no `test_` prefix,
so pytest does not collect it.  The exit code is pytest's.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gsflows"


def executable_lines(path: Path) -> set[int]:
    """The lines to which the compiled module attributes an instruction."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code and the lines executed per package file."""
    hit: dict[str, set[int]] = {str(p): set() for p in PACKAGE.glob("*.py")}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
    return int(code), hit


def main(args: list[str]) -> int:
    code, hit = run(args)
    missed = 0
    for name, lines in sorted(hit.items()):
        path = Path(name)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - lines):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
