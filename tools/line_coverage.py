"""Print each line of ``src/gexpect`` that the Tier-1 suite never runs.

Usage::

    python3 tools/line_coverage.py [PYTEST_ARGS...]

It runs pytest in this process (by default on ``tests/``, quietly) with a
``sys.settrace`` line tracer, standard library only, and prints every
executable line of ``src/gexpect/*.py`` that no test ran, as
``file:line  source``, then how many lines ran of how many. A line counts as
executable if the compiled module has an instruction on it.

Only this process is traced: lines that run only in subprocesses (the
command-line tests that start ``python -m gexpect.cli``) or in the forked
workers of ``parallel.fork_map`` are reported as not run. The tracer slows
the suite by about half again. The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gexpect"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that carry an instruction of the module at ``path`` or of any
    code object nested in it."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)  # None, or 0 for a module's start
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # trace only the package's frames; every other frame gets no line events
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(ROOT / "src"))  # before pytest imports gexpect, so its import is traced
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(f"{total - missed} of {total} executable lines ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
