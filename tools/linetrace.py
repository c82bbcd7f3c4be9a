"""List the statements of ``src/digitopo`` that a test run never executes.

    python3 tools/linetrace.py [PYTEST ARGS...]

Runs pytest in this process (default arguments: ``-q`` and the ``tests``
directory) with a line tracer installed through ``sys.settrace`` and
``threading.settrace``, then prints ``file:line: statement`` for each
statement of the package that never ran, and one count line. The exit
status is pytest's.

A statement ran when any line of its own span ran: a simple statement's
lines, or a compound statement's header up to its body (decorators
included). Lines that compile to no instruction (a docstring, ``global``)
are not statements here. Only this process is traced: code that runs in
a subprocess, such as the command line started as ``python -m
digitopo.cli``, is not, so a statement reached only there is listed. The
tracer slows the run, so wall-clock gates may fail under it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "digitopo"


def _own_lines(code) -> set[int]:
    """The lines that hold an instruction of ``code`` itself."""
    return {line for _, _, line in code.co_lines() if line is not None}


def _code_lines(code) -> set[int]:
    """The lines that hold an instruction of ``code`` or of a code object
    nested in it."""
    lines = _own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path) -> list[tuple[int, range]]:
    """Each statement of the file at ``path`` that compiles to an
    instruction: its first line and the span of lines that runs when it
    does, in line order."""
    source = Path(path).read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        span = range(first, max(first, last) + 1)
        if executable.intersection(span):
            found.append((node.lineno, span))
    return sorted(found, key=lambda item: item[0])


def unrun(path, ran: set[int]) -> list[tuple[int, str]]:
    """``(line, first line of its text)`` of each statement of the file at
    ``path`` (``statements``) none of whose span is in ``ran``."""
    text = Path(path).read_text().splitlines()
    return [
        (line, text[line - 1].strip())
        for line, span in statements(path)
        if not ran.intersection(span)
    ]


class LineTracer:
    """Record the lines that run in the files ``paths`` while installed
    (``with``): ``lines`` maps each file's real path to its lines run. A
    code object stops being traced once every line of it has run. The
    tracers installed before are put back on exit."""

    def __init__(self, paths):
        self._wanted = {os.path.realpath(p) for p in paths}
        self._files: dict[str, str | None] = {}
        self._left: dict = {}
        self.lines: dict[str, set[int]] = defaultdict(set)

    def _file(self, filename: str) -> str | None:
        """The real path of ``filename`` when it is traced, else None."""
        if filename not in self._files:
            real = os.path.realpath(filename)
            self._files[filename] = real if real in self._wanted else None
        return self._files[filename]

    def _call(self, frame, event, arg):
        code = frame.f_code
        left = self._left.get(code)
        if left is None:
            name = self._file(code.co_filename)
            left = self._left[code] = set() if name is None else _own_lines(code)
        if not left:
            return None
        seen = self.lines[self._files[code.co_filename]]

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before[0])
        threading.settrace(self._before[1])


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    paths = sorted(PACKAGE.glob("*.py"))
    with LineTracer(paths) as tracer:
        code = pytest.main(args or ["-q", str(ROOT / "tests")])
    total, listing = 0, []
    for path in paths:
        total += len(statements(path))
        for line, text in unrun(path, tracer.lines[os.path.realpath(path)]):
            listing.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(*listing, sep="\n")
    print(f"linetrace: {len(listing)} of {total} statements of src/digitopo never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
