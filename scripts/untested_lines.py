"""Run pytest in this process and print each statement of `src/maxcosine` it
never executed, as `path:line: source`, in file order; exit with pytest's
status.

    python scripts/untested_lines.py
    python scripts/untested_lines.py tests/test_cli.py -k manifest

Arguments go to pytest as given, after `-q -p no:cacheprovider`; with none, the
whole `tests` directory runs. Every thread is traced with `sys.settrace`, limited
to the package's files, so the run takes about twice as long as a plain one. A
statement counts as executed when a line of its own ran: the whole of a simple
statement, the header of a compound one. Lines that only a test's new
interpreter runs (the `run_fresh` and other subprocess tests) show as
unexecuted, and so do lines that cannot run on this host (a big-endian branch,
`__main__`, imports under `if TYPE_CHECKING:`). Tests bound by wall time can
fail under the tracer's slowdown (criterion 1's 60 s limit, the interrupt
tests), and then the lines only they reach show too. The list is for reading,
not a gate: nothing fails on it.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maxcosine"


def code_lines(code) -> set[int]:
    """The lines `code` and the code objects nested in it can report."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statement_spans(tree) -> list[tuple[int, int]]:
    """(first, last) line of each statement's own part: its decorators and
    header when it has a body, else the whole statement."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
            spans.append((first, max(node.lineno, last)))
    return sorted(spans)


def main(args: list[str]) -> int:
    files = {str(p) for p in PACKAGE.glob("*.py")}
    traced: dict[str, bool] = {}  # co_filename -> whether it is a package file
    executed: dict[str, set[int]] = {}  # a package file's co_filename -> lines run

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = os.path.realpath(name) in files
            if traced[name]:
                executed.setdefault(name, set())
        return trace_lines if traced[name] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {f: set() for f in files}
    for name, lines in executed.items():
        ran[os.path.realpath(name)] |= lines
    for path in sorted(files):
        source = Path(path).read_text(encoding="utf-8")
        runnable = code_lines(compile(source, path, "exec"))
        text = source.splitlines()
        for first, last in statement_spans(ast.parse(source)):
            own = set(range(first, last + 1))
            if own & runnable and not own & ran[path]:
                print(f"{Path(path).relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
