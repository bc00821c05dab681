"""The statements of src/wrapsurg that no tier-1 test runs.

Runs the tier-1 suite in this process under `sys.settrace` and
`threading.settrace`, records each line of the package that runs, then
prints, module by module, each statement that never ran, as
`src/wrapsurg/MODULE.py:LINE: TEXT` (its first line).  The statements are
read with `ast`; docstrings, `def` and `class` lines, imports and `global`
statements are not listed, and a compound statement counts as run when a
line of its header runs (a `try` has no header of its own).  Code that runs
only in a subprocess a test starts, such as the `python -m wrapsurg.cli`
entry lines, is not seen.  Like the golden runner, pytest does not collect it:

    python tests/untraced.py [--check] [PYTEST ARGS]

The default pytest arguments are the tier-1 ones, `-q
--continue-on-collection-errors`, on the tests directory.  The exit code is
pytest's.  The trace makes the suite run a few times slower.

With `--check` the list is a gate: the statements, each as `MODULE.py:
TEXT` without its line number (so an edit elsewhere in the module does not
move it), must be, as a multiset, those of the committed
tests/golden/untraced.txt, where each line also gives after `  # ` why no
tier-1 test runs it.  On a mismatch the unified diff is printed and the exit
code is 1 (or pytest's, when that is not 0).
"""
import ast
import difflib
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "wrapsurg"
GOLDEN = TESTS / "golden" / "untraced.txt"
# Statements not listed: imports and declarations state no behaviour a test
# checks, and a `try` has no line of its own (its body's statements are listed).
_UNLISTED = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _run_traced(args):
    """Run pytest with `args` under the trace; pytest's exit code and the
    lines run, by file name."""
    ran = {}
    package = str(PACKAGE)

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        lines = ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _own_lines(node):
    """The lines of a statement outside the statements it holds: all of a
    simple statement, the header of a compound one."""
    inner = [child.lineno for field in ("body", "orelse", "finalbody", "handlers")
             for child in getattr(node, field, ())]
    last = min(inner) - 1 if inner else node.end_lineno
    return range(node.lineno, max(last, node.lineno) + 1)


def _statements(tree):
    """The statements of a module that a run can be expected to reach."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, _UNLISTED + _DEFINITIONS)
                and not _is_docstring(node)):
            yield node


def untraced(ran):
    """The `(path, line, text)` of each statement that never ran."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, text = ran.get(str(path), set()), source.splitlines()
        for node in _statements(ast.parse(source)):
            if lines.isdisjoint(_own_lines(node)):
                found.append((path, node.lineno, text[node.lineno - 1].strip()))
    return sorted(found)


def committed():
    """The `MODULE.py: TEXT` entries of GOLDEN, sorted, each without the
    reason after its last `  # `; an entry without a reason raises."""
    entries = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            entry, _, reason = line.rpartition("  # ")
            if not entry or not reason.strip():
                raise ValueError(f"{GOLDEN.name}: no reason given for {line!r}")
            entries.append(entry)
    return sorted(entries)


if __name__ == "__main__":
    args = sys.argv[1:]
    check = "--check" in args
    args = [arg for arg in args if arg != "--check"]
    code, ran = _run_traced(args or ["-q", "--continue-on-collection-errors", str(TESTS)])
    root = PACKAGE.parent.parent
    found = untraced(ran)
    for path, line, text in found:
        print(f"{path.relative_to(root)}:{line}: {text}")
    if check:
        diff = list(difflib.unified_diff(
            committed(), sorted(f"{path.name}: {text}" for path, _, text in found),
            f"tests/golden/{GOLDEN.name}", "this run", lineterm=""))
        if diff:
            print("the untraced statements differ from the committed list:", *diff, sep="\n")
            code = code or 1
    sys.exit(code)
