"""Deterministic work counts of src/wrapsurg, gated against a committed file.

Wall times cannot resolve a change of a few percent; these counts repeat
exactly from run to run, so a change that moves the work shows here:

- the modules `import wrapsurg.cli` loads and the tokens of the package's
  modules among them (Python `tokenize`, comments and blank lines not
  counted), which every process without bytecode compiles: their sum, the
  largest module, whose compile sets a one-shot process's peak RSS, and
  each module's own count, so that a diff names the module that grew;
- the modules each request kind loads beyond those, one request per
  interpreter;
- the package calls per line of two batch files of FILE_LINES lines, the
  benchmark's batch_cold and batch_hot request lines for SEED (read from
  bench/inputs.py, which is only imported and imports nothing of the
  package), each counted after a warm-up file of the lines before it, in
  the same process;
- the package calls per candidate of a grid pass, `exceptional_slopes` of
  every knot of the exhaustive k<=2 grid (links and degenerate knots
  included), counted after a warm-up pass.

A call is a `sys.setprofile` `call` event whose frame is in src/wrapsurg,
and a C call a `c_call` event made from such a frame, so the work a package
function hands to a builtin (a %-format, a join, a dict lookup) counts too.
Each count runs in a fresh interpreter, the module loads without the site
module, with this checkout's src/ first on the path, bytecode writing off
and PYTHONHASHSEED fixed, so that set and dict orders, and with them the
counts, repeat.  Like the golden runner, pytest does not collect it:

    python tests/counts.py [--check]

It prints the counts as the committed tests/golden/counts.txt holds them,
recorded on CPython 3.11.  With `--check` the lines that are not comments
must be those of that file: on a mismatch the unified diff is printed and
the exit code is 1.  A change that moves a count on purpose re-records the
file with `python tests/counts.py > tests/golden/counts.txt` and says why.
"""
import difflib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "wrapsurg"
GOLDEN = TESTS / "golden" / "counts.txt"
# The benchmark's seed of both request lists, and the lines of a batch file.
SEED = 1
FILE_LINES = 500
# The argv of each request kind, text and JSON; a `batch` reads the first
# one's line from its file.
_KNOT = "K1[-1/2,1/3]"
REQUESTS = {
    "classify": ["classify", _KNOT, "7"],
    "classify --moves": ["classify", _KNOT, "7", "--moves"],
    "slopes": ["slopes", _KNOT],
    "normalize": ["normalize", _KNOT],
    "twist": ["twist", _KNOT, "--n", "-1..1"],
    "predict --n": ["predict", _KNOT, "6", "--n", "-2..2"],
    "table": ["table", _KNOT, "--range", "0..9"],
}
_HEADER = """\
# Deterministic work counts of src/wrapsurg, as `python tests/counts.py`
# prints them and `--check` compares them (comment lines are not compared).
# A call is a sys.setprofile `call` event in a src/wrapsurg frame, a C call
# a `c_call` event made from one; the tests/counts.py docstring says what
# runs.  A change that moves a count re-records this file with
# `python tests/counts.py > tests/golden/counts.txt` and says why.
"""
# Run with `-S`: the modules `import wrapsurg.cli` loads.
_IMPORT = """\
import sys
before = set(sys.modules)
import wrapsurg.cli
print(*sorted(set(sys.modules) - before))
"""
# Run with `-S` and a request's argv: its exit code, then the modules it
# loads beyond `import wrapsurg.cli`; the answer is dropped.
_REQUEST = """\
import io, sys
import wrapsurg.cli
before = set(sys.modules)
sys.stdout = sys.stderr = io.StringIO()
code = wrapsurg.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, *sorted(set(sys.modules) - before))
"""


def _bench_inputs():
    """bench/inputs.py, imported by path without touching the package."""
    spec = importlib.util.spec_from_file_location("_bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses looks its module up
    spec.loader.exec_module(inputs)
    return inputs


def _counted(run, name, per, count):
    """Run `run()` under the profile and give the count line of `name`, per
    one of the `count` `per`s it ran."""
    package = str(PACKAGE)
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts and frame.f_code.co_filename.startswith(package):
            counts[event] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    calls, c_calls = counts["call"], counts["c_call"]
    return (f"{name}: {calls / count:.2f} calls and {c_calls / count:.2f} C calls a {per}"
            f" ({calls} and {c_calls} in {count})")


def _batch(kind):
    """The count line of the second FILE_LINES lines of `kind`'s list, after
    the first FILE_LINES as the warm-up file."""
    from wrapsurg.cli import main

    inputs = _bench_inputs()
    requests = getattr(inputs.Workloads(inputs.Golden()), kind)(SEED)
    lines = [request.line() for request, _ in requests[:2 * FILE_LINES]]
    with tempfile.TemporaryDirectory() as directory:
        warm, counted = Path(directory) / "warm.txt", Path(directory) / "counted.txt"
        warm.write_text("".join(line + "\n" for line in lines[:FILE_LINES]))
        counted.write_text("".join(line + "\n" for line in lines[FILE_LINES:]))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(["batch", str(warm)])
            return _counted(lambda: main(["batch", str(counted)]),
                            f"batch_{kind} seed {SEED}, lines {FILE_LINES + 1}-{2 * FILE_LINES}",
                            "line", FILE_LINES)


def _grid():
    """The count line of the second of two grid passes."""
    from wrapsurg import (DegenerateKnotError, NotAKnotError, WrappedKnot, analysis_of,
                          parse_tangle)

    candidates = _bench_inputs().grid_candidates()

    def grid_pass():
        for a, tangle in candidates:
            try:
                analysis_of(WrappedKnot(a, parse_tangle(tangle))).exceptional_slopes()
            except (NotAKnotError, DegenerateKnotError):
                pass

    grid_pass()
    return _counted(grid_pass, "grid pass", "candidate", len(candidates))


def _tokens(path):
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as handle:
        return sum(token.type not in skipped for token in tokenize.tokenize(handle.readline))


def _run(env, *argv):
    """The stdout of `python *argv` under `env`; a failed run exits."""
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=600)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv[-2:])} failed:\n{done.stderr}")
    return done.stdout


def _loads(env, directory):
    """The lines of the modules `import wrapsurg.cli` loads, the tokens of
    the package's, and the modules each request kind loads beyond them."""
    loaded = _run(env, "-S", "-c", _IMPORT).split()
    files = [PACKAGE / f"{name.partition('.')[2] or '__init__'}.py"
             for name in loaded if name.partition(".")[0] == "wrapsurg"]
    tokens = {path.name: _tokens(path) for path in files}
    largest = max(tokens, key=tokens.get)
    lines = [f"import wrapsurg.cli loads: {' '.join(loaded)}",
             f"import wrapsurg.cli: {sum(tokens.values())} tokens in {len(files)} modules,"
             f" the largest {largest} with {tokens[largest]}",
             *(f"tokens of {name}: {count}" for name, count in sorted(tokens.items()))]
    batch = Path(directory) / "batch.txt"
    batch.write_text(" ".join(REQUESTS["classify"]) + "\n")
    kinds = {f"{kind}{' json' * json}": [*argv, *["--format", "json"] * json]
             for kind, argv in REQUESTS.items() for json in (False, True)}
    for kind, argv in {**kinds, "batch": ["batch", str(batch)]}.items():
        code, *modules = _run(env, "-S", "-c", _REQUEST, *argv).split()
        if code != "0":
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        lines.append(f"{kind} loads: {' '.join(modules) or '-'}")
    return lines


def counts():
    """The text of the counts, as tests/golden/counts.txt holds it."""
    src = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, src)))
    lines = [f"python: {sys.version_info[0]}.{sys.version_info[1]}"]
    with tempfile.TemporaryDirectory() as directory:
        lines += _loads(env, directory)
    for job in (["cold"], ["hot"], []):
        lines.append(_run(env, __file__, "--count", *job).rstrip("\n"))
    return _HEADER + "\n".join(lines) + "\n"


def _compared(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--count"]:  # one count, in its own interpreter
        print(_batch(sys.argv[2]) if sys.argv[2:] else _grid())
        sys.exit(0)
    text = counts()
    print(text, end="")
    if "--check" in sys.argv[1:]:
        diff = list(difflib.unified_diff(
            _compared(GOLDEN.read_text(encoding="utf-8")), _compared(text),
            f"tests/golden/{GOLDEN.name}", "this run", lineterm=""))
        if diff:
            print("the counts differ from the committed file:", *diff, sep="\n")
            sys.exit(1)
