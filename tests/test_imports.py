"""What the package namespace gives and what importing it loads.

Needs pytest only (no hypothesis, no conftest helpers), so that it runs on
every supported Python: PEP 562 module `__getattr__` and the order in which
submodules bind their names on the package are version-sensitive.

    PYTHONPATH=src python -m pytest -q --noconftest tests/test_imports.py
"""
from __future__ import annotations

import ast
import atexit
import importlib
import io
import os
import re
import subprocess
import sys
import tokenize
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import wrapsurg

SRC = Path(__file__).resolve().parents[1] / "src"

# The package's public names, by the module that defines them: the same names
# as before `seifert` and the equivalence moves were loaded on first use.
_NAMESPACE = {
    "slopes": (
        "InconsistentCrossCheckError", "InfinityInputError", "MERIDIAN", "ParseError", "Slope",
        "ZeroZeroError", "distance", "make_slope", "parse_slope",
    ),
    "tangles": (
        "LengthOneCanonical", "MontesinosTangle", "NormalForm", "Pairing", "closure_facts",
        "normalize", "parse_tangle",
    ),
    "moves": (
        "Move", "equivalent", "mirror_tangle", "reverse_tangle", "shift_tangle", "twist_tangle",
    ),
    "tracing": ("evaluate_continued_fraction", "expand", "trace_closure"),
    "wrapped": (
        "NoPretzelSurfaceError", "NotAKnotError", "NotLengthOneError", "WrappedKnot",
        "make_wrapped", "parse_knot", "pretzel_slope",
    ),
    "images": ("TwistedImage", "transport_slope", "twist", "two_bridge_fraction"),
    "seifert": (
        "LENS", "MontesinosLink", "NotATorusKnotError", "REDUCIBLE", "SFSClass", "SFSKind",
        "SeifertInvariants", "double_branched_cover", "pretzel_surgery_link", "sfs_equal",
        "torus_knot_surgery",
    ),
    "answers": (
        "FamilyKind", "FamilyPrediction", "SurgeryClassification", "SurgeryType",
        "ToroidalCertificate", "ToroidalSource",
    ),
    "classify": (
        "Analysis", "DegenerateKnotError", "KnotClass", "analysis_of", "classify",
        "exceptional_slopes", "predict_s3_family", "surgery_in_s3",
    ),
}
# The names a module imports from the module that defines them, so that they
# still resolve where they were defined before they moved: by defining module,
# the importing module and the names.
_REEXPORTED = {
    "answers": ("classify", _NAMESPACE["answers"]),
    "request": ("cli", ("CommandError", "FLAGS", "MAX_SPAN_ROWS", "Request", "USAGE", "parse")),
}
# What `import wrapsurg` loads: the package and the library modules every
# request runs.
_PACKAGE = ["wrapsurg", "wrapsurg.answers", "wrapsurg.classify", "wrapsurg.slopes",
            "wrapsurg.tangles", "wrapsurg.wrapped"]
# CPython 3.11's parser grows its token array by doubling it, and a module
# past 2048 tokens costs every process that compiles it a larger peak RSS:
# the benchmark's one-shot `classify`, without bytecode, peaked at 14.71 MB
# with `classify.py` at 2,690 and `cli.py` at 2,439 tokens, and at 14.33 MB
# with every module under 2,048.
_TOKEN_BUDGET = 2048
# The tokens of every module `import wrapsurg.cli` loads: with bytecode
# writing off, each process compiles them all before its first request.
# From Python 3.12 on, tokenize splits each f-string into its parts.
_IMPORT_PATH_TOKENS = 8884 if sys.version_info < (3, 12) else 9380
# The definitions of src/wrapsurg that no code in src/ reads, each with the
# reason it stays.  Every other one must have a reader.
_UNREAD = {
    "classify.exceptional_slopes": "bench/child.py's library sweep calls it",
    "classify.predict_s3_family": "bench/record_golden.py records the benchmark's answers with it",
    "classify.surgery_in_s3": "bench/record_golden.py records the benchmark's answers with it",
    "wrapped.make_wrapped": "bench/child.py and bench/record_golden.py build their knots with it",
    "images.transport_slope": "the public slope map under n twists; test_wrapped.py checks it",
    "tangles.MontesinosTangle.from_slopes": "bench/child.py builds its anchor tangles with it",
    "moves.equivalent": "moves with witnesses; the move properties of test_classify.py read them",
    "moves.mirror_tangle": "an equivalence move; the move properties of test_classify.py read it",
    "moves.reverse_tangle": "an equivalence move; the move properties of test_classify.py read it",
    "moves.shift_tangle": "an equivalence move; the move properties of test_classify.py read it",
    "moves.twist_tangle": "an equivalence move; the move properties of test_classify.py read it",
    "slopes.make_slope": "public API, an alias of `Slope(p, q)`; tests and bench/ call it",
    "slopes.distance": "the tests check the Lackenby-Meyerhoff bound with it",
    "tracing.evaluate_continued_fraction": "the tests check it as the inverse of `expand`",
    "tracing.trace_closure": "the parity rule's oracle; the tests and the golden runner read it",
    "tracing.pretzel_framing": "`pretzel_slope`'s oracle; the tests and the golden runner read it",
}


def _fresh(script: str) -> list[str]:
    """The stdout lines of `script` in a fresh interpreter without the site
    module, with this checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_namespace_is_the_names_of_every_module():
    assert sorted(wrapsurg.__all__) == sorted(
        name for names in _NAMESPACE.values() for name in names)
    assert len(set(wrapsurg.__all__)) == len(wrapsurg.__all__) == 61


@pytest.mark.parametrize("module", sorted({*_NAMESPACE, *_REEXPORTED}))
def test_each_name_is_the_object_of_its_defining_module(module):
    defining = importlib.import_module(f"wrapsurg.{module}")
    public = _NAMESPACE.get(module, ())
    importer, reexported = _REEXPORTED.get(module, (module, ()))
    importing = importlib.import_module(f"wrapsurg.{importer}")
    for name in public:
        assert getattr(wrapsurg, name) is getattr(defining, name), name
    for name in reexported:
        assert getattr(importing, name) is getattr(defining, name), name
    # Defined there, not imported from elsewhere: each class, function and
    # record names the module as its own.
    for name in {*public, *reexported}:
        value = getattr(defining, name)
        assert getattr(value, "__module__", defining.__name__) == defining.__name__, name


def test_classify_is_the_function_not_the_submodule():
    classify = sys.modules["wrapsurg.classify"]
    assert wrapsurg.classify is classify.classify
    assert callable(wrapsurg.classify)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'wrapsurg' has no attribute 'no_such_name'"):
        wrapsurg.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from wrapsurg import no_such_name", {})


def test_import_loads_the_request_path_and_the_rest_on_first_use():
    lines = _fresh(
        "import sys\n"
        "package = lambda: sorted(n for n in sys.modules if n.partition('.')[0] == 'wrapsurg')\n"
        "import wrapsurg\n"
        "print(package())\n"
        "T = wrapsurg.parse_tangle\n"
        "print(wrapsurg.equivalent(T('[1/2,1/2]'), T('[1/2,3/2]')),\n"
        "      wrapsurg.equivalent(T('[5/3,-2/3]'), T('[2/3,1/3]'))[0] == wrapsurg.Move('shift'))\n"
        "print(package())\n"
        "from wrapsurg import *\n"
        "import wrapsurg.jsonwriter\n"  # and with it `cli`, which it reads
        "print(package())\n"
        "print(callable(wrapsurg.classify), classify is wrapsurg.classify, len(wrapsurg.__all__))\n"
    )
    assert lines == [
        str(_PACKAGE),
        "None True",
        str(sorted([*_PACKAGE, "wrapsurg.moves"])),
        str(sorted([*_PACKAGE, "wrapsurg.cli", "wrapsurg.images", "wrapsurg.jsonwriter",
                    "wrapsurg.moves", "wrapsurg.request", "wrapsurg.seifert",
                    "wrapsurg.tracing"])),
        "True True 61",
    ]


# A batch whose lines repeat, so that the later ones are written from their
# kept answers, read off the knot cache of the running module; its one bad
# slope and its degenerate knot fail each of their lines, and it exits 2.
# K0[1/3,1/5] has a spanning-surface table.
_REPEATS = "".join(f"{line}\n" for line in [
    "classify K1[-1/2,1/3] 7", "slopes K1[-1/2,1/3] --format json --moves",
    "predict K1[-1/2,1/3] 6 --n -2..2", "classify 'K1[-1/2,1/3]' 1/0x",
    "normalize K0[0]", "classify K0[0] 1", "slopes K0[1/3,1/5] --moves"] * 4)
# The argv, stdin and exit code of each request, run plain and under -O.
_PYTHON_M_CASES = {
    "text": (["classify", "K1[-1/2,1/3]", "7"], "", 0),
    "json": (["classify", "K1[-1/2,1/3]", "7", "--format", "json"], "", 0),
    # Three requests whose tables have a spanning-surface slope.
    "pretzel": (["slopes", "K0[1/3,1/5]"], "", 0),
    "integer": (["slopes", "K0[3]"], "", 0),
    "pretzel-json": (["classify", "K1[1/3,-1/4]", "8", "--format", "json"], "", 0),
    "batch": (["batch"], _REPEATS, 2),
    "batch-file": (["batch", "repeats.txt"], "", 2),
    "bad-knot": (["classify", "K1[-1/2,1/3", "7"], "", 2),
    "link": (["classify", "K0[-1/2]", "7"], "", 3),
    # About 4.4 MB through a pipe: the process ends once it is all written.
    "megabytes": (["table", "K0[3]", "--range", "0..200000"], "", 0),
}


@pytest.mark.parametrize("argv, stdin, code, optimize", [
    *((*case, []) for case in _PYTHON_M_CASES.values()),
    *((*case, ["-O"]) for case in _PYTHON_M_CASES.values()),
], ids=[*_PYTHON_M_CASES, *(f"{name}-O" for name in _PYTHON_M_CASES)])
def test_python_m_loads_the_cli_module_once(argv, stdin, code, optimize, tmp_path):
    # `python -m wrapsurg.cli` runs the module as `__main__`, which registers
    # itself as `wrapsurg.cli`, so neither the JSON writer nor the batch
    # reader loads `wrapsurg.cli` beside it (-X importtime names every module
    # imported), no request loads the strand tracer, and its stdout, stderr
    # and exit code are in-process `main`'s.
    (tmp_path / "repeats.txt").write_text(_REPEATS, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *optimize, "-X", "importtime", "-m", "wrapsurg.cli", *argv],
        input=stdin, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "wrapsurg.cli" not in imported and "wrapsurg.tracing" not in imported
    assert ("wrapsurg.jsonwriter" in imported) == ("json" in argv or argv[0] == "batch")
    # The equivalence moves load with a JSON answer, which lists them, or a
    # `--moves` line (the batch has both); a text answer without one reads none.
    assert ("wrapsurg.moves" in imported) == ("json" in argv or argv[0] == "batch")
    assert ("wrapsurg.batch" in imported) == (argv[0] == "batch")
    # The rows of spans and exceptional slopes load with their first answer,
    # text or JSON.
    assert ("wrapsurg.spans" in imported) == (argv[0] != "classify")
    script = ("import io, sys\n"
              "from wrapsurg.cli import main\n"
              f"sys.stdin = io.TextIOWrapper(io.BytesIO({stdin.encode()!r}))\n"
              f"sys.exit(main({argv!r}))\n")
    in_process = subprocess.run([sys.executable, *optimize, "-c", script], cwd=tmp_path,
                                env=env, capture_output=True, text=True, timeout=60)
    errors = "".join(line for line in done.stderr.splitlines(keepends=True)
                     if not line.startswith("import time:"))
    assert done.returncode == in_process.returncode == code, errors
    assert done.stdout == in_process.stdout
    assert errors == in_process.stderr


# A `table` answer of several MB, more than a pipe holds.
_LONG = ["table", "K0[3]", "--range", "0..200000"]
# In-process `main`, ended by sys.exit, teardown included.
_MAIN = "import sys\nfrom wrapsurg.cli import main\nsys.exit(main())\n"


@pytest.mark.parametrize("reader", ["closed", "head"])
def test_python_m_exits_as_main_does_when_stdout_goes_away(reader):
    # Stdout closed at start-up (`>&-`), or by its reader after one line (`|
    # head -1`): `python -m wrapsurg.cli` and in-process `main` both exit 1
    # without a traceback.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for argv in (["-m", "wrapsurg.cli", *_LONG], ["-c", _MAIN, *_LONG]):
        if reader == "closed":
            done = subprocess.run(["/bin/sh", "-c", 'exec "$0" "$@" >&-', sys.executable, *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            code, err = done.returncode, done.stderr
        else:
            with subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) as child:
                assert child.stdout.readline() == "knot: K0[3]\n", argv
                child.stdout.close()
                err = child.stderr.read()
                code = child.wait(timeout=60)
        assert (code, err) == (1, ""), argv


# The JSON answer the runs below give.
_ANSWER = ["classify", "K1[-1/2,1/3]", "7", "--format", "json"]
# The CLI started as bench/launch.py starts it, after registering an atexit
# handler; without alter_sys the module runs as the `-c` script's `__main__`.
_LAUNCHER = ("import atexit, runpy\n"
             "atexit.register(print, 'atexit handler ran')\n"
             "runpy.run_module('wrapsurg.cli', run_name='__main__', alter_sys=%s)\n")
# The installed `wrapsurg` command, as pip writes it for the entry point in
# pyproject.toml, with a `__main__` global whose finalizer the interpreter's
# teardown would run.
_ENTRY = re.search(r'^wrapsurg = "([\w.]+):(\w+)"$',
                   (SRC.parent / "pyproject.toml").read_text(encoding="utf-8"), re.M)
_CONSOLE_SCRIPT = ("import sys\n"
                   "class Teardown:\n"
                   "    def __del__(self):\n"
                   "        print('torn down')\n"
                   "kept = Teardown()\n"
                   "from %s import %s as entry\n"
                   "sys.exit(entry())\n" % _ENTRY.groups())


# What stdout holds around the answer, ANSWER, in each run below.
_AFTER_ATEXIT = r"ANSWERatexit handler ran\n"
_PDB = r"> .*?\(Pdb\) ANSWERThe program exited via sys\.exit\(\)\. Exit status: 0\n.*"


@pytest.mark.parametrize("options, argv, stdin, code, stdout", [
    (["-c", _CONSOLE_SCRIPT], _ANSWER, "", 0, "ANSWER"),
    (["-c", _LAUNCHER % True], _ANSWER, "", 0, _AFTER_ATEXIT),
    (["-c", _LAUNCHER % False], ["batch", "repeats.txt"], "", 2, _AFTER_ATEXIT),
    (["-m", "cProfile", "-m", "wrapsurg.cli"], _ANSWER, "", 0, r"ANSWER\s+\d+ function calls .*"),
    # The launcher, as the profiled program: the module is the process's
    # `__main__` again, under the profiler (from 3.12 on a `sys.monitoring`
    # tool, which `sys.getprofile()` does not show).
    (["-m", "cProfile", "-m", "launcher"], _ANSWER, "", 0,
     r"ANSWER\s+\d+ function calls .*atexit handler ran\n"),
    # Python 3.13.0's pdb takes `--format` for its own option.
    (["-m", "pdb", "-m", "wrapsurg.cli"], _ANSWER[:3], "continue\nquit\n", 0, _PDB),
    (["-i", "-m", "wrapsurg.cli"], _ANSWER, "print('inspected')\n", 0, r"ANSWERinspected\n"),
], ids=["console-script", "launcher", "foreign-main-batch", "cprofile", "profiled-launcher",
        "pdb", "inspect"])
def test_other_ways_of_running_the_module_answer_in_full(options, argv, stdin, code, stdout,
                                                         tmp_path):
    # The installed command ends without the teardown, so no finalizer of
    # its `__main__` writes after the answer; the atexit handlers run after
    # the answer; as another program's `__main__` (cProfile's, or the `-c`
    # script's) the module answers through the importable `wrapsurg.cli`,
    # JSON and batch lines included; the profile's stats follow the answer;
    # pdb, which has dropped its trace function on `continue`, sees the run
    # exit and restarts it; `-i`'s prompt reads stdin after the answer.
    # ANSWER is in-process `main`'s stdout.
    (tmp_path / "repeats.txt").write_text(_REPEATS, encoding="utf-8")
    (tmp_path / "launcher.py").write_text(_LAUNCHER % True, encoding="utf-8")
    from wrapsurg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main_code = main([str(tmp_path / word) if word.endswith(".txt") else word
                          for word in argv])
    done = subprocess.run([sys.executable, *options, *argv], input=stdin, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == main_code == code, done.stderr
    pattern = stdout.replace("ANSWER", re.escape(out.getvalue()))
    assert re.fullmatch(pattern, done.stdout, re.DOTALL), done.stdout
    # `-i` shows the SystemExit and its prompts on stderr.  pdb's restart
    # adds nothing there: the run dropped its `wrapsurg.cli` name on exit, so
    # runpy does not warn that the module is already imported.
    if "-i" not in options:
        assert done.stderr == err.getvalue()


def test_script_ends_at_once_only_when_nothing_watches(monkeypatch, capsys):
    # `script` runs the atexit handlers, flushes and calls os._exit with
    # main's code; under a trace function or when a flush fails it leaves
    # both to sys.exit.  os._exit is replaced, so the test process goes on
    # to the sys.exit that follows it.
    from wrapsurg.cli import script

    ended = []
    monkeypatch.setattr(sys, "argv", ["wrapsurg", "classify", "K0[-1/2]", "7"])
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ended.append("atexit handlers"))
    monkeypatch.setattr(os, "_exit", ended.append)
    # Hide whatever trace or monitoring tool this suite itself runs under,
    # and pytest's debugger.
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.delitem(sys.modules, "bdb", raising=False)
    if hasattr(sys, "monitoring"):
        monkeypatch.setattr(sys.monitoring, "get_tool", lambda tool: None)
    with pytest.raises(SystemExit, match="3"):
        script()
    assert ended == ["atexit handlers", 3]
    assert "link" in capsys.readouterr().err

    ended.clear()
    monkeypatch.setattr(sys, "gettrace", lambda: print)
    with pytest.raises(SystemExit, match="3"):
        script()
    assert ended == []

    class FailingFlush(io.StringIO):
        def flush(self):
            raise OSError("fd 2 open for reading only")

    ended.clear()
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "stderr", FailingFlush())
    with pytest.raises(SystemExit, match="3"):
        script()
    assert ended == ["atexit handlers"]


def _tokens(path: Path) -> int:
    """The tokens the parser reads: tokenize's, without comments and blank lines."""
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as handle:
        return sum(token.type not in skipped for token in tokenize.tokenize(handle.readline))


def test_every_module_stays_below_the_parser_token_step():
    sizes = {path.name: _tokens(path) for path in sorted((SRC / "wrapsurg").glob("*.py"))}
    assert "cli.py" in sizes and "jsonwriter.py" in sizes
    assert max(sizes.values()) < _TOKEN_BUDGET, sizes


def test_the_import_path_stays_within_its_token_count():
    loaded = _fresh("import sys, wrapsurg.cli\n"
                    "print(*(n for n in sys.modules if n.startswith('wrapsurg')))")
    files = [SRC / "wrapsurg" / f"{name.partition('.')[2] or '__init__'}.py"
             for name in loaded[0].split()]
    assert sum(map(_tokens, files)) <= _IMPORT_PATH_TOKENS


def _definitions(tree: ast.Module):
    """(name, class name or None, node) of each module-level function, class
    and constant and each public method; dunder names are the language's."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, node.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, None, node


def test_every_definition_has_a_reader():
    """Each definition of src/wrapsurg is loaded somewhere in src/ outside its
    own definition and `__init__` (whose re-exports only name it), or is in
    `_UNREAD`.  A load `C.name` with `C` another class of the package reads
    that class's `name`, not this one."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "wrapsurg").glob("*.py")) if path.stem != "__init__"}
    definitions = [(f"{module}.{owner + '.' if owner else ''}{name}", name, owner, node)
                   for module, tree in trees.items() for name, owner, node in _definitions(tree)]
    classes = {name for _, name, owner, node in definitions
               if owner is None and isinstance(node, ast.ClassDef)}
    loads = {}  # name -> [(qualifying class or None, node)]
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append((None, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                value = node.value
                owner = value.id if isinstance(value, ast.Name) and value.id in classes else None
                loads.setdefault(node.attr, []).append((owner, node))

    unread = set()
    for qualname, name, owner, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in inside and via in (None, owner)
                   for via, node in loads.get(name, ())):
            unread.add(qualname)
    unlisted, stale = sorted(unread - _UNREAD.keys()), sorted(_UNREAD.keys() - unread)
    assert not unlisted, f"no code in src/ reads {unlisted}: delete them or list them in _UNREAD"
    assert not stale, f"{stale} have a reader or are gone: drop them from _UNREAD"
