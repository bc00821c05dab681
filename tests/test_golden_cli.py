"""Golden guard: CLI answers over the exhaustive k<=2 grid, links included.

For each of five commands, every grid candidate's knot text, exit code,
stdout and stderr are folded into one sha256 digest.  The first three were
recorded before the closure trace was unified, the `table` and `predict`
ones before sweeps were read off the exceptional set, so any refactor that
changes a single byte of any answer (or of any error message) fails here.
"""
import contextlib
import hashlib
import io

from test_classify import _grid_slopes
from wrapsurg.cli import main

GOLDEN = {
    ("normalize", "--format", "json"): "5ae8aaa7db083b4839c353283355b8712488dece5a627342fa62e607a149005a",
    ("slopes", "--format", "json"): "e3b898e0e8718ac09ebf15fb14c93bbef82cc60358a65bdd4dc04bd049d274ee",
    ("slopes", "--moves"): "467dcee5dafe6ce4f32fe8290c3d83eb61d184a62161dbfccc824e457ef76ba1",
    ("table", "--range", "-12..12", "--format", "json"): "98167b877c0b199434f8c74fbead7e7aafec773b198446cfb9f1dc035d9a4c52",
    ("predict", "7", "--n", "-3..3", "--format", "json"): "6174d5c4b55a47ad0ed42816b695448511f4b3657db90dafa68e52067758d31f",
}


def _candidates():
    entries = [str(e) for e in _grid_slopes()]
    for a in (0, 1):
        for t1 in entries:
            yield f"K{a}[{t1}]"
            for t2 in entries:
                yield f"K{a}[{t1},{t2}]"


def _digest(command, *flags):
    sha = hashlib.sha256()
    for knot in _candidates():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, knot, *flags])
        for part in (knot, str(code), out.getvalue(), err.getvalue()):
            sha.update(part.encode())
            sha.update(b"\0")
    return sha.hexdigest()


def test_grid_has_all_candidates():
    assert sum(1 for _ in _candidates()) == 4512


def test_golden_cli_digests_on_grid():
    for (command, *flags), expected in GOLDEN.items():
        assert _digest(command, *flags) == expected, (command, flags)
