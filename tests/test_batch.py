"""The batch reader's kept answers: which lines it keeps, that a kept line is
written without being parsed or answered again, and that a batch writes the
bytes of its lines answered one at a time from cold caches."""
import importlib
import io
import pkgutil
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given
from hypothesis import strategies as st

from conftest import count_calls
import wrapsurg
from wrapsurg import FamilyPrediction, batch, cli
from wrapsurg.cli import main


def _clear_every_cache():
    """Empty every bounded cache of the package, the CLI's knots and the
    texts asked for once, and the kept answers; the run-once self-check of
    `wrapped` stays."""
    for info in pkgutil.iter_modules(wrapsurg.__path__):
        module = importlib.import_module(f"wrapsurg.{info.name}")
        for value in vars(module).values():
            if (hasattr(value, "cache_info") and value.__module__ == module.__name__
                    and value.cache_info().maxsize is not None):
                value.cache_clear()
    cli._kept_knots.clear()
    cli._asked_once.clear()
    batch._kept_answers.clear()


def _batch(lines):
    """Exit code, stdout and stderr of `lines` as a batch on stdin."""
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO("".join(line + "\n" for line in lines).encode()))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["batch"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _alone(lines):
    """What `_batch(lines)` should give: each line answered as the only
    request line of a batch, at its own line number, after clearing every
    cache; the exit code is that of the first failed line."""
    code, out, err = 0, [], []
    for number, line in enumerate(lines, start=1):
        _clear_every_cache()
        one_code, one_out, one_err = _batch([""] * (number - 1) + [line])
        code = code or one_code
        out.append(one_out)
        err.append(one_err)
    return code, "".join(out), "".join(err)


def test_a_batch_of_distinct_knots_keeps_no_line():
    _clear_every_cache()
    lines = [f"{request} K0[{i}]" for i in range(2, 40) for request in ("slopes", "normalize")]
    code, out, err = _batch(lines)
    assert (code, err) == (0, "") and out.count("knot:") == len(lines)
    assert len(cli._kept_knots) == 38  # each knot asked for twice, kept at the second
    assert not batch._kept_answers


def test_span_lines_and_long_lines_are_not_kept():
    _clear_every_cache()
    padded = "classify" + " " * 120 + "K0[3] 7"
    assert len(padded) > cli._KNOT_TEXT_LENGTH
    lines = ["table K0[3] --range 0..5", "predict K0[3] 7 --n 0..3", "twist K0[3] --n 1",
             "table K0[3] --range 4 --format json", padded]
    code, out, err = _batch(lines * 4)
    assert (code, err) == (0, "")
    assert list(cli._kept_knots) == ["K0[3]"] and not batch._kept_answers
    assert (code, out, err) == _alone(lines * 4)


def test_failed_lines_are_not_kept_and_each_repeat_reports_its_own_line(monkeypatch):
    _clear_every_cache()
    # A bad slope and a degenerate knot on kept knots, and an answer with an
    # integer past the digit limit, from a family line that writes one: at
    # K0[5]'s table slope 0, as the family line of a hyperbolic slope is fixed.
    lines = ["classify K0[3] 1/0x", "classify K0[0] 1", "predict K0[5] 0"]
    assert _batch(["normalize K0[3]", "normalize K0[0]", "normalize K0[5]"] * 2)[0] == 0
    assert set(cli._kept_knots) == {"K0[3]", "K0[0]", "K0[5]"}
    monkeypatch.setattr(FamilyPrediction, "__str__", lambda prediction: str(10**5000))
    code, out, err = _batch(lines * 3)
    assert code == 2 and out == ""
    numbered = [line.split(": error: ")[0] for line in err.splitlines()]
    assert numbered == [f"line {number}" for number in range(1, 10)]
    assert err.count("bad slope expression") == 3
    assert err.count("not hyperbolic") == 3
    assert err.count("4300 digits") == 3
    assert not batch._kept_answers


def test_a_kept_line_is_neither_parsed_nor_answered_again(monkeypatch):
    _clear_every_cache()
    lines = ["classify K1[-1/2,1/3] 7", "slopes K1[-1/2,1/3] --format json --moves"]
    first = _batch(lines * 3)  # the knot is kept from the second line on
    assert first[0] == 0
    calls = {}
    count_calls(monkeypatch, calls, cli, "parse")
    count_calls(monkeypatch, calls, cli, "run")
    again = _batch(lines * 3)
    monkeypatch.undo()
    assert again == first
    assert calls == {"parse": 1}  # the batch request itself, which `cli.run` does not answer
    assert list(batch._kept_answers) == lines


# Request lines on a few knots, so that most knots of a batch are asked for
# three times or more: every command, both formats, --moves, spans, failing
# lines, and knot texts quoted or escaped for shlex.
_LINES = [
    "classify K1[-1/2,1/3] 7", "classify K1[-1/2,1/3] 7 --format json",
    "classify K1[-1/2,1/3] 1/0", "classify 'K1[-1/2,1/3]' 6 --moves",
    'classify "K1[-1/2,1/3]" 6 --moves', "classify K1[-1/2,1/3] 7 --moves --format json",
    "predict K1[-1/2,1/3] 7", "predict K1[-1/2,1/3] 6 --n -2..3 --format json",
    "predict K1[-1/2,1/3] 7 --n 1..2", "slopes K1[-1/2,1/3]", "slopes K1[-1/2,1/3] --format json",
    "normalize K1[-1/2,1/3] --moves", "table K1[-1/2,1/3] --range -8..-4",
    "twist K1[-1/2,1/3] --n 0..2 --format json",
    "classify K0[3] 7", "classify K0\\[3\\] 7", "slopes K0[3] --moves", "normalize K0[3]",
    "normalize K0[3] --format json", "twist K0[3] --n -1..1", "table K0[3] --range 0..3 --moves",
    "classify K0[1/3,1/3] 2", "slopes K0[1/3,1/3] --format json", "predict K0[1/3,1/3] -3",
    # Failing lines: a bad slope, a degenerate knot, a link, a bad flag, an
    # unclosed quote, a nested batch.
    "classify K0[3] x", "classify K0[0] 1", "slopes K0[0]", "normalize K0[-1/2]",
    "slopes K0[3] --range 1..0", "classify 'K0[3] 7", "batch", "predict K0[3] 7 --n",
    # Blank and comment lines.
    "", "# slopes K0[3]",
]


@given(st.lists(st.sampled_from(_LINES), min_size=1, max_size=16))
def test_a_batch_writes_the_bytes_of_its_lines_answered_alone(lines):
    expected = _alone(lines)
    _clear_every_cache()
    assert _batch(lines) == expected
    assert _batch(lines) == expected  # now with every kept line answered from the memo
