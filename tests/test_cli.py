import gc
import importlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import count_calls, python_env, run_python
from wrapsurg import (
    KnotClass,
    NotAKnotError,
    analysis_of,
    make_slope,
    normalize,
    parse_knot,
    parse_slope,
)
import wrapsurg
from wrapsurg import batch, cli, jsonwriter, spans
from wrapsurg.classify import _WINDOW
from wrapsurg.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run_cli(capsys, "classify", "K1[-1/2,1/3]", "7")
    assert code == 0 and not err
    assert "small-seifert (fiber indices 3,5)" in out
    assert "family:" in out


def test_classify_negative_slope(capsys):
    code, out, _ = run_cli(capsys, "classify", "K1[1/2,-1/3]", "-7")
    assert code == 0
    assert "small-seifert" in out


def test_classify_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "K1[-1/2,1/3]", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    knot = parse_knot(payload["input"]["knot"])
    assert str(knot) == payload["input"]["knot"]
    slope = parse_slope(payload["classification"]["slope"])
    assert str(slope) == payload["classification"]["slope"]
    for frac in payload["normal_form"]["fracs"]:
        assert str(parse_slope(frac)) == frac
    assert payload["classification"]["fiber_indices"] == [3, 5]
    assert payload["family_prediction"]["kind"] == "seifert-or-reducible"


def test_normalize_json(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "K0[5/3,-2/3]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"]["e0"] == 0
    assert payload["normal_form"]["fracs"] == ["2/3", "1/3"]
    assert not payload["normal_form"]["degenerate"]


def test_normalize_degenerate_is_allowed(capsys):
    code, out, _ = run_cli(capsys, "normalize", "K0[0]")
    assert code == 0
    assert "degenerate" in out


def test_slopes_table(capsys):
    code, out, _ = run_cli(capsys, "slopes", "K0[2]")
    assert code == 0
    for line in ["exceptional 0: toroidal", "exceptional 2: small-seifert"]:
        assert line in out


def test_table_sweep(capsys):
    code, out, _ = run_cli(capsys, "table", "K1[-1/2,1/3]", "--range", "0..10")
    assert code == 0
    for value in range(0, 11):
        expected = {6: "toroidal", 7: "small-seifert", 8: "toroidal"}.get(
            value, "hyperbolic"
        )
        assert f"r={value}: {expected}" in out


def test_predict_with_twist_range(capsys):
    code, out, _ = run_cli(
        capsys, "predict", "K1[-1/2,1/3]", "7", "--n", "2..4"
    )
    assert code == 0
    assert "n=2: reducible" in out
    assert "n=3: lens" in out


def test_twist_images(capsys):
    code, out, _ = run_cli(capsys, "twist", "K1[-1/2,1/3]", "--n", "0..2")
    assert code == 0
    assert "n=0: M[-1/2,1/3,1]" in out
    assert "n=1: M[-1/2,1/3,1/3]" in out


def test_twist_two_bridge_column(capsys):
    code, out, _ = run_cli(capsys, "twist", "K0[7/3]", "--n", "1..1")
    assert code == 0
    assert "two-bridge 7/17" in out


def test_moves_flag(capsys):
    code, out, _ = run_cli(capsys, "classify", "K0[2/7]", "0", "--moves")
    assert code == 0
    assert "mirror" in out


def test_parse_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", "K1[-1/2,1/3x]", "7")
    assert code == 2
    assert "position" in err
    code, _, _ = run_cli(capsys, "classify", "K1[-1/2,1/3]")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate", "K0[2]")
    assert code == 2
    code, _, _ = run_cli(capsys, "classify", "K0[inf]", "1")
    assert code == 2
    for argv, message in (
        (["batch", "a", "b"], "batch takes at most one file argument"),
        (["twist", "K0[3]"], "twist needs --n"),
        (["batch", str(tmp_path / "missing.txt")], "cannot read batch file"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


def test_a_zero_denominator_entry_is_refused_as_the_meridian_it_writes(capsys):
    # A tangle entry with a zero denominator fails as `inf` does, at the
    # entry; only a slope argument is told to write 'inf'.
    refusal = "1/0 is not a rational tangle entry"
    for knot, position in (("K0[1/0]", 3), ("K0[inf]", 3), ("K0[2, -3/0]", 6), ("K1[0/0]", 3)):
        code, out, err = run_cli(capsys, "slopes", knot)
        assert (code, out) == (2, ""), knot
        assert err == f"error: bad knot expression: {refusal} (at position {position})\n", knot
    code, out, err = run_cli(capsys, "classify", "K0[2]", "1/0")
    assert (code, out) == (2, "")
    hint = "explicit zero denominator; write 'inf'"
    assert err == f"error: bad slope expression: {hint} (at position 0)\n"


def test_integers_are_ascii_digits(capsys):
    # Any other Unicode digit, a '+' sign or a '_' separator is a parse error,
    # in knot entries and in --n and --range spans alike.
    for knot in ("K0[\u0663]", "K0[\uff12/\uff13]", "K0[2/\u0663]", "K0[\u00b2]"):
        code, out, err = run_cli(capsys, "classify", knot, "1")
        assert code == 2 and not out, knot
        assert "expected an integer" in err, knot
    for flag, args in (
        ("--range", ["table", "K0[3]", "--range", "1_0..1_1"]),
        ("--n", ["predict", "K1[-1/2,1/3]", "7", "--n", "+2..\u0663"]),
        ("--n", ["twist", "K0[3]", "--n", "\u0663"]),
        ("--n", ["twist", "K0[3]", "--n", "-1..+1"]),
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and not out, args
        assert f"{flag} expects integers like -2..5" in err, args
    assert run_cli(capsys, "twist", "K0[3]", "--n", " -1..1 ")[0] == 0


def test_invalid_and_degenerate_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "K0[-1/2]", "7")
    assert code == 3 and "link" in err
    code, _, err = run_cli(capsys, "classify", "K1[-1/2]", "7")
    assert code == 3
    code, _, _ = run_cli(capsys, "slopes", "K0[0]")
    assert code == 3


def test_batch_mode(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    script.write_text(
        "\n".join(
            [
                "classify K1[-1/2,1/3] 7",
                "# a comment line",
                "",
                "slopes K0[2]",
                "classify K0[-1/2] 7",
                "classify K0[2] 1",
            ]
        ),
        encoding="utf-8",
    )
    code = main(["batch", str(script)])
    captured = capsys.readouterr()
    assert code == 3  # the failing line's code, without aborting the batch
    assert "line 5: error" in captured.err
    assert captured.out.count("knot:") == 3


def test_no_panic_on_large_denominators(capsys):
    rng = random.Random(97)
    for _ in range(25):
        p = rng.randint(-10**6, 10**6)
        q = rng.randint(1, 10**6)
        knot = "K1[-1/2,1/3]"
        code, _, _ = run_cli(capsys, "classify", knot, f"{p}/{q}")
        assert code == 0
    big = make_slope(123456789012345678901234567890, 7)
    code, out, _ = run_cli(capsys, "classify", "K0[2]", str(big))
    assert code == 0 and "hyperbolic" in out


HUGE = "1" * 4400  # more digits than int() converts from text


def test_oversized_entry_exits_2_with_position(capsys):
    code, out, err = run_cli(capsys, "classify", f"K0[{HUGE}]", "1")
    assert code == 2 and not out
    assert "at position 3" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, "classify", "K0[2]", f"{HUGE}/7")
    assert code == 2 and not out and "at position 0" in err


def test_batch_survives_an_oversized_entry(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    script.write_text(
        f"classify K0[2] 1\nclassify K0[{HUGE}] 1\nslopes K0[2]\n",
        encoding="utf-8",
    )
    code = main(["batch", str(script)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2: error" in captured.err and "at position" in captured.err
    assert captured.out.count("knot:") == 2  # lines 1 and 3 still answered


SEVENS = "7" * 4000  # fits the parser; the twisted images do not fit str()


def test_oversized_answer_exits_2_naming_the_limit(capsys):
    code, out, err = run_cli(capsys, "twist", f"K0[{SEVENS}/3]", "--n", SEVENS)
    assert code == 2 and not out
    assert "4300 digits" in err and "Traceback" not in err
    code, _, err = run_cli(capsys, "classify", "K0[0]", "1")
    assert code == 3 and "not hyperbolic" in err  # DegenerateKnotError keeps 3


def test_run_raises_a_value_error_other_than_the_digit_limit(monkeypatch):
    # Only the interpreter's own error for an integer too long to write is an
    # answer that cannot be written (exit 2); any other ValueError, a subclass
    # with the same words among them, is a fault and shows as a traceback.
    class Fault(ValueError):
        pass

    def failing_with(error):
        def failing(*args):
            raise error

        return failing

    request = cli.parse(["classify", "K1[-1/2,1/3]", "7"])
    limit = "Exceeds the limit (4300 digits) for integer string conversion"
    for error in (ValueError("boom"), Fault(limit)):
        monkeypatch.setattr(cli, "_answer", failing_with(error))
        with pytest.raises(ValueError) as raised:
            cli.run(request)
        assert raised.value is error
    monkeypatch.setattr(cli, "_answer", failing_with(ValueError(limit)))
    with pytest.raises(cli.CommandError) as raised:
        cli.run(request)
    assert raised.value.code == 2 and "4300 digits" in str(raised.value)


def test_only_the_answers_that_list_a_too_long_slope_fail(capsys):
    # The pretzel surface slope of K0[1/q,1/q] has 4301 digits, q none over 4300.
    knot = "K0[1/{0},1/{0}]".format("9" * 4300)
    for args in (["slopes", knot], ["table", knot, "--range", "0..1"]):
        for fmt in ("text", "json"):
            for _ in range(2):  # a failed render keeps nothing
                code, out, err = run_cli(capsys, *args, "--format", fmt)
                assert code == 2 and not out and "4300 digits" in err, (args, fmt)
    for args in (["classify", knot, "5"], ["normalize", knot], ["predict", knot, "5"]):
        for fmt in ("text", "json"):
            for _ in range(2):
                assert run_cli(capsys, *args, "--format", fmt)[0] == 0, (args, fmt)


def test_batch_survives_an_oversized_answer(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    script.write_text(
        f"slopes K0[2]\ntwist K0[{SEVENS}/3] --n {SEVENS} --format json\n"
        "classify K0[0] 1\nnormalize K0[2]\n",
        encoding="utf-8",
    )
    code = main(["batch", str(script)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2: error" in captured.err and "4300 digits" in captured.err
    assert "line 3: error" in captured.err
    assert captured.out.count("knot:") == 2  # lines 1 and 4 still answered
    assert SEVENS not in captured.out  # no partial record of line 2


def test_batch_rejects_the_flags_it_would_ignore(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    script.write_text("slopes K0[2]\n", encoding="utf-8")
    for flags in (["--format", "json"], ["--moves"], ["--n", "1"], ["--range", "0..3"]):
        code, out, err = run_cli(capsys, "batch", str(script), *flags)
        assert code == 2 and not out
        assert flags[0] in err and "each request line" in err


def test_batch_file_that_is_not_utf8_fails_only_that_line(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    script.write_bytes(b"classify K0[2] 4\n\xff\nslopes K0[2]\n")
    code = main(["batch", str(script)])
    captured = capsys.readouterr()
    assert code == 2  # as for the same bytes on stdin
    assert "line 2: error" in captured.err and "Traceback" not in captured.err
    assert captured.out.count("knot:") == 2  # lines 1 and 3 still answered


def test_batch_on_stdin_that_is_not_utf8_fails_only_that_line():
    # PYTHONIOENCODING=utf-8 makes sys.stdin decode strictly.
    env = dict(python_env(), PYTHONIOENCODING="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "wrapsurg.cli", "batch"], env=env, capture_output=True,
        input=b"classify K0[2] 1\n\xff\nclassify K0[3] 1\n", timeout=60,
    )
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert "line 2: error" in err and "Traceback" not in err
    assert child.stdout.decode().count("knot:") == 2  # lines 1 and 3 still answered


def test_batch_lines_end_at_newlines_only(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    for end in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        for newline in ("\n", "\r\n", "\r"):
            script.write_bytes(f"classify K0[2] 1{end}{newline}bogus{newline}".encode())
            code = main(["batch", str(script)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out.count("knot:") == 1, (end, newline)
            assert captured.err == "line 2: error: unknown command 'bogus' (at position 0)\n"


class _Pieces(io.RawIOBase):
    """A raw stream that gives one of `pieces` per read, then raises `error`,
    or ends if it is None."""

    def __init__(self, pieces, error=None):
        self.pieces = list(pieces)
        self.error = error

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.pieces:
            if self.error is not None:
                raise self.error
            return 0
        piece = self.pieces.pop(0)
        if len(piece) > len(buffer):
            piece, rest = piece[:len(buffer)], piece[len(buffer):]
            self.pieces.insert(0, rest)
        buffer[:len(piece)] = piece
        return len(piece)


# Line bodies: an answered request, refused words (a two-byte character, a
# byte that is no UTF-8, a cut three-byte character), and lines skipped.
_BATCH_BODIES = [b"normalize K0[3]", b"bogus", "\u00e9".encode(), b"\xff", b"\xe2\x82",
                 b"", b"# c"]


_LINE_ENDS = [b"\n", b"\r\n", b"\r"]


@given(st.lists(st.tuples(st.sampled_from(_BATCH_BODIES), st.sampled_from(_LINE_ENDS)),
                min_size=1, max_size=8),
       st.booleans(), st.lists(st.integers(0, 80), max_size=8))
# Lines 1 and 4 end at CRLFs whose \r and \n come in two reads, line 2 at a
# CR whose next read starts with the CRLF that ends the empty line 3.
@example([(b"normalize K0[3]", b"\r\n"), (b"bogus", b"\r"), (b"", b"\r\n"), (b"# c", b"\r\n"),
          (b"bogus", b"\n")], True, [16, 23, 29])
def test_batch_lines_are_numbered_alike_for_any_reads(lines, last_ends, cuts):
    data = b"".join(body + end for body, end in lines)
    if not last_ends:
        data = data[:-len(lines[-1][1])]
    bounds = sorted({0, len(data), *(cut for cut in cuts if cut < len(data))})
    pieces = [data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BufferedReader(_Pieces(pieces)))
    try:
        code, out, err = _answer("batch")
    finally:
        sys.stdin = stdin
    # The lines of the whole input, split as by re.split: a CR ending a line
    # and an LF ending the next, empty one are one CRLF.
    texts = re.split(r"\r\n?|\n", data.decode("utf-8", "surrogateescape"))
    refused = [(n, text) for n, text in enumerate(texts, start=1)
               if text and not text.startswith(("#", "normalize"))]
    assert err == "".join(f"line {n}: error: unknown command {text!r} (at position 0)\n"
                          for n, text in refused)
    assert code == (2 if refused else 0)
    assert out == _answer("normalize", "K0[3]")[1] * texts.count("normalize K0[3]")


def test_an_error_reading_a_batch_exits_2_after_the_lines_read(monkeypatch):
    raw = _Pieces([b"normalize K0[3]\nbogus\n", b"normalize K0[3]\n"],
                  OSError(5, "Input/output error"))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(raw)))
    code, out, err = _answer("batch")
    assert code == 2 and out == _answer("normalize", "K0[3]")[1] * 2
    assert err == ("line 2: error: unknown command 'bogus' (at position 0)\n"
                   "error: cannot read batch input: [Errno 5] Input/output error\n")


# Answers a request with stdout discarded and prints the peak RSS in KB:
# VmHWM, which starts anew at exec, where ru_maxrss also counts the RSS of the
# process that forked the child.
_PEAK_RSS = """
import os, sys
from wrapsurg import cli
sys.stdout = open(os.devnull, "w")
assert cli.main({args!r}) == 0
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_a_long_batch_takes_the_memory_of_a_short_one(tmp_path):
    # Ten times the lines (5.7 MB against 0.57 MB): the input is read as it
    # is answered, so the peak does not grow with it.
    block = "".join(f"# padding line {i:014d}\n" for i in range(9)) + "normalize K0[3]\n"
    peaks = []
    for lines in (20_000, 200_000):
        path = tmp_path / f"{lines}.txt"
        path.write_text(block * (lines // 10))
        done = run_python(_PEAK_RSS.format(args=["batch", str(path)]))
        assert done.returncode == 0, done.stderr
        peaks.append(int(done.stderr))
    assert peaks[1] - peaks[0] < 3 * 1024, peaks


# The peak of a text answer of a million rows differs between versions.
@pytest.mark.version_sensitive
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM")
def test_a_million_row_table_peaks_below_its_ceiling():
    # The span is written as slices of joined row chunks, not a list of a
    # million rows: 80 MB at its peak on CPython 3.11, where a row list took
    # 120 MB.  The ceiling is that figure plus a fifth.
    done = run_python(_PEAK_RSS.format(args=["table", "K0[3]", "--range", "0..999999"]))
    assert done.returncode == 0, done.stderr
    assert int(done.stderr) < 96 * 1024, done.stderr


def _as_shlex_splits(line):
    """Exit code, stdout and stderr of `line` as one batch line, answered by
    parsing shlex.split(line)."""
    try:
        return 0, cli.run(cli.parse(shlex.split(line))) + "\n", ""
    except cli.CommandError as err:
        return err.code, "", f"line 1: error: {err}\n"


def test_batch_lines_are_trimmed_of_shlex_whitespace_only(tmp_path, capsys):
    script = tmp_path / "requests.txt"
    for space in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"):
        for line in (f"{space}classify K0[2] 1", f"classify{space}K0[2] 1",
                     f"classify K0[2] 1{space}", f" \t{space}classify K0[2] 1{space}\t "):
            script.write_bytes(line.encode() + b"\n")
            code = main(["batch", str(script)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == _as_shlex_splits(line), repr(line)


def test_text_requests_import_neither_json_nor_shlex():
    # -S: no site module, so only the package's own imports count.  Lines
    # starting "@" are the child's report; the others are the answers.
    child = run_python(
        "import io, sys\n"
        "import wrapsurg.cli\n"
        "names = ('dataclasses', 'inspect', 'json', 'json.encoder', 're', 'shlex',\n"
        "         'fractions', 'decimal', 'numbers')\n"
        "loaded = lambda: [name for name in names if name in sys.modules]\n"
        "package = lambda: sorted(name for name in sys.modules\n"
        "                         if name.partition('.')[0] == 'wrapsurg')\n"
        "print('@', loaded(), package())\n"
        "for argv in (['classify', 'K1[-1/2,1/3]', '7'],\n"
        "             ['slopes', 'K0[1/3,1/5]'], ['slopes', 'K0[3]'],\n"
        "             ['classify', 'K1[-1/2,1/3]', '7', '--format', 'json'],\n"
        "             ['classify', 'K1[1/3,-1/4]', '8', '--format', 'json'],\n"
        "             ['predict', 'K1[-1/2,1/3]', '7', '--n', '0..1']):\n"
        "    code = wrapsurg.cli.main(argv)\n"
        "    print('@', code, loaded(), package())\n"
        "for line in (b\"classify 'K1[-1/2,1/3]' 7\\n\", b'classify \"K1[-1/2,1/3]\" 7\\n'):\n"
        "    sys.stdin = io.TextIOWrapper(io.BytesIO(line))\n"
        "    code = wrapsurg.cli.main(['batch'])\n"
        "    print('@', code, loaded(), package())\n",
        "-S",
    )
    assert child.returncode == 0, child.stderr
    report = [line for line in child.stdout.splitlines() if line.startswith("@")]
    # The two slopes requests and the second JSON one read a spanning-surface
    # table, whose slope is the integer rule's.
    answers = child.stdout
    assert "exceptional 16: toroidal [pretzel-surface: slope 16]" in answers
    assert "exceptional 0: toroidal [pretzel-surface: slope 0]" in answers
    assert '"source": "pretzel-surface"' in answers
    # Every request runs these six, and none the strand tracer.
    request_path = sorted(["wrapsurg", *(f"wrapsurg.{name}" for name in (
        "classify", "cli", "slopes", "tangles", "wrapped"))])
    # A `slopes` answer loads the rows of spans and exceptional slopes, a
    # JSON answer the JSON writer and the equivalence moves it lists, and a
    # known S^3 cover `seifert`.
    with_spans = sorted([*request_path, "wrapsurg.spans"])
    with_writer = sorted([*with_spans, "wrapsurg.jsonwriter", "wrapsurg.moves"])
    with_seifert = sorted([*with_writer, "wrapsurg.seifert"])
    # The first batch loads the batch reader, which splits a printable line
    # with no " or \\ and its ' paired by str methods, loading neither `re`
    # nor `shlex`; a line with a " loads `shlex`, which imports `re`.
    with_batch = sorted([*with_seifert, "wrapsurg.batch"])
    assert report == [f"@ [] {request_path}", f"@ 0 [] {request_path}",
                      *[f"@ 0 [] {with_spans}"] * 2, *[f"@ 0 [] {with_writer}"] * 2,
                      f"@ 0 [] {with_seifert}",
                      f"@ 0 [] {with_batch}", f"@ 0 ['re', 'shlex'] {with_batch}"]


def test_spans_longer_than_the_cap_exit_2_at_once(capsys):
    for argv in (["table", "K0[3]", "--range", "0..99999999999999"],
                 ["twist", "K0[3]", "--n", "-99999999999..99999999999"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert f"more than {cli.MAX_SPAN_ROWS} rows" in err, argv
    assert cli.MAX_SPAN_ROWS == 1_000_000
    assert cli.parse(["table", "K0[3]", "--range", "0..999999"]).slope_range == (0, 999999)
    assert cli.parse(["twist", "K0[3]", "--n", "-500000..499999"]).n_range == (-500000, 499999)
    with pytest.raises(cli.CommandError, match="more than 1000000 rows"):
        cli.parse(["table", "K0[3]", "--range", "0..1000000"])


def test_batch_line_with_an_unclosed_quote_fails_only_that_line(
    tmp_path, monkeypatch, capsys
):
    lines = 'classify K0[2] 4\nclassify "K0[2] 1\nslopes K0[2]\n'
    script = tmp_path / "requests.txt"
    script.write_text(lines, encoding="utf-8")
    for argv, stdin in ((["batch", str(script)], ""), (["batch"], lines)):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert "line 2: error" in captured.err and "Traceback" not in captured.err
        assert captured.out.count("knot:") == 2  # lines 1 and 3 still answered


def test_commands_refuse_the_flags_they_would_ignore(capsys):
    refused = [
        ("--n", ["classify", "K0[2]", "1", "--n", "3", "--range", "0..2"]),
        ("--range", ["classify", "K0[2]", "1", "--range", "0..2"]),
        ("--n", ["slopes", "K0[2]", "--n", "3"]),
        ("--range", ["normalize", "K0[2]", "--range", "0..2"]),
        ("--range", ["twist", "K0[2]", "--n", "0..1", "--range", "0..3"]),
        ("--range", ["predict", "K0[2]", "1", "--range", "0..3"]),
        ("--n", ["table", "K0[2]", "--range", "0..3", "--n", "1"]),
    ]
    for flag, args in refused:
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and not out, args
        assert f"{args[0]} does not take {flag}" in err, args
    for args in (["predict", "K0[2]", "1", "--n", "0..1"], ["twist", "K0[2]", "--n", "1"]):
        assert run_cli(capsys, *args)[0] == 0, args


def test_closed_stdout_exits_1_without_a_traceback():
    batch = "slopes K0[2]\n" * 5000
    for args, stdin in ((["table", "K0[3]", "--range", "0..200000"], ""), (["batch"], batch)):
        with subprocess.Popen(
            [sys.executable, "-m", "wrapsurg.cli", *args], env=python_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        ) as child:
            child.stdin.write(stdin)
            child.stdin.close()
            assert child.stdout.readline().startswith("knot: K0["), args
            child.stdout.close()  # the reader goes away, as `| head -1` does
            err = child.stderr.read()
            assert child.wait(timeout=60) == 1, (args, err)
        assert "Traceback" not in err and "Exception" not in err, args


# How the interpreter starts with a standard stream closed differs between versions.
@pytest.mark.version_sensitive
@pytest.mark.parametrize(("args", "redirect", "code", "error", "answered"), [
    (["batch"], "<&-", 2, "error: cannot read batch input: ", False),
    (["classify", "K0[3]", "7"], ">&-", 1, "", False),
    (["batch"], ">&-", 1, "", False),
    (["classify", "K0[3", "7"], ">&-", 2, "error: bad knot expression: ", False),
    (["classify", "K0[3", "7"], "2>&-", 2, "", False),
    (["batch"], "2>&-", 2, "", True),
    (["classify", "K0[3", "7"], "2</dev/null", 2, "", False),
    (["batch"], "2</dev/null", 2, "", True),
], ids=["batch-no-stdin", "classify-no-stdout", "batch-no-stdout", "bad-knot-no-stdout",
        "bad-knot-no-stderr", "batch-no-stderr", "bad-knot-read-only-stderr",
        "batch-read-only-stderr"])
def test_a_stream_closed_at_start_up_gives_an_exit_code_not_a_traceback(args, redirect, code,
                                                                         error, answered):
    # The interpreter sets sys.stdin, sys.stdout or sys.stderr to None when
    # fd 0, 1 or 2 is closed at start-up.  Fd 2 may instead hold a file open
    # for reading only (a launcher script the shell left there), so that
    # sys.stderr is a writer whose writes fail: either way an error message
    # is dropped, and a batch goes on to its next line.
    child = subprocess.run(
        ["/bin/sh", "-c", f'exec "$0" -m wrapsurg.cli "$@" {redirect}', sys.executable, *args],
        input="classify K0[3 7\nclassify K0[3] 7\n", env=python_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert child.returncode == code, child.stderr
    assert child.stderr.startswith(error) if error else not child.stderr, child.stderr
    assert "Traceback" not in child.stderr
    assert child.stdout == (_main_out("classify", "K0[3]", "7")[1] if answered else "")


# A million-row JSON sweep, which needs several times the cap below.
_HUGE_TABLE = ["table", "K0[3]", "--range", "0..999999", "--format", "json"]
# A million rows of `twist`, and of `predict` at a slope whose S^3 rows are
# unknown, in JSON: its text answer (about 72 MB at its peak) fits under the
# cap below.
_HUGE_TWIST = ["twist", "K0[3]", "--n", "0..999999"]
_HUGE_PREDICT = ["predict", "K1[-1/2,1/3]", "5", "--n", "0..999999", "--format", "json"]
_NO_FIT = "error: the answer does not fit in memory\n"


# Allocation sizes and RLIMIT_AS behaviour differ between versions.
@pytest.mark.version_sensitive
@pytest.mark.skipif(not sys.platform.startswith("linux") or resource is None,
                    reason="caps the child's address space with RLIMIT_AS")
@pytest.mark.parametrize(("args", "stdin", "code", "error", "answered"), [
    (_HUGE_TABLE, "", 2, _NO_FIT, False),
    (["batch"], shlex.join(_HUGE_TABLE) + "\nclassify K0[3] 7\n", 2, "line 1: " + _NO_FIT, True),
    (["classify", "K0[3]", "7"], "", 0, "", True),
    (_HUGE_PREDICT, "", 2, _NO_FIT, False),
    (_HUGE_TWIST, "", 2, _NO_FIT, False),
    ([*_HUGE_TWIST, "--format", "json"], "", 2, _NO_FIT, False),
], ids=["one-shot", "batch", "small-answer", "predict-unknown-rows", "twist", "twist-json"])
def test_an_answer_past_a_memory_cap_exits_2_not_a_traceback(args, stdin, code, error,
                                                            answered):
    # Under a 100 MB address-space cap, set in the child only: the huge answer
    # fails with one error line, a batch answers its next line, and a small
    # answer (under 20 MB at its peak) is not affected.
    cap = 100 << 20
    child = subprocess.run(
        [sys.executable, "-m", "wrapsurg.cli", *args], input=stdin, env=python_env(),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (child.returncode, child.stderr) == (code, error)
    assert child.stdout == (_main_out("classify", "K0[3]", "7")[1] if answered else "")


# 0, +-1, and integers of up to about three hundred digits, well inside the
# 4300-digit text limit.
_integers = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**300, 10**300))
_denominators = st.one_of(st.just(1), st.integers(1, 10**300))
_entries = st.builds(lambda p, q: f"{p}/{q}", _integers, _denominators)
# Denominator 0 is the meridian, which is written `inf`.
_slopes = st.one_of(st.just("inf"), _entries)


def _main_out(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue()


@given(st.integers(0, 1), st.lists(_entries, min_size=1, max_size=2), _slopes)
def test_cli_renders_huge_and_tiny_integers_as_the_library_holds_them(a, entries, slope_text):
    knot_text = f"K{a}[{','.join(entries)}]"
    code, out = _main_out("classify", knot_text, slope_text, "--format", "json")
    text_code, text = _main_out("classify", knot_text, slope_text)
    assert code == text_code
    try:
        knot = parse_knot(knot_text)
    except NotAKnotError:
        assert code == 3
        return
    if analysis_of(knot).knot_class is KnotClass.DEGENERATE:
        assert code == 3
        return
    assert code == 0
    slope, nf = parse_slope(slope_text), normalize(knot.tangle)
    payload = json.loads(out)
    assert payload["input"] == {"knot": str(knot), "slope": str(slope)}
    assert payload["classification"]["slope"] == str(slope)
    assert type(payload["normal_form"]["e0"]) is int
    assert payload["normal_form"]["e0"] == nf.e0
    assert payload["normal_form"]["fracs"] == [str(f) for f in nf.fracs]
    lines = text.splitlines()
    assert lines[0] == f"knot: {knot}"
    [line] = [line for line in lines if line.startswith("classification: ")]
    assert line.startswith(f"classification: {payload['classification']['type']}")
    assert line.endswith(f" at slope {slope}")


# The characters on which a shell tokenizer can go wrong: quotes, escapes,
# shlex's whitespace and the control and Unicode spaces that are not.
_LINE_CHARS = ("'\"\\ \t\r\x00\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028\u3000"
               "#[]/-0123456789abcKinf")


def _words_or_error(split, line):
    try:
        return split(line)
    except ValueError as err:
        return str(err)


@given(st.text(st.sampled_from(_LINE_CHARS), max_size=40))
def test_split_gives_the_words_or_the_error_of_shlex(line):
    assert _words_or_error(batch._split, line) == _words_or_error(shlex.split, line)


# Printable lines, with ' and the space drawn often, most of which `_split`
# splits by str methods; each example fails one condition of that path: a
# space in quotes, an empty quoted stretch, a tab in quotes, a no-break space,
# a ", a backslash and an odd number of '.
@given(st.text(st.one_of(st.sampled_from("' "), st.characters(exclude_categories=("C", "Z"))),
               max_size=40))
@example("classify 'K0[1] 2' 1")
@example("classify '' 1")
@example("classify 'K0[1]\t2' 1")
@example("classify K0[1]\xa01")
@example('classify "K0[1] 2" 1')
@example("classify K0[1]\\ 1")
@example("classify K0[1] '7")
# Which lines are printable follows each version's Unicode database.
@pytest.mark.version_sensitive
def test_split_gives_the_words_or_the_error_of_shlex_on_printable_lines(line):
    assert _words_or_error(batch._split, line) == _words_or_error(shlex.split, line)


# Keys include non-ASCII text and lone surrogates; integers reach about 4000
# digits, inside the interpreter's text limit.
_keys = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=6)
_scalars = st.one_of(
    _keys, st.none(), st.booleans(), st.sampled_from([0, 1, -1]),
    st.integers(-(10**4000), 10**4000),
)
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=20,
)


@given(_trees)
def test_json_emitter_gives_the_text_of_indented_sorted_dumps(value):
    assert jsonwriter._json(value, "") == json.dumps(value, indent=2, sort_keys=True)


def test_json_emitter_fails_past_the_digit_limit_as_dumps_does():
    value = {"n": [10 ** sys.get_int_max_str_digits()]}
    with pytest.raises(ValueError) as ours:
        jsonwriter._json(value, "")
    with pytest.raises(ValueError) as theirs:
        json.dumps(value, indent=2, sort_keys=True)
    assert str(ours.value) == str(theirs.value)
    # No answer holds a float: the emitter refuses one with the TypeError that
    # json.dumps raises for a type it cannot write.
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        jsonwriter._json(1.5, "")


# Grid knots (entries p/q with |p|, q <= 6), the (-2, 3) pretzel and its
# mirror among them, with slopes that reach every table entry and the S^3 rows.
_GRID_ENTRIES = [f"{p}/{q}" if q > 1 else str(p)
                 for q in range(1, 7) for p in range(-6, 7) if math.gcd(p, q) == 1]
_grid_knots = st.one_of(
    st.sampled_from(["K1[-1/2,1/3]", "K1[1/2,-1/3]"]),
    st.sampled_from(["K0[-2/3]", "K0[2]", "K0[-1/3,-1/3]", "K0[5/3,-2/3]", "K1[2]", "K0[1/3]"]),
    st.builds(lambda a, entries: f"K{a}[{','.join(entries)}]",
              st.integers(0, 1), st.lists(st.sampled_from(_GRID_ENTRIES), min_size=1, max_size=2)),
)
_grid_slopes = st.one_of(st.sampled_from(["6", "7", "-6", "-7"]), st.integers(-12, 12).map(str),
                         st.sampled_from(["inf", "1/2", "-7/3"]))
_grid_spans = st.builds(lambda lo, rows: f"{lo}..{lo + rows}",
                        st.integers(-60, 60), st.integers(0, 40))


# JSON requests that fill the warm caches with other knots, twists and slopes.
_PRIMERS = [
    ["predict", "K1[-1/2,1/3]", "7", "--n", "-9..9", "--format", "json"],
    ["predict", "K1[1/2,-1/3]", "-6", "--n", "-9..9", "--format", "json"],
    ["slopes", "K0[2]", "--format", "json"],
]


def _answer(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


@given(_grid_knots, _grid_slopes, _grid_spans, _grid_spans, st.booleans(), st.booleans())
def test_json_answers_are_sorted_dumps_and_do_not_depend_on_the_warm_caches(
    knot, slope, slope_span, n_span, predict_rows, moves
):
    for primer in _PRIMERS:  # warm caches, holding other knots and twists
        _answer(*primer)
    requests, answers = [], []
    for command in sorted(set(cli.FLAGS) - {"batch"}):
        args = [command, knot]
        if command in ("classify", "predict"):
            args.append(slope)
        if command == "table":
            args += ["--range", slope_span]
        if command == "twist" or (command == "predict" and predict_rows):
            args += ["--n", n_span]
        requests.append(args + ["--format", "json"] + ["--moves"] * moves)
        answers.append(_answer(*requests[-1]))
        code, out, _ = answers[-1]
        if code == 0:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert _answer(*requests[-1]) == answers[-1]
    cli._kept_knots.clear()
    cli._asked_once.clear()
    for cached in (spans._row_chunk, spans._s3_cover,
                   importlib.import_module("wrapsurg.slopes")._slope_memo):
        cached.cache_clear()
    assert [_answer(*args) for args in requests] == answers


@given(_grid_knots, st.data())
def test_every_table_row_is_the_type_classify_gives(knot, data):
    # Spans start at, end at, straddle or miss an exceptional slope; one-row
    # spans and spans of several row chunks among them.
    try:
        analysis = analysis_of(parse_knot(knot))
    except NotAKnotError:
        analysis = None
    if analysis is None or analysis.knot_class is KnotClass.DEGENERATE:
        assert _answer("table", knot, "--range", "0..3")[0] == 3
        return
    exceptional = [r.p for r, _ in analysis.exceptional_slopes()] or [0]
    lo = data.draw(st.sampled_from(exceptional)) + data.draw(st.integers(-12, 3))
    # Some spans reach past the row chunk that starts at 0 or ends at -1.
    hi = lo + data.draw(st.one_of(st.integers(0, 15), st.integers(250, 520)))
    span = f"{lo}..{hi}"
    expected = [(r, analysis.classify(make_slope(r, 1)).type.value) for r in range(lo, hi + 1)]
    code, out, _ = _answer("table", knot, "--range", span)
    assert code == 0
    rows = [line[4:].split(": ") for line in out.splitlines() if line.startswith("  r=")]
    assert [(int(r), kind) for r, kind in rows] == expected
    code, out, _ = _answer("table", knot, "--range", span, "--format", "json")
    assert code == 0
    rows = json.loads(out)["sweep"]
    assert [(int(row["slope"]), row["type"]) for row in rows] == expected


# The four templates whose rows `span_rows` slices from cached chunks, each
# with its separator and the template of the rows written over them, and spans
# about chunk edges (each _HALF_CHUNK short of a multiple of _CHUNK_ROWS), 0,
# the edges of the keep-window and integers of up to 300 digits.
_ROW_TEMPLATES = [
    (cli._HYPERBOLIC_LINE, "\n", cli._SWEEP_LINE),
    (cli._UNKNOWN_LINE, "\n", cli._SURGERY_LINE),
    (jsonwriter._HYPERBOLIC_ROW, jsonwriter._SEP, jsonwriter._SWEEP_ROW),
    (jsonwriter._NULL_ROW, jsonwriter._SEP, jsonwriter._SURGERY_ROW),
]
_span_anchors = st.one_of(
    st.integers(-8, 8).map(lambda k: k * spans._CHUNK_ROWS - spans._HALF_CHUNK),
    st.integers(-8, 8).map(lambda k: k * spans._CHUNK_ROWS),
    st.sampled_from([_WINDOW, -_WINDOW]),
    st.integers(-(10**300), 10**300),
)


@given(st.sampled_from(_ROW_TEMPLATES), _span_anchors, st.integers(-600, 300),
       st.integers(0, 700), st.data())
def test_chunked_rows_are_the_rows_written_one_by_one(templates, anchor, offset, rows, data):
    template, sep, written = templates
    lo = anchor + offset
    hi = lo + rows
    # Rows written over the span's rows: at its ends, just outside them, at
    # the first chunk edges inside it, and anywhere about it.
    edge = lo - (lo + spans._HALF_CHUNK) % spans._CHUNK_ROWS + spans._CHUNK_ROWS
    places = [lo, lo - 1, hi, hi + 1, edge - 1, edge, edge + spans._CHUNK_ROWS - 1,
              edge + spans._CHUNK_ROWS]
    over = data.draw(st.sets(st.sampled_from(places) | st.integers(lo - 3, hi + 3), max_size=4))
    exceptional = tuple((r, written % (r, "toroidal")) for r in sorted(over))
    expected = [template % r for r in range(lo, hi + 1)]
    for r, row in exceptional:
        if lo <= r <= hi:
            expected[r - lo] = row
    assert spans.span_rows(template, sep, (lo, hi), exceptional) == sep.join(expected)


def test_a_table_at_the_digit_limit_writes_only_its_own_rows():
    # Its three slopes have 4300 digits, the most an integer written as text
    # may have; the chunk holding them also holds -10**4300, which has 4301.
    lo, hi = -(10**4300 - 1), -(10**4300 - 3)
    span = f"{lo}..{hi}"
    code, text, err = _answer("table", "K0[3]", "--range", span)
    assert (code, err) == (0, "")
    _, small, _ = _answer("table", "K0[3]", "--range", "100..100")
    assert text == small.replace("  r=100: hyperbolic\n", "".join(
        f"  r={r}: hyperbolic\n" for r in range(lo, hi + 1)))
    code, out, err = _answer("table", "K0[3]", "--range", span, "--format", "json")
    assert (code, err) == (0, "")
    expected = json.loads(_answer("table", "K0[3]", "--range", "100..100", "--format", "json")[1])
    expected["input"]["range"] = [lo, hi]
    expected["sweep"] = [{"slope": str(r), "type": "hyperbolic"} for r in range(lo, hi + 1)]
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_long_knot_texts_are_analysed_per_request_and_not_kept():
    # 200 distinct knots K0[1/N,1/N] with a 4000-digit N.  Were they kept,
    # each would retain about 24 KB, 4.7 MB for the 200.
    texts = ["K0[1/{0},1/{0}]".format(10**3999 + 2 * i + 1) for i in range(200)]
    assert all(len(text) > cli._KNOT_TEXT_LENGTH for text in texts)
    assert _answer("classify", "K0[3]", "7")[0] == 0
    kept, asked = len(cli._kept_knots), set(cli._asked_once)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for text in texts:
            code, out, _ = _answer("classify", text, "7")
            assert code == 0 and out.startswith(f"knot: {text}\n")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cli._kept_knots) == kept and cli._asked_once == asked
    assert retained < 256 * 1024, retained


# The functions of the JSON writer that build JSON, which a text request, cold or
# warm, never calls (it never imports the writer); the row chunks both writers
# slice are not among them.
_JSON_BUILDERS = ("_normal_form_json", "_classification_json", "_prediction_json",
                  "_exceptional_json", "_fragments", "_rows", "_json")
# Of those, the ones a warm JSON answer other than `twist` never calls: it is
# assembled from the knot's pieces and %-templates, and builds no dict.
_KNOT_BUILDERS = tuple(name for name in _JSON_BUILDERS if name != "_rows")


# A request is warm from its third on: the first drops its knot, the second keeps it.
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_warm_request_parses_analyses_and_writes_out_no_knot(monkeypatch, fmt):
    wrapped = importlib.import_module("wrapsurg.wrapped")
    classify = importlib.import_module("wrapsurg.classify")
    # Texts other than the knots' own, which the answers show as "K1[-1/2,1/3]"
    # and "K0[1/3]"; the degenerate one is refused by all but `normalize`.
    for knot, own, refused in [("K1[ -2/4, 1/3 ]", "K1[-1/2,1/3]", False),
                               ("K0[ 2/6 ]", "K0[1/3]", True)]:
        requests = [["classify", knot, "7"], ["classify", knot, "-5/3"], ["slopes", knot],
                    ["normalize", knot], ["twist", knot, "--n", "-1..1"],
                    ["predict", knot, "6", "--n", "-2..2"], ["table", knot, "--range", "-2..9"]]
        for args in requests:
            args = [*args, "--format", fmt, "--moves"]
            built = {}
            if fmt == "text":
                for name in _JSON_BUILDERS:
                    count_calls(monkeypatch, built, jsonwriter, name)
                # As in a fresh process: the writer is not loaded.
                monkeypatch.setattr(cli, "_json_answer", None)
                monkeypatch.delitem(sys.modules, "wrapsurg.jsonwriter")
                monkeypatch.delattr(wrapsurg, "jsonwriter")
            first = _answer(*args)
            assert _answer(*args) == first  # the second request keeps the knot
            calls = {}
            count_calls(monkeypatch, calls, wrapped, "parse_knot")
            count_calls(monkeypatch, calls, classify, "analysis_of")
            count_calls(monkeypatch, calls, wrapped.WrappedKnot, "__str__")
            if fmt == "json" and args[0] != "twist":
                for name in _KNOT_BUILDERS:
                    count_calls(monkeypatch, calls, jsonwriter, name)
            if fmt == "text" and args[0] in ("slopes", "table"):
                # The knot's exceptional lines and sweep rows are kept with it.
                count_calls(monkeypatch, calls, classify.SurgeryClassification, "__str__")
            again = _answer(*args)
            imported = "wrapsurg.jsonwriter" in sys.modules
            monkeypatch.undo()
            assert again == first
            if refused and args[0] != "normalize":
                assert first == (3, "", f"error: {own} reduces to a trivial wrapped "
                                         "pattern and is not hyperbolic\n")
            else:
                shown = f'"knot": "{own}"' if fmt == "json" else f"knot: {own}"
                assert first[0] == 0 and shown in first[1]
            assert calls == {}, args
            assert built == {}, args  # text is written from the records
            assert imported == (fmt == "json"), args  # text never loads the writer


def test_a_kept_knots_json_pieces_are_rendered_on_first_use(monkeypatch):
    # K1[-1/2,1/3] has the table slopes 6, 7 and 8.  The first JSON answer for
    # a knot renders only the pieces every answer shows, of which the hyperbolic
    # template is a classification; each piece of the table, and the meridian's
    # classification, is rendered by the first answer that shows it and kept.
    knot = "K1[-1/2,1/3]"
    one = {"_classification_json": 1}
    steps = [(["normalize"], one),  # the first request drops its knot
             (["normalize"], one),
             (["classify", "6"], {**one, "_prediction_json": 1}),
             (["classify", "6"], {}),
             (["predict", "7"], {**one, "_prediction_json": 1}),
             (["classify", "5"], {}),  # hyperbolic: the template
             (["classify", "inf"], one),  # the meridian has no family
             (["classify", "inf"], {}),
             (["slopes"], {"_exceptional_json": 1, "_classification_json": 3}),
             (["slopes"], {}),
             (["table", "--range", "0..9"], {})]
    cli._kept_knots.clear()
    cli._asked_once.clear()
    for args, expected in steps:
        calls = {}
        for name in ("_classification_json", "_prediction_json", "_exceptional_json"):
            count_calls(monkeypatch, calls, jsonwriter, name)
        code, out, err = _answer(args[0], knot, *args[1:], "--format", "json")
        monkeypatch.undo()
        assert (code, err) == (0, "") and json.loads(out)["input"]["knot"] == knot
        assert calls == expected, args
    # The table's slopes and the meridian, at most: no hyperbolic slope is kept.
    pieces = cli._kept_knots[knot].json
    assert set(pieces[4]) == {make_slope(6, 1), make_slope(7, 1), parse_slope("inf")}


def test_a_failed_render_keeps_nothing(monkeypatch):
    # A kept knot whose table holds an integer too long to write: each
    # `slopes` answer fails and keeps no piece, in either format, and the
    # answers that do not show that integer still succeed.
    knot = "K0[1/{0},1/{0}]".format("9" * 4300)
    monkeypatch.setattr(cli, "_KNOT_TEXT_LENGTH", len(knot))
    cli._kept_knots.clear()
    cli._asked_once.clear()
    for fmt in ("text", "json", "text", "json"):
        code, out, err = _answer("slopes", knot, "--format", fmt)
        assert code == 2 and not out and "4300 digits" in err
        assert _answer("classify", knot, "5", "--format", fmt)[0] == 0
    kept = cli._kept_knots[knot]
    assert kept.slopes is None and kept.json[3] is None and kept.json[4] == {}


def test_a_cold_request_hashes_no_slope(monkeypatch):
    # K0[13/19,-1/7] is generic: it has no table, so neither `classify` nor
    # `predict` looks its slope up.  The slopes written are the knot's entries,
    # 13/19 and -1/7, for its line; its normal form's fractions, 13/19 and
    # 6/7; and the slope 5.
    slopes = importlib.import_module("wrapsurg.slopes")
    cli._kept_knots.clear()
    cli._asked_once.clear()
    slopes._slope_memo.cache_clear()
    written, calls = [], {}
    write = slopes.Slope.__str__

    def writing(slope):
        written.append(slope)
        return write(slope)

    monkeypatch.setattr(slopes.Slope, "__str__", writing)
    count_calls(monkeypatch, calls, slopes.Slope, "__hash__")
    code, out, err = _answer("classify", "K0[13/19,-1/7]", "5")
    monkeypatch.undo()
    assert (code, err) == (0, "") and out.startswith("knot: K0[13/19,-1/7]\n")
    knot = parse_knot("K0[13/19,-1/7]")
    assert written == [*knot.tangle.entries, *analysis_of(knot).nf.fracs, make_slope(5, 1)]
    assert calls == {}


# Entry texts a slope may be written as: its own text, or with whitespace
# around it or the "/", leading zeros (past 64 characters among them), -0,
# a common factor or p/1.
_ENTRY_SPACES = st.sampled_from(["", "", "", " ", "\t", "\x85", "　", " \xa0"])


@st.composite
def _entry_texts(draw):
    p, q, factor = draw(st.integers(-12, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    zeros = draw(st.sampled_from(["", "", "", "0", "0" * 70]))
    sign = "-" if p < 0 or (p == 0 and draw(st.booleans())) else ""
    number, denominator = sign + zeros + str(abs(p) * factor), str(q * factor)
    if denominator == "1" and draw(st.booleans()):
        body = number
    else:
        body = f"{number}{draw(_ENTRY_SPACES)}/{draw(_ENTRY_SPACES)}{denominator}"
    return draw(_ENTRY_SPACES) + body + draw(_ENTRY_SPACES)


_knot_texts = st.builds(lambda before, a, entries, after: f"{before}K{a}[{','.join(entries)}]{after}",
                        _ENTRY_SPACES, st.integers(0, 1),
                        st.lists(_entry_texts(), min_size=1, max_size=3), _ENTRY_SPACES)


@given(_knot_texts)
@example("K0[13/19,-1/7]")
@example("K0[2/4,1/3]")
@example("K0[3/1]")
@example("K0[-0,1/3]")
@example("K0[007]")
@example("K0[1/3 ,1/3]")
@example("K0[1 /3,1/3]")
@example(" K0[1/3,1/3]")
@example(f"K0[{'0' * 70}1/3,1/3]")
# Which characters are whitespace (str.strip) and digits (str.isdigit)
# follows each version's Unicode database.
@pytest.mark.version_sensitive
def test_a_knot_is_written_as_its_own_text_however_it_was_asked_for(text):
    try:
        own = str(parse_knot(text))
    except NotAKnotError:
        return
    for fmt in ("text", "json"):
        cli._kept_knots.clear()
        cli._asked_once.clear()
        answers = [_answer("normalize", text, "--format", fmt) for _ in range(3)]
        for code, out, err in answers[::2]:  # cold, and warm from the kept knot
            assert (code, err) == (0, "")
            shown = json.loads(out)["input"]["knot"] if fmt == "json" else out.split("\n")[0]
            assert shown == (own if fmt == "json" else f"knot: {own}")


def test_a_text_asked_for_once_is_not_kept():
    cli._kept_knots.clear()
    cli._asked_once.clear()
    bound = cli._KNOT_CACHE_SIZE
    for i in range(bound + 100):
        cli._knot(f"K0[{i}]")
        assert len(cli._asked_once) <= bound
    assert not cli._kept_knots
    assert cli._asked_once == {f"K0[{i}]" for i in range(bound, bound + 100)}  # cleared when full


def test_a_text_asked_for_twice_is_kept(monkeypatch):
    wrapped = importlib.import_module("wrapsurg.wrapped")
    classify = importlib.import_module("wrapsurg.classify")
    cli._kept_knots.clear()
    cli._asked_once.clear()
    args = ("classify", "K1[ -2/4, 1/3 ]", "7")
    first = _answer(*args)
    assert not cli._kept_knots and cli._asked_once == {args[1]}
    assert _answer(*args) == first
    assert list(cli._kept_knots) == [args[1]] and not cli._asked_once
    calls = {}
    count_calls(monkeypatch, calls, wrapped, "parse_knot")
    count_calls(monkeypatch, calls, classify, "analysis_of")
    count_calls(monkeypatch, calls, wrapped.WrappedKnot, "__str__")
    third = _answer(*args)
    monkeypatch.undo()
    assert third == first and calls == {}


def test_the_kept_knots_drop_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(cli, "_KNOT_CACHE_SIZE", 2)
    cli._kept_knots.clear()
    cli._asked_once.clear()
    for knot in ("K0[3]", "K0[5]"):
        for _ in range(2):
            assert _answer("normalize", knot)[0] == 0
    assert list(cli._kept_knots) == ["K0[3]", "K0[5]"]
    assert _answer("normalize", "K0[3]")[0] == 0  # K0[5] is now the least recently used
    for _ in range(2):
        assert _answer("normalize", "K0[7]")[0] == 0
    assert list(cli._kept_knots) == ["K0[3]", "K0[7]"]


# One request per grid candidate (links included), the commands taking turns.
_GRID_REQUESTS = ["classify {} 7", "slopes {} --format json", "predict {} -6 --n -2..2",
                  "table {} --range -3..9 --moves", "normalize {} --format json",
                  "twist {} --n 0..1", "classify {} 1/2 --format json"]


def test_a_batch_reparsed_from_the_warm_slope_memo_writes_the_same_bytes(tmp_path):
    slopes = importlib.import_module("wrapsurg.slopes")
    knots = [f"K{a}[{','.join(entries)}]" for a in (0, 1) for e1 in _GRID_ENTRIES
             for entries in [(e1,)] + [(e1, e2) for e2 in _GRID_ENTRIES]]
    assert len(knots) == 4512
    path = tmp_path / "grid.txt"
    path.write_text("".join(_GRID_REQUESTS[i % len(_GRID_REQUESTS)].format(knot) + "\n"
                            for i, knot in enumerate(knots)))
    cli._kept_knots.clear()
    cli._asked_once.clear()
    batch._kept_answers.clear()
    slopes._slope_memo.cache_clear()
    first = _answer("batch", str(path))
    # The second run finds no knot or answer kept and parses every line anew,
    # each entry and request slope from the memo.
    cli._kept_knots.clear()
    cli._asked_once.clear()
    assert not batch._kept_answers  # each knot was asked for once
    warm = slopes._slope_memo.cache_info()
    second = _answer("batch", str(path))
    after = slopes._slope_memo.cache_info()
    assert second == first
    assert first[0] == 3 and "knot: K1[" in first[1] and "closes to a link" in first[2]
    assert after.misses == warm.misses
    assert after.hits - warm.hits >= sum(knot.count(",") + 1 for knot in knots)


# Hostile words: grid and garbage knots, slopes and spans of at most 100 rows,
# integers of 4000 to 5000 digits (past 4300, int() cannot read them), the
# meridian written every way, and words of any characters, control characters
# among them, but no "." (so none of them is a span of a million rows).
FIVES = "5" * 5000
NINES = "9" * 4300
_DIGITS = st.sampled_from(["3", SEVENS, "-" + SEVENS, NINES, FIVES])
# Valid values come first and twice, so that most requests get past parsing.
_hostile_knots = st.one_of(
    _grid_knots, _grid_knots,
    st.sampled_from([
        "", "K0[", "K0[]", "K2[1]", "k0[2]", "K0[2", "K1[-1/2,1/3]]", "K0[,]", "K0[1,,2]",
        "K0[inf]", "K0[1/0]", "K0[0/0]", "K1[-1/0,1/3]", "K0[\x00]", "K0[2]\x1b", "K0[１]",
    ]),
    st.builds("K{}[{}/{}]".format, st.integers(0, 1), _DIGITS, _DIGITS),
    st.builds("K{0}[1/{1},1/{1}]".format, st.integers(0, 1), _DIGITS),
)
_hostile_slopes = st.one_of(
    _grid_slopes, _grid_slopes,
    st.sampled_from(["inf", "1/0", "0/0", "-1/0", "-0", "1/-2", "+1", "1e3", "٣", "", " "]),
    st.builds("{}/{}".format, _DIGITS, _DIGITS),
    _DIGITS,
)
_hostile_spans = st.one_of(
    _grid_spans,
    st.builds(lambda lo, rows: f"{lo}..{lo + rows}",
              st.one_of(st.integers(-100, 100), st.sampled_from([10**40, -(10**3999)])),
              st.integers(0, 100)),
    st.sampled_from(["3..1", "..", "1..", "..2", "1...2", f"0..{FIVES}", "0..99999999999999",
                     "1.5..2", "0..1\x00"]),
    _DIGITS,
)
_hostile_words = st.one_of(
    st.sampled_from(sorted(cli.FLAGS) + ["--format", "text", "json", "yaml", "--moves", "--n",
                                         "--range", "--", "-", "--help"]),
    _hostile_knots, _hostile_slopes, _hostile_spans,
    st.text(st.characters(blacklist_characters="."), max_size=8),
)
_flag_groups = st.one_of(
    st.tuples(st.sampled_from(["--n", "--range"]), _hostile_spans),
    st.tuples(st.just("--format"), st.sampled_from(["text", "json", "json", "yaml"])),
    st.just(("--moves",)),
)


def _request(command, knot, slope, span, flags):
    """The words of a request with the arguments its command needs, then `flags`."""
    words = [command, knot]
    if command in ("classify", "predict"):
        words.append(slope)
    if command in ("table", "twist"):
        words += ["--range" if command == "table" else "--n", span]
    return words + [word for group in flags for word in group]


# A request of each command with hostile arguments, or any words at all.
_hostile_argv = st.one_of(
    st.builds(_request, st.sampled_from(sorted(set(cli.FLAGS) - {"batch"})), _hostile_knots,
              _hostile_slopes, _hostile_spans, st.lists(_flag_groups, max_size=2)),
    st.lists(_hostile_words, max_size=7),
)
# Batch input: request lines, lines with an unclosed quote or a trailing
# escape, and raw bytes, which need not be UTF-8.
_hostile_batch = st.lists(
    st.one_of(
        _hostile_argv.map(lambda words: " ".join(words).encode("utf-8", "surrogatepass")),
        st.sampled_from([b"classify 'K0[2] 1", b'classify "K0[2] 1', b"classify K0[2] 1 \\",
                         b"batch", b"# a comment", b"", b"slopes K0[2]\xff", b"\xc3"]),
        st.binary(max_size=12),
    ),
    max_size=8,
).map(b"\n".join)


@given(_hostile_argv, _hostile_batch)
# Answers with an integer past 4300 digits, which cannot be written as text.
@example(["twist", f"K0[{SEVENS}/3]", "--n", SEVENS, "--format", "json"], b"")
@example(["slopes", f"K0[1/{NINES},1/{NINES}]"],
         f"table K0[1/{NINES},1/{NINES}] --range 0..1".encode())
def test_hostile_input_exits_0_2_or_3_without_an_exception(argv, batch):
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(batch))  # what `batch` reads without a file
    try:
        for args in (argv, ["batch"]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(args)
            assert code in (0, 2, 3), args
    finally:
        sys.stdin = stdin
