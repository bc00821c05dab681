import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given
from hypothesis import strategies as st

from conftest import python_env
from wrapsurg import (
    KnotClass,
    NotAKnotError,
    analysis_of,
    make_slope,
    normalize,
    parse_knot,
    parse_slope,
)
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


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "K1[-1/2,1/3x]", "7")
    assert code == 2
    assert "position" in err
    code, _, _ = run_cli(capsys, "classify", "K1[-1/2,1/3]")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate", "K0[2]")
    assert code == 2
    code, _, _ = run_cli(capsys, "classify", "K0[inf]", "1")
    assert code == 2


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


def test_batch_line_with_an_unclosed_quote_fails_only_that_line(
    tmp_path, monkeypatch, capsys
):
    lines = 'classify K0[2] 4\nclassify "K0[2] 1\nslopes K0[2]\n'
    script = tmp_path / "requests.txt"
    script.write_text(lines, encoding="utf-8")
    for argv, stdin in ((["batch", str(script)], ""), (["batch"], lines)):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
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
