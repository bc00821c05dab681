import json
import random

from wrapsurg import make_slope, parse_knot, parse_slope
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
