import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wrapsurg import (
    MERIDIAN,
    InfinityInputError,
    MontesinosTangle,
    ParseError,
    Slope,
    ZeroZeroError,
    distance,
    evaluate_continued_fraction,
    expand,
    make_slope,
    parse_knot,
    parse_slope,
    parse_tangle,
)
from wrapsurg import slopes
from wrapsurg.cli import CommandError, main
from wrapsurg.request import _parse_span
from wrapsurg.slopes import _read_slope, split_integer_parts


def test_make_slope_normalizes():
    assert make_slope(4, 2) == make_slope(2, 1)
    assert make_slope(-3, -1) == make_slope(3, 1)
    assert make_slope(1, 0) == MERIDIAN
    assert make_slope(-5, 0) == MERIDIAN
    assert make_slope(0, 7) == make_slope(0, 1)


def test_make_slope_rejects_zero_zero():
    with pytest.raises(ZeroZeroError):
        make_slope(0, 0)


def test_make_slope_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        s = make_slope(rng.randint(-99, 99), rng.randint(-99, 99) or 1)
        assert make_slope(s.p, s.q) == s


def test_distance_examples():
    assert distance(make_slope(7, 1), MERIDIAN) == 1
    assert distance(make_slope(37, 2), MERIDIAN) == 2
    r = make_slope(5, 3)
    assert distance(r, r) == 0


def test_distance_symmetric_and_separating():
    rng = random.Random(11)
    for _ in range(300):
        r = make_slope(rng.randint(-30, 30) or 1, rng.randint(0, 9))
        s = make_slope(rng.randint(-30, 30) or 1, rng.randint(0, 9))
        assert distance(r, s) == distance(s, r)
        assert (distance(r, s) == 0) == (r == s)


def test_integrality_predicates():
    assert make_slope(8, 1).is_integral()
    assert not MERIDIAN.is_integral()


def test_evaluate_nested_fraction_values():
    # -1/(3 - 1/4) rewrites as 1/(-3 + 1/4).
    assert evaluate_continued_fraction([0, -3, 4]) == make_slope(-4, 11)
    assert evaluate_continued_fraction([0, 3, 2]) == make_slope(2, 7)
    assert evaluate_continued_fraction([18, 2]) == make_slope(37, 2)
    assert evaluate_continued_fraction([2]) == make_slope(2, 1)


def test_evaluate_handles_intermediate_infinity():
    # 1/(1 + 1/(0 + 1/0)) = 1/(1 + 0) -- the inner 1/0 collapses exactly.
    assert evaluate_continued_fraction([0, 1, 0, 0]) == make_slope(1, 1)
    with pytest.raises(ValueError):
        evaluate_continued_fraction([])


def test_expand_canonical_shape():
    assert expand(make_slope(37, 2)) == [18, 2]
    assert expand(make_slope(-4, 11)) == [-1, 1, 1, 1, 3]
    for terms in [expand(make_slope(p, q)) for p, q in [(3, 5), (-7, 3), (9, 1)]]:
        assert all(t >= 1 for t in terms[1:])
        if len(terms) > 1:
            assert terms[-1] >= 2


def test_expand_rejects_meridian():
    with pytest.raises(InfinityInputError):
        expand(MERIDIAN)


def test_expand_evaluate_round_trip_exhaustive():
    for p in range(-50, 51):
        for q in range(1, 51):
            s = make_slope(p, q)
            assert evaluate_continued_fraction(expand(s)) == s


def test_parse_and_format_round_trip():
    for text in ["7", "-3", "37/2", "-4/11", "inf", "0"]:
        assert str(parse_slope(text)) == text
    assert parse_slope("4/2") == make_slope(2, 1)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_slope("")
    with pytest.raises(ParseError):
        parse_slope("3/-2")
    err = None
    try:
        parse_slope("x7")
    except ParseError as caught:
        err = caught
    assert err is not None and err.position == 0


def test_parse_error_positions_count_the_stripped_whitespace(capsys):
    cases = [
        (parse_knot, "  K0[x]"), (parse_knot, "K0[  x]"), (parse_knot, "K0[1, x]"),
        (parse_tangle, "[1/2, 1/ x]"), (parse_slope, " x"),
    ]
    for parse, text in cases:
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert text[caught.value.position] == "x", text
    assert main(["classify", "  K0[x]", "1"]) == 2
    assert capsys.readouterr().err.endswith("(at position 5)\n")


# Each `ParseError` of the tangle and knot parsers, as (parser, text, message,
# position): the bracket checks, an empty list, a blank entry, the meridian
# written `inf` or with a zero denominator, and whitespace around the whole
# text and around an entry, which positions count.
_TANGLE_AND_KNOT_ERRORS = [
    (parse_tangle, "1/2]", "tangle syntax is [t1,...,tk]", 0),
    (parse_tangle, "[1/2", "tangle syntax is [t1,...,tk]", 0),
    (parse_tangle, "  1/2]  ", "tangle syntax is [t1,...,tk]", 2),
    (parse_tangle, "M[1]", "tangle syntax is [t1,...,tk]", 0),
    (parse_tangle, "[]", "tangle needs at least one entry", 1),
    (parse_tangle, "[ \t]", "tangle needs at least one entry", 1),
    (parse_tangle, "  [ ]  ", "tangle needs at least one entry", 3),
    (parse_tangle, "[1/2,,3]", "empty slope", 5),
    (parse_tangle, "[1/2, ]", "empty slope", 6),
    (parse_tangle, "[inf]", "1/0 is not a rational tangle entry", 1),
    (parse_tangle, "[1/0]", "1/0 is not a rational tangle entry", 1),
    (parse_tangle, "[-3/0]", "1/0 is not a rational tangle entry", 1),
    (parse_tangle, "[1/2, inf]", "1/0 is not a rational tangle entry", 6),
    (parse_tangle, "\t[1/2,inf]", "1/0 is not a rational tangle entry", 6),
    (parse_tangle, "  [1,  1/0 ]  ", "1/0 is not a rational tangle entry", 7),
    (parse_tangle, "[ x]", "expected an integer, got 'x'", 2),
    (parse_knot, "K01/2]", "knot syntax is K0[...] or K1[...]", 0),
    (parse_knot, "K2[1]", "knot syntax is K0[...] or K1[...]", 0),
    (parse_knot, "K0[1/2", "tangle syntax is [t1,...,tk]", 2),
    (parse_knot, "K0[]", "tangle needs at least one entry", 3),
    (parse_knot, "  K0[ ]", "tangle needs at least one entry", 5),
    (parse_knot, "K1[1,,2]", "empty slope", 5),
    (parse_knot, "K1[1/2,1/3,]", "empty slope", 11),
    (parse_knot, "K0[inf]", "1/0 is not a rational tangle entry", 3),
    (parse_knot, "K0[1/0]", "1/0 is not a rational tangle entry", 3),
    (parse_knot, "  K1[1/3, inf ]", "1/0 is not a rational tangle entry", 10),
    (parse_knot, " K0[ 2,  5/0]", "1/0 is not a rational tangle entry", 9),
]


@pytest.mark.parametrize(("parse", "text", "message", "position"), _TANGLE_AND_KNOT_ERRORS)
def test_tangle_and_knot_parse_errors(parse, text, message, position):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == f"{message} (at position {position})"
    assert caught.value.position == position


def test_slopes_order_only_against_slopes():
    # Like +, < returns NotImplemented for a non-Slope, so Python raises TypeError;
    # + takes integers only.
    for compare in (lambda: Slope(1, 2) < 3, lambda: 3 > Slope(1, 2), lambda: Slope(1, 2) < 0.5,
                    lambda: Slope(1, 2) + 0.5):
        with pytest.raises(TypeError):
            compare()
    assert not MERIDIAN < Slope(3, 1)
    for slopes in ([MERIDIAN, make_slope(1, 2), make_slope(-3, 1)],
                   [make_slope(1, 2), MERIDIAN, make_slope(-3, 1)]):
        assert sorted(slopes) == [make_slope(-3, 1), make_slope(1, 2), MERIDIAN]


def test_oversized_integer_is_a_parse_error():
    # More digits than int() converts from text must not escape as ValueError.
    with pytest.raises(ParseError) as caught:
        parse_slope("5/" + "1" * 4400, 10)
    assert caught.value.position == 12


def test_split_integer_parts_keeps_nonzero_fractional_parts_in_order():
    pairs = [(-1, 2), (3, 1), (7, 3), (0, 1), (-5, 2), (-10**40 - 1, 10**40), (2, 5)]
    entries = [make_slope(p, q) for p, q in pairs]
    e, parts = split_integer_parts(entries)
    assert e == -1 + 3 + 2 + 0 - 3 - 2 + 0
    assert [(s.p, s.q) for s in parts] == [(1, 2), (1, 3), (1, 2), (10**40 - 1, 10**40), (2, 5)]
    assert parts[-1] is entries[-1]  # already in (0, 1)
    assert e + sum(Fraction(s.p, s.q) for s in parts) == sum(Fraction(s.p, s.q) for s in entries)
    assert split_integer_parts([]) == (0, [])


# Slope texts, valid or not: integers and fractions of any sign, `-0`, `inf`,
# zero denominators, junk, and integers of 4300 digits (the most int() reads
# from text) and 4301, wrapped in ASCII and Unicode whitespace.
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"), max_size=3)
_INTEGERS = st.one_of(st.integers(-10**6, 10**6).map(str), st.sampled_from(["-0", "00", "+1"]),
                      st.sampled_from(["9" * 4300, "-" + "9" * 4300, "1" * 4301, "-" + "1" * 4301]))
_CORES = st.one_of(
    _INTEGERS,
    st.builds("{}/{}".format, _INTEGERS, _INTEGERS),
    st.builds("{}/{}".format, _INTEGERS, st.sampled_from(["0", "-0", "00", " 0"])),
    st.sampled_from(["inf", "-inf", "in f", "", "/", "1/", "/2", "1/2/3", "x7", "1_0", "٣"]),
    st.text(st.sampled_from("0123456789-/ inf"), max_size=8),
)
_SLOPE_TEXTS = st.builds("{}{}{}".format, _SPACE, _CORES, _SPACE)
_NOT_AN_ENTRY = "1/0 is not a rational tangle entry"
_MERIDIAN_MESSAGES = st.sampled_from([None, _NOT_AN_ENTRY])


def _outcome(read, text, offset, meridian):
    try:
        return "slope", read(text, offset, meridian)
    except ParseError as err:
        return "error", str(err), err.position


@given(_SLOPE_TEXTS, st.integers(0, 99), st.integers(0, 99), _MERIDIAN_MESSAGES)
def test_the_slope_memo_answers_as_the_uncached_reader(text, offset, other_offset, meridian):
    slopes._slope_memo.cache_clear()
    expected = _outcome(_read_slope, text, offset, meridian)
    assert _outcome(parse_slope, text, offset, meridian) == expected  # a miss
    if expected[0] == "error":
        assert slopes._slope_memo.cache_info().currsize == 0  # failures are not kept
    assert _outcome(parse_slope, text, offset, meridian) == expected  # a hit, if it parsed
    # The same text at another offset, and under the other meridian rule.
    assert (_outcome(parse_slope, text, other_offset, meridian)
            == _outcome(_read_slope, text, other_offset, meridian))
    other = None if meridian else _NOT_AN_ENTRY
    assert _outcome(parse_slope, text, offset, other) == _outcome(_read_slope, text, offset, other)


@given(st.lists(_SLOPE_TEXTS, min_size=1, max_size=5), _SPACE, _SPACE, st.integers(0, 99))
@example(["1/2", " -3 ", "9" * 4300], "", "", 0)
@example(["1/2", "1" * 4301, "x7"], " ", "", 5)
@example(["9" * 4300, "inf", "1/0"], "", "\t", 0)
def test_a_tangle_is_its_entries_each_read_at_its_own_position(entries, lead, trail, offset):
    # Entry texts of at most 64 characters and longer ones, valid or not.
    inner = ",".join(entries)
    position = offset + len(lead) + 1  # of the first entry
    expected = []
    try:
        if not inner.strip():
            raise ParseError("tangle needs at least one entry", position)
        for entry in entries:
            expected.append(parse_slope(entry, position, _NOT_AN_ENTRY))
            position += len(entry) + 1
    except ParseError as err:
        with pytest.raises(ParseError) as caught:
            parse_tangle(f"{lead}[{inner}]{trail}", offset)
        assert (str(caught.value), caught.value.position) == (str(err), err.position)
    else:
        assert parse_tangle(f"{lead}[{inner}]{trail}", offset) == MontesinosTangle(expected)


# Integer texts: ASCII and Unicode digits, ASCII and Unicode whitespace, signs,
# separators, integers in whitespace, and bodies of 4299-4301 digits around the
# most int() reads from text.
_INT_TEXTS = st.one_of(
    st.text(st.sampled_from("0123456789\u0663\uff11\u00b2\U0001d7d9-+_. \t\x85\u3000"),
            max_size=12),
    st.builds("{}{}{}".format, _SPACE, st.integers(-10**6, 10**6).map(str), _SPACE),
    st.builds("{}{}{}{}".format, _SPACE, st.sampled_from(["", "-", "+", "--"]),
              st.integers(4299, 4301).map("7".__mul__), _SPACE),
)


def _integer_rule(text, sign=True):
    """The integer `_parse_int` reads from `text`, with a leading '-' when
    `sign`, by a rule stated apart from it, or the message of the ParseError
    it raises."""
    s = text.strip()
    if re.fullmatch("-?[0-9]+" if sign else "[0-9]+", s) is None:
        return f"expected an integer, got {text!r}"
    digits = len(s) - s.startswith("-")
    if 0 < sys.get_int_max_str_digits() < digits:
        return f"integer with {digits} digits is too long"
    return int(s)


def _error(message, position):
    return "error", f"{message} (at position {position})", position


@given(_INT_TEXTS, st.integers(0, 99))
@example(" -0042\u3000", 3)
@example("-\u0663", 0)
# str.isdigit and str.strip follow each version's Unicode database.
@pytest.mark.version_sensitive
def test_integers_are_read_by_one_rule(text, offset):
    # A span reads its text as it is.
    expected = _integer_rule(text)
    if ".." not in text:
        try:
            assert _parse_span(text, "--n") == (expected, expected)
        except CommandError as err:
            assert type(expected) is str
            assert str(err) == f"--n expects integers like -2..5, got {text!r}"
    # A slope strips its text first, and its denominator is the rest after
    # the "/", unsigned; an error sits at the offset plus the leading
    # whitespace.
    core = text.strip()
    expected = _integer_rule(core) if core else "empty slope"
    position = offset + len(text) - len(text.lstrip())
    assert _outcome(parse_slope, text, offset, None) == (
        ("slope", make_slope(expected, 1)) if type(expected) is int
        else _error(expected, position))
    denominator = text.rstrip()
    expected = _integer_rule(denominator, sign=False)
    position = offset + 2 + len(denominator) - len(denominator.lstrip())
    assert _outcome(parse_slope, "1/" + text, offset, None) == (
        _error(expected, position) if type(expected) is str
        else _error(slopes._ZERO_DENOMINATOR, offset) if expected == 0
        else ("slope", make_slope(1, expected)))
