import random
from fractions import Fraction

import pytest

from wrapsurg import (
    MERIDIAN,
    InfinityInputError,
    ParseError,
    Slope,
    ZeroZeroError,
    distance,
    evaluate_continued_fraction,
    expand,
    make_slope,
    parse_slope,
)


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
    assert not make_slope(8, 1).is_half_integral()
    assert make_slope(37, 2).is_half_integral()
    assert not MERIDIAN.is_integral() and not MERIDIAN.is_half_integral()


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


def test_fraction_conversion():
    assert make_slope(6, 4).as_fraction() == Fraction(3, 2)
    assert Slope.from_fraction(Fraction(-9, 6)) == make_slope(-3, 2)
    with pytest.raises(InfinityInputError):
        MERIDIAN.as_fraction()


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


def test_oversized_integer_is_a_parse_error():
    # More digits than int() converts from text must not escape as ValueError.
    with pytest.raises(ParseError) as caught:
        parse_slope("5/" + "1" * 4400, 10)
    assert caught.value.position == 12
