"""Property tests of the strand-tracing oracle against independent rules."""
from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_golden_cli import rule_disagrees_with_trace
from wrapsurg import MERIDIAN, Pairing, make_slope
from wrapsurg.tracing import (
    HORIZONTAL,
    VERTICAL,
    Diagram,
    _word_fraction,
    trace_closure,
    twist_word,
)

BIG = 10**300


def _reference_word_fraction(word):
    """The twist word's value by Fraction arithmetic; None is the infinite tangle."""
    value = Fraction(0)
    for kind, count in word:
        if kind == HORIZONTAL:
            value = None if value is None else value + count
        else:
            if value is None:
                value = Fraction(1, count)
            elif value == 0:
                value = Fraction(0)  # kink on the trivial tangle
            else:
                value = 1 / (count + 1 / value)
    return value


def _as_fraction(pair):
    p, q = pair
    return None if q == 0 else Fraction(p, q)


finite_slopes = st.builds(
    make_slope, st.integers(-BIG, BIG), st.integers(1, BIG)
)


@given(finite_slopes)
def test_twist_word_round_trip_is_exact(slope):
    word = twist_word(slope)
    assert _word_fraction(word) == (slope.p, slope.q)
    assert _as_fraction(_word_fraction(word)) == _reference_word_fraction(word)


def test_twist_word_refuses_the_meridian():
    with pytest.raises(ValueError, match="infinite tangle"):
        twist_word(MERIDIAN)


@given(
    st.lists(
        st.tuples(st.sampled_from([HORIZONTAL, VERTICAL]), st.integers(-50, 50)),
        max_size=12,
    )
)
def test_word_fraction_agrees_with_fractions_on_any_word(word):
    """Words that pass the infinite tangle or kink the trivial one included."""
    try:
        expected = _reference_word_fraction(word)
    except ZeroDivisionError:  # the reference cannot express this value
        assume(False)
    p, q = _word_fraction(word)
    assert q >= 0 and gcd(p, q) == 1
    assert _as_fraction((p, q)) == expected


def _parity(slope):
    return slope.p % 2, slope.q % 2


_CLASS = {
    (0, 1): Pairing.TOP_TO_TOP,
    (1, 1): Pairing.CROSS,
    (1, 0): Pairing.LEFT_TO_LEFT,
}


def _sum_parity(slopes):
    """The horizontal sum of the entries mod 2; (0, 0) leaves a closed circle."""
    p, q = 0, 1
    for s in slopes:
        p, q = (p * s.q + s.p * q) % 2, (q * s.q) % 2
    return p, q


def _closes_to_knot(a, slopes):
    """One component unless the tangle hides a circle, or the wrap arcs repeat
    the tangle's own pairing: left-to-left for a = 0, across for a = 1."""
    parity = _sum_parity(slopes)
    return parity != (0, 0) and parity != ((1, 0) if a == 0 else (1, 1))


@given(
    st.lists(
        st.builds(make_slope, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([0, 1]),
)
def test_closure_components_and_pairing_follow_mod_2_arithmetic(slopes, a):
    slopes = tuple(slopes)
    closure = trace_closure(slopes, a)
    assert (closure.components == 1) == _closes_to_knot(a, slopes)
    for s in slopes:
        assert trace_closure((s,), a).pairing is _CLASS[_parity(s)]
    parity = _sum_parity(slopes)
    if parity == (0, 0):
        assert closure.loops >= 1
    else:
        assert closure.pairing is _CLASS[parity] and closure.loops == 0


# Small entries, and entries of 1000 to 1100 digits either way round.
_HUGE = st.integers(10**1000, 10**1100)
_rule_entries = st.one_of(
    st.builds(make_slope, st.integers(-20, 20), st.integers(1, 20)),
    st.builds(make_slope, st.one_of(_HUGE, _HUGE.map(int.__neg__)), st.integers(1, 20)),
    st.builds(make_slope, st.integers(-20, 20), _HUGE),
    st.builds(make_slope, _HUGE, _HUGE),
)


@settings(max_examples=100)
@given(st.lists(_rule_entries, min_size=1, max_size=5), st.integers(-2, 3))
def test_parity_rule_equals_the_trace(entries, a):
    """Any number of wrap crossings, not only the knots' a = 0 and 1."""
    assert not rule_disagrees_with_trace(a, tuple(entries))


def test_diagram_refuses_a_joined_end_and_walks_only_when_closed():
    diagram = Diagram()
    in1, in2, out1, out2 = diagram.add_region(1)
    assert (out1, out2) == (in2 ^ 1, in1 ^ 1)  # one crossing swaps the sides
    diagram.join(out1, in1)
    for x, y in [(in1, in2), (in2, out1), (out1, out1)]:
        with pytest.raises(ValueError, match="already joined"):
            diagram.join(x, y)
    with pytest.raises(ValueError, match="no free strand end"):
        diagram.closed_walk()
    diagram.join(in2, out2)
    # The closed single crossing is one circle, run forwards on both strands.
    assert diagram.closed_walk() == [[in1, in2]]
