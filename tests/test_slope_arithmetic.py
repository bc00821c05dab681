"""The package's rational arithmetic on `Slope` against the `Fraction`
formulas it replaced, kept here as the reference: the single-entry
canonicalization of `normalize`, the meridional twist `twist_tangle`, and the
pretzel-pair search of the classifier, on random slopes that include entries
of about 3,500 digits."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fraction_sum
from wrapsurg import MontesinosTangle, make_slope, normalize, twist_tangle
from wrapsurg.classify import _find_pretzel_pair

_BIG = 10**3500
_numerators = st.one_of(st.integers(-12, 12), st.integers(-_BIG, _BIG))
_denominators = st.one_of(st.integers(1, 12), st.integers(1, _BIG))
# p/q at random, and the unit fractions and integers that the degenerate,
# twist and pretzel cases turn on.
_slopes = st.one_of(
    st.builds(make_slope, _numerators, _denominators),
    st.builds(make_slope, st.sampled_from([-1, 1]), _denominators),
    st.builds(make_slope, _numerators, st.just(1)),
)


def _reference_single(t: Fraction):
    """(degenerate, (t, mirrored, twists) or None) for a single-entry sum t."""
    if t == 0:
        return True, None
    v = 1 / t
    if v.denominator == 1:
        return True, None
    k = v // 2
    folded = v - 2 * k
    if folded < 1:
        return False, (1 / folded, False, -k)
    return False, (1 / (2 - folded), True, k + 1)


@given(st.lists(_slopes, min_size=1, max_size=3))
def test_normalize_matches_the_fraction_reference(entries):
    tangle = MontesinosTangle(entries)
    nf = normalize(tangle)
    if len(nf.fracs) > 1:
        assert not nf.degenerate and nf.k1 is None
        return
    degenerate, k1 = _reference_single(fraction_sum(entries))
    assert nf.degenerate == degenerate
    got = None if nf.k1 is None else (Fraction(nf.k1.t.p, nf.k1.t.q), nf.k1.mirrored, nf.k1.twists)
    assert got == k1


def _reference_twist(t: Fraction, m: int) -> Fraction:
    if t == 0:
        return t
    if 2 * m + 1 / t == 0:
        raise ValueError("the twist move lands on the infinite tangle")
    return 1 / (2 * m + 1 / t)


@given(st.data(), st.one_of(st.integers(-5, 5), st.integers(-_BIG, _BIG)))
def test_twist_tangle_matches_the_fraction_reference(data, m):
    # t = -1/(2m) is drawn on purpose: the image is the infinite tangle.
    t = data.draw((_slopes | st.just(make_slope(-1, 2 * m))) if m else _slopes)
    tangle = MontesinosTangle((t,))
    try:
        expected = _reference_twist(Fraction(t.p, t.q), m)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            twist_tangle(tangle, m)
        return
    (image,) = twist_tangle(tangle, m).entries
    assert Fraction(image.p, image.q) == expected


def _reference_unit_fraction_shifts(value: Fraction) -> list[int]:
    out = []
    if value.numerator == 1:
        out.append(value.denominator)
    below = value - 1
    if below.numerator == -1:
        out.append(-below.denominator)
    return out


def _reference_pretzel_pair(nf):
    if len(nf.fracs) != 2:
        return None
    total = fraction_sum(nf.fracs, nf.e0)
    found = None
    first, second = (Fraction(f.p, f.q) for f in nf.fracs)
    for q1 in _reference_unit_fraction_shifts(first):
        for q2 in _reference_unit_fraction_shifts(second):
            if Fraction(1, q1) + Fraction(1, q2) == total:
                pair = (q1, q2)
                assert found is None or sorted(found) == sorted(pair)
                found = pair
    return found


# e + 1/q and e - 1/q with small e, whose fractional parts are 1/q and
# (q-1)/q, so that every drawn pair has pretzel candidates and many are
# pretzels.
_near_unit = st.builds(
    lambda e, sign, q: make_slope(e * q + sign, q),
    st.integers(-2, 2),
    st.sampled_from([-1, 1]),
    st.one_of(st.integers(2, 12), st.integers(2, _BIG)),
)


@given(st.lists(_near_unit, min_size=2, max_size=2)
       | st.lists(_near_unit | _slopes, min_size=1, max_size=3))
def test_find_pretzel_pair_matches_the_fraction_reference(entries):
    nf = normalize(MontesinosTangle(entries))
    assert _find_pretzel_pair(nf) == _reference_pretzel_pair(nf)
