import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fraction_sum, random_slope, random_tangle
from wrapsurg import (
    LengthOneCanonical,
    MontesinosTangle,
    Move,
    NormalForm,
    Pairing,
    Slope,
    equivalent,
    make_slope,
    mirror_tangle,
    normalize,
    parse_tangle,
    reverse_tangle,
    shift_tangle,
    trace_closure,
    twist_tangle,
)
from wrapsurg.slopes import split_integer_parts

T = parse_tangle


def test_rational_tangle_rejects_infinity():
    for entries in [(make_slope(1, 0),), (make_slope(1, 2), make_slope(1, 0))]:
        with pytest.raises(ValueError, match="must have finite slope"):
            MontesinosTangle(entries)
        with pytest.raises(ValueError, match="must have finite slope"):
            MontesinosTangle(list(entries))
    with pytest.raises(ValueError):
        MontesinosTangle(())


def _pairing(entries):
    return trace_closure(tuple(entries), 0).pairing


def test_normalize_splits_integer_parts():
    nf = normalize(T("[-1/2,1/3]"))
    assert nf.e0 == -1
    assert [str(f) for f in nf.fracs] == ["1/2", "1/3"]
    assert fraction_sum(nf.fracs, nf.e0) == Fraction(-1, 6)


def test_normalize_zero_tangle_is_degenerate():
    nf = normalize(T("[0]"))
    assert nf.degenerate and nf.e0 == 0 and nf.fracs == ()


def test_normalize_single_entry_canonical_representative():
    # The reciprocal 1/t is folded into (0, 1) by sign flips and shifts by 2,
    # so 2/7 lands on the same representative as 2: 1/t = 7/2 -> 3/2 -> 1/2.
    nf = normalize(T("[2/7]"))
    assert nf.k1 is not None
    assert str(nf.k1.t) == "2" and nf.k1.mirrored and nf.k1.twists == 2
    nf = normalize(T("[7/2]"))
    assert str(nf.k1.t) == "7/2" and not nf.k1.mirrored and nf.k1.twists == 0
    nf = normalize(T("[-2]"))
    assert str(nf.k1.t) == "2" and nf.k1.mirrored and nf.k1.twists == 0


def _slope_arithmetic_normalize(tangle):
    """The single-entry fold in `Slope` arithmetic: the reciprocal, integer
    shifts and negation, as `normalize` once computed it."""
    e0, fracs = split_integer_parts(tangle.entries)
    if len(fracs) > 1:
        return NormalForm(e0, tuple(fracs), False, None)
    v = (fracs[0] + e0 if fracs else Slope(e0, 1)).reciprocal()
    if v.q <= 1:
        return NormalForm(e0, tuple(fracs), True, None)
    k = v.p // (2 * v.q)
    folded = v + -2 * k
    if folded.p < folded.q:
        canonical = LengthOneCanonical(folded.reciprocal(), False, -k)
    else:
        canonical = LengthOneCanonical((-folded + 2).reciprocal(), True, k + 1)
    return NormalForm(e0, tuple(fracs), False, canonical)


_BIG = 10**30


# t = 0, +-1 and +-1/q are degenerate; +-2 and 1/2 sit next to the fold's
# boundary v = 1.
@given(st.integers(-_BIG, _BIG), st.integers(1, _BIG))
@example(0, 1)
@example(1, 1)
@example(-1, 1)
@example(1, 7)
@example(-1, 7)
@example(1, _BIG)
@example(2, 1)
@example(-2, 1)
@example(1, 2)
def test_integer_fold_matches_the_slope_arithmetic_fold(p, q):
    tangle = MontesinosTangle((make_slope(p, q),))
    assert normalize(tangle) == _slope_arithmetic_normalize(tangle)


def test_normalize_unit_fraction_entries_are_degenerate():
    for text in ["[1/3]", "[-1/2]", "[1]", "[-1]", "[1/2,3]"][:4]:
        assert normalize(T(text)).degenerate, text
    assert not normalize(T("[2]")).degenerate


def test_normalize_sum_preservation_random():
    rng = random.Random(23)
    for _ in range(300):
        tangle = random_tangle(rng)
        nf = normalize(tangle)
        assert fraction_sum(nf.fracs, nf.e0) == fraction_sum(tangle.entries)


def test_normalize_idempotent():
    rng = random.Random(29)
    for _ in range(200):
        nf = normalize(random_tangle(rng))
        assert normalize(nf.as_tangle()) == nf


def test_equivalent_by_entrywise_shifts():
    witness = equivalent(T("[5/3,-2/3]"), T("[2/3,1/3]"))
    assert witness is not None
    for move, refusal in ((lambda: shift_tangle(T("[5/3,-2/3]"), [1]), "shifts must match"),
                          (lambda: twist_tangle(T("[5/3,-2/3]"), 1), "single-entry")):
        with pytest.raises(ValueError, match=refusal):
            move()


def test_equivalent_by_reversal():
    witness = equivalent(T("[-1/2,1/3]"), T("[1/3,-1/2]"))
    assert witness[-1] == Move("reverse") and str(witness[-1]) == "reverse"


def test_equivalent_by_mirror():
    witness = equivalent(T("[-1/2,1/3]"), T("[1/2,-1/3]"))
    assert witness is not None
    assert any(move.kind == "mirror" for move in witness)


def test_not_equivalent_when_sums_differ():
    assert equivalent(T("[1/2,1/2]"), T("[1/2,3/2]")) is None


def test_equivalent_single_entry_twists():
    # 2/7 folds onto the representative of 2 and 2/5 shifts onto it directly.
    assert equivalent(T("[2/7]"), T("[2]")) is not None
    assert equivalent(T("[2/5]"), T("[2]")) is not None
    assert equivalent(T("[7/2]"), T("[2]")) is None
    # Reductions needing many twist moves are still decided and witnessed.
    witness = equivalent(T("[2/101]"), T("[2]"))
    assert witness is not None
    assert any(m.kind == "twist" and abs(m.amount) == 25 for m in witness)


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(101)
    for _ in range(120):
        t1 = random_tangle(rng, max_entries=3, bound=20)
        assert equivalent(t1, t1) is not None
        t2 = _random_equivalent(rng, t1)
        t3 = _random_equivalent(rng, t2)
        assert (equivalent(t1, t2) is None) == (equivalent(t2, t1) is None)
        assert equivalent(t1, t2) is not None
        assert equivalent(t1, t3) is not None  # transitivity along move chains


def _random_equivalent(rng, tangle):
    choice = rng.randint(0, 3)
    if choice == 0:
        k = len(tangle.entries)
        deltas = [rng.randint(-3, 3) for _ in range(k - 1)]
        deltas.append(-sum(deltas))
        return shift_tangle(tangle, deltas)
    if choice == 1:
        return reverse_tangle(tangle)
    if choice == 2:
        return mirror_tangle(tangle)
    if len(tangle.entries) == 1 and tangle.entries[0].p != 0:
        return twist_tangle(tangle, rng.randint(-2, 2))
    return reverse_tangle(tangle)


def test_pairing_small_tangles():
    assert _pairing([make_slope(0, 1)]) is Pairing.TOP_TO_TOP
    assert _pairing([make_slope(1, 1)]) is Pairing.CROSS
    assert _pairing([make_slope(1, 2)]) is Pairing.LEFT_TO_LEFT
    # Three vertical half-twists swap the strand ends an odd number of times,
    # so 1/3 traces to the same class as the single crossing.
    assert _pairing([make_slope(1, 3)]) is Pairing.CROSS


def test_pairing_depends_only_on_parity():
    rng = random.Random(37)
    by_class = {}
    for _ in range(200):
        slope = random_slope(rng, 60, 60)
        key = (slope.p % 2, slope.q % 2)
        result = _pairing([slope])
        by_class.setdefault(key, result)
        assert by_class[key] is result
    assert by_class[(0, 1)] is Pairing.TOP_TO_TOP
    assert by_class[(1, 1)] is Pairing.CROSS
    assert by_class[(1, 0)] is Pairing.LEFT_TO_LEFT


def test_even_shift_preserves_entry_pairing():
    rng = random.Random(41)
    for _ in range(100):
        slope = random_slope(rng, 20, 20)
        shifted = slope + 2 * rng.randint(-5, 5)
        assert _pairing([slope]) is _pairing([shifted])


def test_closure_pairing_composes_left_to_right():
    assert _pairing(T("[-1/2,1/3]").entries) is Pairing.LEFT_TO_LEFT
    assert _pairing(T("[-1/2,2/5]").entries) is Pairing.LEFT_TO_LEFT
    assert _pairing(T("[1/3,1/3]").entries) is Pairing.TOP_TO_TOP
    assert _pairing(T("[2]").entries) is Pairing.TOP_TO_TOP


def test_closure_pairing_invariant_under_normalize_and_shifts():
    rng = random.Random(43)
    for _ in range(150):
        tangle = random_tangle(rng)
        nf = normalize(tangle)
        assert _pairing(nf.as_tangle().entries) is _pairing(tangle.entries)
        k = len(tangle.entries)
        if k > 1:
            deltas = [rng.randint(-4, 4) for _ in range(k - 1)]
            deltas.append(-sum(deltas))
            shifted = shift_tangle(tangle, deltas)
            assert _pairing(shifted.entries) is _pairing(tangle.entries)


def test_closure_loops():
    assert trace_closure(T("[1/2,1/2]").entries, 0).loops == 1
    assert trace_closure(T("[-1/2,1/3]").entries, 0).loops == 0


def test_parse_tangle_round_trip():
    for text in ["[-1/2,1/3]", "[2]", "[0]", "[5/3,-2/3,7]"]:
        assert str(parse_tangle(text)) == text
