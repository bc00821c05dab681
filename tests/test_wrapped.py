import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_knot, random_tangle, run_python
from wrapsurg import (
    MERIDIAN,
    KnotClass,
    MontesinosTangle,
    NoPretzelSurfaceError,
    NotAKnotError,
    NotLengthOneError,
    Pairing,
    ParseError,
    WrappedKnot,
    analysis_of,
    make_slope,
    make_wrapped,
    normalize,
    parse_knot,
    parse_tangle,
    pretzel_slope,
    trace_closure,
    transport_slope,
    twist,
    two_bridge_fraction,
    wrapping_number,
)
from wrapsurg import tracing

K = parse_knot
T = parse_tangle


def test_make_wrapped_accepts_the_known_knots():
    assert str(K("K0[2]")) == "K0[2]"
    assert str(K("K1[-1/2,1/3]")) == "K1[-1/2,1/3]"


def test_make_wrapped_rejects_two_component_closures():
    # A left-to-left tangle closes to a link when the wrap arcs are parallel.
    assert trace_closure(T("[-1/2]").entries, 0).pairing is Pairing.LEFT_TO_LEFT
    with pytest.raises(NotAKnotError):
        make_wrapped(0, T("[-1/2]"))
    make_wrapped(1, T("[-1/2]"))  # the crossed closure is a knot


def test_make_wrapped_rejects_internal_loops():
    for a in (0, 1):
        with pytest.raises(NotAKnotError):
            make_wrapped(a, T("[1/2,1/2]"))


def test_bare_constructor_rejects_links():
    with pytest.raises(NotAKnotError):
        WrappedKnot(0, T("[-1/2]"))
    for a in (0, 1):
        with pytest.raises(NotAKnotError):
            WrappedKnot(a, T("[1/2,1/2]"))
    assert WrappedKnot(1, T("[-1/2]")) == make_wrapped(1, T("[-1/2]"))


# One knot of each class, most of them reached through a move.
_ONE_PER_CLASS = {
    KnotClass.DEGENERATE: "K0[1/3]",
    KnotClass.WHITEHEAD: "K0[-2/3]",
    KnotClass.WHITEHEAD_MATE: "K1[3,-1]",
    KnotClass.INTEGER_TANGLE: "K0[-5/9]",
    KnotClass.SINGLE_FRACTION: "K0[-5/7]",
    KnotClass.PRETZEL: "K0[2/3,-4/5]",
    KnotClass.PRETZEL_2_3: "K1[1/2,-1/3]",
    KnotClass.GENERIC: "K1[2/7,-3/11,5/13]",
}


@pytest.mark.parametrize("knot_class", list(KnotClass), ids=lambda c: c.value)
def test_cold_parse_and_analysis_trace_one_diagram(monkeypatch, knot_class):
    analysis_of(K("K0[2]"))  # anchors the push-off oracle beforehand
    importlib.import_module("wrapsurg.classify")._analyze.cache_clear()
    K.cache_clear()  # a cold parse: nothing traced before the count starts
    traced = []
    original = tracing.trace_closure

    def counting(slopes, a):
        traced.append(slopes)
        return original(slopes, a)

    monkeypatch.setattr(tracing, "trace_closure", counting)
    analysis = analysis_of(K(_ONE_PER_CLASS[knot_class]))
    assert analysis.knot_class is knot_class
    assert len(traced) == 1


_SABOTAGED_WORD = """
import sys
from wrapsurg import InconsistentCrossCheckError, parse_knot, tracing
if not sys.flags.optimize:
    sys.exit(3)
tracing._word_fraction = lambda word: None
try:
    parse_knot("K1[-1/2,1/3]")
except InconsistentCrossCheckError:
    sys.exit(0)
sys.exit(1)
"""

# 1/3 + 1/6 = 1/4 + 1/4: two different pretzel pairs for the sum 1/2.
_SABOTAGED_PRETZEL_PAIR = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError, parse_knot
if not sys.flags.optimize:
    sys.exit(3)
classify = importlib.import_module("wrapsurg.classify")
classify._unit_fraction_shifts = lambda frac: [3, 4, 6]
try:
    classify.analysis_of(parse_knot("K1[1/3,1/6]"))
except InconsistentCrossCheckError:
    sys.exit(0)
sys.exit(1)
"""


_NON_COPRIME_BEZOUT = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError
if not sys.flags.optimize:
    sys.exit(3)
seifert = importlib.import_module("wrapsurg.seifert")
try:
    seifert._bezout(4, 6)
except InconsistentCrossCheckError:
    sys.exit(0)
sys.exit(1)
"""


# A push-off oracle that is wrong before the first analysis: the anchors
# catch it.
_SABOTAGED_ORACLE = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError, parse_knot
if not sys.flags.optimize:
    sys.exit(3)
classify = importlib.import_module("wrapsurg.classify")
classify.pretzel_framing = lambda slopes, a: 1
try:
    classify.analysis_of(parse_knot("K0[5]"))
except InconsistentCrossCheckError as err:
    sys.exit(0 if "push-off oracle" in str(err) else 4)
sys.exit(1)
"""

# An oracle that goes wrong after the anchors passed: the closed form of a
# single integer entry (0 for a = 0, else 2m) catches it.
_SABOTAGED_SPANNING_SURFACE = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError, parse_knot
if not sys.flags.optimize:
    sys.exit(3)
classify = importlib.import_module("wrapsurg.classify")
classify._oracle_self_check()
classify.pretzel_framing = lambda slopes, a: 1
try:
    classify.analysis_of(parse_knot("K0[5]"))
except InconsistentCrossCheckError as err:
    sys.exit(0 if "classified value" in str(err) else 4)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "script",
    [
        _SABOTAGED_WORD,
        _SABOTAGED_PRETZEL_PAIR,
        _NON_COPRIME_BEZOUT,
        _SABOTAGED_ORACLE,
        _SABOTAGED_SPANNING_SURFACE,
    ],
    ids=["word", "pretzel_pair", "bezout", "oracle", "spanning_surface"],
)
def test_cross_checks_survive_python_O(script):
    done = run_python(script, "-O")
    assert done.returncode == 0, done.stderr


def test_valid_closure_parameter_matches_pairing():
    rng = random.Random(53)
    seen = set()
    for _ in range(200):
        tangle = random_tangle(rng, max_entries=2, bound=12)
        closure = trace_closure(tangle.entries, 0)
        if closure.loops:
            continue
        valid = set()
        for a in (0, 1):
            try:
                make_wrapped(a, tangle)
                valid.add(a)
            except NotAKnotError:
                pass
        kind = closure.pairing
        expected = {
            Pairing.TOP_TO_TOP: {0, 1},
            Pairing.LEFT_TO_LEFT: {1},
            Pairing.CROSS: {0},
        }[kind]
        assert valid == expected
        seen.add(kind)
    assert seen == set(Pairing)


BIG = 10**200
_numerators = st.one_of(st.just(0), st.integers(-20, 20), st.integers(-BIG, BIG))
_denominators = st.one_of(st.integers(1, 20), st.integers(1, BIG))
_tangles = st.lists(
    st.builds(make_slope, _numerators, _denominators), min_size=1, max_size=3
).map(MontesinosTangle.from_slopes)


@given(_tangles, st.sampled_from([0, 1]))
def test_knot_text_and_normal_form_round_trip(tangle, a):
    nf = normalize(tangle)
    assert normalize(nf.as_tangle()) == nf
    try:
        knot = WrappedKnot(a, tangle)
    except NotAKnotError:
        assume(False)
    text = str(knot)
    assert parse_knot(text) == knot
    assert str(parse_knot(text)) == text


def test_winding_field():
    assert K("K0[2]").winding == 0
    assert K("K1[-1/2,1/3]").winding == 2
    assert K("K0[1/3]").winding == 2  # three vertical half-twists
    rng = random.Random(59)
    for _ in range(100):
        knot = random_knot(rng, max_entries=2, bound=12)
        wind = knot.winding
        assert wind in (0, 2)
        expected = trace_closure(knot.tangle.entries, 0).pairing is Pairing.TOP_TO_TOP
        assert (wind == 0) == expected


def test_wrapping_numbers():
    assert wrapping_number(K("K0[2]")) == 2
    assert wrapping_number(K("K1[-1/2,1/3]")) == 2
    assert wrapping_number(K("K0[0]")) == 0  # contractible degenerate closure
    assert wrapping_number(K("K0[1/3]")) == 2  # degenerate but winding 2


def test_twist_appends_wrap_entry():
    image = twist(K("K1[-1/2,1/3]"), 1)
    assert [str(s) for s in image.entries] == ["-1/2", "1/3", "1/3"]
    assert not image.degenerate
    image = twist(K("K0[7/3]"), 2)
    assert [str(s) for s in image.entries] == ["7/3", "1/4"]


def test_twist_degenerate_closure():
    image = twist(K("K0[2]"), 0)
    assert image.degenerate
    # The collapsed closure is the two-bridge closure of fraction 2, whose
    # denominator 1 is the determinant of an unknot.
    assert two_bridge_fraction(K("K0[2]"), 0) == make_slope(2, 1)


def test_twist_entry_multiset_property():
    rng = random.Random(61)
    for _ in range(100):
        knot = random_knot(rng, max_entries=3, bound=10)
        n = rng.randint(-4, 4)
        c = knot.a + 2 * n
        image = twist(knot, n)
        if c == 0:
            assert image.degenerate
        else:
            assert image.entries == knot.tangle.entries + (make_slope(1, c),)


def test_transport_slope():
    knot = K("K1[-1/2,1/3]")
    assert transport_slope(knot, make_slope(7, 1), 3) == make_slope(19, 1)
    assert transport_slope(K("K0[2]"), make_slope(3, 1), 5) == make_slope(3, 1)
    assert transport_slope(knot, MERIDIAN, 4) == MERIDIAN


def test_transport_slope_additive():
    rng = random.Random(67)
    for _ in range(100):
        knot = random_knot(rng, max_entries=2, bound=10)
        r = make_slope(rng.randint(-20, 20), rng.choice([1, 1, 2]))
        n1, n2 = rng.randint(-5, 5), rng.randint(-5, 5)
        stepped = transport_slope(knot, transport_slope(knot, r, n1), n2)
        assert stepped == transport_slope(knot, r, n1 + n2)
        assert transport_slope(knot, r, 0) == r


def test_two_bridge_fraction_values():
    # 1/((a+2n) + q/p) = p/((a+2n)p + q); for the tangle 7/2 the a = 0
    # closure is a two-component link, so the knot carries a = 1.
    knot = K("K1[7/2]")
    assert two_bridge_fraction(knot, 0) == make_slope(7, 9)
    assert two_bridge_fraction(knot, 1) == make_slope(7, 23)
    assert two_bridge_fraction(K("K0[7/3]"), 0) == make_slope(7, 3)
    assert two_bridge_fraction(K("K0[7/3]"), 1) == make_slope(7, 17)
    # The stated instances of the formula itself, checked as arithmetic.
    assert 1 / (2 + Fraction(2, 7)) == Fraction(7, 16)
    assert 1 / (-2 + Fraction(2, 7)) == Fraction(-7, 12)


def test_two_bridge_fraction_needs_single_entry():
    with pytest.raises(NotLengthOneError):
        two_bridge_fraction(K("K1[-1/2,1/3]"), 0)


def test_pretzel_slope_anchors():
    assert pretzel_slope(K("K1[-1/2,1/3]")) == make_slope(8, 1)
    for m in (3, 4, 5, 6, 7):
        assert pretzel_slope(make_wrapped(0, T(f"[{m}]"))) == make_slope(0, 1)
    for m in (4, 6, 8):
        assert pretzel_slope(make_wrapped(1, T(f"[{m}]"))) == make_slope(2 * m, 1)


def test_pretzel_slope_consistent_with_transport():
    knot = K("K1[-1/2,1/3]")
    slope = pretzel_slope(knot)
    assert transport_slope(knot, slope, 3) == make_slope(20, 1)


def test_pretzel_slope_shape_errors():
    with pytest.raises(NoPretzelSurfaceError):
        pretzel_slope(K("K1[-1/2,2/5]"))
    with pytest.raises(NoPretzelSurfaceError):
        pretzel_slope(K("K1[7/2]"))


def test_parse_knot_returns_the_same_knot_for_the_same_text():
    text = "K1[-1/2,1/3]"
    assert K(text) is K(text)
    assert K(text) == make_wrapped(1, T("[-1/2,1/3]"))


def test_failed_parses_are_not_cached():
    before = K.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ParseError) as caught:
            K("K0[1/2,x/3]")
        assert caught.value.position == 7
        with pytest.raises(NotAKnotError):
            K("K0[-1/2]")
    assert K.cache_info().currsize == before


_FILL_THE_PARSE_CACHE = """
from wrapsurg import parse_knot
bound = parse_knot.cache_info().maxsize
assert bound is not None
for m in range(bound + 100):  # K0[m] is a knot for every integer m
    parse_knot(f"K0[{m}]")
    assert parse_knot.cache_info().currsize <= bound
assert parse_knot.cache_info().currsize == bound
"""


def test_parse_cache_is_bounded():
    # In a child process, so that this suite's own cache keeps its knots.
    done = run_python(_FILL_THE_PARSE_CACHE)
    assert done.returncode == 0, done.stderr


def test_parse_knot_round_trip():
    for text in ["K0[2]", "K1[-1/2,1/3]", "K0[5/3,-2/3]"]:
        assert str(parse_knot(text)) == text
