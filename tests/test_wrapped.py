import importlib
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import count_calls, random_knot, random_tangle, run_python
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
)
from wrapsurg import tracing

K = parse_knot
T = parse_tangle


def test_make_wrapped_accepts_the_known_knots():
    assert str(K("K0[2]")) == "K0[2]"
    assert str(K("K1[-1/2,1/3]")) == "K1[-1/2,1/3]"


def test_wrapped_knot_rejects_two_component_closures():
    # A left-to-left tangle closes to a link when the wrap arcs are parallel.
    assert trace_closure(T("[-1/2]").entries, 0).pairing is Pairing.LEFT_TO_LEFT
    with pytest.raises(NotAKnotError) as raised:
        WrappedKnot(0, T("[-1/2]"))
    # Worded when read, from the wrap parameter and entries the error keeps.
    assert str(raised.value) == "K0[-1/2] closes to a link, not a knot"
    WrappedKnot(1, T("[-1/2]"))  # the crossed closure is a knot


def test_wrapped_knot_rejects_internal_loops():
    for a in (0, 1):
        with pytest.raises(NotAKnotError):
            WrappedKnot(a, T("[1/2,1/2]"))


def test_bare_constructor_rejects_links():
    # `make_wrapped` is the constructor under another name; the tests above
    # and every other test build knots with `WrappedKnot` itself.
    with pytest.raises(NotAKnotError):
        make_wrapped(0, T("[-1/2]"))
    assert WrappedKnot(1, T("[-1/2]")) == make_wrapped(1, T("[-1/2]"))


def test_the_wrap_parameter_is_the_int_0_or_1():
    # A bool equals 0 or 1 but would print as KTrue[...], which no parse reads.
    for a in (True, False, 1.0, 2, -1, "1"):
        with pytest.raises(ValueError, match="the wrap parameter a must be 0 or 1"):
            WrappedKnot(a, T("[2]"))
    assert WrappedKnot(1, T("[2]")) == K("K1[2]")


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
    """A cold parse and analysis trace no closure and no framing: the knot's
    facts come from the parity rule, its spanning-surface slope from the
    integer rule, and its class's table is built anew."""
    importlib.import_module("wrapsurg.classify")._class_table.cache_clear()
    calls = {}
    for name in ("trace_closure", "pretzel_framing"):
        count_calls(monkeypatch, calls, tracing, name)
    analysis = analysis_of(K(_ONE_PER_CLASS[knot_class]))
    assert analysis.knot_class is knot_class
    assert calls == {}


# The strand tracer's checks run in the golden runner, `test_golden_cli`,
# which each sabotage script below imports from this directory.
_RUNNER = f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})"

# A twist word that rebuilds no slope: the runner's parity check traces the
# grid closures and raises on the first word.
_SABOTAGED_WORD = f"""
import sys
from wrapsurg import InconsistentCrossCheckError, tracing
if not sys.flags.optimize:
    sys.exit(3)
{_RUNNER}
import test_golden_cli as runner
tracing._word_fraction = lambda word: None
try:
    runner._closure_mismatches()
except InconsistentCrossCheckError:
    sys.exit(0)
sys.exit(1)
"""

# A parity rule that swaps the crossed and left-to-left pairings: the runner's
# parity check finds it on the grid, K0[1/3] among the closures.
_SABOTAGED_RULE = f"""
import importlib
import sys
from wrapsurg import Pairing
if not sys.flags.optimize:
    sys.exit(3)
{_RUNNER}
import test_golden_cli as runner
tangles = importlib.import_module("wrapsurg.tangles")
tangles._PAIRING_BY_PARITY[1, 0] = Pairing.CROSS
tangles._PAIRING_BY_PARITY[1, 1] = Pairing.LEFT_TO_LEFT
sys.exit(0 if "K0[1/3]" in runner._closure_mismatches() else 1)
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


# A wrong modular inverse in the invariants of a torus-knot surgery: the
# fiber-index check catches it.
_SABOTAGED_INVERSE = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError, make_slope
if not sys.flags.optimize:
    sys.exit(3)
seifert = importlib.import_module("wrapsurg.seifert")
seifert.pow = lambda base, exp, mod: 0
try:
    seifert.torus_knot_surgery(2, 3, make_slope(1, 1))
except InconsistentCrossCheckError as err:
    sys.exit(0 if "fiber indices" in str(err) else 4)
sys.exit(1)
"""


# A push-off oracle that is wrong: the runner's framing check finds it on the
# knot the script names, the (-2,3) pretzel K1[-1/2,1/3] (whose framing 8 is
# the slope of its toroidal filling) or the single integer entry K0[5].
_SABOTAGED_FRAMING = f"""
import sys
from wrapsurg import tracing
if not sys.flags.optimize:
    sys.exit(3)
tracing.pretzel_framing = lambda slopes, a: 1
{_RUNNER}
import test_golden_cli as runner
mismatches, _ = runner._framing_mismatches()
sys.exit(0 if "%s" in mismatches else 1)
"""


# A torus-knot classification that disagrees with the branch-locus cover of
# the twist-1 member T(3, 4): the memoized S^3 cover runs the check on its miss,
# reading `seifert.torus_knot_surgery` there.
_SABOTAGED_TORUS_KNOT = """
import importlib
import sys
from wrapsurg import REDUCIBLE, InconsistentCrossCheckError, make_slope, parse_knot, surgery_in_s3
if not sys.flags.optimize:
    sys.exit(3)
seifert = importlib.import_module("wrapsurg.seifert")
seifert.torus_knot_surgery = lambda p, q, r: REDUCIBLE
try:
    surgery_in_s3(parse_knot("K1[-1/2,1/3]"), make_slope(7, 1), 1)
except InconsistentCrossCheckError as err:
    sys.exit(0 if "torus-knot surgery" in str(err) else 4)
sys.exit(1)
"""

# A branch locus with one entry changed, 1/(n-2) to 1/(n-1): its cover at
# twist 5 is small Seifert with |H1| = 7, not |7 + 4*5| = 27.
_SABOTAGED_HOMOLOGY = """
import importlib
import sys
from wrapsurg import InconsistentCrossCheckError, MontesinosLink, make_slope
if not sys.flags.optimize:
    sys.exit(3)
seifert = importlib.import_module("wrapsurg.seifert")
seifert.pretzel_surgery_link = lambda n, base: MontesinosLink(
    (make_slope(-1, 3), make_slope(3, 5), make_slope(1, n - 1)))
try:
    seifert.pretzel_surgery(5, 7)
except InconsistentCrossCheckError as err:
    sys.exit(0 if "|H1|" in str(err) else 4)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "script",
    [
        _SABOTAGED_WORD,
        _SABOTAGED_RULE,
        _SABOTAGED_PRETZEL_PAIR,
        _SABOTAGED_INVERSE,
        _SABOTAGED_FRAMING % "K1[-1/2,1/3]",
        _SABOTAGED_FRAMING % "K0[5]",
        _SABOTAGED_TORUS_KNOT,
        _SABOTAGED_HOMOLOGY,
    ],
    ids=["word", "parity_rule", "pretzel_pair", "fiber_indices", "oracle", "spanning_surface",
         "torus_knot", "homology"],
)
def test_cross_checks_survive_python_O(script):
    done = run_python(script, "-O")
    assert done.returncode == 0, done.stderr


# Fill a cache with more keys than its bound: the S^3 covers by twist at one
# cover slope, the restated class tables by twist of the Whitehead table, the
# parsed slopes by the text i/7, the row chunks by their first integer, and
# the S^3 rows by twist at one cover slope.
_FILL_A_CACHE = """
import importlib
cached = importlib.import_module("wrapsurg.{module}").{cache}
bound = cached.cache_info().maxsize
assert bound is not None
for i in range(bound + 100):
    cached({key})
    assert cached.cache_info().currsize <= bound
assert cached.cache_info().currsize == bound
"""
# The CLI keeps a knot from its text's second request on: each text K0[i], a
# knot for every i, is asked for twice.
_FILL_THE_KNOT_CACHE = """
import importlib
cli = importlib.import_module("wrapsurg.cli")
bound = cli._KNOT_CACHE_SIZE
for i in range(bound + 100):
    for _ in range(2):
        cli._knot("K0[%d]" % i)
    assert len(cli._kept_knots) <= bound and len(cli._asked_once) <= bound
assert len(cli._kept_knots) == bound
"""
# A batch keeps the answer of a line whose knot the CLI keeps: K0[3], asked
# for twice, then `classify K0[3] i` for each slope i, in batches of 512 lines.
_FILL_THE_ANSWER_CACHE = """
import contextlib
import importlib
import os
import tempfile
cli = importlib.import_module("wrapsurg.cli")
batch = importlib.import_module("wrapsurg.batch")
bound = batch._ANSWER_CACHE_SIZE
lines = ["normalize K0[3]"] * 2 + ["classify K0[3] %d" % i for i in range(bound + 100)]
with tempfile.TemporaryDirectory() as folder, open(os.devnull, "w") as null:
    for start in range(0, len(lines), 512):
        path = os.path.join(folder, "%d.txt" % start)
        with open(path, "w") as requests:
            requests.write("".join(line + "\\n" for line in lines[start:start + 512]))
        with contextlib.redirect_stdout(null):
            assert cli.main(["batch", path]) == 0
        assert len(batch._kept_answers) == min(bound, start + 512 - 2)
assert list(batch._kept_answers)[-1] == lines[-1]
"""


# Every bounded lru_cache of the package, by its case below: its module, its
# name and the key of its i-th entry.
_BOUNDED_CACHES = {
    "s3_cover": ("spans", "_s3_cover", "i, 7"),
    "class_table": (
        "classify", "_class_table",
        '((c := importlib.import_module("wrapsurg.classify")).KnotClass.WHITEHEAD, 0, '
        '(c.Slope(2, 1),)), c.SlopeMap(1, i, 0)'),
    "slope_text": ("slopes", "_slope_memo", '"%d/7" % i, None'),
    "row_chunk": ("spans", "_row_chunk", '"%d", "\\n", i'),
}


@pytest.mark.parametrize(
    "script",
    [_FILL_A_CACHE.format(module=module, cache=cache, key=key)
     for module, cache, key in _BOUNDED_CACHES.values()]
    + [_FILL_THE_KNOT_CACHE, _FILL_THE_ANSWER_CACHE],
    ids=[*_BOUNDED_CACHES, "knot_text", "batch_line"],
)
def test_warm_caches_are_bounded(script):
    # In a child process, so that this suite's own caches keep their entries.
    done = run_python(script)
    assert done.returncode == 0, done.stderr


def test_every_cache_is_bounded_and_tested():
    # Every module-level lru_cache of the package is bounded and a case of
    # `test_warm_caches_are_bounded`; no cache runs once per process.
    caches = {}
    for info in pkgutil.iter_modules(importlib.import_module("wrapsurg").__path__):
        module = importlib.import_module(f"wrapsurg.{info.name}")
        caches.update((f"{info.name}.{name}", value) for name, value in vars(module).items()
                      if hasattr(value, "cache_info") and value.__module__ == module.__name__)
    assert all(cached.cache_info().maxsize is not None for cached in caches.values()), caches
    assert caches.keys() == {f"{module}.{cache}" for module, cache, _ in _BOUNDED_CACHES.values()}


# `predict K1[-1/2,1/3] 7 --n N..N+3` at the edges of the keep-window and past
# it: prints the S^3 covers it keeps, in four lines, then checks that the
# answer is the same with the cache cleared.
_S3_KEEP_WINDOW = """
import contextlib
import importlib
import io
from wrapsurg.cli import main
cover = importlib.import_module("wrapsurg.spans")._s3_cover
def predict(n):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["predict", "K1[-1/2,1/3]", "7", "--n", "%d..%d" % (n, n + 3)]) == 0
    return out.getvalue()
for n in (2**20, -2**20, 10**4000, 2**20 - 4):
    before = cover.cache_info().currsize
    answer = predict(n)
    print(cover.cache_info().currsize - before)
    cover.cache_clear()
    assert predict(n) == answer
"""


def test_s3_covers_are_kept_only_inside_the_keep_window():
    done = run_python(_S3_KEEP_WINDOW)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0", "4"]


# K0[4/3,-2/3] shifts its entries to those of K0[1/3,1/3], so the two share
# a table source and a slope map: the second analysis reads the first one's
# table.  In a child process, so that no earlier analysis has filled the
# table cache.
_ONE_TABLE_PER_SLOPE_MAP = """
import importlib
from wrapsurg import analysis_of, parse_knot
table = importlib.import_module("wrapsurg.classify")._class_table
first = analysis_of(parse_knot("K0[1/3,1/3]"))
before = table.cache_info()
shifted = analysis_of(parse_knot("K0[4/3,-2/3]"))
after = table.cache_info()
assert shifted.exceptional == first.exceptional
print(after.hits - before.hits, after.misses - before.misses)
"""


def test_a_shifted_knot_reuses_the_kept_table():
    done = run_python(_ONE_TABLE_PER_SLOPE_MAP)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "0"]


def test_a_table_with_a_long_entry_is_not_kept():
    classify = importlib.import_module("wrapsurg.classify")
    n = 10**3999 + 1
    classify._class_table.cache_clear()
    analysis = analysis_of(K(f"K0[1/{n},1/{n}]"))
    assert analysis.knot_class is KnotClass.PRETZEL
    assert classify._class_table.cache_info().currsize == 0
    analysis_of(K("K0[1/3,1/3]"))
    assert classify._class_table.cache_info().currsize == 1


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
                WrappedKnot(a, tangle)
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
).map(MontesinosTangle)


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
        assert pretzel_slope(WrappedKnot(0, T(f"[{m}]"))) == make_slope(0, 1)
    for m in (4, 6, 8):
        assert pretzel_slope(WrappedKnot(1, T(f"[{m}]"))) == make_slope(2 * m, 1)


def test_pretzel_slope_gives_each_case_of_its_rule():
    # 2(q1 + q2) for a = 0; for a = 1, 0 when both q are odd and else
    # 2(q_odd + 1), q signed.
    for text, framing in [("K0[1/3,1/5]", 16), ("K0[-1/3,1/5]", 4), ("K0[1/3,-1/7]", -8),
                          ("K1[1/3,1/5]", 0), ("K1[-1/3,1/5]", 0), ("K1[1/4,1/5]", 12),
                          ("K1[-1/4,1/5]", 12), ("K1[-1/3,1/4]", -4), ("K1[1/2,-1/3]", -4),
                          ("K0[-7]", 0), ("K1[-6]", -12)]:
        assert pretzel_slope(K(text)) == make_slope(framing, 1), text


def test_pretzel_slope_consistent_with_transport():
    knot = K("K1[-1/2,1/3]")
    slope = pretzel_slope(knot)
    assert transport_slope(knot, slope, 3) == make_slope(20, 1)


def test_pretzel_slope_shape_errors():
    with pytest.raises(NoPretzelSurfaceError):
        pretzel_slope(K("K1[-1/2,2/5]"))
    with pytest.raises(NoPretzelSurfaceError):
        pretzel_slope(K("K1[7/2]"))
    with pytest.raises(NoPretzelSurfaceError):  # the strand-tracing oracle refuses it too
        tracing.pretzel_framing((make_slope(2, 3),), 0)


def test_parse_knot_returns_the_same_knot_for_the_same_text():
    text = "K1[-1/2,1/3]"
    assert K(text) == K(text) == WrappedKnot(1, T("[-1/2,1/3]"))


def test_failed_parses_are_not_cached():
    cli = importlib.import_module("wrapsurg.cli")
    kept, asked = len(cli._kept_knots), set(cli._asked_once)
    for _ in range(3):
        with pytest.raises(ParseError) as caught:
            cli._knot("K0[1/2,x/3]")
        assert caught.value.position == 7
        with pytest.raises(NotAKnotError):
            cli._knot("K0[-1/2]")
    assert len(cli._kept_knots) == kept and cli._asked_once == asked


def test_parse_knot_round_trip():
    for text in ["K0[2]", "K1[-1/2,1/3]", "K0[5/3,-2/3]"]:
        assert str(parse_knot(text)) == text
