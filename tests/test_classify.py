import contextlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import count_calls, random_knot
from test_golden_cli import _grid_slopes
from wrapsurg import (
    MERIDIAN,
    DegenerateKnotError,
    FamilyKind,
    KnotClass,
    MontesinosTangle,
    Move,
    NormalForm,
    NotAKnotError,
    Pairing,
    SFSKind,
    SurgeryType,
    ToroidalSource,
    WrappedKnot,
    analysis_of,
    classify,
    equivalent,
    exceptional_slopes,
    make_slope,
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
from wrapsurg.classify import _FIXED_TABLES, SlopeMap, _class_table, _reduce
from wrapsurg.cli import main
from wrapsurg.slopes import Record
from wrapsurg.tangles import closure_facts, twist_shift
from wrapsurg.tracing import pretzel_framing

K = parse_knot
T = parse_tangle


def s(p, q=1):
    return make_slope(p, q)


# -- single classifications ---------------------------------------------------


def test_trivial_filling():
    assert classify(K("K0[2]"), MERIDIAN).type is SurgeryType.TRIVIAL_FILLING
    with pytest.raises(ValueError, match="the meridian filling is trivial"):
        predict_s3_family(K("K0[2]"), MERIDIAN)


def test_degenerate_knots_are_never_hyperbolic_inputs():
    knot = K("K1[-1/2]")
    for r in [s(0), s(7), s(5, 2)]:
        assert classify(knot, r).type is SurgeryType.NON_HYPERBOLIC_KNOT
    with pytest.raises(DegenerateKnotError) as raised:
        exceptional_slopes(knot)
    # Worded when read, from the knot the error keeps.
    assert str(raised.value) == (
        "K1[-1/2] reduces to a trivial wrapped pattern and is not hyperbolic")


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
    assert analysis_of(knot).slope_map.twists == -25
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


def test_a_cover_past_the_digit_limit_is_given_but_not_written():
    # Its integers have more digits than Python writes as text: the library
    # gives the cover, and only its text, which the CLI reports as too long,
    # fails.
    analysis = analysis_of(K("K1[-1/2,1/3]"))
    n = 10**4400
    [(_, cover)] = analysis.surgeries_in_s3(s(7), range(n, n + 1))
    assert cover.kind is SFSKind.SMALL_SEIFERT
    with pytest.raises(ValueError, match="integer string conversion"):
        str(cover)


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
        return WrappedKnot(knot.a, shift_tangle(tangle, deltas)), r
    if choice == 1:
        return WrappedKnot(knot.a, reverse_tangle(tangle)), r
    if choice == 2:
        return WrappedKnot(knot.a, mirror_tangle(tangle)), -r
    if len(tangle.entries) == 1 and tangle.entries[0].p != 0:
        m = rng.randint(-3, 3)
        t = Fraction(tangle.entries[0].p, tangle.entries[0].q)
        if 2 * m + 1 / t != 0:
            moved = WrappedKnot(knot.a, twist_tangle(tangle, m))
            shift = 0 if r.is_meridian() else m * wind * wind
            return moved, r + shift
    return WrappedKnot(knot.a, reverse_tangle(tangle)), r


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
# (-2, 3) pretzel and the Whitehead closure come up among the random knots;
# one draw in four is an entry of more than 100 digits, an integer or a
# fraction.
_long_numerators = st.one_of(st.integers(10**100, 10**120), st.integers(-10**120, -10**100))
_entries = st.one_of(
    st.builds(make_slope, st.sampled_from([-1, 1]), st.integers(2, 4)),
    st.builds(make_slope, st.integers(-3, 3), st.just(1)),
    st.builds(make_slope, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(make_slope, _long_numerators, st.sampled_from([1, 2, 3, 7, 10**30 + 1])),
)


@st.composite
def _knots(draw):
    tangle = MontesinosTangle(draw(st.lists(_entries, min_size=1, max_size=5)))
    for a in draw(st.permutations([0, 1])):
        try:
            return WrappedKnot(a, tangle)
        except NotAKnotError:
            continue
    assume(False)


def _exceptional(knot, sign=1, shift=0, n0_shift=0):
    """The knot's exceptional set, or None for a degenerate knot: at each
    slope r, carried to sign * r + shift, its answer's type and indices and
    its family's kind, fiber indices and n0, carried to sign * n0 + n0_shift.
    Certificates are left out: they state canonical slopes, and a pretzel is
    not reduced to one side of its mirror pair."""
    analysis = analysis_of(knot)
    if analysis.knot_class is KnotClass.DEGENERATE:
        return None
    carried = {}
    for r, result in analysis.exceptional_slopes():
        family = analysis.predict(r)
        n0 = None if family.n0 is None else sign * family.n0 + n0_shift
        carried[(-r if sign < 0 else r) + shift] = (
            result.type, result.seifert_indices, family.kind, family.fiber_indices, n0)
    return carried


# One to three moves: a reverse, a shift by the deltas (one per entry but the
# last, which takes their negated sum), a mirror, or a twist by m of a single
# entry.
_move_sequences = st.lists(
    st.tuples(st.sampled_from(["reverse", "shift", "mirror", "twist"]),
              st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(-3, 3)),
    min_size=1, max_size=3,
)


@given(_knots(), _move_sequences)
# The (-2, 3) pretzel, whose slope 8 has the one family with an n0.
@example(K("K1[-1/2,1/3]"),
         [("shift", [1, 0, 0, 0], 0), ("reverse", [0, 0, 0, 0], 0), ("mirror", [0, 0, 0, 0], 0)])
def test_moves_keep_the_class_and_transport_the_exceptional_set(knot, moves):
    # The moves compose to r -> sign * r + shift on slopes and to
    # n0 -> sign * n0 + n0_shift on twists: a mirror negates both maps, and a
    # twist by m adds m * wind^2 to slopes and -m to twists.
    a, wind = knot.a, knot.winding
    knot_class = analysis_of(knot).knot_class
    moved, sign, shift, n0_shift, stated = knot, 1, 0, 0, True
    for kind, deltas, m in moves:
        tangle = moved.tangle
        if kind == "reverse":
            image = reverse_tangle(tangle)
        elif kind == "shift":
            deltas = deltas[: len(tangle.entries) - 1]
            image = shift_tangle(tangle, deltas + [-sum(deltas)])
        elif kind == "mirror":
            image = mirror_tangle(tangle)
            sign, shift, n0_shift = -sign, -shift, -n0_shift
            # Under a = 1 and winding 2 the mirror also flips the wrap
            # crossing, so the true map is r -> -r + 4, which the classifier
            # does not apply yet; that case is left out here.
            stated = stated and (a == 0 or wind == 0)
        elif len(tangle.entries) == 1 and knot_class is not KnotClass.DEGENERATE:
            image = twist_tangle(tangle, m)
            shift, n0_shift = shift + m * wind**2, n0_shift - m
        else:
            continue
        moved = WrappedKnot(a, image)
        assert analysis_of(moved).knot_class is knot_class, (str(knot), str(moved))
        if stated:
            assert _exceptional(moved) == _exceptional(knot, sign, shift, n0_shift), (
                str(knot), str(moved))


# -- structural laws over an exhaustive grid ----------------------------------


def _grid_knots():
    entries = _grid_slopes()
    knots = []
    for a in (0, 1):
        for t1 in entries:
            for tangle in [parse_tangle(f"[{t1}]")] + [
                parse_tangle(f"[{t1},{t2}]") for t2 in entries
            ]:
                try:
                    knots.append(WrappedKnot(a, tangle))
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
        expected = {r.p: c.type for r, c in analysis.exceptional_slopes()}
        for value in range(-30, 31):
            result = analysis.classify(s(value))
            assert result.type is expected.get(value, SurgeryType.HYPERBOLIC)
        for r in (s(7, 2), s(11, 3), s(-9, 2)):
            assert analysis.classify(r).type is SurgeryType.HYPERBOLIC


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


# -- one reduction: the moves and the slope map -------------------------------


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_moves_text_json_and_witnesses_read_one_reduction_on_grid():
    for knot in GRID:
        text, analysis = str(knot), analysis_of(knot)
        moves = analysis.moves
        assert all(type(move) is Move for move in moves), text
        lines = [line for line in _cli("normalize", text, "--moves").splitlines()
                 if line.startswith("move: ")]
        assert lines == [f"move: {move}" for move in moves], text
        answer = json.loads(_cli("normalize", text, "--moves", "--format", "json"))
        assert answer["equivalence_moves"] == [str(move) for move in moves], text
        tangle = knot.tangle
        for image in (tangle, reverse_tangle(tangle), mirror_tangle(tangle),
                      normalize(tangle).as_tangle()):
            assert equivalent(tangle, image)[:len(moves)] == list(moves), (text, str(image))


def _records_lines(knot, analysis, *slopes):
    """The lines of a text answer, laid out from each record's `str()`."""
    nf = analysis.nf
    lines = [f"knot: {knot}", f"normal form: {nf}"]
    if nf.k1 is not None:
        lines.append(f"canonical single entry: {nf.k1}")
    for r in slopes:
        answer = analysis.classify(r)
        lines += [f"classification: {answer} at slope {r}", f"family: {analysis.predict(r)}"]
    return lines


def test_each_text_line_is_a_records_str_on_grid():
    for knot in GRID:
        text, analysis = str(knot), analysis_of(knot)
        head = _records_lines(text, analysis)
        assert _cli("normalize", text).splitlines() == head, text
        if analysis.nf.degenerate:
            continue
        exceptional = analysis.exceptional_slopes()
        block = [f"exceptional {r}: {answer}" for r, answer in exceptional]
        assert _cli("slopes", text).splitlines() == head + (block or ["exceptional slopes: none"])
        for r in [r for r, _ in exceptional] + [s(5)]:
            lines = _cli("predict", text, str(r)).splitlines()
            assert lines == _records_lines(text, analysis, r), (text, str(r))
        records = [analysis.nf, analysis.nf.k1, analysis.predict(s(5))]
        for r, answer in exceptional:
            records += [answer, answer.certificate, analysis.predict(r)]
        for record in filter(None, records):
            # `repr()` still lists the fields; `str()` is the text answers' wording.
            assert repr(record) == Record.__repr__(record) != str(record), text


def test_each_record_writes_the_papers_wording():
    analysis = analysis_of(K("K1[-1/2,1/3]"))
    assert [(str(answer), str(analysis.predict(r))) for r, answer in analysis.exceptional] == [
        ("toroidal [torus-piece: essential torus bounding a small Seifert piece with fiber"
         " indices {2,4}]", "toroidal for all but at most three embeddings"),
        ("small-seifert (fiber indices 3,5)",
         "every embedding is reducible or small Seifert fibered with fiber indices 3,5"),
        ("toroidal [torus-piece: essential torus bounding a twisted I-bundle over the Klein"
         " bottle]", "toroidal for all but at most three embeddings except within 1 of n0=1"),
    ]
    assert str(classify(K("K0[-1/3,-1/3]"), s(-12))) == "toroidal [pretzel-surface: slope -12]"
    assert str(predict_s3_family(K("K0[2]"), s(5))) == (
        "hyperbolic for all but finitely many embeddings")
    forms = [normalize(T(text)) for text in ("[-5/3]", "[5/7]", "[1/3]", "[2]")]
    assert [(str(nf), str(nf.k1)) for nf in forms] == [
        ("e0=-2 fracs=[1/3]", "t=5/3 (mirrored)"),
        ("e0=0 fracs=[5/7]", "t=5/3 (mirrored, twists=1)"),
        ("e0=0 fracs=[1/3]  [degenerate]", "None"),
        ("e0=2 fracs=[]", "t=2"),
    ]


def test_a_cold_analysis_builds_no_move_on_grid(monkeypatch):
    # The moves are derived from the slope map when read (`Analysis.moves`):
    # analysing the grid builds no `Move` and no normal form's tangle.
    calls = {}
    count_calls(monkeypatch, calls, NormalForm, "as_tangle")
    init = Move.__init__

    def counting(self, *values):
        calls["Move"] = calls.get("Move", 0) + 1
        init(self, *values)

    monkeypatch.setattr(Move, "__init__", counting)
    analyses = [analysis_of(knot) for knot in GRID]
    assert calls == {}
    # Reading the moves derives them, and the counters see it.
    for analysis in analyses:
        analysis.moves
    assert calls["as_tangle"] == len(GRID) and calls["Move"]


def test_the_slope_map_sends_each_canonical_slope_to_the_knots_own_on_grid():
    for knot in GRID:
        analysis = analysis_of(knot)
        slope_map, table = analysis.slope_map, analysis.table
        if analysis.knot_class in _FIXED_TABLES:
            for rc, (answer, family, _) in _FIXED_TABLES[analysis.knot_class].items():
                mine, my_family, _ = table[slope_map.slope(rc)]
                assert mine.type is answer.type, str(knot)
                n0 = None if family.n0 is None else slope_map.n0(family.n0)
                assert my_family.n0 == n0, str(knot)
            continue
        # A spanning-surface table: its one slope is the certificate's, canonical.
        canonical = [answer.certificate.slope.p for _, answer in analysis.exceptional]
        assert [slope_map.slope(rc) for rc in canonical] == list(table), str(knot)


def test_the_slope_maps_twist_halves_are_inverse_on_grid():
    # `n0` and `canonical_twist` undo each other under either sign: a map
    # that drops sigma from one of them fails under the mirror.
    twisted = 0
    for knot in GRID:
        found = analysis_of(knot).slope_map
        twists = found.twists
        twisted += twists != 0
        for slope_map in (SlopeMap(1, twists, found.shift), SlopeMap(-1, twists, found.shift)):
            for n in range(-3, 4):
                assert slope_map.canonical_twist(slope_map.n0(n)) == n, (str(knot), slope_map)
                assert slope_map.n0(slope_map.canonical_twist(n)) == n, (str(knot), slope_map)
    assert twisted


# The golden runner checks the grid's answers on every supported version;
# this is the shift they rest on, so it runs beside them.
@pytest.mark.version_sensitive
def test_the_slope_maps_shift_is_the_knots_on_grid():
    # `_reduce` sets the shift from the knot's winding and the table is
    # restated without the source's knot, which is sound because the
    # source's closure winds as the knot does.
    shifted = 0
    for knot in GRID:
        analysis = analysis_of(knot)
        if not analysis.table:
            continue
        slope_map = analysis.slope_map
        assert slope_map.shift == twist_shift(slope_map.twists, knot.winding), str(knot)
        twist_moves = [move for move in analysis.moves if move.kind == "twist"]
        assert [move.shift for move in twist_moves] == [slope_map.shift] * bool(slope_map.twists)
        _, a, entries = _reduce(knot.a, knot.tangle, knot.winding)[2]
        assert closure_facts(entries, a)[1] == knot.winding, str(knot)
        shifted += slope_map.shift != 0
    assert shifted


def test_only_a_spanning_surface_table_builds_a_knot(monkeypatch):
    # A miss of `_class_table` on a fixed table restates it by the slope map
    # alone; a spanning-surface table traces the source's knot.
    reductions = [_reduce(knot.a, knot.tangle, knot.winding) for knot in GRID]
    misses = [(source, slope_map) for _, _, source, slope_map in reductions if source]
    built = []
    init = WrappedKnot.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(WrappedKnot, "__init__", counting)
    classes = set()
    for source, slope_map in misses:
        built.clear()
        _class_table.__wrapped__(source, slope_map)
        assert len(built) == (source[0] not in _FIXED_TABLES), source
        classes.add(source[0])
    assert classes >= {KnotClass.WHITEHEAD, KnotClass.PRETZEL_2_3, KnotClass.PRETZEL}


# The mirrored (-3, 2) pretzels restate the canonical twisted I-bundle slope 8
# as -8, but the framing of their own spanning surface is -4: for a = 1 the
# mirror moves slopes by r -> -r + 4.
_MIRROR_MAP = pytest.mark.xfail(strict=True, reason="ROADMAP item 1b")
_PRETZEL_SHAPED_2_3 = ["K1[-1/2,1/3]", "K1[1/3,-1/2]", "K1[1/2,-1/3]", "K1[-1/3,1/2]"]


def test_the_pretzel_shaped_2_3_grid_knots_are_the_four():
    found = {str(knot) for knot in GRID
             if analysis_of(knot).knot_class is KnotClass.PRETZEL_2_3
             and all(abs(entry.p) == 1 for entry in knot.tangle.entries)}
    assert found == set(_PRETZEL_SHAPED_2_3)


@pytest.mark.parametrize("text", _PRETZEL_SHAPED_2_3[:2] + [
    pytest.param(text, marks=_MIRROR_MAP) for text in _PRETZEL_SHAPED_2_3[2:]])
def test_the_map_carries_canonical_8_to_the_pretzel_framing(text):
    knot = K(text)
    assert analysis_of(knot).knot_class is KnotClass.PRETZEL_2_3
    framing = pretzel_framing(knot.tangle.entries, knot.a)
    assert analysis_of(knot).slope_map.slope(8) == s(framing)


# The (-2,3)-class grid knots, the ones whose tables reach known S^3 rows.
_PRETZEL_2_3_GRID = [knot for knot in GRID
                     if analysis_of(knot).knot_class is KnotClass.PRETZEL_2_3]
# At canonical 6 the table's family says "toroidal for all but at most three
# embeddings", but every known S^3 row is small Seifert with fibers 2 and 4,
# or lens: ROADMAP item 1a.
_FAMILY_AT_6 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1a: the family at 6")


def _euclidean(indices):
    """Whether a base orbifold S^2 with cone points of these indices is
    Euclidean, so that a Seifert space over it holds an incompressible torus."""
    return sum(1 - Fraction(1, a) for a in indices) == 2


@pytest.mark.parametrize("canonical", [pytest.param(6, marks=_FAMILY_AT_6), 7])
def test_each_family_holds_on_its_known_s3_rows_on_grid(canonical):
    # The paper's dichotomy against the package's own S^3 rows, n in -8..8: a
    # toroidal-cofinite family has at most three members that are not toroidal,
    # and a seifert-or-reducible one has both its fiber indices in each small
    # Seifert member.  No row is toroidal: lens and reducible rows are not, and
    # no small Seifert row has a Euclidean base.
    assert len(_PRETZEL_2_3_GRID) == 16
    wrong = []
    for knot in _PRETZEL_2_3_GRID:
        analysis = analysis_of(knot)
        [r] = [r for r, (_, _, rc) in analysis.table.items() if rc == canonical]
        family = analysis.predict(r)
        rows = [cover for _, cover in analysis.surgeries_in_s3(r, range(-8, 9))]
        seifert = [cover.invariants.indices() for cover in rows
                   if cover.kind is SFSKind.SMALL_SEIFERT]
        assert not any(map(_euclidean, seifert)), knot
        if family.kind is FamilyKind.TOROIDAL_COFINITE:
            holds = len(rows) <= 3
        else:
            assert family.kind is FamilyKind.SEIFERT_OR_REDUCIBLE, knot
            holds = all(set(family.fiber_indices) <= set(indices) for indices in seifert)
        if not holds:
            wrong.append(f"{knot} {r}: {family} against {list(map(str, rows))}")
    assert not wrong, "\n".join(wrong)
