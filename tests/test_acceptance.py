"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
arithmetic is exact; every comparison below is equality, no tolerances.
"""
import random

from conftest import random_knot
from wrapsurg import (
    KnotClass,
    NotAKnotError,
    Pairing,
    SFSKind,
    SurgeryType,
    analysis_of,
    classify,
    distance,
    double_branched_cover,
    exceptional_slopes,
    make_slope,
    parse_knot,
    parse_tangle,
    pretzel_slope,
    pretzel_surgery_link,
    sfs_equal,
    torus_knot_surgery,
    trace_closure,
)
from wrapsurg.tracing import pretzel_framing
from test_classify import GRID, _comparable, _moved


def _criterion(number, description):
    def decorate(func):
        def wrapper():
            try:
                func()
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        wrapper.__name__ = func.__name__
        return wrapper

    return decorate


@_criterion(1, "Whitehead closure: exceptional surgeries are exactly 0..4")
def test_criterion_1_whitehead_table():
    knot = parse_knot("K0[2]")
    table = {r.p: c.type for r, c in exceptional_slopes(knot)}
    assert table == {
        0: SurgeryType.TOROIDAL,
        1: SurgeryType.SMALL_SEIFERT,
        2: SurgeryType.SMALL_SEIFERT,
        3: SurgeryType.SMALL_SEIFERT,
        4: SurgeryType.TOROIDAL,
    }
    for value in range(-20, 21):
        expected = table.get(value, SurgeryType.HYPERBOLIC)
        assert classify(knot, make_slope(value, 1)).type is expected
        half = make_slope(2 * value + 1, 2)
        assert classify(knot, half).type is SurgeryType.HYPERBOLIC


@_criterion(2, "wrapped (-2,3) pretzel: exceptional surgeries are exactly 6,7,8")
def test_criterion_2_pretzel_2_3_table():
    knot = parse_knot("K1[-1/2,1/3]")
    table = exceptional_slopes(knot)
    assert [(r.p, c.type) for r, c in table] == [
        (6, SurgeryType.TOROIDAL),
        (7, SurgeryType.SMALL_SEIFERT),
        (8, SurgeryType.TOROIDAL),
    ]
    seven = classify(knot, make_slope(7, 1))
    assert seven.seifert_indices == (3, 5)
    assert classify(knot, make_slope(5, 1)).type is SurgeryType.HYPERBOLIC
    six = classify(knot, make_slope(6, 1)).certificate
    assert six.piece_indices == (2, 4)


@_criterion(3, "surgery branch loci over n in [-5,10] classify exactly")
def test_criterion_3_surgery_family_reproduction():
    for n in range(-5, 11):
        seven = double_branched_cover(pretzel_surgery_link(n, 7))
        if n == 2:
            assert seven.kind is SFSKind.REDUCIBLE
        elif n in (1, 3):
            assert seven.kind is SFSKind.LENS
        else:
            assert seven.kind is SFSKind.SMALL_SEIFERT
            assert seven.invariants.indices() == tuple(sorted((3, 5, abs(n - 2))))
        six = double_branched_cover(pretzel_surgery_link(n, 6))
        assert six.kind is not SFSKind.REDUCIBLE
        if abs(2 * n - 5) == 1:
            assert six.kind is SFSKind.LENS
        else:
            assert six.kind is SFSKind.SMALL_SEIFERT
    # The n = 3 members are the 18- and 19-surgeries; both are lens spaces.
    assert double_branched_cover(pretzel_surgery_link(3, 6)).kind is SFSKind.LENS
    assert double_branched_cover(pretzel_surgery_link(3, 7)).kind is SFSKind.LENS


@_criterion(4, "torus-knot surgery cross-checks agree exactly")
def test_criterion_4_torus_knot_cross_checks():
    assert sfs_equal(
        double_branched_cover(pretzel_surgery_link(0, 7)),
        torus_knot_surgery(2, 5, make_slope(7, 1)),
    )
    assert sfs_equal(
        double_branched_cover(pretzel_surgery_link(1, 6)),
        torus_knot_surgery(3, 4, make_slope(10, 1)),
    )
    assert torus_knot_surgery(2, 5, make_slope(5, 1)).invariants.indices() == (2, 5, 5)
    assert torus_knot_surgery(3, 4, make_slope(9, 1)).invariants.indices() == (3, 3, 4)
    assert torus_knot_surgery(3, 5, make_slope(15, 1)).kind is SFSKind.REDUCIBLE


@_criterion(5, "classification invariant under 1000+ randomized moves")
def test_criterion_5_equivalence_invariance():
    rng = random.Random(314159)
    for _ in range(1000):
        knot = random_knot(rng, max_entries=3, bound=20)
        r = make_slope(rng.randint(-40, 40) or 1, rng.choice([0, 1, 1, 1, 2, 3]))
        moved_knot, moved_r = _moved(rng, knot, r)
        assert _comparable(classify(knot, r)) == _comparable(
            classify(moved_knot, moved_r)
        )


@_criterion(6, "structural laws hold on the exhaustive k<=2 grid")
def test_criterion_6_structural_laws():
    meridian = make_slope(1, 0)
    for knot in GRID:
        analysis = analysis_of(knot)
        if analysis.knot_class is KnotClass.DEGENERATE:
            continue
        table = analysis.exceptional_slopes()
        count = len(table)
        assert count in (0, 1, 3, 5)
        assert (count == 5) == (analysis.knot_class is KnotClass.WHITEHEAD)
        assert (count == 3) == (analysis.knot_class is KnotClass.PRETZEL_2_3)
        if count == 1:
            assert table[0][1].type is SurgeryType.TOROIDAL
        assert all(r.is_integral() for r, _ in table)
        expected = {r.p: c.type for r, c in table}
        for value in range(-30, 31):
            result = analysis.classify(make_slope(value, 1))
            assert result.type is expected.get(value, SurgeryType.HYPERBOLIC)
        for r in (make_slope(7, 3), make_slope(-11, 4), make_slope(5, 2)):
            assert r.q >= 2  # distance from the meridian is the denominator
            assert analysis.classify(r).type is SurgeryType.HYPERBOLIC


@_criterion(7, "strand-tracing oracles match the anchors and parity classes")
def test_criterion_7_oracles():
    assert parse_knot("K0[2]").winding == 0
    assert parse_knot("K1[-1/2,1/3]").winding == 2
    knot = parse_knot("K1[-1/2,1/3]")
    assert pretzel_slope(knot) == make_slope(8, 1)
    assert pretzel_framing(knot.tangle.entries, knot.a) == 8
    rng = random.Random(161803)
    by_class = {}
    for _ in range(200):
        p = rng.randint(-60, 60)
        q = rng.randint(1, 60)
        if p == 0 and q == 0:
            continue
        slope = make_slope(p, q)
        result = trace_closure((slope,), 0).pairing
        key = (slope.p % 2, slope.q % 2)
        by_class.setdefault(key, result)
        assert by_class[key] is result
    assert len(by_class) == 3


@_criterion(
    8,
    "exceptional sets obey the Lackenby-Meyerhoff bounds on the k<=2 grid; "
    "generic hyperbolicity accepted on authority",
)
def test_criterion_8_exclusion_note():
    # No geometric verification is attempted; the completeness of the
    # classification is exercised structurally by criteria 5 and 6.  What
    # is checked is the bound every hyperbolic knot exterior obeys
    # (Lackenby-Meyerhoff, arXiv:0808.1176): at most 10 exceptional slopes,
    # pairwise at distance at most 8.
    for knot in GRID:
        if analysis_of(knot).knot_class is KnotClass.DEGENERATE:
            continue
        slopes = [r for r, _ in exceptional_slopes(knot)]
        assert len(slopes) <= 10, str(knot)
        for i, r in enumerate(slopes):
            for other in slopes[i + 1:]:
                assert distance(r, other) <= 8, (str(knot), str(r), str(other))
