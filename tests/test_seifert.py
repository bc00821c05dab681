import random
from fractions import Fraction

import pytest

from wrapsurg import (
    LENS,
    MERIDIAN,
    REDUCIBLE,
    MontesinosLink,
    NotATorusKnotError,
    SeifertInvariants,
    SFSKind,
    double_branched_cover,
    make_slope,
    pretzel_surgery_link,
    sfs_equal,
    torus_knot_surgery,
)
from wrapsurg.seifert import pretzel_surgery

def link(*entries):
    """M(p1/q1, ..., pk/qk) from its (p, q) pairs; (1, 0) is the entry 1/0."""
    return MontesinosLink(tuple(make_slope(p, q) for p, q in entries))


def test_invariant_normalization():
    inv = SeifertInvariants.from_slopes(
        [make_slope(-1, 3), make_slope(3, 5), make_slope(-1, 2)]
    )
    assert inv.e == -2
    assert inv.fibers == ((2, 1), (3, 2), (5, 3))
    assert inv.indices() == (2, 3, 5)


def test_orientation_reversal_is_an_involution():
    rng = random.Random(3)
    for _ in range(100):
        slopes = [
            make_slope(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)
        ]
        inv = SeifertInvariants.from_slopes(slopes)
        assert inv.reversed_orientation().reversed_orientation() == inv


def test_dbc_reducible_on_infinite_entry():
    degenerate = link((-1, 3), (3, 5), (1, 0))
    assert degenerate.entries == (make_slope(-1, 3), make_slope(3, 5), MERIDIAN)
    assert double_branched_cover(degenerate).kind is SFSKind.REDUCIBLE


def test_dbc_small_seifert_with_expected_indices():
    for n in (-3, 0, 4, 7):
        result = double_branched_cover(pretzel_surgery_link(n, 7))
        assert result.kind is SFSKind.SMALL_SEIFERT
        assert result.invariants.indices() == tuple(sorted((3, 5, abs(n - 2))))


def test_dbc_absorbs_integer_entries_into_lens():
    result = double_branched_cover(link((1, 2), (-1, 4), (2, 1)))
    assert result.kind is SFSKind.LENS


def test_dbc_shift_invariance():
    rng = random.Random(5)
    for _ in range(500):
        entries = [
            make_slope(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(3)
        ]
        deltas = [rng.randint(-4, 4) for _ in range(2)]
        deltas.append(-sum(deltas))
        shifted = [s + d for s, d in zip(entries, deltas)]
        left = double_branched_cover(MontesinosLink(tuple(entries)))
        right = double_branched_cover(MontesinosLink(tuple(shifted)))
        assert left == right


def test_dbc_fiber_indices_are_the_normalized_denominators():
    rng = random.Random(9)
    for _ in range(200):
        entries = [
            make_slope(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(4)
        ]
        result = double_branched_cover(MontesinosLink(tuple(entries)))
        expected = sorted(
            f.denominator
            for f in (Fraction(s.p, s.q) % 1 for s in entries)
            if f != 0
        )
        if len(expected) <= 2:
            assert result.kind is SFSKind.LENS
        else:
            assert result.invariants.indices() == tuple(expected)


def test_torus_knot_surgery_known_instances():
    five = torus_knot_surgery(2, 5, make_slope(5, 1))
    assert five.kind is SFSKind.SMALL_SEIFERT
    assert five.invariants.indices() == (2, 5, 5)
    nine = torus_knot_surgery(3, 4, make_slope(9, 1))
    assert nine.kind is SFSKind.SMALL_SEIFERT
    assert nine.invariants.indices() == (3, 3, 4)
    assert not sfs_equal(five, nine)
    assert torus_knot_surgery(3, 5, make_slope(15, 1)).kind is SFSKind.REDUCIBLE
    assert not sfs_equal(LENS, REDUCIBLE)


def test_torus_knot_surgery_lens_and_errors():
    assert torus_knot_surgery(2, 3, make_slope(7, 1)).kind is SFSKind.LENS
    assert torus_knot_surgery(2, 5, make_slope(19, 2)).kind is SFSKind.LENS
    with pytest.raises(NotATorusKnotError):
        torus_knot_surgery(1, 5, make_slope(3, 1))
    with pytest.raises(NotATorusKnotError, match="coprime"):
        torus_knot_surgery(2, 4, make_slope(1, 1))
    with pytest.raises(ValueError):
        torus_knot_surgery(2, 5, MERIDIAN)


def test_torus_knot_surgery_mirror_orientation():
    plain = torus_knot_surgery(2, 5, make_slope(7, 1))
    mirrored = torus_knot_surgery(-2, 5, make_slope(-7, 1))
    assert sfs_equal(plain, mirrored)


def test_pretzel_surgery_link_formulas():
    assert pretzel_surgery_link(2, 7).entries == link((-1, 3), (3, 5), (1, 0)).entries
    assert pretzel_surgery_link(3, 7).entries == link((-1, 3), (3, 5), (1, 1)).entries
    assert pretzel_surgery_link(0, 6).entries == link((1, 2), (-1, 4), (-2, 5)).entries
    with pytest.raises(ValueError):
        pretzel_surgery_link(0, 5)


def test_cross_validation_against_torus_knot_members():
    # The 0-, 1-, and 2-twisted members are torus knots, so the branch-locus
    # covers must agree with the independent surgery classification.
    pairs = [
        (pretzel_surgery_link(0, 7), torus_knot_surgery(2, 5, make_slope(7, 1))),
        (pretzel_surgery_link(1, 6), torus_knot_surgery(3, 4, make_slope(10, 1))),
        (pretzel_surgery_link(0, 6), torus_knot_surgery(2, 5, make_slope(6, 1))),
        (pretzel_surgery_link(2, 6), torus_knot_surgery(3, 5, make_slope(14, 1))),
    ]
    for link, surgery in pairs:
        assert sfs_equal(double_branched_cover(link), surgery)
    lens_pair = (
        double_branched_cover(pretzel_surgery_link(1, 7)),
        torus_knot_surgery(3, 4, make_slope(11, 1)),
    )
    assert all(x.kind is SFSKind.LENS for x in lens_pair)
    assert sfs_equal(*lens_pair)


def test_homology_order_is_the_order_of_h1():
    # Lens spaces L(p, q) as M(q/p, n) over S^2 and the Poincare sphere.
    assert SeifertInvariants.from_slopes([make_slope(3, 7)]).homology_order() == 3
    assert SeifertInvariants.from_slopes([make_slope(2, 5), make_slope(4, 1)]).homology_order() == 22
    poincare = [make_slope(-1, 2), make_slope(1, 3), make_slope(1, 5)]
    assert SeifertInvariants.from_slopes(poincare).homology_order() == 1
    assert SeifertInvariants.from_slopes([make_slope(1, 2), make_slope(-1, 2)]).homology_order() == 0


def test_every_small_seifert_pretzel_surgery_has_the_homology_of_its_slope():
    # The (base + 4n)-surgery on a knot in S^3 has |H1| = |base + 4n|;
    # pretzel_surgery checks each small Seifert cover for it and raises if not.
    rows = 0
    for base in (6, 7):
        for n in range(-40, 41):
            cover = pretzel_surgery(n, base)
            if cover.kind is SFSKind.SMALL_SEIFERT:
                assert cover.invariants.homology_order() == abs(base + 4 * n), (n, base)
                rows += 1
    assert rows == 157


def test_sfs_equal_reorders_and_reverses():
    x = SeifertInvariants.from_slopes(
        [make_slope(1, 2), make_slope(2, 5), make_slope(4, 5)]
    )
    reordered = SeifertInvariants.from_slopes(
        [make_slope(2, 5), make_slope(4, 5), make_slope(1, 2)]
    )
    assert x == reordered
    from wrapsurg import SFSClass

    a = SFSClass(SFSKind.SMALL_SEIFERT, x)
    flipped = SFSClass(SFSKind.SMALL_SEIFERT, x.reversed_orientation())
    assert sfs_equal(a, flipped)
    assert not sfs_equal(
        a, SFSClass(SFSKind.SMALL_SEIFERT, SeifertInvariants(0, ((2, 1), (3, 1), (7, 1))))
    )
