"""Classification of Dehn surgeries on wrapped Montesinos knots.

Every knot is reduced to a canonical representative under the equivalence
moves (a mirror negates a slope, a meridional twist by m shifts it by
m * wind^2).  `_decide` names the knot's class from its normal form and
returns the class's table, which lists its exceptional surgeries at
canonical slopes: `_WHITEHEAD_TABLE`, `_PRETZEL_2_3_TABLE`, or the one
spanning-surface slope of `_spanning_surface_table` for a single integer
entry or a genuine pretzel.  Every other slope, including every
non-integral one, is hyperbolic.  The canonical representative is never
built as a knot: the knot's own closure is the only one traced, and the
push-off oracle reads the canonical entries.

Each knot's `Analysis` (cached) holds its class's table restated at the
knot's own slopes: the slope map r = sigma * (rc - twists * wind^2) is
applied once, when the analysis is built, and every answer is read off that
mapping.  A sweep over integral slopes therefore reads each row off the
exceptional set: the exceptional type at that slope, else hyperbolic.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .seifert import (
    SFSClass,
    double_branched_cover,
    pretzel_surgery_link,
    sfs_equal,
    torus_knot_surgery,
)
from .slopes import InconsistentCrossCheckError, Slope, make_slope
from .tangles import NormalForm, normalize
from .tracing import pretzel_framing
from .wrapped import _KNOT_CACHE_SIZE, WrappedKnot


class DegenerateKnotError(ValueError):
    """The knot is equivalent to a 0 or 1/q entry and is not hyperbolic."""


class SurgeryType(Enum):
    TRIVIAL_FILLING = "trivial-filling"
    NON_HYPERBOLIC_KNOT = "non-hyperbolic-knot"
    HYPERBOLIC = "hyperbolic"
    TOROIDAL = "toroidal"
    SMALL_SEIFERT = "small-seifert"
    REDUCIBLE = "reducible"


class ToroidalSource(Enum):
    PRETZEL_SURFACE = "pretzel-surface"
    WHITEHEAD_SLOPE = "whitehead-slope"
    TORUS_PIECE = "torus-piece"


@dataclass(frozen=True, slots=True)
class ToroidalCertificate:
    """Why the surgered manifold contains an essential torus.

    `slope` is the table entry's slope at the reduced knot of the class; the
    knot's own slope is sigma * (slope - twists * wind^2), with the mirror
    sign and meridional twists of its reduction (`--moves` prints them).
    """

    source: ToroidalSource
    slope: Slope
    piece_indices: tuple[int, int] | None = None
    piece: str | None = None


@dataclass(frozen=True, slots=True)
class SurgeryClassification:
    type: SurgeryType
    slope: Slope
    certificate: ToroidalCertificate | None = None
    seifert_indices: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()


class KnotClass(Enum):
    DEGENERATE = "degenerate"
    WHITEHEAD = "whitehead"
    WHITEHEAD_MATE = "whitehead-mate"  # single entry 2 closed with a = 1
    INTEGER_TANGLE = "integer-tangle"
    SINGLE_FRACTION = "single-fraction"
    PRETZEL = "pretzel"
    PRETZEL_2_3 = "pretzel-2-3"  # the wrapped (-2, 3) pretzel
    GENERIC = "generic"


class FamilyKind(Enum):
    TOROIDAL_COFINITE = "toroidal-cofinite"
    SEIFERT_OR_REDUCIBLE = "seifert-or-reducible"
    HYPERBOLIC_INTERIOR = "hyperbolic-interior"


@dataclass(frozen=True, slots=True)
class FamilyPrediction:
    """Behaviour of the surgeries on every re-embedding of the solid torus.

    Toroidal surgeries stay toroidal outside a window of at most three
    consecutive twist parameters centered at n0 (None when not pinned);
    small Seifert surgeries make every member reducible or small Seifert
    with the two recorded fiber indices.
    """

    kind: FamilyKind
    n0: int | None = None
    fiber_indices: tuple[int, int] | None = None


@dataclass(frozen=True, slots=True)
class _TableEntry:
    type: SurgeryType
    certificate: ToroidalCertificate | None = None
    indices: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()
    n0: int | None = None     # canonical center of the non-toroidal window
    s3_cover: bool = False    # S^3 surgeries known from the branch-locus cover


def _toroidal(source, r, piece_indices=None, piece=None, **extra) -> _TableEntry:
    certificate = ToroidalCertificate(source, make_slope(r, 1), piece_indices, piece)
    return _TableEntry(SurgeryType.TOROIDAL, certificate, **extra)


_UNSPECIFIED = _TableEntry(SurgeryType.SMALL_SEIFERT, notes=("fiber indices unspecified",))

# The exceptional surgeries of each class with a table, at canonical slopes.
_WHITEHEAD_TABLE = MappingProxyType({
    0: _toroidal(ToroidalSource.WHITEHEAD_SLOPE, 0),
    1: _UNSPECIFIED,
    2: _UNSPECIFIED,
    3: _UNSPECIFIED,
    4: _toroidal(ToroidalSource.WHITEHEAD_SLOPE, 4),
})
_PRETZEL_2_3_TABLE = MappingProxyType({
    6: _toroidal(
        ToroidalSource.TORUS_PIECE, 6, (2, 4),
        "essential torus bounding a small Seifert piece with fiber indices {2,4}",
        s3_cover=True,
    ),
    7: _TableEntry(SurgeryType.SMALL_SEIFERT, indices=(3, 5), s3_cover=True),
    8: _toroidal(
        ToroidalSource.TORUS_PIECE, 8, None,
        "essential torus bounding a twisted I-bundle over the Klein bottle",
        n0=1,  # the torus-knot members n = 0, 1, 2 are the non-toroidal window
    ),
})
# An integer entry or a pretzel gets `_spanning_surface_table`; any other
# class without a table here has no exceptional slope, and its analysis holds
# this same empty mapping.
_NO_TABLE: MappingProxyType = MappingProxyType({})
# Notes carried by every answer for a knot of the class.
_NOTES = {
    KnotClass.WHITEHEAD_MATE: (
        "single entry 2 closed with a = 1; the implemented moves "
        "do not identify it with the Whitehead closure",
    ),
}
# The twisted images of the (-2, 3) pretzel that are torus knots T(p, q).
_TORUS_KNOT_MEMBERS = {0: (2, 5), 1: (3, 4), 2: (3, 5)}


@dataclass(frozen=True, slots=True)
class Analysis:
    knot: WrappedKnot
    nf: NormalForm
    knot_class: KnotClass
    sigma: int          # -1 when the reduction mirrors the knot
    twists: int         # meridional twist moves applied after mirroring
    # The class's table at the knot's own slopes, ascending: each exceptional
    # slope to its canonical slope and the table entry there.
    table: MappingProxyType[Slope, tuple[int, _TableEntry]]
    notes: tuple[str, ...]
    moves: tuple[str, ...]

    def classify(self, r: Slope) -> SurgeryClassification:
        """Classify r-surgery: the table entry at r, if any."""
        if r.is_meridian():
            return SurgeryClassification(SurgeryType.TRIVIAL_FILLING, r)
        if self.knot_class is KnotClass.DEGENERATE:
            return SurgeryClassification(SurgeryType.NON_HYPERBOLIC_KNOT, r)
        return self._answer(r, self.table.get(r, (None, None))[1])

    def _answer(self, r: Slope, entry: _TableEntry | None) -> SurgeryClassification:
        """r-surgery as the table entry at r states it."""
        if entry is None:
            return SurgeryClassification(SurgeryType.HYPERBOLIC, r, notes=self.notes)
        return SurgeryClassification(
            entry.type,
            r,
            certificate=entry.certificate,
            seifert_indices=entry.indices,
            notes=entry.notes + self.notes,
        )

    def exceptional_slopes(self) -> list[tuple[Slope, SurgeryClassification]]:
        """The table entries at the input knot's own slopes, in increasing
        order; every slope is integral."""
        self.require_hyperbolic()
        return [(r, self._answer(r, entry)) for r, (_, entry) in self.table.items()]

    def predict(self, r: Slope) -> FamilyPrediction:
        if r.is_meridian():
            raise ValueError("the meridian filling is trivial for every embedding")
        self.require_hyperbolic()
        entry = self.table.get(r, (None, None))[1]
        if entry is None:
            return FamilyPrediction(FamilyKind.HYPERBOLIC_INTERIOR)
        if entry.type is SurgeryType.SMALL_SEIFERT:
            return FamilyPrediction(
                FamilyKind.SEIFERT_OR_REDUCIBLE, fiber_indices=entry.indices
            )
        n0 = None if entry.n0 is None else self.sigma * (entry.n0 + self.twists)
        return FamilyPrediction(FamilyKind.TOROIDAL_COFINITE, n0=n0)

    def surgery_in_s3(self, r: Slope, n: int) -> SFSClass | None:
        rc, entry = self.table.get(r, (None, None))
        if entry is None or not entry.s3_cover:
            return None
        nc = self.sigma * n - self.twists
        result = double_branched_cover(pretzel_surgery_link(nc, rc))
        if nc in _TORUS_KNOT_MEMBERS:
            p, q = _TORUS_KNOT_MEMBERS[nc]
            check = torus_knot_surgery(p, q, make_slope(rc + 4 * nc, 1))
            if not sfs_equal(result, check):
                raise InconsistentCrossCheckError(
                    f"branch-locus cover {result} disagrees with torus-knot "
                    f"surgery {check} at twist {nc}"
                )
        return result

    def require_hyperbolic(self) -> None:
        """Raise `DegenerateKnotError` for a degenerate knot, never hyperbolic."""
        if self.knot_class is KnotClass.DEGENERATE:
            raise DegenerateKnotError(
                f"{self.knot} reduces to a trivial wrapped pattern and is not hyperbolic"
            )


def _unit_fraction_shifts(frac: Slope) -> list[int]:
    """Integers q with 1/q congruent to the given fraction mod 1."""
    value = frac.as_fraction()
    out = []
    if value.numerator == 1:
        out.append(value.denominator)
    below = value - 1
    if below.numerator == -1:
        out.append(-below.denominator)
    return out


def _find_pretzel_pair(nf: NormalForm) -> tuple[int, int] | None:
    if len(nf.fracs) != 2:
        return None
    total = nf.entry_sum()
    found = None
    for q1 in _unit_fraction_shifts(nf.fracs[0]):
        for q2 in _unit_fraction_shifts(nf.fracs[1]):
            if Fraction(1, q1) + Fraction(1, q2) == total:
                pair = (q1, q2)
                if found is not None and sorted(found) != sorted(pair):
                    raise InconsistentCrossCheckError(
                        f"pretzel pairs {found} and {pair} both sum to {total}"
                    )
                found = pair
    return found


@lru_cache(maxsize=None)
def _oracle_self_check() -> None:
    """Anchor the push-off linking oracle before the classifier trusts it."""
    anchors = [
        ((make_slope(-1, 2), make_slope(1, 3)), 1, 8),
        ((make_slope(3, 1),), 0, 0),
        ((make_slope(4, 1),), 1, 8),
    ]
    for entries, a, expected in anchors:
        framing = pretzel_framing(entries, a)
        if framing != expected:
            raise InconsistentCrossCheckError(
                f"push-off oracle gives {framing} for {_knot_text(a, entries)}, "
                f"expected {expected}"
            )


def _knot_text(a: int, entries: tuple[Slope, ...]) -> str:
    return f"K{a}[{','.join(map(str, entries))}]"


def _decide(
    a: int, nf: NormalForm
) -> tuple[KnotClass, int, int, MappingProxyType[int, _TableEntry]]:
    """The knot class, the mirror sign, the meridional twists and the
    class's table of exceptional surgeries at canonical slopes."""
    if nf.degenerate:
        return KnotClass.DEGENERATE, 1, 0, _NO_TABLE
    if nf.k1 is not None:
        t = nf.k1.t
        sigma, twists = -1 if nf.k1.mirrored else 1, nf.k1.twists
        if not t.is_integral():
            return KnotClass.SINGLE_FRACTION, sigma, twists, _NO_TABLE
        if t.p != 2:
            return KnotClass.INTEGER_TANGLE, sigma, twists, _spanning_surface_table(a, (t,))
        if a == 0:
            return KnotClass.WHITEHEAD, sigma, twists, _WHITEHEAD_TABLE
        return KnotClass.WHITEHEAD_MATE, sigma, twists, _NO_TABLE
    pair = _find_pretzel_pair(nf)
    if pair is None:
        return KnotClass.GENERIC, 1, 0, _NO_TABLE
    if sorted(pair) not in ([-2, 3], [-3, 2]):
        entries = tuple(make_slope(1, q) for q in pair)
        return KnotClass.PRETZEL, 1, 0, _spanning_surface_table(a, entries)
    sigma = -1 if sorted(pair) == [-3, 2] else 1  # mirror (-3, 2) to (-2, 3)
    return KnotClass.PRETZEL_2_3, sigma, 0, _PRETZEL_2_3_TABLE


@lru_cache(maxsize=_KNOT_CACHE_SIZE)
def _analyze(knot: WrappedKnot) -> Analysis:
    _oracle_self_check()
    nf = normalize(knot.tangle)
    knot_class, sigma, twists, table = _decide(knot.a, nf)
    if table:
        shift = twists * knot.winding ** 2
        table = MappingProxyType(dict(sorted(
            (make_slope(sigma * (rc - shift), 1), (rc, entry)) for rc, entry in table.items()
        )))

    moves: list[str] = []
    if knot.tangle.entries != nf.as_tangle().entries:
        moves.append("integer shifts (sum preserved, zero entries dropped)")
    if sigma < 0:
        moves.append("mirror (surgery slopes negate)")
    if twists:
        if knot.winding == 2:
            effect = f"slopes shift by {4 * twists}"
        else:
            effect = "slopes unchanged, winding 0"
        moves.append(f"meridional twist m={twists} ({effect})")

    return Analysis(
        knot=knot,
        nf=nf,
        knot_class=knot_class,
        sigma=sigma,
        twists=twists,
        table=table,
        notes=_NOTES.get(knot_class, ()),
        moves=tuple(moves),
    )


def _spanning_surface_table(
    a: int, entries: tuple[Slope, ...]
) -> MappingProxyType[int, _TableEntry]:
    """One toroidal slope, along the boundary of the evident spanning surface
    of the canonical knot with these entries; for a single integer entry m it
    must be 0 when a = 0, else 2m."""
    framing = pretzel_framing(entries, a)
    if len(entries) == 1:
        expected = 0 if a == 0 else 2 * entries[0].p
        if framing != expected:
            raise InconsistentCrossCheckError(
                f"spanning-surface slope {framing} of {_knot_text(a, entries)} "
                f"does not match the classified value {expected}"
            )
    return MappingProxyType({framing: _toroidal(ToroidalSource.PRETZEL_SURFACE, framing)})


def classify(knot: WrappedKnot, r: Slope) -> SurgeryClassification:
    """Classify r-surgery on the wrapped knot in its solid torus."""
    return _analyze(knot).classify(r)


def exceptional_slopes(
    knot: WrappedKnot,
) -> list[tuple[Slope, SurgeryClassification]]:
    """The complete finite set of exceptional slopes, in increasing order."""
    return _analyze(knot).exceptional_slopes()


def predict_s3_family(knot: WrappedKnot, r: Slope) -> FamilyPrediction:
    """Dichotomy satisfied by the surgeries on all twisted embeddings."""
    return _analyze(knot).predict(r)


def surgery_in_s3(knot: WrappedKnot, r: Slope, n: int) -> SFSClass | None:
    """Identify the surgered manifold of the n-twisted image, when known.

    Known exactly for knots equivalent to the wrapped (-2, 3) pretzel at the
    two small Seifert slopes, where the branch locus of the surgery is an
    explicit Montesinos link; members that are torus knots are cross-checked
    against the independent torus-knot surgery classification.
    """
    return _analyze(knot).surgery_in_s3(r, n)


def analysis_of(knot: WrappedKnot) -> Analysis:
    """Cached analysis of a knot (moves, class, exceptional table at its slopes)."""
    return _analyze(knot)
