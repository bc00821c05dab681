"""Classification of Dehn surgeries on wrapped Montesinos knots.

Every knot is first reduced to a canonical representative under the
equivalence moves, tracking how surgery slopes transport (mirror negates a
slope, a meridional twist by m shifts it by m * wind^2).  Exceptional
surgeries then fall into four families:

* the Whitehead closure K^0(2): slopes 0..4, toroidal at the ends and small
  Seifert fibered in between;
* a single integer entry K^a(m) with m > 2: one toroidal surgery along the
  boundary of the evident spanning surface;
* a genuine two-column pretzel K^a(1/q1, 1/q2), |q_i| >= 2, other than the
  (-2, 3) pair: one toroidal surgery at the pretzel slope;
* the wrapped (-2, 3) pretzel K^1(-1/2, 1/3): slopes 6, 7, 8, small Seifert
  with fiber indices {3, 5} at 7 and toroidal at 6 and 8.

Everything else, including every non-integral slope, is hyperbolic.

Each knot's `Analysis` (cached) holds its exceptional table once and answers
every slope from it; the module functions look the analysis up and ask it.
A sweep over integral slopes therefore reads each row off the exceptional
set: the exceptional type at that slope, else hyperbolic.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .seifert import (
    SFSClass,
    double_branched_cover,
    pretzel_surgery_link,
    sfs_equal,
    torus_knot_surgery,
)
from .slopes import InconsistentCrossCheckError, Slope, make_slope
from .tangles import MontesinosTangle, NormalForm, normalize
from .wrapped import (
    _KNOT_CACHE_SIZE,
    WrappedKnot,
    make_wrapped,
    pretzel_slope,
    winding_number,
)


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

    Slopes are stated for the canonical representative of the knot; when the
    reduction used the mirror move the input slope is the negative.
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

    def __str__(self) -> str:
        if self.type is SurgeryType.SMALL_SEIFERT and self.seifert_indices:
            q1, q2 = self.seifert_indices
            return f"small Seifert fibered (fiber indices {q1},{q2})"
        return self.type.value


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


_TORUS_KNOT_MEMBERS = {0: (2, 5), 1: (3, 4), 2: (3, 5)}


@dataclass(frozen=True, slots=True)
class _TableEntry:
    type: SurgeryType
    certificate: ToroidalCertificate | None = None
    indices: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Analysis:
    knot: WrappedKnot
    nf: NormalForm
    wind: int
    knot_class: KnotClass
    sigma: int          # -1 when the reduction mirrors the knot
    twists: int         # meridional twist moves applied after mirroring
    slope_offset: int   # twists * wind^2
    canonical_knot: WrappedKnot | None
    table: dict[int, _TableEntry]
    notes: tuple[str, ...]
    moves: tuple[str, ...]

    def to_canonical(self, r: Slope) -> Slope:
        if r.is_meridian():
            return r
        mirrored = -r if self.sigma < 0 else r
        return mirrored + self.slope_offset

    def from_canonical(self, rc: Slope) -> Slope:
        if rc.is_meridian():
            return rc
        shifted = rc + (-self.slope_offset)
        return -shifted if self.sigma < 0 else shifted

    def classify(self, r: Slope) -> SurgeryClassification:
        """Classify r-surgery: the table entry at r's canonical slope, if any."""
        if r.is_meridian():
            return SurgeryClassification(SurgeryType.TRIVIAL_FILLING, r)
        if self.knot_class is KnotClass.DEGENERATE:
            return SurgeryClassification(SurgeryType.NON_HYPERBOLIC_KNOT, r)
        rc = self.to_canonical(r)
        entry = self.table.get(rc.p) if rc.is_integral() else None
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
        self._require_hyperbolic()
        out = []
        for rc in self.table:
            r = self.from_canonical(make_slope(rc, 1))
            out.append((r, self.classify(r)))
        out.sort(key=lambda pair: pair[0])
        return out

    def predict(self, r: Slope) -> FamilyPrediction:
        if r.is_meridian():
            raise ValueError("the meridian filling is trivial for every embedding")
        self._require_hyperbolic()
        result = self.classify(r)
        if result.type is SurgeryType.SMALL_SEIFERT:
            return FamilyPrediction(
                FamilyKind.SEIFERT_OR_REDUCIBLE, fiber_indices=result.seifert_indices
            )
        if result.type is SurgeryType.TOROIDAL:
            n0 = None
            if self.knot_class is KnotClass.PRETZEL_2_3 and self.to_canonical(r).p == 8:
                # The three torus-knot members are the non-toroidal window.
                n0 = self.sigma * (1 + self.twists)
            return FamilyPrediction(FamilyKind.TOROIDAL_COFINITE, n0=n0)
        return FamilyPrediction(FamilyKind.HYPERBOLIC_INTERIOR)

    def surgery_in_s3(self, r: Slope, n: int) -> SFSClass | None:
        if self.knot_class is not KnotClass.PRETZEL_2_3:
            return None
        rc = self.to_canonical(r)
        if not rc.is_integral() or rc.p not in (6, 7):
            return None
        nc = self.sigma * n - self.twists
        result = double_branched_cover(pretzel_surgery_link(nc, rc.p))
        if nc in _TORUS_KNOT_MEMBERS:
            p, q = _TORUS_KNOT_MEMBERS[nc]
            check = torus_knot_surgery(p, q, make_slope(rc.p + 4 * nc, 1))
            if not sfs_equal(result, check):
                raise InconsistentCrossCheckError(
                    f"branch-locus cover {result} disagrees with torus-knot "
                    f"surgery {check} at twist {nc}"
                )
        return result

    def _require_hyperbolic(self) -> None:
        if self.knot_class is KnotClass.DEGENERATE:
            raise DegenerateKnotError(
                f"{self.knot} is not hyperbolic in the solid torus"
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
        (make_wrapped(1, MontesinosTangle.from_slopes([make_slope(-1, 2), make_slope(1, 3)])), 8),
        (make_wrapped(0, MontesinosTangle.from_slopes([make_slope(3, 1)])), 0),
        (make_wrapped(1, MontesinosTangle.from_slopes([make_slope(4, 1)])), 8),
    ]
    for knot, expected in anchors:
        framing = pretzel_slope(knot)
        if framing != make_slope(expected, 1):
            raise InconsistentCrossCheckError(
                f"push-off oracle gives {framing} for {knot}, expected {expected}"
            )


@lru_cache(maxsize=_KNOT_CACHE_SIZE)
def _analyze(knot: WrappedKnot) -> Analysis:
    _oracle_self_check()
    nf = normalize(knot.tangle)
    wind = winding_number(knot)
    notes: list[str] = []
    moves: list[str] = []
    if knot.tangle.slopes() != nf.as_tangle().slopes():
        moves.append("integer shifts (sum preserved, zero entries dropped)")

    sigma, twists = 1, 0
    knot_class = KnotClass.GENERIC
    canonical: WrappedKnot | None = None
    table: dict[int, _TableEntry] = {}

    if nf.degenerate:
        knot_class = KnotClass.DEGENERATE
    elif nf.k1 is not None:
        sigma = -1 if nf.k1.mirrored else 1
        twists = nf.k1.twists
        t = nf.k1.t
        canonical = make_wrapped(knot.a, MontesinosTangle.from_slopes([t]))
        if t.is_integral():
            if t.p == 2 and knot.a == 0:
                knot_class = KnotClass.WHITEHEAD
                table = _whitehead_table()
            elif t.p == 2:
                knot_class = KnotClass.WHITEHEAD_MATE
                notes.append(
                    "single entry 2 closed with a = 1; the implemented moves "
                    "do not identify it with the Whitehead closure"
                )
            else:
                knot_class = KnotClass.INTEGER_TANGLE
                table = _integer_tangle_table(canonical)
        else:
            knot_class = KnotClass.SINGLE_FRACTION
    else:
        pair = _find_pretzel_pair(nf)
        if pair is None:
            knot_class = KnotClass.GENERIC
        elif sorted(pair) == [-2, 3] or sorted(pair) == [-3, 2]:
            knot_class = KnotClass.PRETZEL_2_3
            if sorted(pair) == [-3, 2]:
                sigma = -1
                pair = (-pair[0], -pair[1])
            canonical = make_wrapped(
                knot.a,
                MontesinosTangle.from_slopes([make_slope(1, q) for q in pair]),
            )
            table = _pretzel_2_3_table()
        else:
            knot_class = KnotClass.PRETZEL
            canonical = make_wrapped(
                knot.a,
                MontesinosTangle.from_slopes([make_slope(1, q) for q in pair]),
            )
            table = _pretzel_table(canonical)

    if sigma < 0:
        moves.append("mirror (surgery slopes negate)")
    if twists:
        effect = f"slopes shift by {4 * twists}" if wind == 2 else "slopes unchanged, winding 0"
        moves.append(f"meridional twist m={twists} ({effect})")

    return Analysis(
        knot=knot,
        nf=nf,
        wind=wind,
        knot_class=knot_class,
        sigma=sigma,
        twists=twists,
        slope_offset=twists * wind * wind,
        canonical_knot=canonical,
        table=table,
        notes=tuple(notes),
        moves=tuple(moves),
    )


def _whitehead_table() -> dict[int, _TableEntry]:
    table: dict[int, _TableEntry] = {}
    for r in (0, 4):
        certificate = ToroidalCertificate(
            ToroidalSource.WHITEHEAD_SLOPE, make_slope(r, 1)
        )
        table[r] = _TableEntry(SurgeryType.TOROIDAL, certificate)
    for r in (1, 2, 3):
        table[r] = _TableEntry(
            SurgeryType.SMALL_SEIFERT,
            indices=None,
            notes=("fiber indices unspecified",),
        )
    return table


def _integer_tangle_table(canonical: WrappedKnot) -> dict[int, _TableEntry]:
    framing = pretzel_slope(canonical)
    m = canonical.tangle.entries[0].slope.p
    expected = 0 if canonical.a == 0 else 2 * m
    if framing.p != expected:
        raise InconsistentCrossCheckError(
            f"spanning-surface slope {framing} of {canonical} does not match "
            f"the classified value {expected}"
        )
    certificate = ToroidalCertificate(ToroidalSource.PRETZEL_SURFACE, framing)
    return {framing.p: _TableEntry(SurgeryType.TOROIDAL, certificate)}


def _pretzel_table(canonical: WrappedKnot) -> dict[int, _TableEntry]:
    framing = pretzel_slope(canonical)
    certificate = ToroidalCertificate(ToroidalSource.PRETZEL_SURFACE, framing)
    return {framing.p: _TableEntry(SurgeryType.TOROIDAL, certificate)}


def _pretzel_2_3_table() -> dict[int, _TableEntry]:
    six = ToroidalCertificate(
        ToroidalSource.TORUS_PIECE,
        make_slope(6, 1),
        piece_indices=(2, 4),
        piece="essential torus bounding a small Seifert piece with fiber indices {2,4}",
    )
    eight = ToroidalCertificate(
        ToroidalSource.TORUS_PIECE,
        make_slope(8, 1),
        piece="essential torus bounding a twisted I-bundle over the Klein bottle",
    )
    return {
        6: _TableEntry(SurgeryType.TOROIDAL, six),
        7: _TableEntry(SurgeryType.SMALL_SEIFERT, indices=(3, 5)),
        8: _TableEntry(SurgeryType.TOROIDAL, eight),
    }


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
    """Cached canonical analysis of a knot (moves, class, slope transform)."""
    return _analyze(knot)
