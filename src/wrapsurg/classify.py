"""Classification of Dehn surgeries on wrapped Montesinos knots.

One reduction, `_reduce`, names a knot's class from its normal form and
states in one `SlopeMap` what the moves that carry the knot to the canonical
knot of its class do to slopes.  It builds no `Move` record: the moves are
`wrapsurg.moves`'s, which lists them from the map (`reduction_moves`) only
when `Analysis.moves` is read.  The class's table lists its exceptional
surgeries at canonical slopes: the fixed tables of `wrapsurg.answers`,
`_WHITEHEAD_TABLE` and `_PRETZEL_2_3_TABLE`, or the one spanning-surface
slope of a single integer entry or a genuine pretzel,
`wrapped.pretzel_slope` of the canonical knot.  Every other slope is
hyperbolic.  This module states tables only and checks no oracle: the
spanning-surface slope is the integer rule of `wrapped.pretzel_slope`, which
the tests and the golden runner compare with its strand-tracing oracle, and
the S^3 covers are checked in `seifert`.

The slope map states the slope correspondence once, and carries the shift
of its twists, twists * wind^2 (`twist_shift`), which `_reduce` sets from the
knot's winding: r = sigma * (rc - shift), n0 -> sigma * (n0 + twists), and
its inverse nc = sigma * n - twists.  A knot's `Analysis` (`analysis_of`)
holds its class's table restated by its slope map.  The table depends on the
knot only through its source and its slope map, so `_class_table` builds it
once per (source, slope map), in an lru_cache of _TABLE_CACHE_SIZE (1024)
entries.  `classify` and `predict` look the slope up in that table, and a
sweep reads its rows off the `exceptional` pairs.
Nothing here keeps a knot: the module functions analyse the knot on every
call, so a caller with several questions keeps its `analysis_of(knot)` and
asks that.

The answer records, `SurgeryClassification`, `ToroidalCertificate` and
`FamilyPrediction`, and their Enums are defined in `wrapsurg.answers`, where
each writes its own text and JSON; this module imports them, so
`wrapsurg.classify.SurgeryClassification` and the rest still name them.

The S^3 surgery of a twisted image depends only on the canonical twist nc
and slope rc.  `Analysis.surgeries_in_s3` builds it anew on every call with
`seifert.pretzel_surgery` and its cross-checks; `wrapsurg.seifert` is
imported on first use.  The command line keeps each cover's text in
`spans._s3_cover`, once per (nc, rc).

One keep-window bounds every cache keyed by integers: `_in_window` holds when
|n| < _WINDOW (2**20) for each integer n, so a kept integer has at most 7
digits.  `_class_table` keeps the tables whose twists and entries pass it,
`spans._row_chunk` the chunks whose middle integer does, and
`spans._s3_cover` the cover texts of spans whose canonical twists do; the
rest is kept nowhere.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from .answers import (_HYPERBOLIC, _HYPERBOLIC_FAMILY, _PRETZEL_2_3_TABLE, _WHITEHEAD_MATE_NOTES,
                      _WHITEHEAD_TABLE, FamilyKind, FamilyPrediction, SurgeryClassification,
                      SurgeryType, ToroidalCertificate, ToroidalSource, _toroidal)
from .slopes import InconsistentCrossCheckError, Record, Slope
from .tangles import MontesinosTangle, NormalForm, normalize, twist_shift
from .wrapped import WrappedKnot, pretzel_slope


class DegenerateKnotError(ValueError):
    """The knot is equivalent to a 0 or 1/q entry and is not hyperbolic.
    Raised with the knot or its text, `DegenerateKnotError(knot)`, and
    worded only when read: a sweep drops most of them unread."""

    def __str__(self) -> str:
        return f"{self.args[0]} reduces to a trivial wrapped pattern and is not hyperbolic"


class KnotClass(Enum):
    DEGENERATE = "degenerate"
    WHITEHEAD = "whitehead"
    WHITEHEAD_MATE = "whitehead-mate"  # single entry 2 closed with a = 1
    INTEGER_TANGLE = "integer-tangle"
    SINGLE_FRACTION = "single-fraction"
    PRETZEL = "pretzel"
    PRETZEL_2_3 = "pretzel-2-3"  # the wrapped (-2, 3) pretzel
    GENERIC = "generic"


# The members in definition order, bound once for `_reduce` and `analysis_of`:
# on Python 3.11 a member read off an Enum class costs about 0.1 us.
(_DEGENERATE, _WHITEHEAD, _WHITEHEAD_MATE, _INTEGER_TANGLE, _SINGLE_FRACTION, _PRETZEL,
 _PRETZEL_2_3, _GENERIC) = KnotClass


# The classes whose table is fixed, by class.
_FIXED_TABLES = {_WHITEHEAD: _WHITEHEAD_TABLE, _PRETZEL_2_3: _PRETZEL_2_3_TABLE}
# An integer entry or a pretzel gets its spanning-surface slope; any other
# class without a table here has no exceptional slope, and its analysis holds
# this same empty mapping.
_NO_TABLE: MappingProxyType = MappingProxyType({})
# The restated tables `_class_table` keeps, by (source, slope map).
_TABLE_CACHE_SIZE = 1024
# The keep-window of every cache keyed by integers (see `_in_window`).
_WINDOW = 1 << 20
# The entry of a slope outside a table: no answer, family or S^3 cover slope.
_NO_ENTRY = (None, None, None)


class SlopeMap(Record):
    """How a reduction's moves carry slopes: `sigma` is -1 when they mirror
    the knot, `twists` counts their meridional twists after the mirror, and
    `shift` is how far those twists move a slope, `twist_shift(twists, wind)`
    for the knot's winding wind.  Moves keep the winding, so the table
    source's closure winds as the knot does."""

    __slots__ = ("sigma", "twists", "shift")

    def slope(self, rc: int) -> Slope:
        """r = sigma * (rc - shift) at canonical slope rc."""
        return Slope(self.sigma * (rc - self.shift), 1)

    def n0(self, n0: int) -> int:  # the knot's twist at canonical twist n0
        return self.sigma * (n0 + self.twists)

    def canonical_twist(self, n: int) -> int:  # the inverse of `n0`
        return self.sigma * n - self.twists


# The slope maps of no move and of the mirror alone.
_IDENTITY, _MIRRORED = SlopeMap(1, 0, 0), SlopeMap(-1, 0, 0)


class Analysis(Record):
    """A knot's normal form, class, the `SlopeMap` that carries its class's
    canonical knot to it, and its exceptional table.  Its `moves` are derived
    from the map when read, so they are not a field: `repr`, equality and
    pickling leave them out, and equality loses nothing by it, the moves
    being a function of the knot, normal form and slope map.

    `table` is the class's table at the knot's own slopes, ascending: each
    exceptional slope to its answer, its family and its canonical slope when
    the S^3 surgeries of its twisted images are known (else None), and
    `exceptional` its (slope, answer) pairs; knots with one table source and
    slope map share both (see `_class_table`).  The class is DEGENERATE
    exactly when the normal form is degenerate, and the checks read
    `nf.degenerate`, not the class: on Python 3.11 each member read off an
    Enum class costs about 0.1 us (`_reduce` and `analysis_of` read the
    members bound once as `_DEGENERATE` ... `_GENERIC`).
    """

    __slots__ = ("knot", "nf", "knot_class", "slope_map", "table", "notes", "exceptional")

    def __init__(self, knot, nf, knot_class, slope_map, table, notes, exceptional, /):
        _set_knot(self, knot)
        _set_nf(self, nf)
        _set_knot_class(self, knot_class)
        _set_slope_map(self, slope_map)
        _set_table(self, table)
        _set_analysis_notes(self, notes)
        _set_exceptional(self, exceptional)

    @property
    def moves(self) -> tuple[moves.Move, ...]:
        """The `Move` records of the reduction, as `--moves` prints them,
        listed by `moves.reduction_moves`; `wrapsurg.moves` is imported on
        first use."""
        from .moves import reduction_moves

        return reduction_moves(self.knot.tangle.entries, self.nf, self.slope_map)

    def classify(self, r: Slope) -> SurgeryClassification:
        """Classify r-surgery: the table's answer at r, if any; a knot
        without a table is not looked up."""
        if not r.q:
            return SurgeryClassification(SurgeryType.TRIVIAL_FILLING, r)
        if self.nf.degenerate:
            return SurgeryClassification(SurgeryType.NON_HYPERBOLIC_KNOT, r)
        return (self.table is not _NO_TABLE and self.table.get(r, _NO_ENTRY)[0]
                or SurgeryClassification(_HYPERBOLIC, r, None, None, self.notes))

    def exceptional_slopes(self) -> list[tuple[Slope, SurgeryClassification]]:
        """The table's answers at the input knot's own slopes, in increasing
        order; every slope is integral."""
        self.require_hyperbolic()
        return list(self.exceptional)

    def predict(self, r: Slope) -> FamilyPrediction:
        if not r.q:
            raise ValueError("the meridian filling is trivial for every embedding")
        self.require_hyperbolic()
        return self.table is not _NO_TABLE and self.table.get(r, _NO_ENTRY)[1] or _HYPERBOLIC_FAMILY

    def surgeries_in_s3(self, r: Slope, ns: range) -> list[tuple[int, seifert.SFSClass | None]]:
        """The S^3 surgery at r of the n-twisted image for each n in `ns`,
        when known (else None), built anew by `seifert.pretzel_surgery`; the
        slope is looked up once.  A cover past the digit limit has no text,
        but has its invariants."""
        rc = self.table.get(r, _NO_ENTRY)[2]
        if rc is None:
            return [(n, None) for n in ns]
        from .seifert import pretzel_surgery

        nc = self.slope_map.canonical_twist
        return [(n, pretzel_surgery(nc(n), rc)) for n in ns]

    def require_hyperbolic(self) -> None:
        """Raise `DegenerateKnotError` for a degenerate knot, never hyperbolic."""
        if self.nf.degenerate:
            raise DegenerateKnotError(self.knot)


(_set_knot, _set_nf, _set_knot_class, _set_slope_map, _set_table, _set_analysis_notes,
 _set_exceptional) = Analysis._setters


def _unit_fraction_shifts(frac: Slope) -> list[int]:
    """Integers q with 1/q congruent mod 1 to the given fraction in (0, 1)."""
    out = []
    if frac.p == 1:
        out.append(frac.q)
    if frac.p == frac.q - 1:
        out.append(-frac.q)
    return out


def _find_pretzel_pair(nf: NormalForm) -> tuple[int, int] | None:
    """Integers (q1, q2) with 1/q1 + 1/q2 the entry sum and each 1/qi
    congruent to its fraction; 1/qi is the fraction less 1 when qi < 0."""
    if len(nf.fracs) != 2:
        return None
    found = None
    for q1 in _unit_fraction_shifts(nf.fracs[0]):
        for q2 in _unit_fraction_shifts(nf.fracs[1]):
            if (q1 < 0) + (q2 < 0) == -nf.e0:
                pair = (q1, q2)
                if found is not None and sorted(found) != sorted(pair):
                    raise InconsistentCrossCheckError(
                        f"pretzel pairs {found} and {pair} both sum to "
                        f"{Slope(q1 + q2, q1 * q2)}"
                    )
                found = pair
    return found


def _reduce(a: int, tangle: MontesinosTangle, winding: int) -> tuple:
    """The one reduction: the tangle's normal form, the class of its closure
    with `a` wrap crossings, the source of the class's table ((class, a,
    canonical entries), or None), and the `SlopeMap` that carries the class's
    canonical knot to this one, its shift set from `winding`;
    `moves.reduction_moves` lists the moves it composes.  A genuine pretzel
    is not mirrored: for a = 1 a mirror moves slopes by r -> -r + 4, which
    the map does not state yet.  The (-3, 2) pretzel is mirrored (keeping
    that error in its answers), with no reverse."""
    nf = normalize(tangle)
    slope_map, entries = _IDENTITY, None
    if nf.degenerate:
        knot_class = _DEGENERATE
    elif nf.k1 is not None:
        t, mirrored, twists = nf.k1.t, nf.k1.mirrored, nf.k1.twists
        if twists:
            slope_map = SlopeMap(-1 if mirrored else 1, twists, twist_shift(twists, winding))
        elif mirrored:
            slope_map = _MIRRORED
        if not t.is_integral():
            knot_class = _SINGLE_FRACTION
        elif t.p == 2 and a:
            knot_class = _WHITEHEAD_MATE
        else:
            knot_class = _WHITEHEAD if t.p == 2 else _INTEGER_TANGLE
            entries = (t,)
    elif (pair := _find_pretzel_pair(nf)) is None:
        knot_class = _GENERIC
    else:
        entries = tuple(Slope(1, q) for q in pair)
        special = sorted(pair) in ([-2, 3], [-3, 2])
        knot_class = _PRETZEL_2_3 if special else _PRETZEL
        if sorted(pair) == [-3, 2]:
            slope_map = _MIRRORED
    source = None if entries is None else (knot_class, a, entries)
    return nf, knot_class, source, slope_map


def analysis_of(knot: WrappedKnot) -> Analysis:
    """The knot's reduction (`_reduce`) and its exceptional table at its own
    slopes (from `_class_table`), built anew on every call."""
    nf, knot_class, source, slope_map = _reduce(knot.a, knot.tangle, knot.winding)
    notes = _WHITEHEAD_MATE_NOTES if knot_class is _WHITEHEAD_MATE else ()
    table, exceptional = _NO_TABLE, ()
    if source is not None:
        first, last = source[2][0], source[2][-1]  # the one or two canonical entries
        keep = _in_window(slope_map.twists, first.p, first.q, last.p, last.q)
        build = _class_table if keep else _class_table.__wrapped__
        table, exceptional = build(source, slope_map)
    return Analysis(knot, nf, knot_class, slope_map, table, notes, exceptional)


def _in_window(*numbers: int) -> bool:
    """Whether a cache may keep a key with these integers: |n| < _WINDOW for each."""
    return -_WINDOW < min(numbers) and max(numbers) < _WINDOW


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _class_table(source: tuple,
                 slope_map: SlopeMap) -> tuple[MappingProxyType[Slope, tuple], tuple]:
    """The table of `source` (see `_reduce`) restated by `slope_map`, and its
    (slope, answer) pairs, ascending.  A table without a fixed one has one
    toroidal slope, the `pretzel_slope` of the source's knot, the one knot
    built here, by an integer rule on every miss.  The Whitehead mate, the
    one class with notes, has no table."""
    knot_class, a, entries = source
    table = _FIXED_TABLES.get(knot_class)
    if table is None:
        framing = pretzel_slope(WrappedKnot(a, MontesinosTangle(entries))).p
        table = {framing: _toroidal(ToroidalSource.PRETZEL_SURFACE, framing)}
    restated = {}
    # r = sigma * (rc - shift) ascends with rc, or descends when mirrored.
    for rc in sorted(table, reverse=slope_map.sigma < 0):
        answer, family, s3_cover = table[rc]
        r = slope_map.slope(rc)
        answer = SurgeryClassification(answer.type, r, answer.certificate,
                                       answer.seifert_indices, answer.notes)
        if family.n0 is not None:
            family = FamilyPrediction(family.kind, slope_map.n0(family.n0), family.fiber_indices)
        restated[r] = answer, family, rc if s3_cover else None
    return MappingProxyType(restated), tuple((r, entry[0]) for r, entry in restated.items())


def classify(knot: WrappedKnot, r: Slope) -> SurgeryClassification:
    """Classify r-surgery on the wrapped knot in its solid torus."""
    return analysis_of(knot).classify(r)


def exceptional_slopes(knot: WrappedKnot) -> list[tuple[Slope, SurgeryClassification]]:
    """The complete finite set of exceptional slopes, in increasing order."""
    return analysis_of(knot).exceptional_slopes()


def predict_s3_family(knot: WrappedKnot, r: Slope) -> FamilyPrediction:
    """Dichotomy satisfied by the surgeries on all twisted embeddings."""
    return analysis_of(knot).predict(r)


def surgery_in_s3(knot: WrappedKnot, r: Slope, n: int) -> seifert.SFSClass | None:
    """Identify the surgered manifold of the n-twisted image, when known.

    Known exactly for knots equivalent to the wrapped (-2, 3) pretzel at the
    two small Seifert slopes, where the branch locus of the surgery is an
    explicit Montesinos link; members that are torus knots are cross-checked
    against the independent torus-knot surgery classification.
    """
    return analysis_of(knot).surgeries_in_s3(r, range(n, n + 1))[0][1]
