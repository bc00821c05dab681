"""The answer records of a classification and the paper's fixed tables.

An answer is a `SurgeryClassification` at one slope (toroidal ones with the
`ToroidalCertificate` of their essential torus) and a `FamilyPrediction`
over every re-embedding of the solid torus.  Each record writes its own
text and JSON: `str()` of a `SurgeryClassification` (with its
`ToroidalCertificate`) and of a `FamilyPrediction` is the wording of the
text answers, and `as_json()` the mapping of the JSON ones, which the
command line only lays out, and `repr()` lists the fields.

The fixed tables are the exceptional surgeries of the Whitehead closure
(`_WHITEHEAD_TABLE`) and of the wrapped (-2, 3) pretzel
(`_PRETZEL_2_3_TABLE`) at canonical slopes rc: each entry states the answer
at rc, the family over every re-embedding (its n0 canonical), and whether
the S^3 surgeries of the twisted images are known there.  `_toroidal` and
`_small_seifert` build an entry; `wrapsurg.classify` builds the one entry of
a spanning-surface table with `_toroidal` too, and restates every table at a
knot's own slopes.
"""
from __future__ import annotations

from enum import Enum
from types import MappingProxyType

from .slopes import Record, Slope


class SurgeryType(Enum):
    TRIVIAL_FILLING = "trivial-filling"
    NON_HYPERBOLIC_KNOT = "non-hyperbolic-knot"
    HYPERBOLIC = "hyperbolic"
    TOROIDAL = "toroidal"
    SMALL_SEIFERT = "small-seifert"
    REDUCIBLE = "reducible"


# The answer at every slope outside a knot's table, bound once for
# `classify.Analysis.classify` and the JSON writer.
_HYPERBOLIC = SurgeryType.HYPERBOLIC


class ToroidalSource(Enum):
    PRETZEL_SURFACE = "pretzel-surface"
    WHITEHEAD_SLOPE = "whitehead-slope"
    TORUS_PIECE = "torus-piece"


class ToroidalCertificate(Record):
    """Why the surgered manifold contains an essential torus.

    `slope` is the table entry's slope at the canonical knot of the class,
    which the analysis's `SlopeMap` (of the moves `--moves` prints) carries
    to the knot's own slope.  A genuine pretzel is not mirrored, so its map
    is the identity and its `slope` the knot's own: `K0[-1/3,-1/3]` has
    certificate slope -12 and its mirror `K0[1/3,1/3]` has 12."""

    __slots__ = ("source", "slope", "piece_indices", "piece")

    def __str__(self) -> str:
        return f"{self.source._value_}: {self.piece or f'slope {self.slope}'}"

    def as_json(self) -> dict:
        return {"source": self.source._value_, "slope": str(self.slope),
                "piece_indices": self.piece_indices or None, "piece": self.piece}


class SurgeryClassification(Record):
    __slots__ = ("type", "slope", "certificate", "seifert_indices", "notes")

    def __init__(self, type, slope, certificate=None, seifert_indices=None, notes=(), /):
        _set_type(self, type)
        _set_slope(self, slope)
        _set_certificate(self, certificate)
        _set_seifert_indices(self, seifert_indices)
        _set_notes(self, notes)

    def __str__(self) -> str:
        text = self.type._value_
        if self.seifert_indices:
            text += " (fiber indices %s,%s)" % self.seifert_indices
        if self.certificate is not None:
            text += f" [{self.certificate}]"
        return text

    def as_json(self) -> dict:
        """The answer's JSON record, with a `notes` key only when it has notes."""
        record = {"type": self.type._value_, "slope": str(self.slope),
                  "certificate": self.certificate and self.certificate.as_json(),
                  "fiber_indices": self.seifert_indices or None}
        if self.notes:
            record["notes"] = self.notes
        return record


_set_type, _set_slope, _set_certificate, _set_seifert_indices, _set_notes = (
    SurgeryClassification._setters)


class FamilyKind(Enum):
    TOROIDAL_COFINITE = "toroidal-cofinite"
    SEIFERT_OR_REDUCIBLE = "seifert-or-reducible"
    HYPERBOLIC_INTERIOR = "hyperbolic-interior"


# The members in definition order, bound once: on Python 3.11 a member read
# off an Enum class costs about 0.1 us.
_TOROIDAL_COFINITE, _SEIFERT_OR_REDUCIBLE, _HYPERBOLIC_INTERIOR = FamilyKind


class FamilyPrediction(Record):
    """Behaviour of the surgeries on every re-embedding of the solid torus.

    Toroidal surgeries stay toroidal outside a window of at most three
    consecutive twist parameters centered at n0 (None when not pinned);
    small Seifert surgeries make every member reducible or small Seifert
    with the two recorded fiber indices.
    """

    __slots__ = ("kind", "n0", "fiber_indices")
    _defaults = (None, None)

    def __str__(self) -> str:
        if self.kind is _SEIFERT_OR_REDUCIBLE:
            indices = self.fiber_indices
            tail = f" with fiber indices {indices[0]},{indices[1]}" if indices else ""
            return f"every embedding is reducible or small Seifert fibered{tail}"
        if self.kind is _TOROIDAL_COFINITE:
            window = "" if self.n0 is None else f" except within 1 of n0={self.n0}"
            return f"toroidal for all but at most three embeddings{window}"
        return "hyperbolic for all but finitely many embeddings"

    def as_json(self) -> dict:
        return {"kind": self.kind._value_, "n0": self.n0,
                "fiber_indices": self.fiber_indices or None}


# The family of every slope outside a knot's table.
_HYPERBOLIC_FAMILY = FamilyPrediction(_HYPERBOLIC_INTERIOR)


def _toroidal(source, r, piece_indices=None, piece=None,
              family=FamilyPrediction(_TOROIDAL_COFINITE), s3_cover=False):
    """A table entry (answer, family, s3_cover) for a toroidal slope r."""
    slope = Slope(r, 1)
    certificate = ToroidalCertificate(source, slope, piece_indices, piece)
    return SurgeryClassification(SurgeryType.TOROIDAL, slope, certificate), family, s3_cover


def _small_seifert(r, indices=None, notes=(), s3_cover=False):
    """A table entry (answer, family, s3_cover) for a small Seifert slope r;
    the family is reducible or small Seifert with the same indices."""
    answer = SurgeryClassification(SurgeryType.SMALL_SEIFERT, Slope(r, 1),
                                   None, indices, notes)
    family = FamilyPrediction(_SEIFERT_OR_REDUCIBLE, None, indices)
    return answer, family, s3_cover


# The exceptional surgeries of each class with a table, at canonical slopes.
_WHITEHEAD_TABLE = MappingProxyType({
    0: _toroidal(ToroidalSource.WHITEHEAD_SLOPE, 0),
    **{r: _small_seifert(r, notes=("fiber indices unspecified",)) for r in (1, 2, 3)},
    4: _toroidal(ToroidalSource.WHITEHEAD_SLOPE, 4),
})
_PRETZEL_2_3_TABLE = MappingProxyType({
    6: _toroidal(
        ToroidalSource.TORUS_PIECE, 6, (2, 4),
        "essential torus bounding a small Seifert piece with fiber indices {2,4}",
        s3_cover=True,
    ),
    7: _small_seifert(7, (3, 5), s3_cover=True),
    8: _toroidal(
        ToroidalSource.TORUS_PIECE, 8, None,
        "essential torus bounding a twisted I-bundle over the Klein bottle",
        # the torus-knot members n = 0, 1, 2 are the non-toroidal window
        family=FamilyPrediction(_TOROIDAL_COFINITE, 1),
    ),
})
# The notes carried by every answer for a Whitehead mate, the one class with notes.
_WHITEHEAD_MATE_NOTES = (
    "single entry 2 closed with a = 1; the implemented moves "
    "do not identify it with the Whitehead closure",
)
