"""The JSON writer of the command line: `json_answer` writes an answer's
records as the text of json.dumps(payload, indent=2, sort_keys=True).

`wrapsurg.cli` imports this module on its first JSON answer, so a text
request never loads it.  Strings are quoted by the C helper of
`json.encoder`, from `_json`, and no request loads `json` itself.  The pieces
of a knot's answers go into the knot's `json` slot in `cli._knot`, each
rendered once: the first JSON answer renders, by `_fragments`, those every
answer shows, and the first answer that shows a piece of the knot's table
renders it there, as the text writer fills its `slopes` slot: the first
`slopes` or `table` answer the exceptional slopes and their sweep rows, the
first `classify` or `predict` at a table slope or the meridian that slope's
classification and family.  A render that raises past the digit limit
keeps nothing, so only the answers that show that integer fail.  An answer
is assembled from the pieces, one %-template per answer shape and one per
row of a `sweep` or `surgeries` list, so that a warm answer other than
`twist` builds no dict.  The rows of a span come as one text from
`spans.span_rows`: slices of chunks of rows joined by _SEP, with the knot's
sweep rows spliced in between; the rows of known S^3 covers come from
`spans.s3_rows`, each cover's text kept as written.
"""
from __future__ import annotations

from _json import encode_basestring_ascii as _quote

from .classify import FamilyPrediction, SurgeryClassification, SurgeryType, _HYPERBOLIC_FAMILY
from .cli import Request, _Knot
from .slopes import Slope
from .spans import s3_rows, span_rows, sweep_rows
from .tangles import NormalForm
from .wrapped import TwistedImage


def _json(value, indent: str) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), nested at `indent`;
    a tuple is written as a list, as json.dumps writes it."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = (f"{inner}{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        items = (inner + _json(item, inner) for item in value)
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    if kind is int:
        return int.__repr__(value)  # ValueError past the digit limit
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# Each answer's keys in sorted order, with its pieces already rendered at
# depth 1; the last %s of the first two is the `surgeries` or `sweep` list or
# nothing.
_CLASSIFY_JSON = ('{\n  "classification": %s,\n  "equivalence_moves": %s,\n'
                  '  "family_prediction": %s,\n  "input": %s,\n  "normal_form": %s%s\n}')
_SLOPES_JSON = ('{\n  "equivalence_moves": %s,\n  "exceptional_slopes": %s,\n'
                '  "input": %s,\n  "normal_form": %s%s\n}')
_TWIST_JSON = ('{\n  "equivalence_moves": %s,\n  "images": %s,\n'
               '  "input": %s,\n  "normal_form": %s\n}')
_NORMALIZE_JSON = '{\n  "equivalence_moves": %s,\n  "input": %s,\n  "normal_form": %s\n}'
# The span and the slope of the `input` record, when the request has them.
_SPAN_JSON = ',\n    "%s": [\n      %d,\n      %d\n    ]'
_SLOPE_JSON = ',\n    "slope": "%s"'
# One row of a JSON `sweep` or `surgeries` list, at its depth in an answer,
# and the rows that differ only in their integer.
_SWEEP_ROW = '    {\n      "slope": "%s",\n      "type": "%s"\n    }'
_SURGERY_ROW = '    {\n      "n": %s,\n      "result": %s\n    }'
_HYPERBOLIC_ROW = _SWEEP_ROW % ("%d", "hyperbolic")
_NULL_ROW = _SURGERY_ROW % ("%d", "null")
# The row of a known S^3 cover, at (n, the cover's text): a cover's text is
# ASCII letters, digits, spaces and "();/-", which JSON writes as they are.
_COVER_ROW = _SURGERY_ROW % ("%s", '"%s"')
# What joins the rows of a list.
_SEP = ",\n"


def json_answer(request: Request, knot: _Knot, slope: Slope | None, answer: tuple) -> str:
    """The JSON text of `answer`, the records `cli._answer` gives for the
    request."""
    pieces = knot.json
    if pieces is None:
        pieces = knot.json = _fragments(knot)
    quoted, nf, moves, slopes, table, hyperbolic = pieces
    given = '{\n    "knot": ' + quoted
    if request.n_range is not None:
        given += _SPAN_JSON % ("n", *request.n_range)
    if request.slope_range is not None:
        given += _SPAN_JSON % ("range", *request.slope_range)
    if slope is not None:
        given += _SLOPE_JSON % slope
    given += "\n  }"
    command = request.command
    if command in ("classify", "predict"):
        result, prediction, span, rc = answer
        found = table.get(result.slope)
        if found is None:
            if result.type is SurgeryType.HYPERBOLIC:
                found = hyperbolic % result.slope, _HYPERBOLIC_FAMILY_JSON
            else:  # a table slope or the meridian; raises, keeping nothing, past the digit limit
                found = table[result.slope] = (
                    _json(_classification_json(result), "  "),
                    "null" if prediction is None else _json(_prediction_json(prediction), "  "))
        classification, family = found
        surgeries = ""
        if span is not None:
            surgeries = _rows("surgeries", span_rows(_NULL_ROW, _SEP, span) if rc is None else
                              s3_rows(_COVER_ROW, _SEP, span, knot.analysis.slope_map, rc))
        return _CLASSIFY_JSON % (classification, moves, family, given, nf, surgeries)
    if command in ("slopes", "table"):
        exceptional, span = answer
        if slopes is None:  # raises, keeping nothing, past the digit limit
            slopes = pieces[3] = (_json(_exceptional_json(exceptional), "  "),
                                  sweep_rows(_SWEEP_ROW, exceptional))
        rows = "" if span is None else _rows(
            "sweep", span_rows(_HYPERBOLIC_ROW, _SEP, span, slopes[1]))
        return _SLOPES_JSON % (moves, slopes[0], given, nf, rows)
    if command == "twist":
        images = _json([_image_json(image, fraction) for image, fraction in answer], "  ")
        return _TWIST_JSON % (moves, images, given, nf)
    return _NORMALIZE_JSON % (moves, given, nf)


def _fragments(knot: _Knot) -> list:
    """The JSON pieces every answer for the knot shows, each rendered at its
    depth in an answer, for its `json` slot: its quoted text, its normal
    form and its equivalence moves; then the pieces `json_answer` fills on
    first use, None for (exceptional slopes, `sweep` rows at them,
    `spans.sweep_rows`) and an empty mapping for (classification, family
    prediction) by table slope or meridian; and a %-template of its
    classification at a hyperbolic slope."""
    analysis = knot.analysis
    # Notes are written with every % doubled, and the slope as "%s".
    notes = tuple(note.replace("%", "%%") for note in analysis.notes)
    hyperbolic = SurgeryClassification(SurgeryType.HYPERBOLIC, "%s", None, None, notes)
    return [
        _quote(knot.text),
        _json(_normal_form_json(analysis.nf), "  "),
        _json([str(move) for move in analysis.moves], "  "),
        None,
        {},
        _json(_classification_json(hyperbolic), "  "),
    ]


def _rows(key: str, rows: str) -> str:
    """The `key` member of an answer: a list of at least one row, given as
    its rows joined by _SEP."""
    return ',\n  "%s": [\n%s\n  ]' % (key, rows)


def _normal_form_json(nf: NormalForm) -> dict:
    record = {
        "e0": nf.e0,
        "fracs": [str(f) for f in nf.fracs],
        "degenerate": nf.degenerate,
        "canonical": None,
    }
    if nf.k1 is not None:
        record["canonical"] = {
            "t": str(nf.k1.t),
            "mirrored": nf.k1.mirrored,
            "twists": nf.k1.twists,
        }
    return record


def _classification_json(result: SurgeryClassification) -> dict:
    record: dict = {
        "type": result.type.value,
        "slope": str(result.slope),
        "certificate": None,
        "fiber_indices": result.seifert_indices or None,
    }
    if result.certificate is not None:
        cert = result.certificate
        record["certificate"] = {
            "source": cert.source.value,
            "slope": str(cert.slope),
            "piece_indices": cert.piece_indices or None,
            "piece": cert.piece,
        }
    if result.notes:
        record["notes"] = result.notes
    return record


def _prediction_json(prediction: FamilyPrediction) -> dict:
    return {
        "kind": prediction.kind.value,
        "n0": prediction.n0,
        "fiber_indices": prediction.fiber_indices or None,
    }


def _exceptional_json(
    exceptional: tuple[tuple[Slope, SurgeryClassification], ...],
) -> list[dict]:
    return [
        {"slope": str(r), "classification": _classification_json(c)}
        for r, c in exceptional
    ]


def _image_json(image: TwistedImage, fraction: Slope | None) -> dict:
    record = {
        "n": image.n,
        "link": str(image),
        "entries": [str(s) for s in image.entries],
        "degenerate": image.degenerate,
    }
    if fraction is not None:
        record["two_bridge"] = str(fraction)
    return record


# The family prediction at every slope outside a knot's table.
_HYPERBOLIC_FAMILY_JSON = _json(_prediction_json(_HYPERBOLIC_FAMILY), "  ")
