"""The JSON layout of the command line: `json_answer` writes an answer's
records as the text of json.dumps(payload, indent=2, sort_keys=True).

Each record writes its own JSON mapping, its `as_json()`: the normal form,
a classification with its certificate, a family prediction and a twisted
image.  This module lays them out, and adds only what belongs to no
record: the `slope` and `classification` pair of each exceptional slope,
and the `two_bridge` fraction of an image row.

`wrapsurg.cli` imports this module on its first JSON answer, so a text
request never loads it.  Strings are quoted by the C helper of
`json.encoder`, from `_json`, and no request loads `json` itself.  The pieces
of a knot's answers go into the knot's `json` slot in `cli._knot`, each
rendered once: the first JSON answer renders, by `_fragments`, those every
answer shows (the knot's quoted text, normal form and moves), and the first
answer that shows any other piece renders it there, as the text writer
fills its `slopes` slot: the first `slopes` or `table` answer the
exceptional slopes and their sweep rows, the first `classify` or `predict`
at a table slope or the meridian that slope's classification and family,
and the first at a hyperbolic slope the %-template of the knot's
classification there.  A render that raises past the digit limit
keeps nothing, so only the answers that show that integer fail.  An answer
is assembled from the pieces, one %-template per answer shape and one per
row of a `sweep` or `surgeries` list, so that a warm answer other than
`twist` builds no dict.  The rows of a span come as one text from
`spans.span_rows`: slices of chunks of rows joined by _SEP, with the knot's
sweep rows spliced in between; the rows of known S^3 covers come from
`spans.s3_rows`, each cover's text kept as written.  `wrapsurg.spans` is
read through `cli._spans`, which the first answer in either format with a
span or a knot's exceptional slopes binds, so a JSON answer without one
(`classify`, `normalize`, `twist`) does not load it.
"""
from __future__ import annotations

from _json import encode_basestring_ascii as _quote

from . import cli
from .answers import _HYPERBOLIC, _HYPERBOLIC_FAMILY, SurgeryClassification
from .slopes import Slope


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


def json_answer(request: cli.Request, knot: cli._Knot, slope: Slope | None, answer: tuple) -> str:
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
            if result.type is _HYPERBOLIC:
                if hyperbolic is None:
                    # The notes are written with every % doubled, and the slope as "%s".
                    notes = tuple(note.replace("%", "%%") for note in result.notes)
                    hyperbolic = pieces[5] = _json(
                        SurgeryClassification(_HYPERBOLIC, "%s", None, None, notes).as_json(), "  ")
                found = hyperbolic % result.slope, _HYPERBOLIC_FAMILY_JSON
            else:  # a table slope or the meridian; raises, keeping nothing, past the digit limit
                found = table[result.slope] = (
                    _json(result.as_json(), "  "),
                    "null" if prediction is None else _json(prediction.as_json(), "  "))
        classification, family = found
        surgeries = ""
        if span is not None:
            spans = cli._spans or cli._spans_module()
            rows = (spans.span_rows(_NULL_ROW, _SEP, span) if rc is None else
                    spans.s3_rows(_COVER_ROW, _SEP, span, knot.analysis.slope_map, rc))
            surgeries = _rows("surgeries", rows)
        return _CLASSIFY_JSON % (classification, moves, family, given, nf, surgeries)
    if command in ("slopes", "table"):
        exceptional, span = answer
        spans = cli._spans or cli._spans_module()
        if slopes is None:  # raises, keeping nothing, past the digit limit
            slopes = pieces[3] = (
                _json([{"slope": str(r), "classification": c.as_json()} for r, c in exceptional],
                      "  "),
                spans.sweep_rows(_SWEEP_ROW, exceptional))
        rows = "" if span is None else _rows(
            "sweep", spans.span_rows(_HYPERBOLIC_ROW, _SEP, span, slopes[1]))
        return _SLOPES_JSON % (moves, slopes[0], given, nf, rows)
    if command == "twist":
        images = _json([image.as_json() if fraction is None else
                        {**image.as_json(), "two_bridge": str(fraction)}
                        for image, fraction in answer], "  ")
        return _TWIST_JSON % (moves, images, given, nf)
    return _NORMALIZE_JSON % (moves, given, nf)


def _fragments(knot: cli._Knot) -> list:
    """The JSON pieces every answer for the knot shows, each rendered at its
    depth in an answer, for its `json` slot: its quoted text, its normal
    form and its equivalence moves; then the pieces `json_answer` fills on
    first use, None for (exceptional slopes, `sweep` rows at them,
    `spans.sweep_rows`), an empty mapping for (classification, family
    prediction) by table slope or meridian, and None for the %-template of
    its classification at a hyperbolic slope."""
    analysis = knot.analysis
    return [
        _quote(knot.text),
        _json(analysis.nf.as_json(), "  "),
        _json([str(move) for move in analysis.moves], "  "),
        None,
        {},
        None,
    ]


def _rows(key: str, rows: str) -> str:
    """The `key` member of an answer: a list of at least one row, given as
    its rows joined by _SEP."""
    return ',\n  "%s": [\n%s\n  ]' % (key, rows)


# The family prediction at every slope outside a knot's table.
_HYPERBOLIC_FAMILY_JSON = _json(_HYPERBOLIC_FAMILY.as_json(), "  ")
