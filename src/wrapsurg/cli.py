"""Command-line front end.

Commands: classify, slopes, normalize, twist, predict, table, batch.
Knots are written as `K0[...]`/`K1[...]`, slopes as `p/q`, `p`, or `inf`.
Exit codes: 0 success, 2 parse error (or an answer too long to write as
text), 3 invalid or degenerate knot.
"""
from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass

from .classify import (
    Analysis,
    DegenerateKnotError,
    FamilyPrediction,
    SurgeryClassification,
    SurgeryType,
    analysis_of,
)
from .slopes import ParseError, Slope, parse_slope
from .tangles import NormalForm
from .wrapped import (
    NotAKnotError,
    WrappedKnot,
    parse_knot,
    twist,
    two_bridge_fraction,
)

COMMANDS = ("classify", "slopes", "normalize", "twist", "predict", "table", "batch")
USAGE = """\
usage: wrapsurg COMMAND [ARGS] [--format text|json] [--moves]
  classify  KNOT SLOPE        classify one surgery
  slopes    KNOT              list all exceptional surgeries
  normalize KNOT              show the normal form and canonical representative
  twist     KNOT --n A..B     Montesinos images of the twisted embeddings
  predict   KNOT SLOPE [--n A..B]
                              surgery behaviour over all embeddings
  table     KNOT --range A..B exceptional slopes plus an integral slope sweep
  batch     [FILE]            run one request per line (default: stdin)
"""


class CommandError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class Request:
    command: str
    knot_text: str | None = None
    slope_text: str | None = None
    n_range: tuple[int, int] | None = None
    slope_range: tuple[int, int] | None = None
    fmt: str = "text"
    show_moves: bool = False
    batch_file: str | None = None


def parse(argv: list[str]) -> Request:
    if not argv:
        raise CommandError(USAGE.rstrip(), 2)
    command = argv[0]
    if command not in COMMANDS:
        raise CommandError(f"unknown command {command!r} (at position 0)", 2)
    request = Request(command=command)
    positionals: list[str] = []
    flags: list[str] = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg in ("--format", "--moves", "--n", "--range"):
            flags.append(arg)
        if arg == "--format":
            i += 1
            if i >= len(argv) or argv[i] not in ("text", "json"):
                raise CommandError("--format needs 'text' or 'json'", 2)
            request.fmt = argv[i]
        elif arg == "--moves":
            request.show_moves = True
        elif arg in ("--n", "--range"):
            i += 1
            if i >= len(argv):
                raise CommandError(f"{arg} needs a value A..B or a single integer", 2)
            span = _parse_span(argv[i], arg)
            if arg == "--n":
                request.n_range = span
            else:
                request.slope_range = span
        elif arg.startswith("--"):
            raise CommandError(f"unknown flag {arg!r}", 2)
        else:
            positionals.append(arg)
        i += 1

    needs_knot = command != "batch"
    needs_slope = command in ("classify", "predict")
    expected = int(needs_knot) + int(needs_slope)
    if command == "batch":
        if flags:
            raise CommandError(
                f"batch does not take {flags[0]}; put flags on each request line", 2
            )
        if len(positionals) > 1:
            raise CommandError("batch takes at most one file argument", 2)
        request.batch_file = positionals[0] if positionals else None
        return request
    if len(positionals) != expected:
        raise CommandError(
            f"{command} takes {expected} positional argument(s), got {len(positionals)}",
            2,
        )
    request.knot_text = positionals[0]
    if needs_slope:
        request.slope_text = positionals[1]
    if command == "table" and request.slope_range is None:
        raise CommandError("table needs --range A..B", 2)
    if command == "twist" and request.n_range is None:
        raise CommandError("twist needs --n A..B or --n K", 2)
    return request


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    body = text.strip()
    try:
        if ".." in body:
            lo_text, _, hi_text = body.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(body)
    except ValueError:
        raise CommandError(f"{flag} expects integers like -2..5, got {text!r}", 2)
    if lo > hi:
        raise CommandError(f"{flag} range is empty: {text!r}", 2)
    return lo, hi


def run(request: Request, out=None) -> int:
    out = out if out is not None else sys.stdout
    if request.command == "batch":
        return _run_batch(request, out)
    try:
        knot = parse_knot(request.knot_text or "")
    except ParseError as err:
        raise CommandError(f"bad knot expression: {err}", 2)
    except NotAKnotError as err:
        raise CommandError(str(err), 3)
    slope = None
    if request.slope_text is not None:
        try:
            slope = parse_slope(request.slope_text)
        except ParseError as err:
            raise CommandError(f"bad slope expression: {err}", 2)
    try:
        payload = _dispatch(request, knot, slope)
        if request.fmt == "json":
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            text = "\n".join(_render_text(request, payload))
    except DegenerateKnotError as err:
        raise CommandError(str(err), 3)
    except ValueError as err:
        # str() of an integer past the interpreter's digit limit; the answer
        # is exact but cannot be written out.
        if type(err) is not ValueError or "integer string conversion" not in str(err):
            raise
        raise CommandError(
            f"the answer has an integer of more than {sys.get_int_max_str_digits()}"
            " digits, the limit for writing an integer as text",
            2,
        ) from None
    print(text, file=out)
    return 0


def _dispatch(request: Request, knot: WrappedKnot, slope: Slope | None) -> dict:
    command = request.command
    payload: dict = {"input": _input_json(request, knot, slope)}
    analysis = analysis_of(knot)
    payload["normal_form"] = _normal_form_json(analysis.nf)
    payload["equivalence_moves"] = list(analysis.moves)
    if command == "normalize":
        return payload
    if analysis.nf.degenerate:
        raise DegenerateKnotError(
            f"{knot} reduces to a trivial wrapped pattern and is not hyperbolic"
        )
    if command == "classify":
        assert slope is not None
        result = analysis.classify(slope)
        payload["classification"] = _classification_json(result)
        payload["family_prediction"] = _prediction_json_or_none(analysis, slope, result)
        return payload
    if command == "slopes":
        payload["exceptional_slopes"] = _exceptional_json(analysis.exceptional_slopes())
        return payload
    if command == "table":
        exceptional = analysis.exceptional_slopes()
        payload["exceptional_slopes"] = _exceptional_json(exceptional)
        # Exceptional slopes are integral, and every other slope is hyperbolic.
        types = {r.p: result.type.value for r, result in exceptional}
        hyperbolic = SurgeryType.HYPERBOLIC.value
        lo, hi = request.slope_range or (0, 0)
        payload["sweep"] = [
            {"slope": str(value), "type": types.get(value, hyperbolic)}
            for value in range(lo, hi + 1)
        ]
        return payload
    if command == "twist":
        lo, hi = request.n_range or (0, 0)
        images = []
        for n in range(lo, hi + 1):
            image = twist(knot, n)
            record = {
                "n": n,
                "link": str(image),
                "entries": [str(s) for s in image.entries],
                "degenerate": image.degenerate,
            }
            if len(knot.tangle.entries) == 1:
                record["two_bridge"] = str(two_bridge_fraction(knot, n))
            images.append(record)
        payload["images"] = images
        return payload
    if command == "predict":
        assert slope is not None
        result = analysis.classify(slope)
        payload["classification"] = _classification_json(result)
        if slope.is_meridian():
            payload["family_prediction"] = None
            return payload
        payload["family_prediction"] = _prediction_json(analysis.predict(slope))
        if request.n_range is not None:
            lo, hi = request.n_range
            surgeries = []
            for n in range(lo, hi + 1):
                known = analysis.surgery_in_s3(slope, n)
                surgeries.append(
                    {"n": n, "result": str(known) if known else None}
                )
            payload["surgeries"] = surgeries
        return payload
    raise CommandError(f"unhandled command {command!r}", 2)


def _run_batch(request: Request, out) -> int:
    if request.batch_file is None:
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(
                request.batch_file, encoding="utf-8", errors="surrogateescape"
            ) as handle:
                lines = handle.read().splitlines()
        except OSError as err:
            raise CommandError(f"cannot read batch file: {err}", 2)
    exit_code = 0
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            sub = parse(shlex.split(text))
            if sub.command == "batch":
                raise CommandError("batch lines cannot nest batch", 2)
            run(sub, out=out)
        except CommandError as err:
            print(f"line {number}: error: {err}", file=sys.stderr)
            if exit_code == 0:
                exit_code = err.code
    return exit_code


# -- JSON payload builders ---------------------------------------------------


def _input_json(request: Request, knot: WrappedKnot, slope: Slope | None) -> dict:
    record: dict = {"knot": str(knot)}
    if slope is not None:
        record["slope"] = str(slope)
    if request.n_range is not None:
        record["n"] = list(request.n_range)
    if request.slope_range is not None:
        record["range"] = list(request.slope_range)
    return record


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
        "fiber_indices": list(result.seifert_indices)
        if result.seifert_indices
        else None,
    }
    if result.certificate is not None:
        cert = result.certificate
        record["certificate"] = {
            "source": cert.source.value,
            "slope": str(cert.slope),
            "piece_indices": list(cert.piece_indices) if cert.piece_indices else None,
            "piece": cert.piece,
        }
    if result.notes:
        record["notes"] = list(result.notes)
    return record


def _prediction_json(prediction: FamilyPrediction) -> dict:
    return {
        "kind": prediction.kind.value,
        "n0": prediction.n0,
        "fiber_indices": list(prediction.fiber_indices)
        if prediction.fiber_indices
        else None,
    }


def _prediction_json_or_none(
    analysis: Analysis, slope: Slope, result: SurgeryClassification
) -> dict | None:
    if slope.is_meridian() or result.type is SurgeryType.NON_HYPERBOLIC_KNOT:
        return None
    return _prediction_json(analysis.predict(slope))


def _exceptional_json(
    exceptional: list[tuple[Slope, SurgeryClassification]],
) -> list[dict]:
    return [
        {"slope": str(r), "classification": _classification_json(c)}
        for r, c in exceptional
    ]


# -- text rendering ----------------------------------------------------------


def _render_text(request: Request, payload: dict) -> list[str]:
    lines = [f"knot: {payload['input']['knot']}"]
    nf = payload["normal_form"]
    fracs = ",".join(nf["fracs"])
    suffix = "  [degenerate]" if nf["degenerate"] else ""
    lines.append(f"normal form: e0={nf['e0']} fracs=[{fracs}]{suffix}")
    if nf["canonical"]:
        canonical = nf["canonical"]
        extras = []
        if canonical["mirrored"]:
            extras.append("mirrored")
        if canonical["twists"]:
            extras.append(f"twists={canonical['twists']}")
        detail = f" ({', '.join(extras)})" if extras else ""
        lines.append(f"canonical single entry: t={canonical['t']}{detail}")
    if request.show_moves and payload.get("equivalence_moves"):
        for move in payload["equivalence_moves"]:
            lines.append(f"move: {move}")
    if "classification" in payload:
        lines.append(_classification_line(payload["classification"]))
    if payload.get("family_prediction"):
        lines.append(_prediction_line(payload["family_prediction"]))
    for record in payload.get("exceptional_slopes", []):
        lines.append(
            f"exceptional {record['slope']}: "
            + _classification_line(record["classification"], bare=True)
        )
    if not payload.get("exceptional_slopes", True):
        lines.append("exceptional slopes: none")
    for row in payload.get("sweep", []):
        lines.append(f"  r={row['slope']}: {row['type']}")
    for image in payload.get("images", []):
        extra = f"  two-bridge {image['two_bridge']}" if "two_bridge" in image else ""
        lines.append(f"  n={image['n']}: {image['link']}{extra}")
    for surgery in payload.get("surgeries", []):
        result = surgery["result"] or "unknown"
        lines.append(f"  n={surgery['n']}: {result}")
    return lines


def _classification_line(record: dict, bare: bool = False) -> str:
    text = record["type"]
    if record.get("fiber_indices"):
        q1, q2 = record["fiber_indices"]
        text += f" (fiber indices {q1},{q2})"
    cert = record.get("certificate")
    if cert:
        detail = cert["piece"] or f"slope {cert['slope']}"
        text += f" [{cert['source']}: {detail}]"
    if bare:
        return text
    return f"classification: {text} at slope {record['slope']}"


def _prediction_line(record: dict) -> str:
    kind = record["kind"]
    if kind == "seifert-or-reducible":
        indices = record.get("fiber_indices")
        tail = f" with fiber indices {indices[0]},{indices[1]}" if indices else ""
        return f"family: every embedding is reducible or small Seifert fibered{tail}"
    if kind == "toroidal-cofinite":
        n0 = record.get("n0")
        window = f" except within 1 of n0={n0}" if n0 is not None else ""
        return f"family: toroidal for all but at most three embeddings{window}"
    return "family: hyperbolic for all but finitely many embeddings"


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        request = parse(args)
        return run(request)
    except CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
