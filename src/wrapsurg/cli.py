"""Command-line front end.

Commands: classify, slopes, normalize, twist, predict, table, batch.
Knots are written as `K0[...]`/`K1[...]`, slopes as `p/q`, `p`, or `inf`.
Exit codes: 0 success, 1 stdout closed before the answer was written
(`wrapsurg ... | head`, or `>&-`; a batch stops there), 2 parse error (a flag
the command does not take, an answer too long to write as text, or one that
does not fit in memory), 3 invalid or degenerate knot.  JSON output is the
text of json.dumps(payload, indent=2, sort_keys=True).  A batch file or stdin
decodes as UTF-8 with surrogateescape, its lines end at LF, CRLF or CR only,
and shlex.split splits each into words; it is read as its lines are answered,
so a batch takes the memory of its longest line, not of its length.
Importing this module loads only what every request runs: the request
reader, `wrapsurg.request`, whose `parse`, `Request`, `CommandError`, FLAGS,
USAGE and MAX_SPAN_ROWS are imported here and named `cli.parse` and so on
too, and the text layout, which is here (each record writes its own text,
its `str()`, and the layout puts each in its line).  `wrapsurg.jsonwriter`,
the JSON layout of the records' own `as_json()`, is imported by the first
JSON answer (and bound to `_json_answer`), `wrapsurg.batch`, the batch
reader, by the first `batch` request, `wrapsurg.images`, the S^3 images of
the twisted embeddings, by the first `twist` request, and `wrapsurg.spans`,
the rows of a span, by the first answer in either format with a span or a
knot's exceptional slopes (and bound to `_spans`, through which
`jsonwriter` reads it too).  The first two import this module: under
`python -m wrapsurg.cli`, where it runs as the process's `__main__`, it
first registers itself in `sys.modules` as `wrapsurg.cli`, so that neither
loads a second copy, with caches and an error class of its own, and drops
that name again when the run leaves through `sys.exit` (pdb restarts the
run then); run as another program's `__main__` (`python -m cProfile -m
wrapsurg.cli`), it hands the run to the importable `wrapsurg.cli.main`.
A one-shot run (`python -m wrapsurg.cli` and the `wrapsurg` command, both
through `script`) ends once `main()` has flushed its answer: the atexit
handlers run, stdout and stderr are flushed and the process exits with
`os._exit`, without the interpreter's teardown, which no caller waits on.
Under a trace or profile function, a `sys.monitoring` tool, pdb, `-i` or
a foreign `__main__` it exits through `sys.exit`, teardown included;
`main()` itself only returns the exit code.  No request loads `json` (the writer
quotes strings with its C helper `_json`), and only a batch line that
`batch._split` cannot split by str methods loads `shlex` (and with it `re`).
A `--range` or `--n` span holds at most MAX_SPAN_ROWS (1,000,000) rows; a
longer one exits 2.

`_knot` gives the knot of a knot text through the package's one cache of
knots, which keeps a knot from its text's second request on: the first request
builds the knot, answers and drops it, remembering only the text (in
`_asked_once`, at most 8192 texts, cleared when full), and the second builds
it again and keeps it, in an LRU of 8192 knots.  So a batch of knots each
asked for once keeps none of them.  A text of more than 128 characters is
analysed anew per request and not remembered.  A knot holds the text's
analysis and the knot's own text, `str(knot)`, written once per knot
however the request wrote it (whitespace, leading zeros, `-0`, `2/4`,
`3/1`).  A kept knot also holds the pieces of its answers, each rendered
once per knot: from its first text answer on, the head of its text answers
(knot, normal form and canonical entry lines); from its first text `slopes`
or `table` answer on, its `exceptional` lines and its sweep rows at those
slopes; from its first JSON answer on, its quoted text, normal form and
moves as JSON; from its first JSON `slopes` or `table` answer on, its
exceptional slopes and sweep rows as JSON; from the first JSON `classify`
or `predict` at a table slope or the meridian on, that slope's
classification and family as JSON; and from the first at a hyperbolic
slope on, the template of its classification at every hyperbolic slope.  A
piece whose render raises is not kept.  So a warm request, from the third
for its text on, parses, analyses and writes out no knot, and the answer is
the same either way.  `_answer` gives the records a request answers with,
whatever its format, the span of `--n` S^3 rows and their canonical slope
among them (each cover's text is written once and kept in
`spans._s3_cover`); text is laid out straight from their `str()`, and a
JSON answer is assembled (in `jsonwriter`) from one %-template per answer
shape, its pieces, written from the records' `as_json()`, and one
%-template per row of a `sweep` or `surgeries` list, so that a warm one
builds no dict.  In both formats `spans.span_rows`
gives the text of a span as a few slices of pre-joined chunks of 256 rows,
centred on multiples of 256, with the knot's sweep rows spliced in between
(the `wrapsurg.spans` docstring states the chunks and their bound); the
bytes are those of the rows written one by one and joined.  A million-row
answer peaks at 80 MB as text and 202 MB as JSON for `table`, and at 72 MB
and 167 MB for `predict --n` (VmHWM, CPython 3.11, no bytecode cache).
Beneath `_knot`, `slopes.parse_slope` keeps the slopes of the last 2048
slope texts of at most 64 characters, knot entries and request slopes
alike, so a knot text missing from `_knot` is built from entries read
before.  Above `_knot`, a batch keeps the answers of repeated request lines;
the `wrapsurg.batch` docstring states which lines and its bound.
"""
from __future__ import annotations

import os
import sys
from collections import OrderedDict

from .answers import _HYPERBOLIC_FAMILY
from .classify import DegenerateKnotError, _NO_ENTRY, analysis_of
from .request import FLAGS, MAX_SPAN_ROWS, USAGE, CommandError, Request, parse
from .slopes import ParseError, Slope, parse_slope
from .wrapped import NotAKnotError, parse_knot

# The knots `_knot` keeps, and the texts it remembers as asked for once: all
# 4512 of the k<=2 grid (links included) fit, and a long batch run uses bounded
# memory, as only texts of at most _KNOT_TEXT_LENGTH characters are kept or
# remembered: 8192 knots, with all their pieces, took 31-36 MB under
# tracemalloc, and 8192 remembered texts of 128 characters take 2.0 MB.
_KNOT_CACHE_SIZE = 8192
_KNOT_TEXT_LENGTH = 128


def run(request: Request) -> str:
    """The answer text of a request other than `batch`; a failed request
    raises `CommandError`."""
    knot_text = request.knot_text or ""
    try:
        knot = _knot(knot_text)
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
        answer = _answer(request, knot, slope)
        if request.fmt == "json":
            return (_json_answer or _json_writer())(request, knot, slope, answer)
        return _text_answer(request, knot, answer)
    except DegenerateKnotError as err:
        raise CommandError(str(err), 3)
    except MemoryError:  # a span's rows or answer text, past an address-space cap
        raise CommandError("the answer does not fit in memory", 2) from None
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


# `jsonwriter.json_answer`, bound by the first JSON answer.
_json_answer = None


def _json_writer():
    global _json_answer
    from .jsonwriter import json_answer

    _json_answer = json_answer
    return json_answer


class _Knot:
    """A knot text's analysis and the knot's own text, `str(knot)`.  The
    first text answer fills `head` with its `_head`, the first text `slopes`
    or `table` answer fills `slopes` with its exceptional lines and its sweep
    rows, and the first JSON answer fills `json` with its `_fragments`, whose
    table pieces and hyperbolic template later JSON answers fill on first
    use.  A failed parse raises."""

    __slots__ = ("analysis", "text", "head", "slopes", "json")

    def __init__(self, knot_text: str) -> None:
        self.analysis = analysis = analysis_of(parse_knot(knot_text))
        self.text = str(analysis.knot)
        self.head = self.slopes = self.json = None


# `_knot`'s knots, by text, the least recently used first: those of texts of at
# most _KNOT_TEXT_LENGTH characters asked for at least twice.
_kept_knots: OrderedDict[str, _Knot] = OrderedDict()
# The texts asked for once and not kept: at most _KNOT_CACHE_SIZE, cleared when full.
_asked_once: set[str] = set()


def _knot(knot_text: str) -> _Knot:
    """The text's knot: a kept one, found with one lookup, or one built anew.
    A built knot is kept if its text, of at most _KNOT_TEXT_LENGTH characters,
    is in `_asked_once`; else the text is remembered there and the knot is
    dropped after its answer.  A failed parse raises and keeps nothing."""
    knot = _kept_knots.get(knot_text)
    if knot is not None:
        _kept_knots.move_to_end(knot_text)
        return knot
    knot = _Knot(knot_text)
    if len(knot_text) <= _KNOT_TEXT_LENGTH:
        if knot_text in _asked_once:
            _asked_once.remove(knot_text)
            _kept_knots[knot_text] = knot
            if len(_kept_knots) > _KNOT_CACHE_SIZE:
                _kept_knots.popitem(last=False)
        else:
            if len(_asked_once) >= _KNOT_CACHE_SIZE:
                _asked_once.clear()
            _asked_once.add(knot_text)
    return knot


def _answer(request: Request, knot: _Knot, slope: Slope | None) -> tuple:
    """The records a request answers with besides the knot's normal form and
    moves: for classify and predict (classification, family, `--n` span,
    the canonical slope of the span's S^3 covers when they are known, else
    None: every row unknown); for slopes and table (exceptional slopes, the
    `--range` span); for twist the (image, two-bridge fraction) rows; for
    normalize none.  Each part that does not apply is None."""
    command = request.command
    if command == "normalize":
        return ()
    analysis = knot.analysis
    if analysis.nf.degenerate:
        # The kept text: `require_hyperbolic`'s error writes the knot out again.
        raise DegenerateKnotError(knot.text)
    if command in ("classify", "predict"):
        result = analysis.classify(slope)
        if not slope.q:
            return result, None, None, None
        span = request.n_range
        rc = analysis.table.get(slope, _NO_ENTRY)[2] if span else None
        return result, analysis.predict(slope), span, rc
    if command == "twist":
        from .images import twist, two_bridge_fraction

        wrapped = analysis.knot
        single = len(wrapped.tangle.entries) == 1
        lo, hi = request.n_range
        return [(twist(wrapped, n), two_bridge_fraction(wrapped, n) if single else None)
                for n in range(lo, hi + 1)]
    return analysis.exceptional, request.slope_range


# -- rows of a span ----------------------------------------------------------

# One text row of a `table` sweep and of `--n` surgeries, and the rows that
# differ only in their integer: a hyperbolic slope, an unknown S^3 cover.  The
# JSON ones are in `jsonwriter`.  A known S^3 cover's row is `_SURGERY_LINE`
# at (n, the cover's text).
_SWEEP_LINE = "  r=%s: %s"
_SURGERY_LINE = "  n=%s: %s"
_HYPERBOLIC_LINE = _SWEEP_LINE % ("%d", "hyperbolic")
_UNKNOWN_LINE = _SURGERY_LINE % ("%d", "unknown")
# `wrapsurg.spans`, bound by the first answer, text or JSON, with a span or a
# knot's exceptional slopes.
_spans = None


def _spans_module():
    global _spans
    from . import spans

    _spans = spans
    return spans


# -- text writer -------------------------------------------------------------


def _text_answer(request: Request, knot: _Knot, answer: tuple) -> str:
    head = knot.head
    if head is None:
        head = knot.head = _head(knot)
    lines = [head]
    if request.show_moves:
        lines += [f"move: {move}" for move in knot.analysis.moves]
    if request.command in ("classify", "predict"):
        result, prediction, span, rc = answer
        lines.append(f"classification: {result} at slope {result.slope}")
        if prediction is _HYPERBOLIC_FAMILY:
            lines.append(_HYPERBOLIC_FAMILY_LINE)
        elif prediction is not None:
            lines.append(f"family: {prediction}")
        if span:
            spans = _spans or _spans_module()
            lines.append(spans.span_rows(_UNKNOWN_LINE, "\n", span) if rc is None else
                         spans.s3_rows(_SURGERY_LINE, "\n", span, knot.analysis.slope_map, rc))
    elif request.command in ("slopes", "table"):
        exceptional, span = answer
        spans = _spans or _spans_module()
        slopes = knot.slopes
        if slopes is None:  # raises, keeping nothing: an integer too long to write
            block = [f"exceptional {r}: {result}" for r, result in exceptional]
            slopes = knot.slopes = ("\n".join(block) or "exceptional slopes: none",
                                    spans.sweep_rows(_SWEEP_LINE, exceptional))
        lines.append(slopes[0])
        if span:
            lines.append(spans.span_rows(_HYPERBOLIC_LINE, "\n", span, slopes[1]))
    elif request.command == "twist":
        for image, fraction in answer:
            extra = "" if fraction is None else f"  two-bridge {fraction}"
            lines.append(f"  n={image.n}: {image}{extra}")
    return "\n".join(lines)


def _head(knot: _Knot) -> str:
    """The lines every text answer for the knot starts with: the knot, its
    normal form and its canonical single entry."""
    nf = knot.analysis.nf
    head = f"knot: {knot.text}\nnormal form: {nf}"
    return head if nf.k1 is None else f"{head}\ncanonical single entry: {nf.k1}"


# The family line of every slope outside a knot's table.
_HYPERBOLIC_FAMILY_LINE = f"family: {_HYPERBOLIC_FAMILY}"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        request = parse(args)
        if request.command == "batch":
            from .batch import run_batch

            code = run_batch(request)
        else:
            code = 0
            text = run(request)
            # The writes print() makes, without its argument handling.  The
            # newline is a write of its own: a long text cut short by a
            # closed pipe raises only at the next write or flush.
            sys.stdout.write(text)
            sys.stdout.write("\n")
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except CommandError as err:
        _report(f"error: {err}")
        return err.code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, as the SIGPIPE note
        # in the `signal` docs shows, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except AttributeError:
        # fd 1 was closed at start-up, so sys.stdout is None and the first
        # write fails: exit 1, as when the reader closed it.
        if sys.stdout is not None:
            raise
        return 1


def _report(message: str) -> None:
    """Print `message` to stderr, or drop it if fd 2 was closed at start-up:
    then sys.stderr is None (and print() would write to stdout), or a writer
    on whatever file took fd 2 before, open for reading only, whose write
    raises OSError."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr)
        except OSError:
            pass


def script():
    """The `wrapsurg` command and `python -m wrapsurg.cli`: answer the
    process's arguments with `main()` and end the process with its exit
    code; it never returns.  `main()` has flushed the answer, and no caller
    waits on the interpreter's teardown, so the process runs its atexit
    handlers, flushes stdout and stderr and ends at once, with `os._exit`.
    Under a trace or profile function (or, from Python 3.12 on, a
    `sys.monitoring` tool), whose report the teardown may write, with `bdb`
    loaded (pdb drops its trace function on `continue`, and takes the
    run's SystemExit to restart it), after `-i`, whose prompt follows the
    run, or when a flush fails, it ends through `sys.exit`, teardown
    included."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # tool ids 0-5, from 3.12 on
    if not (sys.flags.inspect or sys.gettrace() or sys.getprofile() or "bdb" in sys.modules
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        import atexit

        atexit._run_exitfuncs()
        try:
            for stream in sys.stdout, sys.stderr:
                if stream is not None:
                    stream.flush()
        except OSError:
            pass  # the teardown flushes again and reports it: a failed stdout exits 120
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    if vars(sys.modules[__name__]) is not globals():
        # Another program's `__main__` runs this module (`python -m cProfile
        # -m wrapsurg.cli`, `runpy.run_module` without alter_sys): answer
        # through the importable module, so that `batch` and `jsonwriter`
        # find the one copy of its caches and its `CommandError`.
        from wrapsurg import cli

        sys.exit(cli.main())
    # `python -m wrapsurg.cli`: `batch` and `jsonwriter` import this module
    # under its own name (see the module docstring).  A run that leaves
    # through `sys.exit` drops the name again: pdb restarts the run, and
    # runpy would find `wrapsurg.cli` already imported.
    sys.modules["wrapsurg.cli"] = sys.modules[__name__]
    try:
        script()
    finally:
        del sys.modules["wrapsurg.cli"]
