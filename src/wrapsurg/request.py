"""The request reader of the command line: `parse` reads the words of one
request into a `Request`, or raises `CommandError` with its exit code.

Commands and the flags each takes are in FLAGS; any other word starting
"--" exits 2, as do a missing or surplus positional argument and a
`--format` other than text or json.  A `--range` or `--n` span is A..B or a
single integer, and holds at most MAX_SPAN_ROWS (1,000,000) rows; a longer
or empty one exits 2.  The knot and slope texts are kept as written: the
request is parsed, not its knot, which `wrapsurg.cli` reads when it answers.
`wrapsurg.cli` imports every name here, so `cli.parse` and the rest name
them too; this module imports nothing of the command line.
"""
from __future__ import annotations

from .slopes import ParseError, _parse_int

# The flags each command takes; any other word starting "--" exits 2.  A batch takes none,
# its request lines carry their own.
FLAGS = {
    "classify": ("--format", "--moves"),
    "slopes": ("--format", "--moves"),
    "normalize": ("--format", "--moves"),
    "twist": ("--format", "--moves", "--n"),
    "predict": ("--format", "--moves", "--n"),
    "table": ("--format", "--moves", "--range"),
    "batch": (),
}
# The most rows a --range or --n span may ask for.
MAX_SPAN_ROWS = 1_000_000
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


class Request:
    knot_text: str | None = None
    slope_text: str | None = None
    n_range: tuple[int, int] | None = None
    slope_range: tuple[int, int] | None = None
    fmt: str = "text"
    show_moves: bool = False
    batch_file: str | None = None

    def __init__(self, command: str) -> None:
        self.command = command


def parse(argv: list[str]) -> Request:
    if not argv:
        raise CommandError(USAGE.rstrip(), 2)
    command = argv[0]
    flags = FLAGS.get(command)
    if flags is None:
        raise CommandError(f"unknown command {command!r} (at position 0)", 2)
    request = Request(command)
    positionals: list[str] = []
    words = iter(argv[1:])
    for arg in words:
        if not arg.startswith("--"):
            positionals.append(arg)
        elif arg not in flags:
            takes = " ".join(flags) or "no flags; put flags on each request line"
            raise CommandError(f"{command} does not take {arg}; it takes {takes}", 2)
        elif arg == "--format":
            request.fmt = next(words, "")
            if request.fmt not in ("text", "json"):
                raise CommandError("--format needs 'text' or 'json'", 2)
        elif arg == "--moves":
            request.show_moves = True
        elif arg == "--n":
            request.n_range = _parse_span(next(words, None), arg)
        elif arg == "--range":
            request.slope_range = _parse_span(next(words, None), arg)

    if command == "batch":
        if len(positionals) > 1:
            raise CommandError("batch takes at most one file argument", 2)
        request.batch_file = positionals[0] if positionals else None
        return request
    needs_slope = command in ("classify", "predict")
    if len(positionals) != 1 + needs_slope:
        raise CommandError(
            f"{command} takes {1 + needs_slope} positional argument(s), got {len(positionals)}",
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


def _parse_span(text: str | None, flag: str) -> tuple[int, int]:
    if text is None:
        raise CommandError(f"{flag} needs a value A..B or a single integer", 2)
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = _parse_int(lo_text, 0, True)
        hi = _parse_int(hi_text, 0, True) if dots else lo
    except ParseError:
        raise CommandError(f"{flag} expects integers like -2..5, got {text!r}", 2)
    if lo > hi:
        raise CommandError(f"{flag} range is empty: {text!r}", 2)
    if hi - lo >= MAX_SPAN_ROWS:
        raise CommandError(f"{flag} range has more than {MAX_SPAN_ROWS} rows: {text!r}", 2)
    return lo, hi
