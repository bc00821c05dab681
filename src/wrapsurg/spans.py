"""The rows of a `--range` or `--n` span, for both writers of the command
line: `span_rows` writes a span's text, `s3_rows` the text of a span of
known S^3 covers, and `sweep_rows` a knot's `table` sweep rows at its
exceptional slopes, which each writer renders once per knot and keeps with
it.

`wrapsurg.cli` imports this module on its first answer with a span or with
a knot's exceptional slopes, so that `import wrapsurg.cli` compiles none of
it; `wrapsurg.jsonwriter` imports it with itself.

The rows of a span that are the same but for their integer (a hyperbolic
sweep row, an unknown S^3 row) are sliced from `_row_chunk`'s chunks.  A
chunk is one string: the 256 rows of the integers from 128 short of a
multiple of 256, each followed by the writer's row separator, with the
offset where each row starts.  So a chunk is centred on a multiple of 256,
and a span about 0 is one slice of one chunk.  At most 64 chunks are kept,
all in `classify._in_window`'s window |r| < 2**20, so every row kept has at
most 7 digits and the chunks take about 1.8 MB at most (64 chunks of JSON
sweep rows at the window's edge take 1.75 MB under tracemalloc); the rows
outside it are written one at a time, so a request writes no integer it did
not ask for.  A span's text is a few slices with the knot's sweep rows
spliced in between, and its bytes are those of the rows written one by one
and joined.

The text of a known S^3 cover is kept by `_s3_cover`, by (canonical twist,
canonical slope), so `seifert.pretzel_surgery` builds it and str() writes it
once while it stays among the last _S3_COVERS (1024) asked for: both cover
slopes over 512 consecutive twists.  Both writers format each row from it,
`template % (n, text)`.  Only the covers of spans whose canonical twists are
all in the keep-window are kept; the 1024 texts of 7-digit twists take
0.26 MB under tracemalloc.  `wrapsurg.seifert` is imported on the first
miss.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .classify import _WINDOW, _in_window

_CHUNK_ROWS = 256
_HALF_CHUNK = _CHUNK_ROWS // 2
_ROW_CHUNKS = 64
# The S^3 cover texts `_s3_cover` keeps: both cover slopes over 512
# consecutive twists.
_S3_COVERS = 1024


@lru_cache(maxsize=_ROW_CHUNKS)
def _row_chunk(template: str, sep: str, first: int) -> tuple[str, tuple[int, ...]]:
    """The rows `template % r`, each followed by `sep`, for the _CHUNK_ROWS
    integers r from `first`, as one string, and the offset in it where each
    row starts, then its length."""
    rows = [template % r + sep for r in range(first, first + _CHUNK_ROWS)]
    return "".join(rows), (0, *accumulate(map(len, rows)))


def span_rows(template: str, sep: str, span: tuple[int, int], exceptional=()) -> str:
    """sep.join(template % r for r in the span), but for the row of each pair
    (r, row) of `exceptional`, ascending in r, at its r: the rows between are
    sliced from `_row_chunk` inside the keep-window and written row by row
    outside it."""
    lo, hi = span
    pieces = []
    for r, row in (*exceptional, (hi + 1, None)):
        if r < lo:
            continue
        stop = r if r <= hi else hi + 1
        while lo < stop:
            first = lo - (lo + _HALF_CHUNK) % _CHUNK_ROWS
            end = stop if stop < first + _CHUNK_ROWS else first + _CHUNK_ROWS
            # `_in_window` of the chunk's middle integer; then the chunk is in
            # the window, as _CHUNK_ROWS divides the window's bound.
            if -_WINDOW < first + _HALF_CHUNK < _WINDOW:
                text, starts = _row_chunk(template, sep, first)
                pieces.append(text[starts[lo - first]:starts[end - first] - len(sep)])
            else:
                pieces.append(sep.join(map(template.__mod__, range(lo, end))))
            lo = end
        if r > hi:
            return sep.join(pieces)
        pieces.append(row)
        lo = r + 1


@lru_cache(maxsize=_S3_COVERS)
def _s3_cover(nc: int, rc: int) -> str:
    """The text of the S^3 surgery of the nc-twisted image of the canonical
    knot at canonical slope rc (`seifert.pretzel_surgery`)."""
    from .seifert import pretzel_surgery

    return str(pretzel_surgery(nc, rc))


def s3_rows(template: str, sep: str, span: tuple[int, int], slope_map, rc: int) -> str:
    """sep.join(template % (n, text of the S^3 cover of the n-twisted image))
    over the span, at canonical slope rc with the knot's `slope_map`: each
    cover's text kept by `_s3_cover` inside the keep-window and written anew
    outside it."""
    lo, hi = span
    nc = slope_map.canonical_twist
    # nc is monotone: the ends decide.
    cover = _s3_cover if _in_window(nc(lo), nc(hi)) else _s3_cover.__wrapped__
    return sep.join([template % (n, cover(nc(n), rc)) for n in range(lo, hi + 1)])


def sweep_rows(row: str, exceptional) -> tuple:
    """The (r, row % (r, type)) pairs of a knot's exceptional slopes, which
    are integral and ascending, for `span_rows`."""
    return tuple((r.p, row % (r.p, result.type._value_)) for r, result in exceptional)
