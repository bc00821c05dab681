"""The batch reader of the command line: `run_batch` answers a batch file or
stdin one request line at a time.

`wrapsurg.cli` imports this module on its first `batch` request, so a
one-shot request never loads it.

`_kept_answers` keeps the answer text of request lines, by the line stripped
of its shlex whitespace, in an LRU of _ANSWER_CACHE_SIZE (2048) lines, and a
repeated line is written from it with the two writes `cli.main` makes: it is
not split, parsed, analysed or rendered again.  A line is kept when it
answers with exit 0, has no `--n` or `--range` span, has at most
`cli._KNOT_TEXT_LENGTH` (128) characters, and the CLI's `_kept_knots` already
keeps its knot, so from its knot text's third request on; a failed line is
never kept, and each of its repeats prints its own `line N: error`.  A batch
of distinct knots keeps no line and pays one failed lookup per line.  At the
bound the memo takes 1.19 MB under tracemalloc after the seed-101 `batch_hot`
file (answers of 370 characters on average) and 2.95 MB with answers of
1.3 KB, the largest that a line of 128 characters without a span was seen to
give.
"""
from __future__ import annotations

import io
import sys
from collections import OrderedDict

from . import cli

# The kept answers by stripped request line, the least recently used first.
_ANSWER_CACHE_SIZE = 2048
_kept_answers: OrderedDict[str, str] = OrderedDict()


def run_batch(request: cli.Request) -> int:
    """Answer each line of `request.batch_file`, or of stdin, to stdout with
    `cli.parse` and `cli.run`, or from its kept answer; a failed line prints
    its `cli.CommandError` to stderr, and the batch exits with the code of
    the first."""
    # Read as the lines are answered, so that a batch takes the memory of its
    # longest line, not of its input.  newline="" ends lines at LF, CRLF (also
    # split across two reads) and CR only, not at \x0b, \x0c, \x1c-\x1e,
    # \x85..., as str.splitlines() would.
    write = sys.stdout.write  # fails before the input is opened if stdout is None
    if request.batch_file is None:
        if sys.stdin is None:  # fd 0 was closed at start-up
            raise cli.CommandError("cannot read batch input: stdin is closed", 2)
        lines = io.TextIOWrapper(sys.stdin.buffer, "utf-8", "surrogateescape", newline="")
    else:
        try:
            lines = open(request.batch_file, encoding="utf-8", errors="surrogateescape",
                         newline="")
        except OSError as err:
            raise cli.CommandError(f"cannot read batch file: {err}", 2)
    kept_answers = _kept_answers
    kept_knots = cli._kept_knots
    longest = cli._KNOT_TEXT_LENGTH
    exit_code = 0
    try:
        for number, line in _numbered(lines):
            text = line.strip(" \t\r\n")  # shlex's whitespace, not str.strip()'s
            if not text or text.startswith("#"):
                continue
            answer = kept_answers.get(text)
            if answer is not None:
                kept_answers.move_to_end(text)
                # The two writes `cli.main` makes.
                write(answer)
                write("\n")
                continue
            try:
                try:
                    words = _split(text)
                except ValueError as err:  # an unclosed quote or a trailing escape
                    raise cli.CommandError(f"bad request line: {err}", 2)
                sub = cli.parse(words)
                if sub.command == "batch":
                    raise cli.CommandError("batch lines cannot nest batch", 2)
                # Whether `_kept_knots` keeps the knot before this request.
                keep = (sub.knot_text in kept_knots and len(text) <= longest
                        and sub.n_range is None and sub.slope_range is None)
                answer = cli.run(sub)
                write(answer)
                write("\n")
                if keep:
                    kept_answers[text] = answer
                    if len(kept_answers) > _ANSWER_CACHE_SIZE:
                        kept_answers.popitem(last=False)
            except cli.CommandError as err:
                cli._report(f"line {number}: error: {err}")
                if exit_code == 0:
                    exit_code = err.code
    finally:
        if request.batch_file is None:
            lines.detach()  # leaves stdin open
        else:
            lines.close()
    return exit_code


def _numbered(lines):
    """(number, line) for the lines of a batch, from 1.  An error reading
    them exits 2; an error raised while a line is answered is not caught."""
    try:
        yield from enumerate(lines, start=1)
    except OSError as err:
        raise cli.CommandError(f"cannot read batch input: {err}", 2) from None


def _split(text: str) -> list[str]:
    """The words shlex.split(text) gives, or its ValueError.

    A text that is printable, so that its only whitespace is the space, that
    has no " and no backslash, and whose ' pair up with no pair enclosing
    nothing or a space, has the words str.split() gives of it without its ':
    it is split by str methods alone.  Every other text goes to shlex, among
    them one with a tab or with a space in quotes, at about 15 us a line
    against 2 us."""
    if text.isprintable() and '"' not in text and "\\" not in text:
        quoted = text.split("'")[1::2]
        if text.count("'") % 2 == 0 and "" not in quoted and " " not in "".join(quoted):
            return text.replace("'", "").split()
    import shlex
    return shlex.split(text)
