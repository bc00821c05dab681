"""The batch reader of the command line: `run_batch` answers a batch file or
stdin one request line at a time.

`wrapsurg.cli` imports this module on its first `batch` request, so a
one-shot request never loads it.  The command-line module that parses and
answers each line is passed in, not imported: under `python -m
wrapsurg.cli` it is `__main__`, and importing `wrapsurg.cli` here would load
a second copy of it, with caches and an error class of its own.
"""
from __future__ import annotations

import io
import re
import sys


def run_batch(request, out, cli) -> int:
    """Answer each line of `request.batch_file`, or of stdin, to `out` with
    `cli.parse` and `cli.run`; a failed line prints its `cli.CommandError`
    to stderr, and the batch exits with the code of the first."""
    # Read as the lines are answered, so that a batch takes the memory of its
    # longest line, not of its input.  newline="" ends lines at LF, CRLF (also
    # split across two reads) and CR only, not at \x0b, \x0c, \x1c-\x1e,
    # \x85..., as str.splitlines() would.
    if request.batch_file is None:
        lines = io.TextIOWrapper(sys.stdin.buffer, "utf-8", "surrogateescape", newline="")
    else:
        try:
            lines = open(request.batch_file, encoding="utf-8", errors="surrogateescape",
                         newline="")
        except OSError as err:
            raise cli.CommandError(f"cannot read batch file: {err}", 2)
    exit_code = 0
    try:
        for number, line in _numbered(lines, cli.CommandError):
            text = line.strip(" \t\r\n")  # shlex's whitespace, not str.strip()'s
            if not text or text.startswith("#"):
                continue
            try:
                try:
                    words = _split(text)
                except ValueError as err:  # an unclosed quote or a trailing escape
                    raise cli.CommandError(f"bad request line: {err}", 2)
                sub = cli.parse(words)
                if sub.command == "batch":
                    raise cli.CommandError("batch lines cannot nest batch", 2)
                cli.run(sub, out=out)
            except cli.CommandError as err:
                print(f"line {number}: error: {err}", file=sys.stderr)
                if exit_code == 0:
                    exit_code = err.code
    finally:
        if request.batch_file is None:
            lines.detach()  # leaves stdin open
        else:
            lines.close()
    return exit_code


def _numbered(lines, command_error):
    """(number, line) for the lines of a batch, from 1.  An error reading
    them exits 2 (`command_error`); an error raised while a line is answered
    is not caught."""
    try:
        yield from enumerate(lines, start=1)
    except OSError as err:
        raise command_error(f"cannot read batch input: {err}", 2) from None


# A word of a line with no " or \: a run of non-whitespace, with '...' stretches.
_WORD = re.compile(r"(?:[^ \t\r\n']+|'[^']*')+")


def _split(text: str) -> list[str]:
    """The words shlex.split(text) gives, or its ValueError, for a `text`
    with no line feed (a batch line has none)."""
    if '"' in text or "\\" in text or text.count("'") % 2:
        import shlex
        return shlex.split(text)
    words = _WORD.findall(text)
    if "'" not in text:
        return words
    # One replace over the joined words: a word holds no line feed.
    return "\n".join(words).replace("'", "").split("\n")
