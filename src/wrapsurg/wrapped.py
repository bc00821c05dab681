"""Wrapped Montesinos knots in a solid torus.

A wrapped knot places a Montesinos tangle horizontally in a solid torus and
joins the top endpoints to the bottom ones by two arcs running around the
torus.  The arcs cross each other `a` times with a in {0, 1}; only closures
with a single component are knots.  Re-embedding the solid torus with n full
right-hand twists turns the knot into the Montesinos knot with the extra
entry 1/(a + 2n), and transports a slope r to r + n * wind(K)^2.

Both tracing oracles are checked here, also under `python -O`: once per
process, before the first knot, `trace_closure` against the parity rule and
`pretzel_framing` against its value 8 on K1[-1/2,1/3]; and on every call,
`pretzel_slope` of a single integer entry m against 0 (a = 0) or 2m (a = 1).
"""
from __future__ import annotations

from functools import lru_cache

from . import tracing
from .slopes import InconsistentCrossCheckError, ParseError, Record, Slope, make_slope, stripped
from .tangles import MontesinosTangle, closure_facts, knot_text, parse_tangle, twist_shift


class NotAKnotError(ValueError):
    """The requested closure has more than one component.  Raised with the
    closure's wrap parameter and entries, `NotAKnotError(a, entries)`, and
    worded only when read: a sweep drops most of them unread."""

    def __str__(self) -> str:
        return f"{knot_text(*self.args)} closes to a link, not a knot"


class NotLengthOneError(ValueError):
    """The operation needs a tangle with a single rational entry."""


# Closures on which the parity rule is checked against the literal trace:
# each pairing under both wrap closures (a knot and a link among them), a
# sum of two crossed entries, and a tangle hiding a loop.
_ANCHORS = ("K0[2]", "K1[2]", "K0[1/3]", "K1[3]", "K0[-1/2]", "K1[-1/2]",
            "K1[1/3,1/3]", "K1[-1/2,1/3]", "K0[1/2,1/2]")


@lru_cache(maxsize=None)
def _closure_self_check() -> None:
    """Anchor the parity rule of `closure_facts` on `tracing.trace_closure`,
    and `tracing.pretzel_framing` on its known value, before the first knot
    trusts them; raises also under `python -O`."""
    for text in _ANCHORS:
        a, entries = int(text[1]), parse_tangle(text[2:]).entries
        closure = tracing.trace_closure(entries, a)
        knot, winding, pairing = closure_facts(entries, a)
        traced = (closure.components == 1, None if closure.loops else closure.pairing)
        if (knot, pairing) != traced or (knot and winding != closure.winding):
            raise InconsistentCrossCheckError(
                f"parity rule gives knot={knot}, winding {winding}, pairing {pairing} "
                f"for {text}; the trace gives {closure}"
            )
    framing = tracing.pretzel_framing((make_slope(-1, 2), make_slope(1, 3)), 1)
    if framing != 8:
        raise InconsistentCrossCheckError(
            f"push-off oracle gives {framing} for K1[-1/2,1/3], expected 8"
        )


class WrappedKnot(Record):
    """The closure must be a knot; construction keeps its winding number,
    which (a, tangle) determine by `closure_facts`."""

    __slots__ = ("a", "tangle", "winding")

    def __init__(self, a: int, tangle: MontesinosTangle) -> None:
        if type(a) is not int or a not in (0, 1):
            raise ValueError("the wrap parameter a must be 0 or 1")
        _closure_self_check()
        knot, winding, _ = closure_facts(tangle.entries, a)
        if not knot:
            raise NotAKnotError(a, tangle.entries)
        _set_a(self, a)
        _set_tangle(self, tangle)
        _set_winding(self, winding)

    def __str__(self) -> str:
        return knot_text(self.a, self.tangle.entries)


_set_a, _set_tangle, _set_winding = WrappedKnot._setters


def make_wrapped(a: int, tangle: MontesinosTangle) -> WrappedKnot:
    """Close the tangle with two wrap arcs; the same as `WrappedKnot(a, tangle)`."""
    return WrappedKnot(a, tangle)


class TwistedImage(Record):
    """Image of the knot after n full twists of the solid torus in S^3.

    For a + 2n != 0 the image is the Montesinos knot whose entries extend the
    tangle by 1/(a + 2n).  For a + 2n = 0 the wrap arcs close the tangle
    directly; for a single entry, `two_bridge_fraction` gives the fraction of
    that collapsed closure.
    """

    __slots__ = ("entries", "n", "degenerate")

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in self.entries)
        if self.degenerate:
            return f"closure[{inner}]"
        return f"M[{inner}]"


def twist(knot: WrappedKnot, n: int) -> TwistedImage:
    c = knot.a + 2 * n
    slopes = knot.tangle.entries
    if c == 0:
        return TwistedImage(slopes, n, True)
    return TwistedImage(slopes + (make_slope(1, c),), n, False)


def transport_slope(knot: WrappedKnot, r: Slope, n: int) -> Slope:
    """Slope correspondence under n twists: r + n * wind^2 (`twist_shift`);
    meridian is fixed."""
    if r.is_meridian():
        return r
    return r + twist_shift(n, knot.winding)


def two_bridge_fraction(knot: WrappedKnot, n: int) -> Slope:
    """Two-bridge fraction 1/((a + 2n) + q/p) of the n-twisted image.

    Stated for a = 0; the a = 1 value extends the same formula and should be
    read as a convention rather than an established identity.
    """
    if len(knot.tangle.entries) != 1:
        raise NotLengthOneError("two-bridge fractions need a single entry")
    t = knot.tangle.entries[0]
    c = knot.a + 2 * n
    return make_slope(t.p, c * t.p + t.q)


def pretzel_slope(knot: WrappedKnot) -> Slope:
    """Boundary slope of the evident pretzel spanning surface, by
    `tracing.pretzel_framing` on the knot's entries; checked on every call to
    be 2am for a single integer entry m (0 when a = 0, else 2m)."""
    a, entries = knot.a, knot.tangle.entries
    framing = tracing.pretzel_framing(entries, a)
    if len(entries) == 1 and framing != (expected := 2 * a * entries[0].p):
        raise InconsistentCrossCheckError(
            f"spanning-surface slope {framing} of {knot} "
            f"does not match the classified value {expected}"
        )
    return make_slope(framing, 1)


def parse_knot(text: str, offset: int = 0) -> WrappedKnot:
    """Parse `K0[...]` / `K1[...]`, the entry list by `parse_tangle`; every
    call builds the knot anew, reading each entry through `parse_slope`, whose
    memo keeps the slopes of the last 2048 short entry texts."""
    s, offset = stripped(text, offset)
    if not s.startswith(("K0[", "K1[")):
        raise ParseError("knot syntax is K0[...] or K1[...]", offset)
    return WrappedKnot(int(s[1]), parse_tangle(s[2:], offset + 2))
