"""Wrapped Montesinos knots in a solid torus.

A wrapped knot places a Montesinos tangle horizontally in a solid torus and
joins the top endpoints to the bottom ones by two arcs running around the
torus.  The arcs cross each other `a` times with a in {0, 1}; only closures
with a single component are knots.  Re-embedding the solid torus with n full
right-hand twists turns the knot into the Montesinos knot with the extra
entry 1/(a + 2n), and transports a slope r to r + n * wind(K)^2.
"""
from __future__ import annotations

from . import tracing
from .slopes import InconsistentCrossCheckError, ParseError, Record, Slope, make_slope, stripped
from .tangles import MontesinosTangle, normalize, parse_tangle


class NotAKnotError(ValueError):
    """The requested closure has more than one component."""


class NotLengthOneError(ValueError):
    """The operation needs a tangle with a single rational entry."""


class WrappedKnot(Record):
    """The closure must be a knot; construction traces it once and keeps
    its winding number, which (a, tangle) determine."""

    __slots__ = ("a", "tangle", "winding")

    def __init__(self, a: int, tangle: MontesinosTangle) -> None:
        if a not in (0, 1):
            raise ValueError("the wrap parameter a must be 0 or 1")
        closure = tracing.trace_closure(tangle.entries, a)
        if closure.components != 1:
            raise NotAKnotError(f"K{a}{tangle} closes to a link, not a knot")
        expected = 0 if closure.pairing is tracing.Pairing.TOP_TO_TOP else 2
        if closure.winding != expected:
            raise InconsistentCrossCheckError(
                f"traced winding {closure.winding} of K{a}{tangle} disagrees with the pairing"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "tangle", tangle)
        object.__setattr__(self, "winding", closure.winding)

    def __str__(self) -> str:
        return f"K{self.a}{self.tangle}"


def make_wrapped(a: int, tangle: MontesinosTangle) -> WrappedKnot:
    """Close the tangle with two wrap arcs; the same as `WrappedKnot(a, tangle)`."""
    return WrappedKnot(a, tangle)


def wrapping_number(knot: WrappedKnot) -> int:
    """Minimal geometric intersection with a meridian disk.

    2 for every knot in the classified family except the degenerate ones
    whose winding number vanishes; those are isotopic into a ball.
    """
    if normalize(knot.tangle).degenerate and knot.winding == 0:
        return 0
    return 2


class TwistedImage(Record):
    """Image of the knot after n full twists of the solid torus in S^3.

    For a + 2n != 0 the image is the Montesinos knot whose entries extend the
    tangle by 1/(a + 2n).  For a + 2n = 0 the wrap arcs close the tangle
    directly; for a single entry, `two_bridge_fraction` gives the fraction of
    that collapsed closure.
    """

    __slots__ = ("entries", "n", "degenerate")

    def __init__(self, entries: tuple[Slope, ...], n: int, degenerate: bool) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degenerate", degenerate)

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in self.entries)
        if self.degenerate:
            return f"closure[{inner}]"
        return f"M[{inner}]"


def twist(knot: WrappedKnot, n: int) -> TwistedImage:
    c = knot.a + 2 * n
    slopes = knot.tangle.entries
    if c == 0:
        return TwistedImage(slopes, n, degenerate=True)
    return TwistedImage(slopes + (make_slope(1, c),), n, degenerate=False)


def transport_slope(knot: WrappedKnot, r: Slope, n: int) -> Slope:
    """Slope correspondence under n twists: r + n * wind^2; meridian is fixed."""
    if r.is_meridian():
        return r
    return r + n * knot.winding * knot.winding


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
    `tracing.pretzel_framing` on the knot's entries."""
    return make_slope(tracing.pretzel_framing(knot.tangle.entries, knot.a), 1)


def parse_knot(text: str, offset: int = 0) -> WrappedKnot:
    """Parse `K0[...]` / `K1[...]` in the tangle syntax; every call parses
    and traces the knot anew."""
    s, offset = stripped(text, offset)
    if not s.startswith(("K0[", "K1[")):
        raise ParseError("knot syntax is K0[...] or K1[...]", offset)
    a = int(s[1])
    tangle = parse_tangle(s[2:], offset + 2)
    return make_wrapped(a, tangle)
