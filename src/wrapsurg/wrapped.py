"""Wrapped Montesinos knots in a solid torus.

A wrapped knot places a Montesinos tangle horizontally in a solid torus and
joins the top endpoints to the bottom ones by two arcs running around the
torus.  The arcs cross each other `a` times with a in {0, 1}; only closures
with a single component are knots.  Re-embedding the solid torus with n full
right-hand twists turns the knot into the Montesinos knot with the extra
entry 1/(a + 2n), and transports a slope r to r + n * wind(K)^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import tracing
from .slopes import InconsistentCrossCheckError, ParseError, Slope, make_slope
from .tangles import MontesinosTangle, NormalForm, normalize, parse_tangle


class NotAKnotError(ValueError):
    """The requested closure has more than one component."""


class NotLengthOneError(ValueError):
    """The operation needs a tangle with a single rational entry."""


# Large enough for every knot of the k<=2 grid (4512 candidates, links
# included), so that neither a sweep of the grid nor the test suite parses or
# analyses a knot twice; bounded, so that a long batch run uses bounded
# memory.  The parse cache here and the analysis cache in `classify` share it.
_KNOT_CACHE_SIZE = 8192


@dataclass(frozen=True, slots=True)
class WrappedKnot:
    """The closure must be a knot; construction traces it once and keeps
    its winding number."""

    a: int
    tangle: MontesinosTangle
    winding: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.a not in (0, 1):
            raise ValueError("the wrap parameter a must be 0 or 1")
        closure = tracing.trace_closure(self.tangle.entries, self.a)
        if closure.components != 1:
            raise NotAKnotError(f"K{self.a}{self.tangle} closes to a link, not a knot")
        expected = 0 if closure.pairing is tracing.Pairing.TOP_TO_TOP else 2
        if closure.winding != expected:
            raise InconsistentCrossCheckError(
                f"traced winding {closure.winding} of {self} disagrees with the pairing"
            )
        object.__setattr__(self, "winding", closure.winding)

    def normal_form(self) -> NormalForm:
        return normalize(self.tangle)

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


@dataclass(frozen=True, slots=True)
class TwistedImage:
    """Image of the knot after n full twists of the solid torus in S^3.

    For a + 2n != 0 the image is the Montesinos knot whose entries extend the
    tangle by 1/(a + 2n).  For a + 2n = 0 the wrap arcs close the tangle
    directly; for a single entry, `two_bridge_fraction` gives the fraction of
    that collapsed closure.
    """

    entries: tuple[Slope, ...]
    n: int
    degenerate: bool

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


@lru_cache(maxsize=_KNOT_CACHE_SIZE)
def parse_knot(text: str, offset: int = 0) -> WrappedKnot:
    """Parse `K0[...]` / `K1[...]` in the tangle syntax.

    Knots are immutable, so each distinct (text, offset) is parsed and traced
    once and the same object is returned again; a failed parse is not cached
    and raises anew on every call.
    """
    s = text.strip()
    if not s.startswith(("K0[", "K1[")):
        raise ParseError("knot syntax is K0[...] or K1[...]", offset)
    a = int(s[1])
    tangle = parse_tangle(s[2:], offset + 2)
    return make_wrapped(a, tangle)
