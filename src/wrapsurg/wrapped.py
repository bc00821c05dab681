"""Wrapped Montesinos knots in a solid torus.

A wrapped knot places a Montesinos tangle horizontally in a solid torus and
joins the top endpoints to the bottom ones by two arcs running around the
torus.  The arcs cross each other `a` times with a in {0, 1}; only closures
with a single component are knots.  Re-embedding the solid torus with n full
right-hand twists turns the knot into the Montesinos knot with the extra
entry 1/(a + 2n), and transports a slope r to r + n * wind(K)^2.

A knot's facts come from integer rules on its entries: its winding from
their parities (`tangles.closure_facts`), and the boundary slope of its
evident pretzel spanning surface from their signed crossings
(`pretzel_slope`).  No request builds a diagram: the strand tracer of
`wrapsurg.tracing` is the oracle of both rules, which the tests and the
golden runner compare with it, also under `python -O`.
"""
from __future__ import annotations

from .slopes import ParseError, Record, Slope, stripped
from .tangles import MontesinosTangle, closure_facts, knot_text, parse_tangle, twist_shift


class NotAKnotError(ValueError):
    """The requested closure has more than one component.  Raised with the
    closure's wrap parameter and entries, `NotAKnotError(a, entries)`, and
    worded only when read: a sweep drops most of them unread."""

    def __str__(self) -> str:
        return f"{knot_text(*self.args)} closes to a link, not a knot"


class NotLengthOneError(ValueError):
    """The operation needs a tangle with a single rational entry."""


class NoPretzelSurfaceError(ValueError):
    """The knot has no evident pretzel spanning surface."""


class WrappedKnot(Record):
    """The closure must be a knot; construction keeps its winding number,
    which (a, tangle) determine by `closure_facts`."""

    __slots__ = ("a", "tangle", "winding")

    def __init__(self, a: int, tangle: MontesinosTangle, /) -> None:
        if type(a) is not int or a not in (0, 1):
            raise ValueError("the wrap parameter a must be 0 or 1")
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
    return TwistedImage(slopes + (Slope(1, c),), n, False)


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
    return Slope(t.p, c * t.p + t.q)


def pretzel_slope(knot: WrappedKnot) -> Slope:
    """Boundary slope of the evident pretzel spanning surface of K^a(m), m an
    integer, or of K^a(1/q1,1/q2) with |q1|, |q2| >= 2, from the signed
    crossing counts of its twist regions.

    The surface is two disks, the tangle's top and bottom, joined by one band
    per pretzel column and by the wrap band, whose a crossings run around the
    solid torus.  Its boundary slope is the linking number of the knot with
    its push-off along the surface.  By the push-off rule, a band whose two
    edges the knot runs in parallel adds twice its signed crossing count to
    it, and a band whose edges run antiparallel adds nothing.  So the slope
    is 2 * (sum of the counts of the parallel bands), and only the directions
    of the knot along the bands remain to find.  An entry 1/q is a vertical
    column of q signed crossings (q < 0 for a negative entry) and an integer
    m a horizontal one of m.

    * K^a(m), a knot when a = 0 or m is even: when a = 0 the plain wrap arcs
      join the column's two ends on each side, so the knot runs it once
      rightwards and once leftwards: 0.  When a = 1 the crossed arcs bring
      the knot back on the left, so it runs the column rightwards twice, and
      the wrap band's edges antiparallel: 2m.  Both are 2am.
    * K^0(1/q1,1/q2): the plain wrap arcs and the gluing lead every bottom
      end of the left column into the right column from below or back to
      the top of the left one, and every top end of the right column into
      the left column from above or back to its own bottom.  So the knot
      runs the left column always downwards and the right one always
      upwards, both in parallel, and the wrap band has no crossing:
      2(q1 + q2).
    * K^1(1/q1,1/q2) with q1 and q2 odd (winding 0): each column carries the
      knot across, so each, and the wrap band, is run once down and once up:
      0.
    * K^1(1/q1,1/q2) with one q even (winding 2; both even hide a loop): the
      even column keeps each strand on its side and is run antiparallel,
      the odd one twice in the same direction, and the knot passes the wrap
      band twice in the same sense: 2(q_odd + 1).

    Hatcher and Oertel compute the boundary slopes of Montesinos knots from
    such crossing data in general ("Boundary slopes for Montesinos knots",
    Topology 28, 1989).  `tracing.pretzel_framing` traces the same linking
    number on the literal diagram; the tests and the golden runner check
    that both agree.
    """
    a, entries = knot.a, knot.tangle.entries
    if len(entries) == 1 and entries[0].is_integral():
        framing = 2 * a * entries[0].p
    elif len(entries) == 2 and all(abs(s.p) == 1 and s.q >= 2 for s in entries):
        q1, q2 = (s.p * s.q for s in entries)
        if a == 0:
            framing = 2 * (q1 + q2)
        elif q1 & q2 & 1:
            framing = 0
        else:
            framing = 2 * ((q1 if q1 & 1 else q2) + 1)
    else:
        raise NoPretzelSurfaceError(
            f"{knot} is not of pretzel shape K^a(1/q1,1/q2) or K^a(m)")
    return Slope(framing, 1)


def parse_knot(text: str, offset: int = 0) -> WrappedKnot:
    """Parse `K0[...]` / `K1[...]`, the entry list by `parse_tangle`; every
    call builds the knot anew, reading each entry through `parse_slope`, whose
    memo keeps the slopes of the last 2048 short entry texts."""
    s, offset = stripped(text, offset)
    if not s.startswith(("K0[", "K1[")):
        raise ParseError("knot syntax is K0[...] or K1[...]", offset)
    return WrappedKnot(int(s[1]), parse_tangle(s[2:], offset + 2))
