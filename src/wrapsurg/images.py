"""The S^3 images K_n of a wrapped knot's twisted embeddings.

Re-embedding the solid torus in S^3 with n full right-hand twists turns the
wrapped knot K^a(entries) into the Montesinos knot with the extra entry
1/(a + 2n) (`twist`), and transports a slope r to r + n * wind(K)^2
(`transport_slope`); a single-entry knot's image is two-bridge
(`two_bridge_fraction`).

A `TwistedImage` writes its own row of a `twist` answer: `str()` is the
text of its link, and `as_json()` its JSON row, to which the command line
adds only the two-bridge fraction of a single-entry knot.

Only a `twist` request runs this module, so no other request loads it:
`wrapsurg.cli` imports it on the first `twist` answer, and the package gives
its names on first use (`wrapsurg.twist` and the rest, by `_LAZY`).
"""
from __future__ import annotations

from .slopes import Record, Slope
from .tangles import twist_shift
from .wrapped import NotLengthOneError, WrappedKnot


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

    def as_json(self) -> dict:
        """The image's row of a JSON `twist` answer, but its two-bridge
        fraction, which the answer adds beside it."""
        return {"n": self.n, "link": str(self), "entries": [str(s) for s in self.entries],
                "degenerate": self.degenerate}


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


