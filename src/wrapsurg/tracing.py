"""Strand tracing over explicit twist-region diagrams.

This is the connectivity oracle for the whole package: rational tangles are
built as chains of twist regions from their continued-fraction twist word,
Montesinos tangles by horizontal gluing, and wrapped knots by one more twist
region, the two wrap arcs around the solid torus.  `trace_closure` builds
that closure and walks it once; the one walk answers every connectivity
question asked of a wrapped knot or of its tangle:

* how many components the wrapped closure has (knot detection),
* the winding number (signed passes through the wrap region),
* which of the four tangle endpoints are joined inside (the pairing): two
  endpoints are partners when a stretch of the walk joins them without
  passing the wrap region, so the pairing does not depend on the closure,
* how many closed loops the tangle hides (components that never pass the
  wrap region).

A knot takes these facts from the parities of its entries
(`tangles.closure_facts`) and builds no diagram.  `trace_closure` is the
independent check of that rule: the tests and the golden runner compare the
two on every entry list of the k<=2 grid.  No request loads this module;
the package gives `trace_closure` on its first use.

The twist word of a slope reads its canonical continued fraction (`expand`,
whose inverse is `evaluate_continued_fraction`); only this module and the
tests need either, so the package gives both on first use too.

A diagram is its twist regions and nothing else: two flat integer lists, the
crossing count per region and the mate of every strand end, so building and
walking a closure creates no object per strand or per region.  Gluing and
closing only join strand ends, and the walk leaves each strand at its far
end for that end's mate.  Every twist word is checked to rebuild its slope
on every call; the check is an exact integer recurrence on the pair (p, q)
and needs no gcd.

A second, literal diagram of the same class is the oracle of the framing
of the evident spanning surface of a pretzel-shaped knot, which
`wrapped.pretzel_slope` states in integers: `pretzel_framing` reads the
entries and the wrap crossings, as `trace_closure` does, builds one twist
region per pretzel column and walks it once.  By the push-off rule, a twist
region whose two strands are traversed in parallel contributes twice its
signed crossing count to the linking number of the knot with its surface
push-off, and an antiparallel region contributes nothing.  The tests and
the golden runner compare the two on every pretzel shape of the grid and
on two-entry shapes far beyond it.

Strand conventions: every twist region carries two strands, each with an
in end and an out end.  Horizontal regions are entered from the left and
left on the right, vertical regions are entered from the top and left at
the bottom, and the wrap region is entered at the top of the tangle and
left at the bottom after running once around the solid torus.  In a region
with k signed crossings the strand entered at the first in end leaves on
the same side when k is even and on the other side when k is odd; twisting
two strands never merges or closes them, so this is the exact connectivity
of the twist region.
"""
from __future__ import annotations

from itertools import cycle

from .slopes import InconsistentCrossCheckError, InfinityInputError, Record, Slope
from .tangles import Pairing, knot_text
from .wrapped import NoPretzelSurfaceError

HORIZONTAL = "h"
VERTICAL = "v"


class Diagram:
    """Twist regions whose strand ends are paired in one flat list.

    Region r has the signed half-twist count `crossings[r]`, whose sign is
    the handedness, and carries strands 2r and 2r + 1.  Strand s runs from
    its in end 2s to its out end 2s + 1, so end x belongs to region x >> 2.
    `mate[x]` is the end that end x is joined to, or -1 while x is free.
    """

    __slots__ = ("mate", "crossings")

    def __init__(self) -> None:
        self.mate: list[int] = []
        self.crossings: list[int] = []

    def add_region(self, crossings: int) -> tuple[int, int, int, int]:
        """Add a twist region with four free ends.

        Returns its in ends in1, in2 and then its out ends out1, out2, where
        out1 lies on in1's side; the strand entered at in1 leaves at out1
        when the count is even and at out2 when it is odd.
        """
        end = 4 * len(self.crossings)
        self.crossings.append(crossings)
        self.mate += (-1, -1, -1, -1)
        if crossings & 1:
            return end, end + 2, end + 3, end + 1
        return end, end + 2, end + 1, end + 3

    def join(self, x: int, y: int) -> None:
        """Join two free ends; an end that is already joined is refused."""
        mate = self.mate
        for end in (x, y):
            if mate[end] >= 0:
                raise ValueError(f"strand end {end} is already joined")
        mate[x], mate[y] = y, x

    def closed_walk(self) -> list[list[int]]:
        """Decompose a closed diagram into components.

        Each component is the list of ends at which its strands are entered,
        in walking order: strand `end >> 1` is run from `end` to `end ^ 1`,
        forwards when `end` is even.  Each component starts forwards on its
        lowest strand.
        """
        mate = self.mate
        if -1 in mate:
            raise ValueError("a closed diagram has no free strand end")
        seen = bytearray(len(mate) >> 1)
        components = []
        for start in range(0, len(mate), 2):
            if seen[start >> 1]:
                continue
            walk = []
            end = start
            while not seen[end >> 1]:
                seen[end >> 1] = 1
                walk.append(end)
                end = mate[end ^ 1]
            components.append(walk)
        return components


def evaluate_continued_fraction(terms: list[int]) -> Slope:
    """Evaluate the nested fraction a0 + 1/(a1 + 1/(... + 1/ak)).

    Intermediate infinities are handled exactly: 1/0 = inf and a + inf = inf,
    so expressions such as [0, -3, 4] = 1/(-3 + 1/4) = -4/11 are legal.
    """
    if not terms:
        raise ValueError("empty continued fraction")
    value = Slope(terms[-1], 1)
    for a in reversed(terms[:-1]):
        value = value.reciprocal() + a
    return value


def expand(t: Slope) -> list[int]:
    """Canonical continued-fraction expansion of a finite slope.

    Floor-based, so every term after the first is >= 1 and the last is >= 2
    whenever the expansion has more than one term.  Inverse of
    evaluate_continued_fraction on its output.
    """
    if t.q == 0:
        raise InfinityInputError("cannot expand the meridian 1/0")
    terms = []
    p, q = t.p, t.q
    while True:
        a = p // q
        terms.append(a)
        r = p - a * q
        if r == 0:
            return terms
        p, q = q, r


def twist_word(slope: Slope) -> list[tuple[str, int]]:
    """Alternating twist word building the rational tangle of a finite slope.

    Terms come from the canonical floor-based continued fraction; the list is
    padded so that the innermost block is horizontal (a vertical twist on the
    trivial tangle is a kink and builds nothing).  Every word is checked to
    rebuild its slope before it is returned.
    """
    if slope.q == 0:
        raise ValueError("no twist word for the infinite tangle")
    terms = expand(slope)
    if len(terms) % 2 == 0:
        last = terms.pop()
        terms.extend([last - 1, 1])
    # An odd number of terms, so the outermost one is horizontal as well.
    word = list(zip(cycle((HORIZONTAL, VERTICAL)), reversed(terms)))
    if _word_fraction(word) != (slope.p, slope.q):
        raise InconsistentCrossCheckError(f"twist word does not rebuild {slope}")
    return word


def _word_fraction(word: list[tuple[str, int]]) -> tuple[int, int]:
    """The fraction p/q that the word builds on the trivial tangle 0/1.

    A horizontal twist adds its count, p/q -> (p + count*q)/q, and a
    vertical one adds it to the reciprocal, p/q -> p/(q + count*p).  Both
    steps are unimodular, so the pair stays in lowest terms, the infinite
    tangle is (+-1, 0) and a kink on the trivial tangle leaves (0, 1).
    """
    p, q = 0, 1
    for kind, count in word:
        if kind == HORIZONTAL:
            p += count * q
        else:
            q += count * p
    return (-p, -q) if q < 0 else (p, q)


# A tangle's four free strand ends (nw, ne, sw, se).
TangleBox = tuple[int, int, int, int]


def build_rational_tangle(diagram: Diagram, slope: Slope) -> TangleBox:
    # The word's innermost block is horizontal: it is the tangle's first
    # region, entered at nw and sw.
    (_, first), *word = twist_word(slope)
    nw, ne, sw, se = build_single_region_tangle(diagram, HORIZONTAL, first)
    join = diagram.join
    for kind, count in word:
        in1, in2, out1, out2 = diagram.add_region(count)
        if kind == HORIZONTAL:
            join(ne, in1)
            ne = out1
        else:
            join(sw, in1)
            sw = out1
        join(se, in2)
        se = out2
    return nw, ne, sw, se


def build_single_region_tangle(diagram: Diagram, kind: str, crossings: int) -> TangleBox:
    """One literal twist region; the diagram model of a pretzel column."""
    in1, in2, out1, out2 = diagram.add_region(crossings)
    if kind == VERTICAL:
        return in1, in2, out1, out2
    return in1, out1, in2, out2


def glue_horizontally(diagram: Diagram, boxes: list[TangleBox]) -> TangleBox:
    for (_, left_ne, _, left_se), (right_nw, _, right_sw, _) in zip(boxes, boxes[1:]):
        diagram.join(left_ne, right_nw)
        diagram.join(left_se, right_sw)
    nw, _, sw, _ = boxes[0]
    _, ne, _, se = boxes[-1]
    return nw, ne, sw, se


def close_wrapped(diagram: Diagram, box: TangleBox, crossings: int) -> int:
    """Join the top ends to the bottom ones around the solid torus.

    The wrap arcs are the two strands of one more twist region, entered at
    NW and NE, with `crossings` crossings between them; with no crossing
    they join NW-SW and NE-SE, and an odd count joins NW-SE and NE-SW.
    Returns the wrap region.
    """
    nw, ne, sw, se = box
    in1, in2, out1, out2 = diagram.add_region(crossings)
    for x, y in ((nw, in1), (ne, in2), (out1, sw), (out2, se)):
        diagram.join(x, y)
    return in1 >> 2


class Closure(Record):
    """What one walk of a wrapped closure shows.

    `winding` is the absolute signed pass count through the wrap region,
    which is the winding number when `components` is 1.  `pairing` is the
    endpoint pairing of the tangle and `loops` the number of components
    that never pass the wrap region; neither depends on the closure.
    """

    __slots__ = ("components", "winding", "pairing", "loops")


def trace_closure(slopes: tuple[Slope, ...], a: int) -> Closure:
    """Build the Montesinos tangle of `slopes`, close it with `a` wrap
    crossings, and walk the closure once."""
    diagram = Diagram()
    box = glue_horizontally(
        diagram, [build_rational_tangle(diagram, s) for s in slopes]
    )
    wrap = close_wrapped(diagram, box, a)
    mate = diagram.mate
    components = diagram.closed_walk()
    winding = loops = 0
    partner: dict[int, int] = {}
    for walk in components:
        # The ends at which the walk enters the wrap region; an even (in)
        # end is entered from the top of the tangle.
        passes = [end for end in walk if end >> 2 == wrap]
        if not passes:
            loops += 1
        for end in passes:
            winding += -1 if end & 1 else 1
        # A tangle stretch runs from the tangle end that one pass reaches to
        # the one the next pass leaves; with at most two passes in a
        # component their cyclic order does not matter.
        for out_of, into in zip(passes, passes[::-1]):
            start, stop = mate[out_of ^ 1], mate[into]
            partner[start], partner[stop] = stop, start
    nw, ne, sw, se = box
    by_partner = {ne: Pairing.TOP_TO_TOP, sw: Pairing.LEFT_TO_LEFT, se: Pairing.CROSS}
    return Closure(len(components), abs(winding), by_partner[partner[nw]], loops)


def surface_framing_from_walk(diagram: Diagram, walk: list[int]) -> int:
    """Linking number of the knot with its push-off along the band surface.

    Valid when every diagram crossing lives in a twist region of the evident
    disk-and-band spanning surface (true for the pretzel-shaped diagrams this
    package builds): parallel regions contribute 2 * crossings, antiparallel
    regions cancel.
    """
    passes: dict[int, list[int]] = {}
    for end in walk:
        strand = end >> 1
        passes.setdefault(strand >> 1, []).append(end & 1)
    framing = 0
    for region, senses in passes.items():
        if len(senses) != 2:
            raise InconsistentCrossCheckError(
                "each region is traversed by exactly two strands"
            )
        if senses[0] == senses[1]:
            framing += 2 * diagram.crossings[region]
    return framing


def pretzel_framing(slopes: tuple[Slope, ...], a: int) -> int:
    """Boundary slope of the evident pretzel spanning surface of the knot
    closing `slopes` with `a` wrap crossings.

    The linking number of the knot with its push-off along the surface, by
    a signed crossing count over the literal twist-region diagram.  Defined
    for K^a(1/q1, 1/q2) with |q_i| >= 2 and for K^a(m) with m an integer.
    The closure is known to be a knot, so a literal diagram with more than
    one component means that the diagram and the knot disagree.
    """
    diagram = Diagram()
    if len(slopes) == 2 and all(abs(s.p) == 1 and s.q >= 2 for s in slopes):
        boxes = [build_single_region_tangle(diagram, VERTICAL, s.p * s.q) for s in slopes]
    elif len(slopes) == 1 and slopes[0].is_integral():
        boxes = [build_single_region_tangle(diagram, HORIZONTAL, slopes[0].p)]
    else:
        raise NoPretzelSurfaceError(
            f"{knot_text(a, slopes)} is not of pretzel shape "
            "K^a(1/q1,1/q2) or K^a(m)"
        )
    close_wrapped(diagram, glue_horizontally(diagram, boxes), a)
    walks = diagram.closed_walk()
    if len(walks) != 1:
        raise InconsistentCrossCheckError(
            f"the literal pretzel diagram has {len(walks)} components, "
            "the knot one"
        )
    return surface_framing_from_walk(diagram, walks[0])
