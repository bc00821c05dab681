"""Strand tracing over explicit twist-region diagrams.

This is the connectivity oracle for the whole package: rational tangles are
built as port graphs from their continued-fraction twist word, Montesinos
tangles by horizontal gluing, and wrapped knots by adding the two wrap arcs
around the solid torus.  `trace_closure` builds that closure and walks it
once; the one walk answers every connectivity question asked of a wrapped
knot or of its tangle:

* how many components the wrapped closure has (knot detection),
* the winding number (signed passes through the wrap region),
* which of the four tangle endpoints are joined inside (the pairing): two
  endpoints are partners when a stretch of the walk joins them without
  passing the wrap region, so the pairing does not depend on the closure,
* how many closed loops the tangle hides (components that never pass the
  wrap region).

A diagram keeps its port graph in flat integer lists (edge ends, two
incident edge ids per port, kind and crossing count per region), so building
and walking a closure creates no object per edge or per region.  Every twist
word is checked to rebuild its slope on every call; the check is an exact
integer recurrence on the pair (p, q) and needs no gcd.

A second, literal diagram of the same class backs the framing of the
evident spanning surface of a pretzel-shaped knot, via the push-off rule: a
twist region whose two strands are traversed in parallel contributes twice
its signed crossing count to the linking number of the knot with its
surface push-off, and an antiparallel region contributes nothing.

Port conventions: every twist region has two "in" ports and two "out"
ports.  Horizontal regions are entered from the left and exited right,
vertical regions are entered from the top and exited at the bottom, and the
wrap region is entered at the top of the tangle and exited at the bottom
after running once around the solid torus.  A region with k signed
crossings joins in1-out1/in2-out2 when k is even and in1-out2/in2-out1
when k is odd; twisting two strands never merges or closes them, so this
is the exact connectivity of the twist region.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import cycle
from typing import NamedTuple

from .slopes import InconsistentCrossCheckError, Slope, expand

HORIZONTAL = "h"
VERTICAL = "v"
WRAP = "wrap"


class Pairing(Enum):
    """Which pairs of the four tangle endpoints are joined inside."""

    TOP_TO_TOP = "top-to-top"      # NW-NE and SW-SE
    LEFT_TO_LEFT = "left-to-left"  # NW-SW and NE-SE
    CROSS = "cross"                # NW-SE and NE-SW


class Diagram:
    """A port graph kept in flat integer lists.

    Edge e joins ports `u[e]` and `v[e]`; `region[e]` is the twist region it
    runs through from its in port to its out port, or -1 for a plain arc.
    Port p meets the edges `first[p]` and `second[p]` (-1 while free).
    Region r has `kind[r]` and the signed half-twist count `crossings[r]`,
    whose sign is the handedness.
    """

    __slots__ = ("u", "v", "region", "first", "second", "kind", "crossings")

    def __init__(self) -> None:
        self.u: list[int] = []
        self.v: list[int] = []
        self.region: list[int] = []
        self.first: list[int] = []
        self.second: list[int] = []
        self.kind: list[str] = []
        self.crossings: list[int] = []

    def new_port(self) -> int:
        self.first.append(-1)
        self.second.append(-1)
        return len(self.first) - 1

    def add_edge(self, u: int, v: int, region: int = -1) -> int:
        edge = len(self.u)
        self.u.append(u)
        self.v.append(v)
        self.region.append(region)
        first, second = self.first, self.second
        for port in (u, v):
            if first[port] < 0:
                first[port] = edge
            elif second[port] < 0:
                second[port] = edge
            else:
                raise ValueError(f"port {port} already meets two edges")
        return edge

    def add_region(self, kind: str, crossings: int, in1: int, in2: int) -> tuple[int, int]:
        """Attach a twist region to two existing ports; returns its out ports."""
        out1, out2 = self.new_port(), self.new_port()
        region = len(self.kind)
        self.kind.append(kind)
        self.crossings.append(crossings)
        if crossings % 2 == 0:
            self.add_edge(in1, out1, region)
            self.add_edge(in2, out2, region)
        else:
            self.add_edge(in1, out2, region)
            self.add_edge(in2, out1, region)
        return out1, out2

    def closed_walk(self) -> list[list[tuple[int, int]]]:
        """Decompose a closed diagram into components.

        Each component is the traversal order of its edge ids; the second
        int is +1 when the edge is crossed from `u` to `v` (for a region
        edge, from its in port to its out port) and -1 otherwise.
        """
        u, v, first, second = self.u, self.v, self.first, self.second
        if -1 in second:
            raise ValueError("a closed diagram has two edges at every port")
        seen = bytearray(len(u))
        components = []
        for start in range(len(u)):
            if seen[start]:
                continue
            walk: list[tuple[int, int]] = []
            edge, port = start, v[start]
            while not seen[edge]:
                seen[edge] = 1
                walk.append((edge, 1 if port == v[edge] else -1))
                # Leave the port by its other edge, for its far end.
                edge = first[port] + second[port] - edge
                port = u[edge] + v[edge] - port
            components.append(walk)
        return components


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


@dataclass
class TangleBox:
    nw: int
    ne: int
    sw: int
    se: int


def build_rational_tangle(diagram: Diagram, slope: Slope) -> TangleBox:
    nw, ne = diagram.new_port(), diagram.new_port()
    sw, se = diagram.new_port(), diagram.new_port()
    diagram.add_edge(nw, ne)
    diagram.add_edge(sw, se)
    for kind, count in twist_word(slope):
        if kind == HORIZONTAL:
            ne, se = diagram.add_region(HORIZONTAL, count, ne, se)
        else:
            sw, se = diagram.add_region(VERTICAL, count, sw, se)
    return TangleBox(nw, ne, sw, se)


def build_single_region_tangle(diagram: Diagram, kind: str, crossings: int) -> TangleBox:
    """One literal twist region; the diagram model of a pretzel column."""
    a, b = diagram.new_port(), diagram.new_port()
    if kind == VERTICAL:
        sw, se = diagram.add_region(VERTICAL, crossings, a, b)
        return TangleBox(nw=a, ne=b, sw=sw, se=se)
    ne, se = diagram.add_region(HORIZONTAL, crossings, a, b)
    return TangleBox(nw=a, ne=ne, sw=b, se=se)


def glue_horizontally(diagram: Diagram, boxes: list[TangleBox]) -> TangleBox:
    for left, right in zip(boxes, boxes[1:]):
        diagram.add_edge(left.ne, right.nw)
        diagram.add_edge(left.se, right.sw)
    return TangleBox(boxes[0].nw, boxes[-1].ne, boxes[0].sw, boxes[-1].se)


def close_wrapped(
    diagram: Diagram, box: TangleBox, crossings: int
) -> list[tuple[int, int]]:
    """Join the top endpoints to the bottom ones around the solid torus.

    The wrap arcs cross each other `crossings` times; with no crossing they
    join NW-SW and NE-SE, and an odd count joins NW-SE and NE-SW.  Returns
    each wrap-region edge (entered at a top endpoint) with the bottom
    endpoint its arc reaches.
    """
    out1, out2 = diagram.add_region(WRAP, crossings, box.nw, box.ne)
    bottom = {out1: box.sw, out2: box.se}
    edges = len(diagram.u)
    wraps = [(edge, bottom[diagram.v[edge]]) for edge in (edges - 2, edges - 1)]
    diagram.add_edge(out1, box.sw)
    diagram.add_edge(out2, box.se)
    return wraps


class Closure(NamedTuple):
    """What one walk of a wrapped closure shows.

    `winding` is the absolute signed pass count through the wrap region,
    which is the winding number when `components` is 1.  `pairing` is the
    endpoint pairing of the tangle and `loops` the number of components
    that never pass the wrap region; neither depends on the closure.
    """

    components: int
    winding: int
    pairing: Pairing
    loops: int


def trace_closure(slopes: tuple[Slope, ...], a: int) -> Closure:
    """Build the Montesinos tangle of `slopes`, close it with `a` wrap
    crossings, and walk the closure once."""
    diagram = Diagram()
    box = glue_horizontally(
        diagram, [build_rational_tangle(diagram, s) for s in slopes]
    )
    wraps = close_wrapped(diagram, box, a)
    components = diagram.closed_walk()
    u = diagram.u
    winding = loops = 0
    partner: dict[int, int] = {}
    for walk in components:
        # (port before, port after) of each pass through the wrap region.
        senses = dict(walk)
        passes = []
        for edge, bottom in wraps:
            sense = senses.get(edge)
            if sense is not None:
                winding += sense
                passes.append((u[edge], bottom) if sense > 0 else (bottom, u[edge]))
        if not passes:
            loops += 1
        # A tangle stretch runs from one pass to the next; with at most two
        # passes in a component their cyclic order does not matter.
        for (_, start), (end, _) in zip(passes, passes[::-1]):
            partner[start], partner[end] = end, start
    by_partner = {box.ne: Pairing.TOP_TO_TOP, box.sw: Pairing.LEFT_TO_LEFT, box.se: Pairing.CROSS}
    return Closure(len(components), abs(winding), by_partner[partner[box.nw]], loops)


def surface_framing_from_walk(diagram: Diagram, walk: list[tuple[int, int]]) -> int:
    """Linking number of the knot with its push-off along the band surface.

    Valid when every diagram crossing lives in a twist region of the evident
    disk-and-band spanning surface (true for the pretzel-shaped diagrams this
    package builds): parallel regions contribute 2 * crossings, antiparallel
    regions cancel.
    """
    passes: dict[int, list[int]] = {}
    for edge, sense in walk:
        region = diagram.region[edge]
        if region >= 0:
            passes.setdefault(region, []).append(sense)
    framing = 0
    for region, senses in passes.items():
        if len(senses) != 2:
            raise InconsistentCrossCheckError(
                "each region is traversed by exactly two strands"
            )
        if senses[0] == senses[1]:
            framing += 2 * diagram.crossings[region]
    return framing
