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

A second, literal diagram backs the framing of the evident spanning surface
of a pretzel-shaped knot, via the push-off rule: a twist region whose two
strands are traversed in parallel contributes twice its signed crossing
count to the linking number of the knot with its surface push-off, and an
antiparallel region contributes nothing.

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

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
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


@dataclass(eq=False)
class Region:
    kind: str
    crossings: int  # signed half-twist count; sign = handedness


@dataclass(eq=False)
class Edge:
    u: int
    v: int
    region: Region | None = None  # set on region-internal edges, in -> out

    def other(self, port: int) -> int:
        return self.v if port == self.u else self.u


@dataclass
class Diagram:
    edges: list[Edge] = field(default_factory=list)
    _ports: int = 0
    _incident: dict[int, list[Edge]] = field(default_factory=dict)

    def new_port(self) -> int:
        self._ports += 1
        return self._ports - 1

    def add_edge(self, u: int, v: int, region: Region | None = None) -> Edge:
        edge = Edge(u, v, region)
        self.edges.append(edge)
        self._incident.setdefault(u, []).append(edge)
        self._incident.setdefault(v, []).append(edge)
        return edge

    def add_region(self, kind: str, crossings: int, in1: int, in2: int) -> tuple[int, int]:
        """Attach a twist region to two existing ports; returns its out ports."""
        out1, out2 = self.new_port(), self.new_port()
        region = Region(kind, crossings)
        if crossings % 2 == 0:
            self.add_edge(in1, out1, region)
            self.add_edge(in2, out2, region)
        else:
            self.add_edge(in1, out2, region)
            self.add_edge(in2, out1, region)
        return out1, out2

    # -- walking ----------------------------------------------------------

    def _next_edge(self, port: int, arrived: Edge) -> Edge | None:
        incident = self._incident.get(port, [])
        for edge in incident:
            if edge is not arrived:
                return edge
        return None

    def open_strands(self, boundary: list[int]) -> dict[int, int]:
        """Trace from each boundary port to its partner.  Ports of degree 1."""
        partner: dict[int, int] = {}
        for start in boundary:
            if start in partner:
                continue
            edge = self._incident[start][0]
            port = edge.other(start)
            while True:
                nxt = self._next_edge(port, edge)
                if nxt is None:
                    break
                edge = nxt
                port = edge.other(port)
            partner[start] = port
            partner[port] = start
        return partner

    def closed_walk(self) -> list[list[tuple[Edge, int]]]:
        """Decompose a closed diagram into components.

        Each component is the traversal order of its edges; the int is +1
        when a region edge is crossed from its in port to its out port.
        """
        seen: set[Edge] = set()
        components = []
        incident = self._incident
        for edge in self.edges:
            if edge in seen:
                continue
            walk: list[tuple[Edge, int]] = []
            current, port = edge, edge.v
            while current not in seen:
                seen.add(current)
                walk.append((current, 1 if port == current.v else -1))
                # Every port of a closed diagram has exactly two edges; the
                # unpacking fails on a dangling one.
                first, second = incident[port]
                current = second if first is current else first
                port = current.v if port == current.u else current.u
            components.append(walk)
        return components


def twist_word(slope: Slope) -> list[tuple[str, int]]:
    """Alternating twist word building the rational tangle of a finite slope.

    Terms come from the canonical floor-based continued fraction; the list is
    padded so that the innermost block is horizontal (a vertical twist on the
    trivial tangle is a kink and builds nothing).
    """
    if slope.q == 0:
        raise ValueError("no twist word for the infinite tangle")
    terms = expand(slope)
    if (len(terms) - 1) % 2 == 1:
        last = terms.pop()
        terms.extend([last - 1, 1])
    kinds = [HORIZONTAL if i % 2 == 0 else VERTICAL for i in range(len(terms))]
    word = [(kinds[i], terms[i]) for i in range(len(terms) - 1, -1, -1)]
    if _word_fraction(word) != Fraction(slope.p, slope.q):
        raise InconsistentCrossCheckError(f"twist word does not rebuild {slope}")
    return word


def _word_fraction(word: list[tuple[str, int]]) -> Fraction | None:
    value: Fraction | None = Fraction(0)  # None encodes the infinite tangle
    for kind, count in word:
        if kind == HORIZONTAL:
            value = None if value is None else value + count
        else:
            if value is None:
                value = Fraction(1, count)
            elif value == 0:
                value = Fraction(0)  # kink on the trivial tangle
            else:
                value = 1 / (count + 1 / value)
    return value


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
) -> list[tuple[Edge, int]]:
    """Join the top endpoints to the bottom ones around the solid torus.

    The wrap arcs cross each other `crossings` times; with no crossing they
    join NW-SW and NE-SE, and an odd count joins NW-SE and NE-SW.  Returns
    each wrap-region edge (entered at a top endpoint) with the bottom
    endpoint its arc reaches.
    """
    out1, out2 = diagram.add_region(WRAP, crossings, box.nw, box.ne)
    bottom = {out1: box.sw, out2: box.se}
    wraps = [(edge, bottom[edge.v]) for edge in diagram.edges[-2:]]
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
                passes.append((edge.u, bottom) if sense > 0 else (bottom, edge.u))
        if not passes:
            loops += 1
        # A tangle stretch runs from one pass to the next; with at most two
        # passes in a component their cyclic order does not matter.
        for (_, start), (end, _) in zip(passes, passes[::-1]):
            partner[start], partner[end] = end, start
    by_partner = {box.ne: Pairing.TOP_TO_TOP, box.sw: Pairing.LEFT_TO_LEFT, box.se: Pairing.CROSS}
    return Closure(len(components), abs(winding), by_partner[partner[box.nw]], loops)


def surface_framing_from_walk(walk: list[tuple[Edge, int]]) -> int:
    """Linking number of the knot with its push-off along the band surface.

    Valid when every diagram crossing lives in a twist region of the evident
    disk-and-band spanning surface (true for the pretzel-shaped diagrams this
    package builds): parallel regions contribute 2 * crossings, antiparallel
    regions cancel.
    """
    passes: dict[int, list[int]] = {}
    for edge, sense in walk:
        if edge.region is not None:
            passes.setdefault(id(edge.region), []).append(sense)
    framing = 0
    regions = {id(e.region): e.region for e, _ in walk if e.region is not None}
    for key, senses in passes.items():
        if len(senses) != 2:
            raise InconsistentCrossCheckError(
                "each region is traversed by exactly two strands"
            )
        if senses[0] == senses[1]:
            framing += 2 * regions[key].crossings
    return framing
