"""Seifert data of double branched covers and of torus-knot surgeries.

Montesinos links are recorded by their entry fractions; the double branched
cover of M(r_1, ..., r_k) is Seifert fibered with one singular fiber of
index alpha per entry beta/alpha after normalizing every fraction into
(0, 1), integer parts pooling into the Euler term.  An entry 1/0 marks a
connected sum whose cover is reducible.  Surgery on a torus knot is
classified by the distance d = |u - pq v| to the cabling slope: reducible
at d = 0, a lens space at d = 1, and otherwise a small Seifert space whose
invariants {b1/p, b2/q, v/(u - pq v)} with b1 q + b2 p = 1 follow from
extending the fibration of the exterior across the filling torus.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .slopes import (
    InconsistentCrossCheckError,
    ParseError,
    Slope,
    make_slope,
    parse_slope,
    split_integer_parts,
)


class NotATorusKnotError(ValueError):
    """Raised when torus-knot surgery is requested with |p| or |q| < 2."""


@dataclass(frozen=True, slots=True)
class MontesinosLink:
    entries: tuple[Slope, ...]

    def __str__(self) -> str:
        return "M[" + ",".join(str(s) for s in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class SeifertInvariants:
    """Normalized data: integer Euler part plus fibers (alpha, beta).

    Every fiber fraction beta/alpha lies strictly in (0, 1); index-1 fibers
    are absorbed into e.  Fibers are kept sorted so equality is equality of
    multisets.
    """

    e: int
    fibers: tuple[tuple[int, int], ...]

    @classmethod
    def from_fractions(cls, fractions: list[Fraction]) -> "SeifertInvariants":
        e, parts = split_integer_parts((f.numerator, f.denominator) for f in fractions)
        return cls(e, tuple(sorted((q, p) for p, q in parts)))

    def reversed_orientation(self) -> "SeifertInvariants":
        fibers = tuple(sorted((a, a - b) for a, b in self.fibers))
        return SeifertInvariants(-self.e - len(self.fibers), fibers)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(a for a, _ in self.fibers))

    def __str__(self) -> str:
        parts = [str(self.e)] + [f"{b}/{a}" for a, b in self.fibers]
        return "(" + "; ".join(parts) + ")"


class SFSKind(Enum):
    SMALL_SEIFERT = "small-seifert"
    LENS = "lens"
    REDUCIBLE = "reducible"


@dataclass(frozen=True, slots=True)
class SFSClass:
    kind: SFSKind
    invariants: SeifertInvariants | None = None

    def __str__(self) -> str:
        if self.kind is SFSKind.SMALL_SEIFERT:
            return f"small Seifert {self.invariants}"
        return self.kind.value


REDUCIBLE = SFSClass(SFSKind.REDUCIBLE)
LENS = SFSClass(SFSKind.LENS)


def double_branched_cover(link: MontesinosLink) -> SFSClass:
    """Seifert class of the double cover of S^3 branched over the link."""
    if any(s.is_meridian() for s in link.entries):
        return REDUCIBLE
    invariants = SeifertInvariants.from_fractions(
        [s.as_fraction() for s in link.entries]
    )
    if len(invariants.fibers) <= 2:
        return LENS
    return SFSClass(SFSKind.SMALL_SEIFERT, invariants)


def torus_knot_surgery(p: int, q: int, r: Slope) -> SFSClass:
    """Classify r-surgery on the (p, q) torus knot.

    Both orientations are accepted; a negative product pq mirrors the knot,
    which negates the surgery slope.
    """
    from math import gcd

    if abs(p) < 2 or abs(q) < 2:
        raise NotATorusKnotError("torus knots need |p|, |q| >= 2")
    if gcd(p, q) != 1:
        raise NotATorusKnotError("torus knots need coprime p, q")
    if r.is_meridian():
        raise ValueError("the meridian filling restores S^3")
    pp, qq = abs(p), abs(q)
    u, v = (r.p, r.q) if p * q > 0 else (-r.p, r.q)
    sigma = u - pp * qq * v
    d = abs(sigma)
    if d == 0:
        return REDUCIBLE
    if d == 1:
        return LENS
    b1, b2 = _bezout(qq, pp)
    invariants = SeifertInvariants.from_fractions(
        [Fraction(b1, pp), Fraction(b2, qq), Fraction(v, sigma)]
    )
    if invariants.indices() != tuple(sorted((pp, qq, d))):
        raise InconsistentCrossCheckError(
            f"fiber indices of {r}-surgery on T({p},{q}) are not {{{pp},{qq},{d}}}"
        )
    return SFSClass(SFSKind.SMALL_SEIFERT, invariants)


def _bezout(x: int, y: int) -> tuple[int, int]:
    """Integers (b1, b2) with b1 * x + b2 * y = 1 for coprime x, y."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    if old_r != 1:
        raise InconsistentCrossCheckError(f"{x} and {y} are not coprime")
    return old_s, old_t


def pretzel_surgery_link(n: int, base: int) -> MontesinosLink:
    """Branch locus of the (base + 4n)-surgery on the (-2, 3, 2n+1) pretzel.

    base 7 gives M(-1/3, 3/5, 1/(n-2)) and base 6 gives
    M(1/2, -1/4, 2/(2n-5)); degenerate denominators produce 1/0 entries.
    """
    if base == 7:
        return MontesinosLink(
            (make_slope(-1, 3), make_slope(3, 5), make_slope(1, n - 2))
        )
    if base == 6:
        return MontesinosLink(
            (make_slope(1, 2), make_slope(-1, 4), make_slope(2, 2 * n - 5))
        )
    raise ValueError("base must be 6 or 7")


def sfs_equal(x: SFSClass, y: SFSClass) -> bool:
    """Equality of normalized data up to reordering and orientation reversal."""
    if x.kind is not y.kind:
        return False
    if x.kind is not SFSKind.SMALL_SEIFERT:
        return True
    assert x.invariants is not None and y.invariants is not None
    return x.invariants in (y.invariants, y.invariants.reversed_orientation())


def parse_montesinos(text: str, offset: int = 0) -> MontesinosLink:
    """Parse `M[r1,...,rk]`; `inf` entries are allowed and mark degenerations."""
    s = text.strip()
    if not s.startswith("M[") or not s.endswith("]"):
        raise ParseError("Montesinos link syntax is M[r1,...,rk]", offset)
    inner = s[2:-1]
    if not inner.strip():
        raise ParseError("Montesinos link needs at least one entry", offset + 2)
    entries = []
    position = offset + 2
    for piece in inner.split(","):
        entries.append(parse_slope(piece, position))
        position += len(piece) + 1
    return MontesinosLink(tuple(entries))
