"""Seifert data of double branched covers and of torus-knot surgeries.

A Montesinos link M(r_1, ..., r_k) is recorded by its tuple of entry
slopes; the classifier's links come from `pretzel_surgery_link`, and no
text form of a link is read.  Its double branched cover is Seifert fibered with one
singular fiber of index alpha per entry beta/alpha after normalizing every
slope into (0, 1), integer parts pooling into the Euler term.  An entry 1/0
marks a connected sum whose cover is reducible.  Surgery on a torus knot is
classified by the distance d = |u - pq v| to the cabling slope: reducible
at d = 0, a lens space at d = 1, and otherwise a small Seifert space whose
invariants {b1/p, b2/q, v/(u - pq v)} with b1 q + b2 p = 1 follow from
extending the fibration of the exterior across the filling torus.
`pretzel_surgery`, the classifier's S^3 surgeries, checks every cover of a
(-2, 3, 2n+1) pretzel that is a torus knot against torus-knot surgery, and
every small Seifert cover against the order of its first homology, which an
m-surgery on a knot in S^3 has |m| of; both checks run also under `python -O`.
"""
from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from math import gcd, prod

from .slopes import InconsistentCrossCheckError, Record, Slope, split_integer_parts


class NotATorusKnotError(ValueError):
    """Raised when torus-knot surgery is requested with |p| or |q| < 2."""


class MontesinosLink(Record):
    __slots__ = ("entries",)


class SeifertInvariants(Record):
    """Normalized data: integer Euler part plus fibers (alpha, beta).

    Every fiber fraction beta/alpha lies strictly in (0, 1); index-1 fibers
    are absorbed into e.  Fibers are kept sorted so equality is equality of
    multisets.
    """

    __slots__ = ("e", "fibers")

    @classmethod
    def from_slopes(cls, slopes: Iterable[Slope]) -> "SeifertInvariants":
        e, parts = split_integer_parts(slopes)
        return cls(e, tuple(sorted((s.q, s.p) for s in parts)))

    def reversed_orientation(self) -> "SeifertInvariants":
        fibers = tuple(sorted((a, a - b) for a, b in self.fibers))
        return SeifertInvariants(-self.e - len(self.fibers), fibers)

    def homology_order(self) -> int:
        """|H_1| of the space over S^2: |a_1 ... a_k (e + sum b_i/a_i)|, in
        integers; 0 when H_1 is infinite."""
        alphas = prod(a for a, _ in self.fibers)
        return abs(self.e * alphas + sum(b * (alphas // a) for a, b in self.fibers))

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(a for a, _ in self.fibers))

    def __str__(self) -> str:
        parts = [str(self.e)] + [f"{b}/{a}" for a, b in self.fibers]
        return "(" + "; ".join(parts) + ")"


class SFSKind(Enum):
    SMALL_SEIFERT = "small-seifert"
    LENS = "lens"
    REDUCIBLE = "reducible"


class SFSClass(Record):
    __slots__ = ("kind", "invariants")
    _defaults = (None,)

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
    invariants = SeifertInvariants.from_slopes(link.entries)
    if len(invariants.fibers) <= 2:
        return LENS
    return SFSClass(SFSKind.SMALL_SEIFERT, invariants)


def torus_knot_surgery(p: int, q: int, r: Slope) -> SFSClass:
    """Classify r-surgery on the (p, q) torus knot.

    Both orientations are accepted; a negative product pq mirrors the knot,
    which negates the surgery slope.
    """
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
    b1 = pow(qq, -1, pp)
    b2 = (1 - b1 * qq) // pp
    invariants = SeifertInvariants.from_slopes(
        (Slope(b1, pp), Slope(b2, qq), Slope(v, sigma))
    )
    if invariants.indices() != tuple(sorted((pp, qq, d))):
        raise InconsistentCrossCheckError(
            f"fiber indices of {r}-surgery on T({p},{q}) are not {{{pp},{qq},{d}}}"
        )
    return SFSClass(SFSKind.SMALL_SEIFERT, invariants)


def pretzel_surgery_link(n: int, base: int) -> MontesinosLink:
    """Branch locus of the (base + 4n)-surgery on the (-2, 3, 2n+1) pretzel.

    base 7 gives M(-1/3, 3/5, 1/(n-2)) and base 6 gives
    M(1/2, -1/4, 2/(2n-5)); degenerate denominators produce 1/0 entries.
    """
    if base == 7:
        return MontesinosLink(
            (Slope(-1, 3), Slope(3, 5), Slope(1, n - 2))
        )
    if base == 6:
        return MontesinosLink(
            (Slope(1, 2), Slope(-1, 4), Slope(2, 2 * n - 5))
        )
    raise ValueError("base must be 6 or 7")


# The (-2, 3, 2n+1) pretzels that are torus knots T(p, q), by n.
_TORUS_KNOT_MEMBERS = {0: (2, 5), 1: (3, 4), 2: (3, 5)}


def pretzel_surgery(n: int, base: int) -> SFSClass:
    """The (base + 4n)-surgery on the (-2, 3, 2n+1) pretzel: the double
    branched cover of `pretzel_surgery_link`, cross-checked on every call: a
    small Seifert cover has |H_1| = |base + 4n|, and a torus-knot member's
    cover is its torus-knot surgery.  Lens and reducible covers carry no
    invariants, so only the second check reaches them."""
    result = double_branched_cover(pretzel_surgery_link(n, base))
    if result.kind is SFSKind.SMALL_SEIFERT:
        order = result.invariants.homology_order()
        if order != abs(base + 4 * n):
            raise InconsistentCrossCheckError(
                f"branch-locus cover {result} has |H1| = {order}, not "
                f"|{base + 4 * n}|, at twist {n}"
            )
    if n in _TORUS_KNOT_MEMBERS:
        p, q = _TORUS_KNOT_MEMBERS[n]
        check = torus_knot_surgery(p, q, Slope(base + 4 * n, 1))
        if not sfs_equal(result, check):
            raise InconsistentCrossCheckError(
                f"branch-locus cover {result} disagrees with torus-knot "
                f"surgery {check} at twist {n}"
            )
    return result


def sfs_equal(x: SFSClass, y: SFSClass) -> bool:
    """Equality of normalized data up to reordering and orientation reversal."""
    if x.kind is not y.kind:
        return False
    if x.kind is not SFSKind.SMALL_SEIFERT:
        return True
    assert x.invariants is not None and y.invariants is not None
    return x.invariants in (y.invariants, y.invariants.reversed_orientation())
