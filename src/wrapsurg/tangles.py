"""Rational and Montesinos tangles: normal forms, equivalence, connectivity.

Two Montesinos tangles are equivalent when one is carried to the other by a
composition of four moves: entrywise integer shifts with fixed total sum
(zero entries may be added or deleted), reversal of the entry order, the
mirror image (entrywise negation), and, for tangles reducible to a single
rational entry, the meridional twist t -> 1/(2m + 1/t).  Connectivity of the
four endpoints is always computed by strand tracing over a twist-region
diagram, never from a hard-coded parity formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .slopes import ParseError, Slope, parse_slope
from .tracing import Pairing, trace_closure


@dataclass(frozen=True, slots=True)
class RationalTangle:
    """A rational tangle of finite slope (the slope 1/0 is not a tangle)."""

    slope: Slope

    def __post_init__(self) -> None:
        if self.slope.is_meridian():
            raise ValueError("a rational tangle must have finite slope")

    def __str__(self) -> str:
        return str(self.slope)


@dataclass(frozen=True, slots=True)
class MontesinosTangle:
    """An ordered horizontal sum of rational tangles."""

    entries: tuple[RationalTangle, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a Montesinos tangle needs at least one entry")

    @classmethod
    def from_slopes(cls, slopes: list[Slope] | tuple[Slope, ...]) -> "MontesinosTangle":
        return cls(tuple(RationalTangle(s) for s in slopes))

    def slopes(self) -> tuple[Slope, ...]:
        return tuple(entry.slope for entry in self.entries)

    def entry_sum(self) -> Fraction:
        return sum((e.slope.as_fraction() for e in self.entries), Fraction(0))

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"


@dataclass(frozen=True, slots=True)
class LengthOneCanonical:
    """Canonical representative of a tangle reducible to a single entry.

    The representative satisfies t > 1; `mirrored` records whether the mirror
    move was needed (surgery slopes negate downstream) and `twists` the
    number of meridional twist moves applied after mirroring.
    """

    t: Slope
    mirrored: bool
    twists: int


@dataclass(frozen=True, slots=True)
class NormalForm:
    """Shift-reduced form: integer part e0 plus fractional entries in (0, 1).

    e0 + sum(fracs) equals the original entry sum exactly.  `degenerate`
    marks tangles equivalent to a 0 or 1/q entry, whose wrapped closures are
    never hyperbolic.  For tangles reducible to a single rational entry the
    dedicated canonical representative is stored in `k1`.
    """

    e0: int
    fracs: tuple[Slope, ...]
    degenerate: bool
    k1: LengthOneCanonical | None

    def entry_sum(self) -> Fraction:
        return self.e0 + sum((f.as_fraction() for f in self.fracs), Fraction(0))

    def as_tangle(self) -> MontesinosTangle:
        """A shift-equivalent tangle realizing this normal form."""
        if not self.fracs:
            return MontesinosTangle.from_slopes([Slope(self.e0, 1)])
        slopes = list(self.fracs)
        slopes[-1] = slopes[-1] + self.e0
        return MontesinosTangle.from_slopes(slopes)


def normalize(tangle: MontesinosTangle) -> NormalForm:
    """Reduce entries mod 1 into (0, 1), pooling integer parts into e0.

    Integer entries (zero entries in particular) disappear into e0.  When at
    most one fractional entry remains the single-entry canonicalization runs:
    the reciprocal v = 1/t is folded into (0, 1) by v -> +-v + 2Z, recording
    mirror use and twist count, so the stored representative has t > 1.
    Tangles with v integral (t = 0 or t = 1/q) are flagged degenerate.
    """
    e0 = 0
    fracs: list[Slope] = []
    for entry in tangle.entries:
        value = entry.slope.as_fraction()
        floor = value.numerator // value.denominator
        e0 += floor
        frac = value - floor
        if frac:
            fracs.append(Slope.from_fraction(frac))
    if len(fracs) > 1:
        return NormalForm(e0, tuple(fracs), degenerate=False, k1=None)

    t = Fraction(e0) if not fracs else e0 + fracs[0].as_fraction()
    if t == 0:
        return NormalForm(e0, tuple(fracs), degenerate=True, k1=None)
    v = 1 / t
    if v.denominator == 1:
        return NormalForm(e0, tuple(fracs), degenerate=True, k1=None)
    k = v // 2
    folded = v - 2 * k
    if folded < 1:
        canonical = LengthOneCanonical(Slope.from_fraction(1 / folded), mirrored=False, twists=-k)
    else:
        canonical = LengthOneCanonical(
            Slope.from_fraction(1 / (2 - folded)), mirrored=True, twists=k + 1
        )
    return NormalForm(e0, tuple(fracs), degenerate=False, k1=canonical)


# -- equivalence moves -------------------------------------------------------


def reverse_tangle(tangle: MontesinosTangle) -> MontesinosTangle:
    return MontesinosTangle(tuple(reversed(tangle.entries)))


def mirror_tangle(tangle: MontesinosTangle) -> MontesinosTangle:
    return MontesinosTangle.from_slopes([-s for s in tangle.slopes()])


def shift_tangle(tangle: MontesinosTangle, deltas: list[int]) -> MontesinosTangle:
    """Entrywise integer shifts; the deltas must sum to zero."""
    if len(deltas) != len(tangle.entries) or sum(deltas) != 0:
        raise ValueError("shifts must match the entries and preserve the sum")
    return MontesinosTangle.from_slopes(
        [s + d for s, d in zip(tangle.slopes(), deltas)]
    )


def twist_tangle(tangle: MontesinosTangle, m: int) -> MontesinosTangle:
    """The meridional twist move t -> 1/(2m + 1/t) on a single-entry tangle."""
    if len(tangle.entries) != 1:
        raise ValueError("the twist move applies to single-entry tangles")
    t = tangle.entries[0].slope.as_fraction()
    if t == 0:
        return tangle
    if 2 * m + 1 / t == 0:
        # Only degenerate entries t = -1/(2m) reach this; the image is the
        # infinite tangle, which is not a Montesinos entry.
        raise ValueError("the twist move lands on the infinite tangle")
    return MontesinosTangle.from_slopes([Slope.from_fraction(1 / (2 * m + 1 / t))])


@dataclass(frozen=True, slots=True)
class Move:
    kind: str  # "shift" | "reverse" | "mirror" | "twist"
    amount: int = 0

    def __str__(self) -> str:
        if self.kind == "twist":
            return f"twist m={self.amount}"
        if self.kind == "shift":
            return "integer shifts (sum preserved, zero entries dropped)"
        return self.kind


def _signature(tangle: MontesinosTangle):
    nf = normalize(tangle)
    if nf.degenerate:
        if nf.entry_sum() == 0 and not nf.fracs:
            return ("degenerate", "zero")
        v = 1 / nf.entry_sum()
        return ("degenerate", int(v) % 2)
    if nf.k1 is not None:
        return ("single", (nf.k1.t.p, nf.k1.t.q))
    variants = []
    for fracs, e0 in _nf_variants(nf):
        variants.append((e0, tuple((f.p, f.q) for f in fracs)))
    return ("multi", min(variants))


def _nf_variants(nf: NormalForm):
    """Normal forms of the four reverse/mirror images of a multi-entry tangle."""
    fracs, e0 = nf.fracs, nf.e0
    mirrored = tuple(Slope.from_fraction(1 - f.as_fraction()) for f in fracs)
    mirrored_e0 = -e0 - len(fracs)
    yield fracs, e0
    yield tuple(reversed(fracs)), e0
    yield mirrored, mirrored_e0
    yield tuple(reversed(mirrored)), mirrored_e0


def equivalent(t1: MontesinosTangle, t2: MontesinosTangle) -> list[Move] | None:
    """Decide equivalence under the four moves; return a witness or None.

    The decision compares canonical signatures, which is complete, so the
    witness search never has to explore deep move sequences: it is assembled
    from each side's reduction to canonical form.
    """
    if _signature(t1) != _signature(t2):
        return None
    return _witness(t1, t2)


def _witness(t1: MontesinosTangle, t2: MontesinosTangle) -> list[Move]:
    left = _reduction_moves(t1)
    right = _reduction_moves(t2)
    # Moves from t1 down to canonical form, then t2's reduction undone.
    moves = list(left)
    for move in reversed(right):
        if move.kind == "twist":
            moves.append(Move("twist", -move.amount))
        else:
            moves.append(move)  # shift, reverse, and mirror are involutions
    return moves


def _reduction_moves(tangle: MontesinosTangle) -> list[Move]:
    nf = normalize(tangle)
    moves: list[Move] = []
    if tangle.slopes() != nf.as_tangle().slopes():
        moves.append(Move("shift"))
    if nf.k1 is not None:
        if nf.k1.mirrored:
            moves.append(Move("mirror"))
        if nf.k1.twists:
            moves.append(Move("twist", nf.k1.twists))
        return moves
    if nf.degenerate:
        return moves
    best = min(_nf_variants(nf), key=lambda fr: (fr[1], tuple((f.p, f.q) for f in fr[0])))
    variants = list(_nf_variants(nf))
    index = variants.index(best)
    if index == 1:
        moves.append(Move("reverse"))
    elif index == 2:
        moves.append(Move("mirror"))
    elif index == 3:
        moves.append(Move("mirror"))
        moves.append(Move("reverse"))
    return moves


# -- connectivity by strand tracing ------------------------------------------


def pairing(tangle: RationalTangle) -> Pairing:
    """Endpoint pairing of a rational tangle, traced from its twist word."""
    return trace_closure((tangle.slope,), 0).pairing


def montesinos_pairing(tangle: MontesinosTangle) -> Pairing:
    """Endpoint pairing of the horizontal sum, traced left to right."""
    return trace_closure(tangle.slopes(), 0).pairing


def montesinos_loops(tangle: MontesinosTangle) -> int:
    """Closed circles created inside the horizontal sum."""
    return trace_closure(tangle.slopes(), 0).loops


def parse_tangle(text: str, offset: int = 0) -> MontesinosTangle:
    """Parse `[t1,t2,...,tk]` with each entry in slope syntax."""
    s = text.strip()
    if not s.startswith("[") or not s.endswith("]"):
        raise ParseError("tangle syntax is [t1,...,tk]", offset)
    inner = s[1:-1]
    if not inner.strip():
        raise ParseError("tangle needs at least one entry", offset + 1)
    slopes = []
    position = offset + 1
    for piece in inner.split(","):
        entry = parse_slope(piece, position)
        if entry.is_meridian():
            raise ParseError("1/0 is not a rational tangle entry", position)
        slopes.append(entry)
        position += len(piece) + 1
    return MontesinosTangle.from_slopes(slopes)
