"""Montesinos tangles: entry slopes, normal forms and closure facts.

A Montesinos tangle is the ordered horizontal sum of rational tangles, and
a rational tangle is its finite slope, so a tangle is its tuple of entry
slopes, read from the text `[t1,...,tk]` by `parse_tangle`, the one reader
of an entry list (`wrapped.parse_knot` calls it too), each entry by
`parse_slope` at its own position.  `normalize` reduces a tangle under the
four equivalence moves (entrywise integer shifts with fixed sum, reversal,
the mirror image, and the meridional twist of a single entry) to its normal
form; `str()` of a `NormalForm` and of its `LengthOneCanonical` is the text
of the command's `normal form:` and `canonical single entry:` lines, and
`as_json()` the `normal_form` record of its JSON answers.  The
moves themselves, their `Move` records and `equivalent` with its witnesses
are in `wrapsurg.moves`.

How a tangle joins its four endpoints, and so whether its wrapped closure is
a knot and how often that knot winds, depends only on the parities of its
entries: `closure_facts` reads them off.  The literal strand trace of
`tracing.trace_closure` is the independent oracle for that rule.
"""
from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .slopes import ParseError, Record, Slope, parse_slope, split_integer_parts, stripped


class Pairing(Enum):
    """Which pairs of the four tangle endpoints are joined inside."""

    TOP_TO_TOP = "top-to-top"      # NW-NE and SW-SE
    LEFT_TO_LEFT = "left-to-left"  # NW-SW and NE-SE
    CROSS = "cross"                # NW-SE and NE-SW


# Bound once: on Python 3.11 a member read off an Enum class costs about 0.1 us.
_TOP_TO_TOP = Pairing.TOP_TO_TOP
# The pairing of a tangle by its entry sum p/q mod 2, as (p & 1, q & 1);
# (0, 0) means that the tangle hides a closed loop.
_PAIRING_BY_PARITY = {
    (0, 1): _TOP_TO_TOP,
    (1, 0): Pairing.LEFT_TO_LEFT,
    (1, 1): Pairing.CROSS,
    (0, 0): None,
}


def closure_facts(entries: tuple[Slope, ...], a: int) -> tuple[bool, int, Pairing | None]:
    """Whether the closure of `entries` with `a` wrap crossings is a knot,
    the winding number of that knot, and the tangle's endpoint pairing (None
    when the tangle hides a closed loop), from the parities of the entries.

    A rational tangle p/q pairs its endpoints top-to-top when p is even,
    left-to-left when q is even and across when both are odd (Conway, *An
    enumeration of knots and links*, 1970; Kauffman-Lambropoulou, *On the
    classification of rational tangles*, 2004).  A horizontal sum has the
    pairing of its entry sum mod 2, (p1 q2 + p2 q1, q1 q2): top-to-top is
    the identity, two crossed tangles give top-to-top, left-to-left absorbs
    the other two, and two left-to-left tangles close a loop between them.
    The wrap arcs join NW-SW and NE-SE when a is even and NW-SE and NE-SW
    when a is odd, so the closure is a knot unless the tangle hides a loop or
    repeats the wrap's own pairing.  The knot of a top-to-top tangle passes the wrap
    region once each way and winds 0 times, any other knot winds twice.
    """
    p, q = 0, 1
    for s in entries:
        sp, sq = s.p & 1, s.q & 1
        p, q = (p & sq) ^ (sp & q), q & sq
    pairing = _PAIRING_BY_PARITY[p, q]
    # The wrap arcs pair the endpoints as a tangle of parity (1, a mod 2) does:
    # left-to-left for even a, across for odd a.  (A dict read and the bound
    # `_TOP_TO_TOP`: no member is read off the Enum class.)
    repeated = _PAIRING_BY_PARITY[1, a & 1]
    knot = pairing is not None and pairing is not repeated
    return knot, 0 if pairing is _TOP_TO_TOP else 2, pairing


class MontesinosTangle(Record):
    """An ordered horizontal sum of rational tangles, given by their slopes."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[Slope] | tuple[Slope, ...], /) -> None:
        if not entries:
            raise ValueError("a Montesinos tangle needs at least one entry")
        if not all(map(_denominator, entries)):
            raise ValueError("a rational tangle must have finite slope")
        _set_entries(self, tuple(entries))

    @classmethod
    def from_slopes(cls, slopes: list[Slope] | tuple[Slope, ...]) -> "MontesinosTangle":
        return cls(slopes)

    def __str__(self) -> str:
        return "[" + ",".join(str(s) for s in self.entries) + "]"


(_set_entries,) = MontesinosTangle._setters
_denominator = attrgetter("q")


def knot_text(a: int, entries: tuple[Slope, ...]) -> str:
    """The text `K{a}[t1,...,tk]` of the closure of `entries` with `a` wrap
    crossings, as `wrapped.parse_knot` reads it."""
    # Slope.__str__ itself: str() would reach it through the type.
    return f"K{a}[{','.join(map(Slope.__str__, entries))}]"


def twist_shift(twists: int, winding: int) -> int:
    """How far `twists` meridional twists move every slope but the meridian
    of a knot that winds `winding` times: twists * wind^2."""
    return twists * winding * winding


class LengthOneCanonical(Record):
    """Canonical representative of a tangle reducible to a single entry.

    The representative satisfies t > 1; `mirrored` records whether the mirror
    move was needed (surgery slopes negate downstream) and `twists` the
    number of meridional twist moves applied after mirroring.
    """

    __slots__ = ("t", "mirrored", "twists")

    def __init__(self, t, mirrored, twists, /):
        _set_t(self, t)
        _set_mirrored(self, mirrored)
        _set_twists(self, twists)

    def __str__(self) -> str:
        extras = ["mirrored"] if self.mirrored else []
        if self.twists:
            extras.append(f"twists={self.twists}")
        detail = f" ({', '.join(extras)})" if extras else ""
        return f"t={self.t}{detail}"

    def as_json(self) -> dict:
        return {"t": str(self.t), "mirrored": self.mirrored, "twists": self.twists}


_set_t, _set_mirrored, _set_twists = LengthOneCanonical._setters


class NormalForm(Record):
    """Shift-reduced form: integer part e0 plus fractional entries in (0, 1).

    e0 + sum(fracs) equals the original entry sum exactly.  `degenerate`
    marks tangles equivalent to a 0 or 1/q entry, whose wrapped closures are
    never hyperbolic.  For tangles reducible to a single rational entry the
    dedicated canonical representative is stored in `k1`.
    """

    __slots__ = ("e0", "fracs", "degenerate", "k1")

    def __init__(self, e0, fracs, degenerate, k1, /):
        _set_e0(self, e0)
        _set_fracs(self, fracs)
        _set_degenerate(self, degenerate)
        _set_k1(self, k1)

    def __str__(self) -> str:
        # Slope.__str__ itself: str() would reach it through the type.
        fracs = ",".join(map(Slope.__str__, self.fracs))
        return f"e0={self.e0} fracs=[{fracs}]{'  [degenerate]' if self.degenerate else ''}"

    def as_json(self) -> dict:
        return {"e0": self.e0, "fracs": list(map(Slope.__str__, self.fracs)),
                "degenerate": self.degenerate, "canonical": self.k1 and self.k1.as_json()}

    def as_tangle(self) -> MontesinosTangle:
        """A shift-equivalent tangle realizing this normal form."""
        if not self.fracs:
            return MontesinosTangle((Slope(self.e0, 1),))
        return MontesinosTangle(self.fracs[:-1] + (self.fracs[-1] + self.e0,))


_set_e0, _set_fracs, _set_degenerate, _set_k1 = NormalForm._setters


def normalize(tangle: MontesinosTangle) -> NormalForm:
    """Reduce entries mod 1 into (0, 1), pooling integer parts into e0.

    Integer entries (zero entries in particular) disappear into e0.  When at
    most one fractional entry remains the single-entry canonicalization runs
    on the entry sum t = p/q: the reciprocal v = q/p is folded into (0, 1) by
    v -> +-v + 2Z, recording mirror use and twist count, so the stored
    representative has t > 1.  The fold is integer arithmetic on the
    numerator and denominator of v, and builds only the representative's
    slope.  Tangles with v integral (t = 0 or t = 1/q) are flagged
    degenerate.
    """
    e0, fracs = split_integer_parts(tangle.entries)
    if len(fracs) > 1:
        return NormalForm(e0, tuple(fracs), False, None)

    # The entry sum t = p/q in lowest terms with q > 0, and v = 1/t = n/d.
    p, q = (fracs[0].p + e0 * fracs[0].q, fracs[0].q) if fracs else (e0, 1)
    d, n = abs(p), q if p > 0 else -q
    if d <= 1:  # t = 0 makes v the meridian, t = 1/q makes it integral
        return NormalForm(e0, tuple(fracs), True, None)
    k, f = divmod(n, 2 * d)  # v - 2k = f/d in (0, 2), not 1
    if f < d:
        canonical = LengthOneCanonical(Slope(d, f), False, -k)
    else:
        canonical = LengthOneCanonical(Slope(d, 2 * d - f), True, k + 1)
    return NormalForm(e0, tuple(fracs), False, canonical)


_NOT_AN_ENTRY = "1/0 is not a rational tangle entry"


def parse_tangle(text: str, offset: int = 0) -> MontesinosTangle:
    """Parse `[t1,t2,...,tk]`, each entry read by `parse_slope`; the
    meridian, written `inf` or with a zero denominator, is not an entry.
    Whitespace may surround the whole and each entry; error positions count
    from `offset`, the position of text[0]."""
    s, offset = stripped(text, offset)
    if not s.startswith("[") or not s.endswith("]"):
        raise ParseError("tangle syntax is [t1,...,tk]", offset)
    inner, position = s[1:-1], offset + 1
    if not inner.strip():
        raise ParseError("tangle needs at least one entry", position)
    entries = []
    for piece in inner.split(","):
        entries.append(parse_slope(piece, position, _NOT_AN_ENTRY))
        position += len(piece) + 1
    return MontesinosTangle(entries)
