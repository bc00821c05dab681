"""Exact arithmetic for surgery slopes on a torus boundary.

A slope is an extended rational p/q with gcd(|p|, q) = 1 and q >= 0; the
meridian 1/0 is the unique infinite slope.  All arithmetic is exact over
arbitrary-precision integers.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


class ZeroZeroError(ValueError):
    """Raised when a slope is built from the pair (0, 0)."""


class InfinityInputError(ValueError):
    """Raised when a continued-fraction expansion of 1/0 is requested."""


class InconsistentCrossCheckError(AssertionError):
    """Two independent computations of the same fact disagreed."""


class ParseError(ValueError):
    """Syntax error in a textual expression, with a 0-based position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Slope:
    """A normalized extended rational p/q.

    Invariants: gcd(|p|, q) = 1, q >= 0, and (1, 0) is the unique
    representation of the meridian.  The sign is carried on p.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ZeroZeroError("slope 0/0 is undefined")
        g = gcd(abs(p), abs(q))
        p //= g
        q //= g
        if q < 0:
            p, q = -p, -q
        if q == 0:
            p = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    # -- predicates ------------------------------------------------------

    def is_meridian(self) -> bool:
        return self.q == 0

    def is_integral(self) -> bool:
        return self.q == 1

    def is_half_integral(self) -> bool:
        return self.q == 2

    # -- conversions -----------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.q == 0:
            raise InfinityInputError("meridian has no finite value")
        return Fraction(self.p, self.q)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "Slope":
        f = Fraction(value)
        return cls(f.numerator, f.denominator)

    # -- arithmetic ------------------------------------------------------

    def reciprocal(self) -> "Slope":
        return Slope(self.q, self.p)

    def __neg__(self) -> "Slope":
        if self.q == 0:
            return self
        return Slope(-self.p, self.q)

    def __add__(self, other: int) -> "Slope":
        # Integer shifts only; the meridian is fixed by every shift.
        if not isinstance(other, int):
            return NotImplemented
        if self.q == 0:
            return self
        return Slope(self.p + other * self.q, self.q)

    __radd__ = __add__

    def __lt__(self, other: "Slope") -> bool:
        # Total order with the meridian as +infinity, for deterministic output.
        if self.q == 0:
            return False
        if other.q == 0:
            return True
        return self.p * other.q < other.p * self.q

    def __str__(self) -> str:
        if self.q == 0:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


MERIDIAN = Slope(1, 0)
ZERO = Slope(0, 1)


def make_slope(p: int, q: int) -> Slope:
    """Return the normalized slope p/q; raises ZeroZeroError on (0, 0)."""
    return Slope(p, q)


def distance(r: Slope, s: Slope) -> int:
    """Geometric intersection number |p_r q_s - p_s q_r| of two slopes."""
    return abs(r.p * s.q - s.p * r.q)


def split_integer_parts(
    fractions: Iterable[tuple[int, int]],
) -> tuple[int, list[tuple[int, int]]]:
    """Split fractions p/q (lowest terms, q > 0) into the sum of their floors
    and, in order, their nonzero fractional parts (p mod q)/q in (0, 1),
    which stay in lowest terms."""
    e = 0
    parts = []
    for p, q in fractions:
        floor, rest = divmod(p, q)
        e += floor
        if rest:
            parts.append((rest, q))
    return e, parts


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


def parse_slope(text: str, offset: int = 0) -> Slope:
    """Parse 'p/q', a bare integer, or 'inf'.  The sign sits on the numerator."""
    s = text.strip()
    if not s:
        raise ParseError("empty slope", offset)
    if s == "inf":
        return MERIDIAN
    if "/" in s:
        num_text, _, den_text = s.partition("/")
        num = _parse_int(num_text, offset, allow_sign=True)
        den = _parse_int(den_text, offset + len(num_text) + 1, allow_sign=False)
        if den == 0:
            raise ParseError("explicit zero denominator; write 'inf'", offset)
        return Slope(num, den)
    return Slope(_parse_int(s, offset, allow_sign=True), 1)


def _parse_int(text: str, offset: int, allow_sign: bool) -> int:
    """ASCII digits, with a leading '-' when `allow_sign`; no '+', no '_'."""
    s = text.strip()
    body = s[1:] if (allow_sign and s.startswith("-")) else s
    if not (body.isascii() and body.isdigit()):
        raise ParseError(f"expected an integer, got {text!r}", offset)
    try:
        return int(s)
    except ValueError:  # more digits than int() converts from text
        raise ParseError(f"integer with {len(body)} digits is too long", offset) from None
