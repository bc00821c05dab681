"""Exact arithmetic for surgery slopes on a torus boundary, and `Record`.

A slope is an extended rational p/q with gcd(|p|, q) = 1 and q >= 0; the
meridian 1/0 is the unique infinite slope.  All arithmetic is exact over
arbitrary-precision integers.  `Slope` is the package's one rational type:
its reciprocal, integer shifts, negation and order are all the arithmetic
the package does, and no module imports `fractions`.  Slope texts are read
by `parse_slope`, which keeps the slopes of the last 2048 short texts it
parsed, so a text is read once while it stays among them.

`Record` is the base of the package's value types.  A record is built from
its field values in `__slots__` order, positionally, `cls(*values)`: no
record takes keywords, and a wrong number of values raises `TypeError`.
Seven classes write their own positional-only `__init__`, which calls each
field's setter once through a module-level alias: `Slope`,
`MontesinosTangle` and `WrappedKnot` normalize or validate their input, and
`NormalForm`, `LengthOneCanonical`, `Analysis` and `SurgeryClassification`
are built for every cold knot or answer, where CPython calls a constructor
of fixed arity without building the tuple of values that `Record.__init__`
packs, counts and unpacks.  Every other class is built by `Record.__init__`,
which sets the fields from the class's field setters and `_defaults` (the
values of omitted trailing fields) in a loop.  Records are immutable
(assigning or deleting a field raises `AttributeError`), equal when of one
class with equal fields, hashable by their fields, picklable and copyable.
"""
from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd
from operator import attrgetter


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


class Record:
    """A subclass names its fields in `__slots__` and the values of its
    optional trailing fields in `_defaults`; unless it writes its own
    `__init__`, `Record.__init__` builds it.  A written constructor is
    positional-only, states its own defaults and calls each of the class's
    `_setters` once."""

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values: object) -> None:
        setters, defaults = self._setters, self._defaults
        missing = len(setters) - len(values)
        if missing:
            if not 0 < missing <= len(defaults):
                raise TypeError(
                    f"{type(self).__qualname__} takes the values of ({', '.join(self.__slots__)}),"
                    f" the last {len(defaults)} optional; got {len(values)}"
                )
            values += defaults[-missing:]
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _restore, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _restore(cls: type, values: tuple) -> Record:
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


class Slope(Record):
    """A normalized extended rational p/q.

    Invariants: gcd(|p|, q) = 1, q >= 0, and (1, 0) is the unique
    representation of the meridian.  The sign is carried on p.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int, /) -> None:
        g = gcd(p, q)
        if q < 0:
            g = -g  # so that q // g > 0
        elif not q:
            if not p:
                raise ZeroZeroError("slope 0/0 is undefined")
            p, g = 1, 1
        if g != 1:
            p, q = p // g, q // g
        _set_p(self, p)
        _set_q(self, q)

    # The hottest cache key: `Record`'s methods, with the two fields inline.
    def __eq__(self, other: object) -> bool:
        if type(other) is not Slope:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    # -- predicates ------------------------------------------------------

    def is_meridian(self) -> bool:
        return self.q == 0

    def is_integral(self) -> bool:
        return self.q == 1

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
        if not isinstance(other, Slope):
            return NotImplemented
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


_set_p, _set_q = Slope._setters
MERIDIAN = Slope(1, 0)


def make_slope(p: int, q: int) -> Slope:
    """Return the normalized slope p/q, the same as `Slope(p, q)`; raises
    ZeroZeroError on (0, 0)."""
    return Slope(p, q)


def distance(r: Slope, s: Slope) -> int:
    """Geometric intersection number |p_r q_s - p_s q_r| of two slopes."""
    return abs(r.p * s.q - s.p * r.q)


def split_integer_parts(slopes: Iterable[Slope]) -> tuple[int, list[Slope]]:
    """Split finite slopes into the sum of their floors and, in order, their
    nonzero fractional parts (p mod q)/q in (0, 1); a slope already in (0, 1)
    is its own fractional part."""
    e = 0
    parts = []
    for s in slopes:
        floor, rest = divmod(s.p, s.q)
        e += floor
        if rest:
            parts.append(Slope(rest, s.q) if floor else s)
    return e, parts


_ZERO_DENOMINATOR = "explicit zero denominator; write 'inf'"


def stripped(text: str, offset: int) -> tuple[str, int]:
    """`text` without surrounding whitespace, and the position of its first
    character when text[0] is at `offset`: error positions count the
    leading whitespace."""
    s = text.lstrip()
    return s.rstrip(), offset + len(text) - len(s)


# `parse_slope`'s memo holds at most _SLOPE_CACHE_SIZE texts of at most
# _MEMO_TEXT_LENGTH characters with their slopes: under 1 MB (2048 texts of 64
# characters, digits or U+3000 padding, take at most 0.76 MB in tracemalloc).
_SLOPE_CACHE_SIZE = 2048
_MEMO_TEXT_LENGTH = 64


def parse_slope(text: str, offset: int = 0, meridian: str | None = None) -> Slope:
    """Parse 'p/q', a bare integer, or 'inf'.  The sign sits on the numerator.
    With a `meridian` message, `inf` and a zero denominator both fail with it
    at the slope's first character; without one, `inf` is the meridian.

    Each text is read once per process while it stays among the last
    _SLOPE_CACHE_SIZE (2048) distinct (text, meridian) pairs of at most
    _MEMO_TEXT_LENGTH (64) characters parsed: the memo keeps successful parses
    only, and a text that fails is read again at `offset`, so a `ParseError`
    gives the same message and position either way."""
    if len(text) <= _MEMO_TEXT_LENGTH:
        try:
            return _slope_memo(text, meridian)
        except ParseError:
            pass
    return _read_slope(text, offset, meridian)


def _read_slope(text: str, offset: int, meridian: str | None) -> Slope:
    """`parse_slope` without the memo."""
    s, offset = stripped(text, offset)
    if not s:
        raise ParseError("empty slope", offset)
    if s == "inf":
        if meridian is not None:
            raise ParseError(meridian, offset)
        return MERIDIAN
    if "/" in s:
        num_text, _, den_text = s.partition("/")
        num = _parse_int(num_text, offset, allow_sign=True)
        den = _parse_int(den_text, offset + len(num_text) + 1, allow_sign=False)
        if den == 0:
            raise ParseError(_ZERO_DENOMINATOR if meridian is None else meridian, offset)
        return Slope(num, den)
    return Slope(_parse_int(s, offset, allow_sign=True), 1)


@lru_cache(maxsize=_SLOPE_CACHE_SIZE)
def _slope_memo(text: str, meridian: str | None) -> Slope:
    return _read_slope(text, 0, meridian)


def _parse_int(text: str, offset: int, allow_sign: bool) -> int:
    """ASCII digits, with a leading '-' when `allow_sign`; no '+', no '_'.
    An error's position counts the leading whitespace."""
    s = text.strip()
    body = s[1:] if (allow_sign and s.startswith("-")) else s
    if body.isascii() and body.isdigit():
        try:
            return int(s)
        except ValueError:  # more digits than int() converts from text
            message = f"integer with {len(body)} digits is too long"
    else:
        message = f"expected an integer, got {text!r}"
    raise ParseError(message, stripped(text, offset)[1])
