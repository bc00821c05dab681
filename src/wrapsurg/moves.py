"""The equivalence moves: their records, the reduction's move list, the
moves on Montesinos tangles, and equivalence with witnesses.

Two Montesinos tangles are equivalent when one is carried to the other by a
composition of four moves: entrywise integer shifts with fixed total sum
(zero entries may be added or deleted), reversal of the entry order, the
mirror image (entrywise negation), and, for tangles reducible to a single
rational entry, the meridional twist t -> 1/(2m + 1/t).  A `Move` records
one move as `--moves` prints it.  The classifier's reduction
(`classify._reduce`) states what its moves do to slopes in a `SlopeMap` and
builds no `Move`; `reduction_moves` lists them from that map, and
`Analysis.moves`, the JSON `equivalence_moves` and `equivalent`'s witnesses
all read that one listing.  `equivalent` decides equivalence from the same
reduction.  A text request without `--moves` reads no move, so this module
loads with the first JSON answer, `--moves` line or use of one of its names.
"""
from __future__ import annotations

from .classify import SlopeMap, _reduce as _classify_reduce
from .slopes import Record, Slope
from .tangles import MontesinosTangle, NormalForm, closure_facts


class Move(Record):
    """One equivalence move: `kind` is "shift", "reverse", "mirror" or
    "twist"; a twist's `amount` is its m and its `shift` is
    `twist_shift(m, wind)` (both 0 for the other kinds)."""

    __slots__ = ("kind", "amount", "shift")
    _defaults = (0, 0)

    def __str__(self) -> str:
        if self.kind == "shift":
            return "integer shifts (sum preserved, zero entries dropped)"
        if self.kind == "mirror":
            return "mirror (surgery slopes negate)"
        if self.kind != "twist":
            return self.kind
        shift = f"slopes shift by {self.shift}" if self.shift else "slopes unchanged, winding 0"
        return f"meridional twist m={self.amount} ({shift})"


# The moves but the twist, built once.
_SHIFT, _MIRROR = Move("shift"), Move("mirror")


def reduction_moves(entries: tuple[Slope, ...], nf: NormalForm,
                    slope_map: SlopeMap) -> tuple[Move, ...]:
    """The `Move` records of a reduction, from the tangle's `entries`, their
    normal form and the reduction's slope map: the integer shift unless the
    entries are already their normal form's tangle, the mirror when the map
    negates slopes, and the twist with the map's twists and shift."""
    moves = [] if entries == nf.as_tangle().entries else [_SHIFT]
    if slope_map.sigma < 0:
        moves.append(_MIRROR)
    if slope_map.twists:
        moves.append(Move("twist", slope_map.twists, slope_map.shift))
    return tuple(moves)


def reverse_tangle(tangle: MontesinosTangle) -> MontesinosTangle:
    return MontesinosTangle(tuple(reversed(tangle.entries)))


def mirror_tangle(tangle: MontesinosTangle) -> MontesinosTangle:
    return MontesinosTangle(tuple(-s for s in tangle.entries))


def shift_tangle(tangle: MontesinosTangle, deltas: list[int]) -> MontesinosTangle:
    """Entrywise integer shifts; the deltas must sum to zero."""
    if len(deltas) != len(tangle.entries) or sum(deltas) != 0:
        raise ValueError("shifts must match the entries and preserve the sum")
    return MontesinosTangle(tuple(s + d for s, d in zip(tangle.entries, deltas)))


def twist_tangle(tangle: MontesinosTangle, m: int) -> MontesinosTangle:
    """The meridional twist move t -> 1/(2m + 1/t) on a single-entry tangle."""
    if len(tangle.entries) != 1:
        raise ValueError("the twist move applies to single-entry tangles")
    image = (tangle.entries[0].reciprocal() + 2 * m).reciprocal()
    if image.q == 0:
        # Only degenerate entries t = -1/(2m) reach this; the image is the
        # infinite tangle, which is not a Montesinos entry.
        raise ValueError("the twist move lands on the infinite tangle")
    return MontesinosTangle((image,))


# The moves to the four reverse/mirror images whose keys `_reduce` lists.
_VARIANT_MOVES = ((), (Move("reverse"),), (_MIRROR,), (_MIRROR, Move("reverse")))


def _reduce(tangle: MontesinosTangle) -> tuple[tuple, tuple[Move, ...]]:
    """The tangle's canonical signature, which two tangles share exactly when
    they are equivalent, and the moves that reduce it to canonical form: the
    moves of the classifier's reduction (`classify._reduce`, listed by
    `reduction_moves`) and then, for two or more fractional entries, the
    reverse/mirror step to the variant of the reduced normal form with the
    smallest key."""
    nf, _, _, slope_map = _classify_reduce(0, tangle, closure_facts(tangle.entries, 0)[1])
    moves = reduction_moves(tangle.entries, nf, slope_map)
    if nf.degenerate:
        t = nf.as_tangle().entries[0]  # 0 or 1/q; the signature is q's parity
        return ("degenerate", t.q % 2 if t.p else "zero"), moves
    if nf.k1 is not None:
        return ("single", (nf.k1.t.p, nf.k1.t.q)), moves
    forms = [(nf.fracs, nf.e0), (tuple(-f + 1 for f in nf.fracs), -nf.e0 - len(nf.fracs))]
    if slope_map.sigma < 0:  # the reduction mirrored a (-3, 2) pretzel
        forms.reverse()
    keys = [(e0, tuple((f.p, f.q) for f in order)) for fracs, e0 in forms
            for order in (fracs, fracs[::-1])]
    key = min(keys)
    return ("multi", key), moves + _VARIANT_MOVES[keys.index(key)]


def equivalent(t1: MontesinosTangle, t2: MontesinosTangle) -> list[Move] | None:
    """Decide equivalence under the four moves; return a witness or None.

    The decision compares canonical signatures, which is complete, so the
    witness search never has to explore deep move sequences: it is assembled
    from each side's reduction, so it starts with the moves of t1's analysis.
    """
    signature, left = _reduce(t1)
    other, right = _reduce(t2)
    if signature != other:
        return None
    # Moves from t1 down to canonical form, then t2's reduction undone:
    # shift, reverse and mirror are involutions, a twist is undone by its
    # negative.
    return list(left) + [
        Move("twist", -move.amount, -move.shift) if move.kind == "twist" else move
        for move in reversed(right)
    ]
