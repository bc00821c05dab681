"""The equivalence moves on Montesinos tangles, and equivalence with witnesses.

Two Montesinos tangles are equivalent when one is carried to the other by a
composition of four moves: entrywise integer shifts with fixed total sum
(zero entries may be added or deleted), reversal of the entry order, the
mirror image (entrywise negation), and, for tangles reducible to a single
rational entry, the meridional twist t -> 1/(2m + 1/t).  `equivalent`
decides it from the classifier's reduction (`classify._reduce`) and returns
a witness that starts with the `Move` records `--moves` prints, derived from
the reduction's slope map by the one helper `classify._moves` (`Move` is
defined in `wrapsurg.tangles` and re-exported here).  No request applies a
move, so this module loads only when one of its names is used.
"""
from __future__ import annotations

from .classify import _moves, _reduce as _classify_reduce
from .tangles import MontesinosTangle, Move, closure_facts


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
_VARIANT_MOVES = ((), (Move("reverse"),), (Move("mirror"),), (Move("mirror"), Move("reverse")))


def _reduce(tangle: MontesinosTangle) -> tuple[tuple, tuple[Move, ...]]:
    """The tangle's canonical signature, which two tangles share exactly when
    they are equivalent, and the moves that reduce it to canonical form: the
    moves of the classifier's reduction (`classify._reduce`, listed by
    `classify._moves`) and then, for two or more fractional entries, the
    reverse/mirror step to the variant of the reduced normal form with the
    smallest key."""
    nf, _, _, slope_map = _classify_reduce(0, tangle, closure_facts(tangle.entries, 0)[1])
    moves = _moves(tangle.entries, nf, slope_map)
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
