"""The equivalence moves on Montesinos tangles, and equivalence with witnesses.

Two Montesinos tangles are equivalent when one is carried to the other by a
composition of four moves: entrywise integer shifts with fixed total sum
(zero entries may be added or deleted), reversal of the entry order, the
mirror image (entrywise negation), and, for tangles reducible to a single
rational entry, the meridional twist t -> 1/(2m + 1/t).  `equivalent`
decides it from the normal forms of `tangles.normalize` and returns the
moves as a witness.  No CLI request applies a move: the classifier reads the
normal form alone, so this module loads only when one of its names is used.
"""
from __future__ import annotations

from .slopes import Record
from .tangles import MontesinosTangle, NormalForm, normalize, shift_reduced


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


class Move(Record):
    """One equivalence move: `kind` is "shift", "reverse", "mirror" or
    "twist", and `amount` the m of a twist (0 for the other kinds)."""

    __slots__ = ("kind", "amount")
    _defaults = (0,)

    def __str__(self) -> str:
        if self.kind == "twist":
            return f"twist m={self.amount}"
        if self.kind == "shift":
            return "integer shifts (sum preserved, zero entries dropped)"
        return self.kind


def _nf_variants(nf: NormalForm):
    """Normal forms of the four reverse/mirror images of a multi-entry tangle."""
    fracs, e0 = nf.fracs, nf.e0
    mirrored = tuple(-f + 1 for f in fracs)
    mirrored_e0 = -e0 - len(fracs)
    yield fracs, e0
    yield tuple(reversed(fracs)), e0
    yield mirrored, mirrored_e0
    yield tuple(reversed(mirrored)), mirrored_e0


# The moves taking a tangle to each of its images in `_nf_variants`.
_VARIANT_MOVES = ((), (Move("reverse"),), (Move("mirror"),), (Move("mirror"), Move("reverse")))


def _reduce(tangle: MontesinosTangle) -> tuple[tuple, list[Move]]:
    """The tangle's canonical signature, which two tangles share exactly when
    they are equivalent, and the moves that reduce it to canonical form."""
    nf = normalize(tangle)
    moves = [] if shift_reduced(tangle.entries) else [Move("shift")]
    if nf.degenerate:
        t = nf.as_tangle().entries[0]  # 0 or 1/q; the signature is q's parity
        return ("degenerate", t.q % 2 if t.p else "zero"), moves
    if nf.k1 is not None:
        if nf.k1.mirrored:
            moves.append(Move("mirror"))
        if nf.k1.twists:
            moves.append(Move("twist", nf.k1.twists))
        return ("single", (nf.k1.t.p, nf.k1.t.q)), moves
    keys = [(e0, tuple((f.p, f.q) for f in fracs)) for fracs, e0 in _nf_variants(nf)]
    key = min(keys)
    moves.extend(_VARIANT_MOVES[keys.index(key)])
    return ("multi", key), moves


def equivalent(t1: MontesinosTangle, t2: MontesinosTangle) -> list[Move] | None:
    """Decide equivalence under the four moves; return a witness or None.

    The decision compares canonical signatures, which is complete, so the
    witness search never has to explore deep move sequences: it is assembled
    from each side's reduction to canonical form.
    """
    signature, left = _reduce(t1)
    other, right = _reduce(t2)
    if signature != other:
        return None
    # Moves from t1 down to canonical form, then t2's reduction undone:
    # shift, reverse and mirror are involutions, a twist is undone by its
    # negative.
    return left + [
        Move("twist", -move.amount) if move.kind == "twist" else move
        for move in reversed(right)
    ]
