"""Exhaustive enumeration of monotone maps between finite posets.

This is the brute-force oracle the rest of the library is checked against:
a plain backtracking search with no closed-form shortcuts. One search,
`_leaf_masks`, serves both public entry points. It assigns the elements
along the admissible numbering, so every order constraint against
already-assigned elements narrows a candidate mask the moment an element
comes up. At the last position it hands back that element's whole mask of
allowed values instead of branching on each one: `iter_hom_values` expands
the mask in ascending bit order, and `count_homs` adds up its popcount.

Besides checking the rest of the library, `count_homs` computes two of its
results: `euler_hom` into a non-chain base and `count_components`, which
are counts of base maps (see euler).
"""

from __future__ import annotations

from collections import namedtuple

from .posets import FinitePoset, admissible_numbering

__all__ = ["STRICT", "WEAK", "MonotoneMap", "enumerate_homs",
           "iter_hom_values", "count_homs"]

STRICT = "strict"
WEAK = "weak"


class MonotoneMap(namedtuple("MonotoneMap", "source target values mode")):
    """A monotone map between finite posets.

    ``values[i]`` is the target element index assigned to source element i
    (source input order). In strict mode comparable source pairs map to
    strictly comparable targets; in weak mode equal targets are also allowed.
    An immutable named tuple: iterable, and equal to the plain tuple
    ``(source, target, values, mode)``.
    """

    __slots__ = ()

    def image_elements(self) -> tuple:
        """Target element identifiers, one per source element."""
        return tuple(self.target.elements[v] for v in self.values)


def _check_mode(mode: str):
    if mode not in (STRICT, WEAK):
        raise ValueError(f"mode must be {STRICT!r} or {WEAK!r}, got {mode!r}")


def _leaf_masks(P: FinitePoset, Q: FinitePoset, mode: str, values: list):
    """Depth-first search over the monotone maps P -> Q, for nonempty P.

    For every assignment of all but the last element of the admissible
    numbering that extends to a map, the assignment is left in ``values``
    (indexed by source element) and the nonempty bitmask of the values the
    last element may take is yielded. Assignments come in lexicographic
    order of the values read along the numbering.
    """
    if mode == WEAK:
        allow = [s | (1 << w) for w, s in enumerate(Q.succ_masks)]
    else:
        allow = Q.succ_masks
    order = admissible_numbering(P).order
    full = (1 << len(Q)) - 1
    pred = P.pred_masks
    last = len(order) - 1
    todo = [0] * last   # per position before the last: values not yet tried
    a = 0
    while True:
        mask = full
        m = pred[order[a]]
        while m and mask:
            mask &= allow[values[(m & -m).bit_length() - 1]]
            m &= m - 1
        if a == last:
            if mask:
                yield mask
            a -= 1
        else:
            todo[a] = mask
        while a >= 0 and not todo[a]:
            a -= 1
        if a < 0:
            return
        bit = todo[a] & -todo[a]
        todo[a] ^= bit
        values[order[a]] = bit.bit_length() - 1
        a += 1


def iter_hom_values(P: FinitePoset, Q: FinitePoset, mode: str):
    """Yield the raw value tuple of every monotone map P -> Q.

    The CLI lists maps and draws random base maps from it;
    `enumerate_homs` is the public wrapper that attaches the map objects.
    """
    _check_mode(mode)
    n = len(P)
    if n == 0:
        yield ()
        return
    values = [0] * n
    last = admissible_numbering(P).order[-1]
    for mask in _leaf_masks(P, Q, mode, values):
        while mask:
            bit = mask & -mask
            values[last] = bit.bit_length() - 1
            yield tuple(values)
            mask ^= bit


def enumerate_homs(P: FinitePoset, Q: FinitePoset, mode: str):
    """Yield every monotone map P -> Q of the given mode exactly once.

    Backtracking assigns elements in admissible-numbering order and prunes a
    partial assignment as soon as it violates a constraint against an
    already-assigned predecessor. Maps come out in lexicographic order of
    the value sequence read along that numbering (the values array itself,
    whenever the input element order is a linear extension).
    """
    for values in iter_hom_values(P, Q, mode):
        yield MonotoneMap(P, Q, values, mode)


def count_homs(P: FinitePoset, Q: FinitePoset, mode: str) -> int:
    """Number of monotone maps P -> Q, via the same search as
    `enumerate_homs`, summing the popcounts of its last-position masks."""
    _check_mode(mode)
    if len(P) == 0:
        return 1
    return sum(mask.bit_count() for mask in _leaf_masks(P, Q, mode, [0] * len(P)))
