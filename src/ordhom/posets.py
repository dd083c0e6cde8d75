"""Finite posets, admissible numberings, and lexicographic real extensions.

A finite poset stores its order once, as per-element bitmasks of its strict
successors and predecessors (for O(1) order queries and the enumeration
engines). Its Hasse diagram (cover pairs, for I/O) is derived from the
masks when read.
`LexPoset` wraps a finite poset Q0 together with a depth k and denotes
Q0 x R^k ordered lexicographically, leftmost coordinate most significant.
Each application of `negate` appends one real coordinate; the Euler
characteristic picks up a factor of -1 per coordinate.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import CycleError, UnknownElement

__all__ = [
    "FinitePoset",
    "LexPoset",
    "Numbering",
    "build_poset",
    "chain",
    "antichain",
    "admissible_numbering",
    "negate",
    "euler_char",
    "all_posets",
    "random_poset",
]


class FinitePoset:
    """A finite set with a strict partial order.

    Attributes:
        elements: tuple of element identifiers (opaque strings).
        covers: read-only tuple of (a, b) pairs, the transitive reduction of
            the order, named from ``_cover_pairs`` on each read and listed
            in row-major (i, j) order of element indices.
        pred_masks / succ_masks: per-element bitmasks of strict predecessors
            and successors; bit j of ``succ_masks[i]`` is set iff
            ``elements[i] < elements[j]`` strictly.
        strict_leq: read-only boolean matrix derived from ``succ_masks``, as
            a tuple of row tuples; entry [i][j] is True iff
            ``elements[i] < elements[j]`` strictly.

    Two private slots keep work done on the poset, and take no part in
    equality or hashing: ``_numbering``, the admissible numbering once
    computed, and ``_chains``, per mode the longest vector of down-set
    chain counts ``(e_0, ..., e_top)`` that ``orderpoly._chain_sums`` has
    computed, so that the order polynomials and every Euler characteristic
    into a chain base read one vector per mode (n + 1 integers at most).
    """

    __slots__ = ("elements", "_index", "pred_masks", "succ_masks",
                 "_numbering", "_chains")

    def __init__(self, elements, succ_masks):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.succ_masks = tuple(succ_masks)
        pred = [0] * len(self.elements)
        for i, s in enumerate(self.succ_masks):
            for j in _mask_bits(s):
                pred[j] |= 1 << i
        self.pred_masks = tuple(pred)
        self._numbering = None   # filled in by admissible_numbering
        self._chains = {}        # filled in by orderpoly._chain_sums

    @property
    def covers(self) -> tuple:
        names = self.elements
        return tuple((names[i], names[j]) for i, j in _cover_pairs(self))

    @property
    def strict_leq(self) -> tuple:
        n = len(self.elements)
        return tuple(tuple(bool(s >> j & 1) for j in range(n))
                     for s in self.succ_masks)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return (self.elements == other.elements
                and self.succ_masks == other.succ_masks)

    def __hash__(self):
        return hash((self.elements, self.succ_masks))

    def __repr__(self):
        return f"FinitePoset(elements={list(self.elements)!r}, covers={list(self.covers)!r})"

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElement(f"unknown element {element!r}") from None

    def less(self, i: int, j: int) -> bool:
        """Strict comparison by element indices."""
        return bool(self.succ_masks[i] >> j & 1)

    def is_chain(self) -> bool:
        """True iff every pair of distinct elements is comparable."""
        full = (1 << len(self)) - 1
        return all(p | s | 1 << i == full for i, (p, s)
                   in enumerate(zip(self.pred_masks, self.succ_masks)))

    def restrict(self, indices) -> "FinitePoset":
        """Induced subposet on the given element indices (kept in ascending
        index order).

        Raises:
            UnknownElement: an index repeats or is outside range(len(self)).
        """
        idx = sorted(indices)
        if len(set(idx)) < len(idx) or idx and not 0 <= idx[0] <= idx[-1] < len(self):
            raise UnknownElement(f"restrict needs distinct indices in range({len(self)}), "
                                 f"got {idx!r}")
        sub = [sum(1 << b for b, j in enumerate(idx) if self.succ_masks[i] >> j & 1)
               for i in idx]
        return FinitePoset([self.elements[i] for i in idx], sub)


def _mask_bits(mask: int):
    """Indices of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _cover_pairs(P: FinitePoset) -> list:
    """Index pairs (i, j) with j covering i, in row-major order: i < j is a
    cover iff no successor of i is a predecessor of j."""
    pred = P.pred_masks
    return [(i, j) for i, s in enumerate(P.succ_masks)
            for j in _mask_bits(s) if not s & pred[j]]


def _down_sets(preds, order) -> list:
    """The down-sets of the order with strict-predecessor masks ``preds``,
    along its linear extension ``order``: each x joins every down-set built
    so far that holds all predecessors of x. The first is empty, the last
    is the whole set."""
    J = [0]
    for x in order:
        bit = 1 << x
        J += [I | bit for I in J if not preds[x] & ~I]
    return J


def build_poset(elements, covers) -> FinitePoset:
    """Construct a finite poset from element names and cover pairs.

    The cover list may be any relation whose transitive closure is a strict
    order; the poset's ``covers`` are its transitive reduction.

    Raises:
        UnknownElement: a cover pair names a missing element, or names repeat.
        CycleError: the closure of the cover relation is not irreflexive.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise UnknownElement("element identifiers must be distinct")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    succ = [0] * n
    for a, b in covers:
        if a not in index:
            raise UnknownElement(f"unknown element {a!r} in cover pair")
        if b not in index:
            raise UnknownElement(f"unknown element {b!r} in cover pair")
        succ[index[a]] |= 1 << index[b]
    # Warshall: after round k, succ[i] holds every j reachable from i
    # through intermediate elements drawn from 0..k
    for k in range(n):
        bit, sk = 1 << k, succ[k]
        for i in range(n):
            if succ[i] & bit:
                succ[i] |= sk
    if any(s >> i & 1 for i, s in enumerate(succ)):
        raise CycleError("cover relation contains a cycle")
    return FinitePoset(elements, succ)


def _labels(n: int) -> list:
    """Element names "1".."n" of the generated posets."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [str(i + 1) for i in range(n)]


def chain(n: int) -> FinitePoset:
    """The totally ordered poset on elements "1" < "2" < ... < "n"."""
    elements = _labels(n)
    return build_poset(elements, [(elements[i], elements[i + 1])
                                  for i in range(n - 1)])


def antichain(n: int) -> FinitePoset:
    """n pairwise incomparable elements."""
    return build_poset(_labels(n), [])


class Numbering(namedtuple("Numbering", "order")):
    """A linear extension of a poset, as a permutation of element indices.

    ``order[a]`` is the element index placed at position a; for positions
    a < b the element at b is never below the element at a. An immutable
    named tuple: iterable, and equal to the plain tuple ``(order,)``.
    """

    __slots__ = ()


def admissible_numbering(P: FinitePoset) -> Numbering:
    """Linear extension by repeated removal of minimal elements.

    Ties are broken by input element order, so the result is deterministic.
    It is computed once per poset and kept on it.
    """
    if P._numbering is not None:
        return P._numbering
    n = len(P)
    remaining = (1 << n) - 1
    pred = P.pred_masks
    order = []
    while remaining:
        for i in range(n):
            if remaining >> i & 1 and not pred[i] & remaining:
                order.append(i)
                remaining &= ~(1 << i)
                break
    P._numbering = Numbering(tuple(order))
    return P._numbering


class LexPoset(namedtuple("LexPoset", "base depth", defaults=(0,))):
    """The poset ``base x R^depth`` with lexicographic order.

    Comparison is leftmost-significant: base first, then the real
    coordinates in order. depth = 0 is order-isomorphic to ``base``; a
    depth that is not a nonnegative int raises ValueError. An immutable
    named tuple: iterable, and equal to the plain tuple ``(base, depth)``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        Q = super().__new__(cls, *args, **kwargs)
        if not _is_count(Q.depth):
            raise ValueError(f"depth must be a nonnegative int, got {Q.depth!r}")
        return Q

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def _is_count(x) -> bool:
    """True for an int >= 0 that is not a bool: a depth or a count of reals."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def negate(Q: LexPoset) -> LexPoset:
    """Append one lexicographic real coordinate (the reciprocity negation)."""
    return LexPoset(Q.base, Q.depth + 1)


def euler_char(Q: LexPoset) -> int:
    """Euler characteristic of the lex product: (-1)**depth * |base|.

    A finite discrete poset contributes its cardinality; each real line
    factor contributes -1 multiplicatively.
    """
    return (-1) ** Q.depth * len(Q.base)


def all_posets(n: int):
    """Yield every strict partial order on n labeled elements "1".."n".

    Exhaustive generation by one-point extension (Brinkmann and McKay,
    "Posets on up to 16 points", Order 19, 2002): an order on the first
    m + 1 labels restricts to one order on the first m, and places label
    m + 1 above a down-set D and below an up-set U of it, where every
    element of D is below every element of U (so D and U are disjoint).
    Every such pair (D, U) gives a new order. The up-sets are the down-sets
    of the dual, along ascending successor count (x < y makes succ[x] a
    strict superset of succ[y]). The orders are built level by level up to
    n, then sorted and yielded in ascending order of their relation
    bitmask: bit i*(n-1) + c is the pair (i, j), j the c-th element other
    than i. The count grows as 1, 1, 3, 19, 219, 4231, 130023, ...
    A negative n raises ValueError on the first ``next()``.
    """
    elements = _labels(n)
    level = [()]
    for m in range(n):
        bit = 1 << m
        grown = []
        for succ in level:
            ups = _down_sets(succ, sorted(range(m), key=lambda i: succ[i].bit_count()))
            for D in ((bit - 1) ^ U for U in ups):
                above = bit - 1
                for d in _mask_bits(D):
                    above &= succ[d]
                lower = tuple(s | bit if D >> i & 1 else s
                              for i, s in enumerate(succ))
                grown += [lower + (U,) for U in ups if not U & ~above]
        level = grown
    # row i of the bitmask is succ[i] with bit i squeezed out
    level.sort(key=lambda succ: sum(
        ((s & (1 << i) - 1) | (s >> i + 1 << i)) << i * (n - 1)
        for i, s in enumerate(succ)))
    for succ in level:
        yield FinitePoset(elements, succ)


def random_poset(n: int, seed: int, edge_prob: float = 0.5) -> FinitePoset:
    """Seeded random poset on n elements.

    Draws a random total order (a shuffle), includes each forward edge of
    that order independently with probability ``edge_prob``, and takes the
    transitive closure. Reproducible from the seed alone.
    """
    elements = _labels(n)
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    covers = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                covers.append((elements[perm[a]], elements[perm[b]]))
    return build_poset(elements, covers)
