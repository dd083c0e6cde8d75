"""Euler characteristics of monotone-map spaces into lexicographic products.

The space of monotone maps from a finite poset P into Q0 x R^k (lex order,
Q0 finite discrete) is carved into cells as follows.

Fiber splitting (the core lemma of this module): a lex-monotone map is a
weakly monotone base map into Q0 together with, independently for each of
its fibers, a monotone map of the fiber subposet into R^k. Distinct base
maps give disjoint clopen pieces, so Euler characteristics add over base
maps and multiply over fibers.

Real part, in closed form. Let chi_k(B) be the Euler characteristic of the
monotone maps of a block B into R^k, in a given mode.
- Strata. The maps of B into R are stratified by the chain of down-sets
  0 < I_1 < ... < I_j = B that their value levels cut out. The stratum of
  a chain with j blocks is an open cell R^j times, for each block, the maps
  of the block into the other k-1 coordinates. So chi_k(B) is the
  alternating sum over these chains of the product of chi_(k-1) of their
  blocks.
- Depth 0. There is one map to a point: it is monotone in weak mode, and
  in strict mode exactly when B is an antichain.
- Depth 1. The maps form a convex cone in R^|B|. In weak mode it is the
  closed cone t_x <= t_y for x < y. A closed cone that is not a subspace
  has Euler characteristic 0: it is a subspace times a pointed cone, which
  is its apex plus an open ray times a compact ball, 1 - 1. This cone is a
  subspace, R^|B|, exactly when B is an antichain. In strict mode it is a
  nonempty open cone of dimension |B|, homeomorphic to R^|B|. So chi_1(B)
  is (-1)**|B| times chi_0(B) of the other mode.
- Period 2. With chi_0 as block weights, the strata sum is the order
  polynomial of B at t = -1. With chi_1 as weights, the block signs of
  each chain multiply to (-1)**|B|, and the sum is (-1)**|B| times the
  other mode's order polynomial at -1, which Stanley reciprocity turns
  into chi_0(B). So chi_2 = chi_0, and by induction chi_k = chi_(k mod 2):
  at even k, 1 in weak mode and in strict mode 1 exactly for an antichain;
  at odd k, (-1)**|B| times the even value of the other mode.

A signed count of base maps. At even depth a fiber weighs 1 in weak mode,
and in strict mode 1 exactly when it is an antichain; a weakly monotone
base map whose fibers are all antichains is a strict map. So the product
over the fibers of a base map is 1 on the base maps of the mode and 0 on
the others. At odd depth it is the other mode's, times fiber signs that
multiply to (-1)**|P|. Summed over the base maps,
chi(maps P -> Q0 x R^k) = s * #(mode' maps P -> Q0) with
(s, mode') = `_to_depth_zero(|P|, k, mode)`. At k = 1 in weak mode this is
the identity the paper refines,
chi(weak maps P -> Q0 x R) = (-1)**|P| * #(strict maps P -> Q0).

Down-set chains, one engine for two results: an ordered set partition
whose blocks come in value order is a chain of down-sets
0 < I_1 < ... < I_j = P. Let e_j count the chains with j blocks, in strict
mode only those whose blocks are antichains. Then sum_j e_j C(m, j) counts
the maps into chain(m) (j of the m values are hit, in order). The engine,
`orderpoly._chain_sums`, counts the chains by a zeta transform on the
down-set lattice J(P); `order_polynomial` reads its vector in the binomial
basis, and `euler_hom` reads it at m = |Q0| when Q0 is a chain, building
J(P) only when m >= 2. `compatible_preorders` lists the weak chains by
walking the same lattice. One function, `posets._down_sets`, builds J(P)
for both. Other bases count their maps by backtracking (`count_homs`).

State between calls lives on the poset. `_chain_sums` keeps on P the
longest vector (e_0, ..., e_top) it has computed per mode
(`FinitePoset._chains`), and answers a call with a smaller top by a copy
of its prefix. So the order polynomials of P and its Euler characteristics
into every chain base, at any depth, read one vector per mode.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .homs import STRICT, WEAK, _check_mode, count_homs
from .orderpoly import _chain_sums
from .posets import (FinitePoset, LexPoset, _down_sets, _mask_bits,
                     admissible_numbering, chain, negate)

__all__ = [
    "OrderedSetPartition",
    "EulerReport",
    "STRICT_TO_NEGATED_WEAK",
    "NEGATED_STRICT_TO_WEAK",
    "compatible_preorders",
    "euler_hom_real",
    "euler_hom",
    "check_euler_reciprocity",
    "count_components",
]

STRICT_TO_NEGATED_WEAK = "strict_to_negated_weak"
NEGATED_STRICT_TO_WEAK = "negated_strict_to_weak"


class OrderedSetPartition(namedtuple("OrderedSetPartition", "blocks")):
    """Ordered disjoint blocks of element indices covering the whole poset.

    Block order is value order: earlier blocks carry smaller real values.
    An immutable named tuple: iterable, and equal to the plain tuple
    ``(blocks,)``.
    """

    __slots__ = ()


def compatible_preorders(P: FinitePoset):
    """All ordered set partitions of P's indices whose block order respects
    P: a strictly smaller element never sits in a strictly later block.

    They are the weak down-set chains 0 < I_1 < ... < I_j = P that
    `orderpoly._chain_sums` counts, listed by walking J(P) from the empty
    set to each strictly larger down-set D in ascending mask order, so they
    come in ascending order as tuples of block masks.
    """
    J = sorted(_down_sets(P.pred_masks, admissible_numbering(P).order))

    def rec(k, blocks):
        I = J[k]
        if I == J[-1]:
            yield OrderedSetPartition(blocks)
        for d in range(k + 1, len(J)):   # a strict superset is a larger mask
            if J[d] & I == I:
                yield from rec(d, blocks + (tuple(_mask_bits(J[d] ^ I)),))

    yield from rec(0, ())


def _to_depth_zero(n: int, k: int, mode: str):
    """(sign, mode') with chi_k = sign * chi_0 in mode' for n elements:
    at odd k the other mode and (-1)**n (module docstring)."""
    if k & 1:
        return (-1) ** n, WEAK if mode == STRICT else STRICT
    return 1, mode


def euler_hom_real(P: FinitePoset, k: int, mode: str) -> int:
    """Euler characteristic of the strict or weak monotone maps P -> R^k
    (lexicographic order, k real coordinates): the maps into
    `LexPoset(chain(1), k)`."""
    return euler_hom(P, LexPoset(chain(1), k), mode)


def euler_hom(P: FinitePoset, Q: LexPoset, mode: str) -> int:
    """Euler characteristic of the monotone maps from P into the lex
    product Q: s times the number of mode' maps P -> Q0, with
    (s, mode') = `_to_depth_zero(|P|, depth, mode)` (module docstring).

    For a chain base of m elements the count is sum_j e_j C(m, j) over the
    down-set chains of P (`orderpoly._chain_sums`); other bases count by
    backtracking (`count_homs`).
    """
    _check_mode(mode)
    sign, mode = _to_depth_zero(len(P), Q.depth, mode)
    if not Q.base.is_chain():
        return sign * count_homs(P, Q.base, mode)
    m = len(Q.base)
    e = _chain_sums(P, mode, m)
    return sign * sum(c * comb(m, j) for j, c in enumerate(e))


class EulerReport(namedtuple("EulerReport", "identity lhs rhs holds")):
    """One side-by-side Euler characteristic comparison. An immutable named
    tuple: iterable, and equal to the plain tuple
    ``(identity, lhs, rhs, holds)``."""

    __slots__ = ()


def _report(identity, lhs, rhs):
    return EulerReport(identity, lhs, rhs, lhs == rhs)


def check_euler_reciprocity(P: FinitePoset, Q: LexPoset):
    """Check both reciprocity identities for the pair (P, Q).

    The first report compares the strict maps into Q against the weak maps
    into the negation of Q (scaled by (-1)**|P|); the second swaps the roles
    of Q and its negation. The two are genuinely different statements since
    negation is not an involution.
    """
    sign = (-1) ** len(P)
    first = _report(STRICT_TO_NEGATED_WEAK,
                    euler_hom(P, Q, STRICT),
                    sign * euler_hom(P, negate(Q), WEAK))
    second = _report(NEGATED_STRICT_TO_WEAK,
                     euler_hom(P, negate(Q), STRICT),
                     sign * euler_hom(P, Q, WEAK))
    return first, second


def count_components(P: FinitePoset, Q: LexPoset, mode: str) -> int:
    """Number of connected components of the monotone maps P -> Q.

    At depth 0 the space is finite and discrete. At depth k >= 1 it splits
    into one clopen piece per weakly monotone base map P -> Q0. Over a fixed
    base map the reals form a cone in (R^k)^|P|, cut out by requiring
    t_y - t_x to be lex-nonnegative (weak) or lex-positive (strict) for
    x < y in the same fiber. Both sets of vectors are closed under addition
    and positive scaling, so the cone is convex, and it is nonempty in
    either mode (number the fiber along a linear extension in the first
    coordinate). So each piece is connected and the components are the
    weak base maps.
    """
    _check_mode(mode)
    return count_homs(P, Q.base, mode if Q.depth == 0 else WEAK)
