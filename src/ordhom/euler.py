"""Euler characteristics of monotone-map spaces into lexicographic products.

The space of monotone maps from a finite poset P into Q0 x R^k (lex order,
Q0 finite discrete) is carved into cells as follows.

Fiber splitting (the core lemma of this module): a lex-monotone map is a
weakly monotone base map into Q0 together with, independently for each of
its fibers, a monotone map of the fiber subposet into R^k. Distinct base
maps give disjoint clopen pieces, so Euler characteristics add over base
maps and multiply over fibers.

Real part, one coordinate at a time: maps of a finite poset F into R are
stratified by the ordered set partition recording which elements share a
value and how the values are ordered. A stratum with b blocks is an open
cell homeomorphic to R^b, contributing (-1)**b. Nonempty strata are exactly
the partitions compatible with F (no element below a member of an earlier
block), and within each block the remaining k-1 lex coordinates must again
form a monotone map of the block subposet, giving the recursion computed
here. Strict monotonicity needs no extra filtering: a block containing a
comparable pair forces the recursion's k = 0 base case to report an empty
stratum unless some later coordinate separates the pair.

Down-set chains, one engine for three results: an ordered set partition
whose blocks come in value order is a chain of down-sets
0 < I_1 < ... < I_j = P. Give each block the Euler characteristic of its
maps into R^k as a weight, and let e_j sum, over the chains with j blocks,
the product of the block weights (`_chain_sums`). Then
sum_j e_j C(m, j) counts into chain(m) x R^k (j of the m base values are
hit, in order), and C(-1, j) = (-1)**j turns the same sum into the Euler
characteristic of the maps into R^(k+1). So `order_polynomial` reads the
k = 0 vector in the binomial basis, `_euler_real` evaluates it at -1 for
the next depth, and `euler_hom` reads it at m = |Q0| when Q0 is a chain.
Non-chain bases keep the fiber sum over weak base maps.

Memos: `_chain_sums` memoizes its vector on the remaining up-set within one
call. `_euler_real` keeps the Euler characteristic of each subposet it has
met in the module-level `_MEMO`, keyed on the renumbered predecessor masks,
depth and mode, and it grows across calls. Memo access is a single dict
get/set of an idempotent value, which is safe under CPython's GIL; no other
shared state exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import DepthUnsupported
from .homs import STRICT, WEAK, _check_mode, count_homs, iter_hom_values
from .posets import FinitePoset, LexPoset, _mask_bits, negate

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


@dataclass(frozen=True)
class OrderedSetPartition:
    """Ordered disjoint blocks of element indices covering the whole poset.

    Block order is value order: earlier blocks carry smaller real values.
    """

    blocks: tuple


def _down_steps(preds, remaining: int):
    """Yield every nonempty down-set of the subposet induced on
    ``remaining``: each subset holding every still-remaining strict
    predecessor of each of its members, in increasing mask order. These are
    the possible next blocks of an ordered set partition of ``remaining``.
    """
    s = 0
    while True:
        s = (s - remaining) & remaining
        if s == 0:
            return
        rest = remaining & ~s
        m = s
        while m:
            if preds[(m & -m).bit_length() - 1] & rest:
                break
            m &= m - 1
        else:
            yield s


def compatible_preorders(P: FinitePoset):
    """All ordered set partitions of P's indices whose block order respects
    P: a strictly smaller element never sits in a strictly later block.

    Blocks are chosen left to right, each one a step of `_down_steps` from
    what the earlier blocks leave.
    """
    preds = P.pred_masks

    def rec(remaining, blocks):
        if remaining == 0:
            yield OrderedSetPartition(blocks)
            return
        for s in _down_steps(preds, remaining):
            yield from rec(remaining & ~s, blocks + (tuple(_mask_bits(s)),))

    yield from rec((1 << len(P)) - 1, ())


def _restrict_preds(preds, mask: int):
    """Predecessor masks of the induced subposet on ``mask``, renumbered to
    0..m-1 in ascending index order (the memo key for that subposet)."""
    idx = _mask_bits(mask)
    pos = {i: a for a, i in enumerate(idx)}
    out = []
    for i in idx:
        pm = preds[i] & mask
        new = 0
        while pm:
            j = (pm & -pm).bit_length() - 1
            new |= 1 << pos[j]
            pm &= pm - 1
        out.append(new)
    return tuple(out)


def _has_comparable_pair(preds, mask: int) -> bool:
    m = mask
    while m:
        i = (m & -m).bit_length() - 1
        if preds[i] & mask:
            return True
        m &= m - 1
    return False


def _chain_sums(preds, k: int, mode: str, top: int, steps=None) -> list:
    """The vector (e_0, ..., e_top) of the poset given by ``preds``, cut
    off at its size n when top > n.

    e_j sums, over the chains of down-sets 0 < I_1 < ... < I_j = P, the
    product of the weights of the blocks I_i minus I_(i-1). The weight of a
    block is the Euler characteristic of its maps into R^k: for k = 0, 1 in
    weak mode and in strict mode 1 exactly when the block is an antichain.

    The vector of each remaining up-set is computed once, up to the most
    blocks its chains may have: top for the whole poset, top - 1 below it.
    An up-set allowed one block is not walked, its vector is its weight; so
    top = 0 or 1 walks nothing at depth k, and top = 2 walks only the whole
    poset's down-steps, taking the same weights as the fiber sum.

    For k >= 1 the whole poset is a block too, and its weight runs this
    walk one depth lower on the same ``preds``; ``steps`` keeps each
    up-set's down-steps for that run, so no up-set is walked twice.
    """
    n = len(preds)
    full = (1 << n) - 1
    top = min(top, n)
    if k and steps is None:
        steps = {}
    weights = {}
    memo = {0: [1]}

    def weight(s):
        w = weights.get(s)
        if w is None:
            if k == 0:
                w = 1 if mode == WEAK or not _has_comparable_pair(preds, s) else 0
            elif s == full:
                w = _euler_real(preds, k, mode, steps)
            else:
                w = _euler_real(_restrict_preds(preds, s), k, mode)
            weights[s] = w
        return w

    def down_steps(remaining):
        if steps is None:
            return _down_steps(preds, remaining)
        hit = steps.get(remaining)
        if hit is None:
            hit = steps[remaining] = tuple(_down_steps(preds, remaining))
        return hit

    def rec(remaining):
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        # below the first block a chain has at most top - 1 blocks left
        b = min(top if remaining == full else top - 1, remaining.bit_count())
        if b <= 1:
            out = [0, weight(remaining)] if b else [0]
        else:
            out = [0] * (b + 1)
            for s in down_steps(remaining):
                w = weight(s)
                if w:
                    sub = rec(remaining & ~s)
                    for j in range(min(len(sub), b)):
                        out[j + 1] += w * sub[j]
        memo[remaining] = out
        return out

    return rec(full)


_MEMO = {}


def _euler_real(preds, k: int, mode: str, steps=None) -> int:
    """Euler characteristic of the monotone maps of the poset given by
    ``preds`` into R^k with lexicographic order.

    The strata of the first coordinate are the chains of down-sets: one
    with j blocks is an open cell R^j, times the maps of its blocks into
    the other k-1 coordinates. So the result is the alternating sum of
    `_chain_sums` at depth k-1, which ``steps`` is passed on to.

    That sum weighs the whole poset at depth k-1, so the depths below k
    missing from `_MEMO` are filled first, in ascending order: each then
    finds the one below it there, and the call stack does not grow with k.
    """
    key = (preds, k, mode)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    if k == 0:
        result = 1 if mode == WEAK or not any(preds) else 0
    else:
        if k > 1:
            if steps is None:
                steps = {}
            low = k - 1
            while low > 1 and (preds, low, mode) not in _MEMO:
                low -= 1
            for d in range(low, k):
                _euler_real(preds, d, mode, steps)
        e = _chain_sums(preds, k - 1, mode, len(preds), steps)
        result = sum(-c if j & 1 else c for j, c in enumerate(e))
    _MEMO[key] = result
    return result


def euler_hom_real(P: FinitePoset, k: int, mode: str) -> int:
    """Euler characteristic of the strict or weak monotone maps P -> R^k
    (lexicographic order, k real coordinates)."""
    _check_mode(mode)
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _euler_real(tuple(P.pred_masks), k, mode)


def _fiber_sum(P: FinitePoset, Q: LexPoset, mode: str) -> int:
    """`euler_hom` by fiber splitting over the weakly monotone base maps,
    for any base."""
    preds = P.pred_masks
    total = 0
    for values in iter_hom_values(P, Q.base, WEAK):
        fibers = {}
        for i, v in enumerate(values):
            fibers[v] = fibers.get(v, 0) | (1 << i)
        prod = 1
        for mask in fibers.values():
            f = _euler_real(_restrict_preds(preds, mask), Q.depth, mode)
            if f == 0:
                prod = 0
                break
            prod *= f
        total += prod
    return total


def euler_hom(P: FinitePoset, Q: LexPoset, mode: str) -> int:
    """Euler characteristic of the monotone maps from P into the lex
    product Q.

    For a chain base of m elements this is sum_j e_j C(m, j) over the
    down-set chains of P (`_chain_sums`); other bases take the fiber sum
    over weakly monotone base maps.
    """
    _check_mode(mode)
    if not Q.base.is_chain():
        return _fiber_sum(P, Q, mode)
    m = len(Q.base)
    e = _chain_sums(P.pred_masks, Q.depth, mode, m)
    return sum(c * comb(m, j) for j, c in enumerate(e))


@dataclass(frozen=True)
class EulerReport:
    """One side-by-side Euler characteristic comparison."""

    identity: str
    lhs: int
    rhs: int
    holds: bool


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
    """Number of connected components of the monotone maps P -> Q, for lex
    depth at most 1.

    At depth 0 the space is finite and discrete. At depth 1 it splits into
    one clopen piece per weakly monotone base map P -> Q0. Over a fixed base
    map the reals form a convex cone, cut out by t_x <= t_y (weak) or
    t_x < t_y (strict) for x < y in the same fiber, and it is nonempty in
    either mode (number the fiber along a linear extension). So each piece
    is connected and the components are the weak base maps. Deeper targets
    raise DepthUnsupported.
    """
    _check_mode(mode)
    if Q.depth > 1:
        raise DepthUnsupported("component counting supports depth <= 1")
    return count_homs(P, Q.base, mode if Q.depth == 0 else WEAK)
