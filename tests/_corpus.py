"""Shared poset corpus for the polynomial, Euler and acceptance tests, the
falling-factorial oracle for the order polynomial's coefficients, and the
pairwise oracle for the homeomorphism's stage constraints."""

import random
from fractions import Fraction
from math import factorial

from hypothesis import strategies as st

from ordhom import (WEAK, admissible_numbering, all_posets, antichain,
                    build_poset, chain, random_poset)
from ordhom.posets import _down_sets


def small_posets(max_n):
    """Every labeled poset with at most max_n elements."""
    for n in range(max_n + 1):
        yield from all_posets(n)


def relation_filter_posets(n):
    """Every labeled poset on n elements, by filtering all relations over
    ordered pairs of distinct labels for transitivity (with no pair (i, i)
    on offer, that also rules out 2-cycles). They come in ascending order
    of the relation as a bitmask, bit i*(n-1) + c being the pair (i, j), j
    the c-th label other than i: the order `all_posets` yields them in.
    There are 2^(n(n-1)) relations, 1,048,576 at n = 5."""
    elements = [str(i + 1) for i in range(n)]
    width = max(n - 1, 0)
    row_mask = (1 << width) - 1
    for mask in range(1 << (n * width)):
        succ = []
        for i in range(n):
            row = (mask >> (i * width)) & row_mask
            succ.append((row & ((1 << i) - 1)) | ((row >> i) << (i + 1)))
        if any(succ[j] & ~s for s in succ for j in range(n) if s >> j & 1):
            continue
        yield build_poset(elements, [(elements[i], elements[j])
                                     for i in range(n) for j in range(n)
                                     if succ[i] >> j & 1])


def named_five():
    """Hand-picked five-element shapes: chain, antichain, star, bowtie."""
    star = build_poset(list("abcde"),
                       [("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")])
    bowtie = build_poset(list("abcde"),
                         [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
                          ("d", "e")])
    return [chain(5), antichain(5), star, bowtie]


def random_posets(n, count, seed):
    rng = random.Random(seed)
    return [random_poset(n, rng.randrange(1 << 30)) for _ in range(count)]


@st.composite
def posets(draw, max_n):
    """A poset on at most max_n elements: relations drawn between pairs of
    a random linear order, element names listed in another."""
    n = draw(st.integers(0, max_n))
    rank = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    covers = [(str(rank[i]), str(rank[j])) for i, j in pairs if draw(st.booleans())]
    return build_poset([str(x) for x in range(n)], covers)


def two_list_chain_sums(P, mode, top):
    """The vector (e_0, ..., e_top) that `orderpoly._chain_sums` returns,
    by a second transform with one update list per mode, both run in
    reverse numbering order. Weak mode adds g[I minus the up-set of x] for
    every down-set I holding x; strict mode adds g[I minus x] only where x
    is maximal in I. Every top, 0 and 1 too, runs its rounds, and nothing is
    kept on P."""
    order = admissible_numbering(P).order
    J = _down_sets(P.pred_masks, order)
    at = {I: i for i, I in enumerate(J)}
    succs = P.succ_masks
    steps = []
    for x in reversed(order):
        bit = 1 << x
        keep = ~(succs[x] | bit)
        steps += [(i, at[I & keep]) for i, I in enumerate(J)
                  if I & bit and (mode == WEAK or not I & succs[x])]
    f = [0] * len(J)
    f[0] = 1
    e = [f[-1]]
    for _ in range(min(top, len(P))):
        g = f[:]
        for i, k in steps:
            g[i] += g[k]
        f = [a - b for a, b in zip(g, f)]
        e.append(f[-1])
    return e


def power_basis_coefficients(e):
    """The power-basis coefficients of sum_j e[j] C(t, j), constant first,
    by a table of falling factorials t (t-1) ... (t-j+1) over the common
    denominator n!, n = len(e) - 1, with one factorial per term: the
    assembly `orderpoly.order_polynomial` used before its Newton-form
    recurrence. Nothing is trimmed."""
    n = len(e) - 1
    denom = factorial(n)
    numer = [0] * (n + 1)
    falling = [1]   # coefficients of t (t-1) ... (t-j+1), constant first
    for j, c in enumerate(e):
        if j:
            falling = [0] + falling
            for d in range(j):
                falling[d] -= (j - 1) * falling[d + 1]
        scale = c * (denom // factorial(j))
        for d, f in enumerate(falling):
            numer[d] += scale * f
    return tuple(Fraction(x, denom) for x in numer)


def constrained_pairs(P, values):
    """Numbering positions a < b whose elements are comparable and share a
    base value: every pair a stage constraint can bind, by a scan over all
    position pairs."""
    order = admissible_numbering(P).order
    n = len(order)
    return [(a, b) for b in range(n) for a in range(b)
            if values[order[a]] == values[order[b]] and P.less(order[a], order[b])]


def pairwise_member(P, Q, point, k):
    """Whether the point lies in X_k, by a scan over all pairs and no cover
    walk: the base is weakly monotone on every comparable pair, and
    reals[a] < reals[b] on every constrained pair with b < k. At k = len(P)
    this is strict monotonicity into Q x R, compared lexicographically."""
    vals = point.base.values
    n = len(P)
    if not all(vals[i] == vals[j] or Q.less(vals[i], vals[j])
               for i in range(n) for j in range(n) if P.less(i, j)):
        return False
    reals = point.reals
    return all(reals[a] < reals[b] for a, b in constrained_pairs(P, vals) if b < k)
