"""Shared poset corpus for the polynomial, Euler and acceptance tests."""

import random

from hypothesis import strategies as st

from ordhom import all_posets, antichain, build_poset, chain, random_poset


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
