import itertools
from fractions import Fraction

import pytest

from ordhom import (
    STRICT,
    WEAK,
    DepthUnsupported,
    LexPoset,
    antichain,
    build_poset,
    chain,
    check_euler_reciprocity,
    compatible_preorders,
    count_components,
    count_homs,
    euler_char,
    euler_hom,
    euler_hom_real,
    evaluate,
    negate,
    order_polynomial,
)

from _corpus import random_posets, small_posets

V = build_poset("abc", [("a", "b"), ("a", "c")])


def all_ordered_set_partitions(items):
    """Insert elements one at a time, either into an existing block or as a
    new block at any position."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in all_ordered_set_partitions(rest):
        for i, blk in enumerate(part):
            yield part[:i] + (tuple(sorted(blk + (first,))),) + part[i + 1:]
        for i in range(len(part) + 1):
            yield part[:i] + ((first,),) + part[i:]


def compatible_oracle(P, indices):
    """Weak-compatible ordered partitions by direct double-loop filtering."""
    out = set()
    for part in all_ordered_set_partitions(tuple(indices)):
        pos = {x: b for b, blk in enumerate(part) for x in blk}
        if not any(P.less(i, j) and pos[i] > pos[j]
                   for i in indices for j in indices):
            out.add(part)
    return out


def test_compatible_preorders_counts():
    assert len(list(compatible_preorders(chain(2)))) == 2
    assert len(list(compatible_preorders(chain(3)))) == 4
    assert len(list(compatible_preorders(antichain(2)))) == 3
    assert len(list(compatible_preorders(antichain(3)))) == 13
    assert [p.blocks for p in compatible_preorders(chain(0))] == [()]


def test_compatible_preorders_blocks():
    got = {p.blocks for p in compatible_preorders(chain(2))}
    assert got == {((0,), (1,)), ((0, 1),)}


def test_compatible_preorders_matches_oracle():
    for P in small_posets(4):
        blocks = [p.blocks for p in compatible_preorders(P)]
        assert len(set(blocks)) == len(blocks)
        assert set(blocks) == compatible_oracle(P, range(len(P)))


def test_euler_hom_real_known_values():
    assert euler_hom_real(chain(2), 1, STRICT) == 1
    assert euler_hom_real(chain(2), 1, WEAK) == 0
    assert euler_hom_real(chain(1), 1, STRICT) == -1
    assert euler_hom_real(chain(1), 1, WEAK) == -1
    assert euler_hom_real(antichain(2), 1, STRICT) == 1
    assert euler_hom_real(antichain(2), 1, WEAK) == 1
    assert euler_hom_real(chain(0), 3, WEAK) == 1
    # k = 0: weak collapses to the one constant pattern, strict needs an antichain
    assert euler_hom_real(chain(2), 0, STRICT) == 0
    assert euler_hom_real(chain(2), 0, WEAK) == 1
    assert euler_hom_real(antichain(3), 0, STRICT) == 1


def test_euler_hom_real_is_pure():
    a = euler_hom_real(V, 2, STRICT)
    assert euler_hom_real(V, 2, STRICT) == a


def test_euler_hom_real_matches_order_polynomial():
    # maps into k lex-ordered real coordinates are counted by the order
    # polynomial at (-1)**k
    for P in small_posets(4):
        for mode in (STRICT, WEAK):
            poly = order_polynomial(P, mode)
            for k in range(4):
                expected = evaluate(poly, Fraction((-1) ** k))
                assert euler_hom_real(P, k, mode) == expected


def naive_euler_depth1(P, Q0, mode):
    """Alternating-sum oracle over explicit strata at lex depth 1."""
    n, m = len(P), len(Q0)
    total = 0
    for vals in itertools.product(range(m), repeat=n):
        if any(P.less(i, j) and vals[i] != vals[j] and not Q0.less(vals[i], vals[j])
               for i in range(n) for j in range(n)):
            continue
        fibers = {}
        for i, v in enumerate(vals):
            fibers.setdefault(v, []).append(i)
        choices = []
        for fib in fibers.values():
            pats = []
            for part in compatible_oracle(P, fib):
                if mode == STRICT:
                    pos = {x: b for b, blk in enumerate(part) for x in blk}
                    if any(P.less(i, j) and pos[i] == pos[j]
                           for i in fib for j in fib):
                        continue
                pats.append(part)
            choices.append(pats)
        for combo in itertools.product(*choices):
            total += (-1) ** sum(len(p) for p in combo)
    return total


def test_euler_hom_matches_depth1_oracle():
    posets = list(small_posets(3))
    for P in posets:
        for Q0 in posets:
            for mode in (STRICT, WEAK):
                got = euler_hom(P, LexPoset(Q0, 1), mode)
                assert got == naive_euler_depth1(P, Q0, mode)


def test_euler_hom_depth_zero_is_counting():
    for P in small_posets(3):
        for Q0 in (chain(2), V):
            for mode in (STRICT, WEAK):
                assert euler_hom(P, LexPoset(Q0, 0), mode) == count_homs(P, Q0, mode)


def test_euler_hom_known_values():
    assert euler_hom(chain(2), LexPoset(chain(2), 1), WEAK) == 1
    assert euler_hom(chain(2), LexPoset(chain(2), 1), STRICT) == 3
    assert euler_hom(chain(2), LexPoset(chain(1), 1), WEAK) == 0
    assert euler_hom(chain(2), LexPoset(chain(1), 1), STRICT) == 1


def test_maps_from_a_point_give_target_euler():
    for Q0 in (chain(3), V, antichain(2)):
        for k in range(3):
            Q = LexPoset(Q0, k)
            for mode in (STRICT, WEAK):
                assert euler_hom(chain(1), Q, mode) == euler_char(Q)


def test_reciprocity_reports():
    first, second = check_euler_reciprocity(V, LexPoset(chain(2), 1))
    assert first.identity == "strict_to_negated_weak"
    assert second.identity == "negated_strict_to_weak"
    assert first.holds and second.holds
    assert first.lhs == first.rhs and second.lhs == second.rhs


def test_reciprocity_exhaustive_small():
    posets = list(small_posets(3))
    targets = list(small_posets(2))
    for P in posets:
        for Q0 in targets:
            for depth in (0, 1):
                first, second = check_euler_reciprocity(P, LexPoset(Q0, depth))
                assert first.holds, (P.covers, Q0.covers, depth)
                assert second.holds, (P.covers, Q0.covers, depth)


def test_reciprocity_unrolled_once():
    # spell one instance out against the negation helper
    P, Q = V, LexPoset(chain(2), 1)
    first, _ = check_euler_reciprocity(P, Q)
    assert first.lhs == euler_hom(P, Q, STRICT)
    assert first.rhs == (-1) ** len(P) * euler_hom(P, negate(Q), WEAK)


def test_count_components_figure_case():
    assert count_components(chain(2), LexPoset(chain(2), 1), WEAK) == 3


def test_count_components_depth_zero():
    for mode in (STRICT, WEAK):
        assert count_components(chain(2), LexPoset(chain(3), 0), mode) == \
            count_homs(chain(2), chain(3), mode)


def test_count_components_rejects_depth_two():
    with pytest.raises(DepthUnsupported):
        count_components(chain(1), LexPoset(chain(1), 2), WEAK)


def test_count_components_equals_weak_base_count():
    # each base map contributes one component at depth 1 in either mode
    for P in small_posets(3):
        for Q0 in small_posets(2):
            for mode in (STRICT, WEAK):
                got = count_components(P, LexPoset(Q0, 1), mode)
                assert got == count_homs(P, Q0, WEAK)


def sample_stratum(pattern_by_fiber):
    """A rational point of the stratum: block position within its fiber."""
    coords = {}
    for pats in pattern_by_fiber.values():
        for b, blk in enumerate(pats):
            for x in blk:
                coords[x] = Fraction(b)
    return coords


def test_strata_are_realizable_points():
    # every enumerated stratum contains an exact rational witness whose
    # equality-and-order pattern reproduces the stratum it came from
    for P in small_posets(3):
        n = len(P)
        for Q0 in (chain(1), chain(2)):
            for vals in itertools.product(range(len(Q0)), repeat=n):
                if any(P.less(i, j) and vals[i] != vals[j]
                       and not Q0.less(vals[i], vals[j])
                       for i in range(n) for j in range(n)):
                    continue
                fibers = {}
                for i, v in enumerate(vals):
                    fibers.setdefault(v, []).append(i)
                per_fiber = {v: sorted(compatible_oracle(P, fib))
                             for v, fib in fibers.items()}
                for combo in itertools.product(*per_fiber.values()):
                    chosen = dict(zip(per_fiber.keys(), combo))
                    coords = sample_stratum(chosen)
                    # weak monotonicity of (vals, coords) into Q0 x Q, exactly
                    for i in range(n):
                        for j in range(n):
                            if P.less(i, j):
                                assert (Q0.less(vals[i], vals[j])
                                        or (vals[i] == vals[j]
                                            and coords[i] <= coords[j]))
                    # the witness sorts back into the pattern it came from
                    for v, fib in fibers.items():
                        levels = sorted({coords[i] for i in fib})
                        rebuilt = tuple(
                            tuple(sorted(i for i in fib if coords[i] == lv))
                            for lv in levels)
                        assert rebuilt == chosen[v]
