import itertools

import pytest

from ordhom import (
    STRICT,
    WEAK,
    admissible_numbering,
    antichain,
    build_poset,
    chain,
    count_homs,
    enumerate_homs,
    iter_hom_values,
    random_poset,
)

from _corpus import small_posets


def naive_maps(P, Q, mode):
    """Filter all |Q|^|P| assignments with a direct double loop."""
    n, m = len(P), len(Q)
    out = []
    for vals in itertools.product(range(m), repeat=n):
        ok = True
        for i in range(n):
            for j in range(n):
                if not P.less(i, j):
                    continue
                if mode == STRICT:
                    if not Q.less(vals[i], vals[j]):
                        ok = False
                elif vals[i] != vals[j] and not Q.less(vals[i], vals[j]):
                    ok = False
        if ok:
            out.append(vals)
    return out


def test_matches_naive_filter_exhaustively():
    posets = list(small_posets(3))
    for P in posets:
        for Q in posets:
            for mode in (STRICT, WEAK):
                expected = set(naive_maps(P, Q, mode))
                got = [m.values for m in enumerate_homs(P, Q, mode)]
                assert set(got) == expected
                assert len(got) == len(expected)
                assert count_homs(P, Q, mode) == len(expected)


@pytest.mark.parametrize("n", [6, 7])
def test_count_and_iter_match_naive_on_seeded_posets(n):
    fork = build_poset("abc", [("a", "b"), ("a", "c")])
    for seed in range(4):
        P = random_poset(n, seed, 0.3 + 0.1 * seed)
        for Q in (chain(3), fork, antichain(2)):
            for mode in (STRICT, WEAK):
                expected = naive_maps(P, Q, mode)
                got = list(iter_hom_values(P, Q, mode))
                assert count_homs(P, Q, mode) == len(got) == len(expected)
                # lexicographic along the admissible numbering
                order = admissible_numbering(P).order
                assert got == sorted(expected, key=lambda v: [v[i] for i in order])


def test_known_counts():
    assert count_homs(chain(2), chain(3), STRICT) == 3
    assert count_homs(chain(2), chain(2), WEAK) == 3
    assert count_homs(chain(2), chain(1), STRICT) == 0
    assert count_homs(chain(3), chain(2), WEAK) == 4
    assert count_homs(antichain(2), chain(2), STRICT) == 4


def test_enumeration_order_is_lexicographic():
    # holds whenever the input element order is a linear extension
    for P, Q in [(chain(2), chain(3)), (antichain(3), chain(2)),
                 (build_poset("abc", [("a", "c"), ("b", "c")]), chain(3))]:
        for mode in (STRICT, WEAK):
            vals = [m.values for m in enumerate_homs(P, Q, mode)]
            assert vals == sorted(vals)


def test_map_objects_carry_context():
    maps = list(enumerate_homs(chain(2), chain(3), STRICT))
    assert [m.values for m in maps] == [(0, 1), (0, 2), (1, 2)]
    for m in maps:
        assert m.source == chain(2)
        assert m.target == chain(3)
        assert m.mode == STRICT
    assert maps[0].image_elements() == ("1", "2")


def test_iter_hom_values_agrees_with_enumerate():
    P = build_poset("abcd", [("a", "b"), ("c", "d")])
    for mode in (STRICT, WEAK):
        raw = list(iter_hom_values(P, chain(2), mode))
        rich = [m.values for m in enumerate_homs(P, chain(2), mode)]
        assert raw == rich


def test_empty_edge_cases():
    empty = chain(0)
    assert [m.values for m in enumerate_homs(empty, chain(2), STRICT)] == [()]
    assert count_homs(empty, empty, WEAK) == 1
    assert count_homs(chain(1), empty, WEAK) == 0
    assert list(enumerate_homs(chain(1), empty, STRICT)) == []


def test_strict_maps_are_weak_maps():
    P = build_poset("abc", [("a", "b")])
    Q = chain(3)
    strict = {m.values for m in enumerate_homs(P, Q, STRICT)}
    weak = {m.values for m in enumerate_homs(P, Q, WEAK)}
    assert strict <= weak


def test_every_enumerated_map_is_monotone():
    P = build_poset("abcd", [("a", "b"), ("a", "c"), ("b", "d")])
    Q = build_poset("xyz", [("x", "y"), ("x", "z")])
    for mode in (STRICT, WEAK):
        for m in enumerate_homs(P, Q, mode):
            for i in range(len(P)):
                for j in range(len(P)):
                    if P.less(i, j):
                        v, w = m.values[i], m.values[j]
                        if mode == STRICT:
                            assert Q.less(v, w)
                        else:
                            assert v == w or Q.less(v, w)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        count_homs(chain(1), chain(1), "monotone")
    with pytest.raises(ValueError):
        list(enumerate_homs(chain(1), chain(1), ""))
