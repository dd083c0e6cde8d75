import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from ordhom import (
    CycleError,
    LexPoset,
    UnknownElement,
    admissible_numbering,
    all_posets,
    antichain,
    build_poset,
    chain,
    euler_char,
    negate,
    random_poset,
)

from _corpus import random_posets, relation_filter_posets, small_posets


def closure_oracle(elements, covers):
    """Strict order pairs by fixpoint iteration on plain Python sets."""
    rel = {(a, b) for a, b in covers}
    while True:
        extra = {(a, c) for a, b in rel for b2, c in rel if b == b2} - rel
        if not extra:
            return rel
        rel |= extra


def strict_pairs(P):
    n = len(P)
    return {(P.elements[i], P.elements[j])
            for i in range(n) for j in range(n) if P.less(i, j)}


def test_closure_matches_oracle_on_small_posets():
    for P in small_posets(4):
        assert strict_pairs(P) == closure_oracle(P.elements, P.covers)


def test_closure_matches_oracle_on_random_posets():
    for P in random_posets(6, 25, seed=11):
        assert strict_pairs(P) == closure_oracle(P.elements, P.covers)


def reduction_oracle(P):
    """Pairs a < b with no c where a < c < b, by brute force over triples,
    in row-major order of element indices."""
    n = len(P)
    return tuple((P.elements[a], P.elements[b]) for a in range(n) for b in range(n)
                 if P.less(a, b) and not any(P.less(a, c) and P.less(c, b)
                                             for c in range(n)))


def test_covers_match_reduction_oracle_on_small_posets():
    for n in range(6):
        for P in all_posets(n):
            assert P.covers == reduction_oracle(P)


def test_covers_match_reduction_oracle_on_random_and_restricted_posets():
    for n, p in ((6, 0.5), (9, 0.3), (12, 0.2), (12, 0.7)):
        for seed in range(20):
            P = random_poset(n, seed, p)
            assert P.covers == reduction_oracle(P)
            for keep in ([0], range(0, n, 2), range(n // 3, n), [n - 1, 1, 4]):
                S = P.restrict(keep)
                assert S.covers == reduction_oracle(S)


def test_covers_drop_redundant_input_pairs():
    # every comparability given as input still yields only the covers
    for P in list(small_posets(4)) + random_posets(8, 20, seed=5):
        full = build_poset(P.elements, sorted(strict_pairs(P)))
        assert full.covers == P.covers == reduction_oracle(full)
        assert full == P


def test_covers_are_read_only():
    P = chain(3)
    assert P.covers == (("1", "2"), ("2", "3"))
    with pytest.raises(AttributeError):
        P.covers = ()


def test_build_poset_three_element_chain_closure():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert strict_pairs(P) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_build_poset_normalizes_redundant_covers():
    P = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert set(P.covers) == {("a", "b"), ("b", "c")}


def test_build_poset_rejects_cycles():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        build_poset(["a"], [("a", "a")])


def test_build_poset_rejects_bad_names():
    with pytest.raises(UnknownElement):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "z")])


def test_chain_and_antichain_shapes():
    c = chain(3)
    assert c.elements == ("1", "2", "3")
    assert c.is_chain()
    a = antichain(3)
    assert strict_pairs(a) == set()
    assert not a.is_chain()
    assert len(chain(0)) == 0 and chain(0).is_chain()


@pytest.mark.parametrize("make", [chain, antichain, lambda n: list(all_posets(n)),
                                  lambda n: random_poset(n, 0)],
                         ids=["chain", "antichain", "all_posets", "random_poset"])
def test_negative_sizes_are_refused(make):
    for n in (-1, -2):
        with pytest.raises(ValueError):
            make(n)


def test_index_lookup():
    P = chain(2)
    assert P.index("2") == 1
    with pytest.raises(UnknownElement):
        P.index("3")


def test_restrict_induces_subposet():
    P = build_poset(list("abcd"), [("a", "b"), ("b", "d"), ("a", "c")])
    S = P.restrict([0, 2, 3])
    assert S.elements == ("a", "c", "d")
    assert strict_pairs(S) == {("a", "c"), ("a", "d")}


@pytest.mark.parametrize("indices", [[0, 0], [2, 1, 2], [-1], [5], [0, 3]],
                         ids=["repeat", "repeat-unsorted", "negative", "far", "one-past"])
def test_restrict_refuses_repeated_or_out_of_range_indices(indices):
    with pytest.raises(UnknownElement):
        chain(3).restrict(indices)


def test_restrict_keeps_the_empty_and_full_index_sets():
    P = build_poset(list("abc"), [("a", "b")])
    assert len(P.restrict([])) == 0
    assert P.restrict([2, 0, 1]) == P


def test_equality_and_hash():
    assert chain(2) == build_poset(["1", "2"], [("1", "2")])
    assert hash(chain(2)) == hash(build_poset(["1", "2"], [("1", "2")]))
    assert chain(2) != antichain(2)


def is_linear_extension(P, order):
    # position b may never sit below an earlier position a
    return not any(P.less(order[b], order[a])
                   for a in range(len(order)) for b in range(a + 1, len(order)))


def test_admissible_numbering_is_linear_extension():
    for P in small_posets(4):
        order = admissible_numbering(P).order
        assert sorted(order) == list(range(len(P)))
        assert is_linear_extension(P, order)
    for P in random_posets(7, 10, seed=3):
        assert is_linear_extension(P, admissible_numbering(P).order)


def test_admissible_numbering_tie_break_is_input_order():
    # input order not a linear extension: minimal element sits second
    P = build_poset(["b", "a"], [("a", "b")])
    assert admissible_numbering(P).order == (1, 0)
    V = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    assert admissible_numbering(V).order == (0, 1, 2)


def test_admissible_numbering_is_computed_once_per_poset():
    P = build_poset(["b", "a", "c"], [("a", "b")])
    fresh = build_poset(["b", "a", "c"], [("a", "b")])
    first = admissible_numbering(P)
    assert admissible_numbering(P) is first
    # the kept numbering takes no part in equality or hashing
    assert P == fresh and hash(P) == hash(fresh)
    assert admissible_numbering(fresh) == first


def test_cyclic_masks_raise_cycle_error():
    # masks of a < b < a, which build_poset would refuse; a child process
    # runs it, so that a regression that loops again fails on the timeout
    # instead of hanging the suite
    code = ("from ordhom import *\n"
            "for run in (admissible_numbering, lambda P: order_polynomial(P, WEAK)):\n"
            "    try:\n"
            "        run(FinitePoset(['a', 'b'], [2, 1]))\n"
            "    except CycleError:\n"
            "        continue\n"
            "    raise SystemExit(f'{run.__name__}: no CycleError')\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_lex_poset_negation_and_euler():
    Q = LexPoset(chain(3), 0)
    assert euler_char(Q) == 3
    NQ = negate(Q)
    assert NQ.base == Q.base and NQ.depth == 1
    assert euler_char(NQ) == -3
    assert negate(NQ).depth == 2
    assert euler_char(negate(NQ)) == 3
    with pytest.raises(ValueError):
        LexPoset(chain(1), -1)


@pytest.mark.parametrize("depth", [0.5, 1.0, True, False, "1", None])
def test_lex_poset_refuses_a_depth_that_is_not_an_int(depth):
    # the rule of `fileio.load_poset`: an int >= 0, and not a bool
    with pytest.raises(ValueError, match="nonnegative int"):
        LexPoset(chain(2), depth)


def test_all_posets_counts():
    # labeled posets on n elements (OEIS A001035)
    assert ([sum(1 for _ in all_posets(n)) for n in range(7)]
            == [1, 1, 3, 19, 219, 4231, 130023])


@pytest.mark.parametrize("n", range(6))
def test_all_posets_matches_relation_filter(n):
    # the same posets in the same order as the relation filter, whose order
    # the sweep benchmark's expected digests were recorded in
    def parts(P):
        return P.elements, P.succ_masks, P.covers
    assert list(map(parts, all_posets(n))) == list(map(parts, relation_filter_posets(n)))


def test_all_posets_yields_valid_distinct_posets():
    seen = set()
    for P in all_posets(3):
        assert strict_pairs(P) == closure_oracle(P.elements, P.covers)
        key = frozenset(strict_pairs(P))
        assert key not in seen
        seen.add(key)


def test_random_poset_is_deterministic_and_valid():
    a = random_poset(6, seed=99)
    b = random_poset(6, seed=99)
    assert a == b
    assert strict_pairs(a) == closure_oracle(a.elements, a.covers)
    assert any(random_poset(6, seed=s) != a for s in range(5))


def test_strict_leq_matrix_is_read_only():
    P = chain(2)
    assert P.strict_leq == ((False, True), (False, False))
    with pytest.raises(TypeError):
        P.strict_leq[0][1] = False
    assert isinstance(P.succ_masks, tuple)
    assert isinstance(P.pred_masks, tuple)


def test_import_does_not_load_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ordhom, sys; sys.exit('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
