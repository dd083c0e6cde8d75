from fractions import Fraction

import pytest

from ordhom import (
    STRICT,
    WEAK,
    LexPoset,
    NotTotallyOrdered,
    OrderPolynomial,
    OrdhomError,
    antichain,
    build_poset,
    chain,
    check_stanley_reciprocity,
    count_homs,
    euler_hom,
    euler_via_orderpoly,
    evaluate,
    order_polynomial,
)

from _corpus import random_posets, small_posets

V = build_poset("abc", [("a", "b"), ("a", "c")])


def test_known_polynomials():
    assert str(order_polynomial(chain(2), WEAK)) == "1/2*t^2 + 1/2*t"
    assert str(order_polynomial(chain(2), STRICT)) == "1/2*t^2 - 1/2*t"
    assert str(order_polynomial(chain(3), WEAK)) == "1/6*t^3 + 1/2*t^2 + 1/3*t"
    assert str(order_polynomial(chain(3), STRICT)) == "1/6*t^3 - 1/2*t^2 + 1/3*t"
    assert str(order_polynomial(antichain(2), WEAK)) == "t^2"
    assert str(order_polynomial(antichain(2), STRICT)) == "t^2"
    assert str(order_polynomial(chain(1), WEAK)) == "t"
    assert str(order_polynomial(chain(0), WEAK)) == "1"


def test_string_format_edges():
    zero = OrderPolynomial((), WEAK, 0)
    assert str(zero) == "0"
    const = OrderPolynomial((Fraction(3),), WEAK, 0)
    assert str(const) == "3"
    mixed = OrderPolynomial((Fraction(-1, 3), Fraction(0), Fraction(2)), WEAK, 2)
    assert str(mixed) == "2*t^2 - 1/3"


def test_degree_and_leading_coefficient():
    for P in small_posets(4):
        for mode in (STRICT, WEAK):
            poly = order_polynomial(P, mode)
            assert poly.degree == len(P)
            if len(P):
                assert poly.coefficients[-1] > 0
            assert poly.mode == mode and poly.source_size == len(P)


def test_interpolation_nodes_reproduce_counts():
    for P in small_posets(3):
        for mode in (STRICT, WEAK):
            poly = order_polynomial(P, mode)
            for x in range(1, len(P) + 2):
                assert evaluate(poly, Fraction(x)) == count_homs(P, chain(x), mode)


def test_out_of_sample_counts():
    for P in list(small_posets(3)) + random_posets(4, 10, seed=5):
        for mode in (STRICT, WEAK):
            poly = order_polynomial(P, mode)
            for x in range(len(P) + 2, len(P) + 6):
                assert evaluate(poly, Fraction(x)) == count_homs(P, chain(x), mode)


def test_values_at_one():
    for P in small_posets(3):
        weak = evaluate(order_polynomial(P, WEAK), Fraction(1))
        assert weak == 1
        strict = evaluate(order_polynomial(P, STRICT), Fraction(1))
        is_antichain = not any(P.less(i, j)
                               for i in range(len(P)) for j in range(len(P)))
        assert strict == (1 if is_antichain else 0)


def test_reciprocity_coefficients():
    for P in list(small_posets(3)) + random_posets(4, 20, seed=1) + random_posets(5, 10, seed=2):
        rep = check_stanley_reciprocity(P)
        assert rep.holds
        assert rep.lhs == rep.rhs
        assert rep.strict.mode == STRICT and rep.weak.mode == WEAK


def test_reciprocity_pointwise():
    # same identity checked by evaluation, not by comparing coefficients
    for P in list(small_posets(3)) + [V, chain(4)]:
        strict = order_polynomial(P, STRICT)
        weak = order_polynomial(P, WEAK)
        for t in (Fraction(7), Fraction(-3), Fraction(5, 2)):
            assert evaluate(strict, t) == (-1) ** len(P) * evaluate(weak, -t)


def test_evaluate_is_exact():
    poly = order_polynomial(V, WEAK)
    val = evaluate(poly, Fraction(1, 3))
    assert isinstance(val, Fraction)
    assert evaluate(poly, Fraction(2)) == count_homs(V, chain(2), WEAK)


def test_euler_via_orderpoly_requires_chain():
    with pytest.raises(NotTotallyOrdered):
        euler_via_orderpoly(chain(2), LexPoset(V, 1), WEAK)


def test_euler_via_orderpoly_matches_stratification():
    for P in [chain(2), V, antichain(3)]:
        for m in (1, 2, 3):
            for k in (0, 1, 2):
                for mode in (STRICT, WEAK):
                    Q = LexPoset(chain(m), k)
                    assert euler_via_orderpoly(P, Q, mode) == euler_hom(P, Q, mode)


def test_euler_via_orderpoly_rejects_non_integer_value(monkeypatch):
    import ordhom.orderpoly as orderpoly

    monkeypatch.setattr(orderpoly, "evaluate", lambda poly, t: Fraction(1, 2))
    with pytest.raises(OrdhomError, match="not an integer"):
        euler_via_orderpoly(chain(2), LexPoset(chain(2), 1), WEAK)


@pytest.mark.parametrize("n", [6, 7])
def test_down_set_chains_match_map_counts(n):
    # the polynomial comes from down-set chains alone; count_homs is the
    # independent oracle, past the degree too
    for P in random_posets(n, 10, seed=n):
        for mode in (STRICT, WEAK):
            poly = order_polynomial(P, mode)
            assert all(isinstance(c, Fraction) for c in poly.coefficients)
            for t in range(1, n + 4):
                assert evaluate(poly, t) == count_homs(P, chain(t), mode)


def test_order_polynomial_edge_cases():
    for mode in (STRICT, WEAK):
        empty = order_polynomial(chain(0), mode)
        assert empty.coefficients == (Fraction(1),) and empty.degree == 0
        point = order_polynomial(antichain(1), mode)
        assert point.coefficients == (Fraction(0), Fraction(1))
        assert evaluate(point, 0) == count_homs(antichain(1), chain(0), mode) == 0
        assert evaluate(empty, 0) == count_homs(chain(0), chain(0), mode) == 1


def test_order_polynomial_does_not_search_maps(monkeypatch):
    import ordhom.homs as homs

    def no_search(*args):
        raise AssertionError("map search called")

    monkeypatch.setattr(homs, "_leaf_masks", no_search)
    assert str(order_polynomial(V, WEAK)) == "1/3*t^3 + 1/2*t^2 + 1/6*t"
