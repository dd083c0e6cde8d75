"""Order polynomials and the strict/weak reciprocity identity.

Builds a few small posets, prints both order polynomials, checks that each
polynomial really counts monotone maps into chains, and verifies the sign
identity relating the two variants.
"""

from fractions import Fraction

from ordhom import (
    STRICT,
    WEAK,
    antichain,
    build_poset,
    chain,
    check_stanley_reciprocity,
    count_homs,
    evaluate,
    order_polynomial,
)


def describe(name, P):
    weak = order_polynomial(P, WEAK)
    strict = order_polynomial(P, STRICT)
    print(f"{name} ({len(P)} elements)")
    print(f"  weak   : {weak}")
    print(f"  strict : {strict}")

    # the polynomial value at n is the number of monotone maps into a
    # chain with n elements, including n past the degree of the polynomial
    for n in (1, 2, 6):
        assert evaluate(weak, n) == count_homs(P, chain(n), WEAK)
        assert evaluate(strict, n) == count_homs(P, chain(n), STRICT)
    print(f"  checked against map counts into chains of size 1, 2, 6")

    rep = check_stanley_reciprocity(P)
    sign = "-" if len(P) % 2 else "+"
    print(f"  strict(t) == {sign}weak(-t): {rep.holds}")

    # rational evaluation works anywhere, not only at integers
    t = Fraction(5, 2)
    print(f"  weak value at {t}: {evaluate(weak, t)}")
    print()


def main():
    describe("chain of 3", chain(3))
    describe("antichain of 3", antichain(3))
    describe("fork a < b, a < c", build_poset("abc", [("a", "b"), ("a", "c")]))
    describe("diamond", build_poset("abcd",
                                    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]))


if __name__ == "__main__":
    main()
