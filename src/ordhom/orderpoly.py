"""Exact order polynomials and their reciprocity.

For a finite poset P, the strict (weak) order polynomial is the unique
polynomial of degree at most |P| whose value at each positive integer n is
the number of strict (weak) monotone maps from P into the n-chain. It is
pinned down by the counts at n = 1, ..., |P|+1 and recovered here by
Lagrange interpolation over exact rationals. Floating point never enters
this module: reciprocity is an identity between coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotTotallyOrdered, OrdhomError
from .homs import STRICT, WEAK, count_homs
from .posets import FinitePoset, LexPoset, chain, euler_char

__all__ = [
    "OrderPolynomial",
    "order_polynomial",
    "evaluate",
    "reflect",
    "StanleyReport",
    "check_stanley_reciprocity",
    "euler_via_orderpoly",
]


@dataclass(frozen=True)
class OrderPolynomial:
    """A univariate polynomial with exact rational coefficients.

    ``coefficients[d]`` is the coefficient of t**d. Trailing zeros are
    trimmed, so for a nonempty source poset the last coefficient is the
    (nonzero) leading one and the degree equals the source size.
    """

    coefficients: tuple
    mode: str
    source_size: int

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self):
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coefficients[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if mag == 1 else f"{mag}*{var}"
            terms.append((sign, body))
        if not terms:
            return "0"
        first_sign, first_body = terms[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _lagrange(xs, ys):
    """Coefficients of the unique degree < len(xs) polynomial through the
    given points, over exact rationals."""
    m = len(xs)
    coeffs = [Fraction(0)] * m
    for i in range(m):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(m):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d + 1] += c
                new[d] -= c * xs[j]
            basis = new
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i], 1) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return coeffs


def order_polynomial(P: FinitePoset, mode: str) -> OrderPolynomial:
    """Interpolate the order polynomial of P from monotone-map counts.

    Uses the counts into the chains [1], ..., [|P|+1], the smallest node set
    that determines a polynomial of degree at most |P|.
    """
    n = len(P)
    xs = list(range(1, n + 2))
    ys = [count_homs(P, chain(x), mode) for x in xs]
    return OrderPolynomial(_trim(_lagrange(xs, ys)), mode, n)


def evaluate(poly: OrderPolynomial, t) -> Fraction:
    """Evaluate at an exact rational point by Horner's rule."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * t + c
    return acc


def reflect(poly: OrderPolynomial) -> tuple:
    """Coefficients of (-1)**source_size * poly(-t)."""
    sign = (-1) ** poly.source_size
    return tuple(sign * (-1) ** d * c
                 for d, c in enumerate(poly.coefficients))


@dataclass(frozen=True)
class StanleyReport:
    """Outcome of the strict/weak order polynomial reciprocity check.

    ``lhs`` is the strict polynomial's coefficient array; ``rhs`` is the
    weak polynomial's, reflected through t -> -t and the size sign. Both
    source polynomials are carried for inspection.
    """

    holds: bool
    strict: OrderPolynomial
    weak: OrderPolynomial
    lhs: tuple
    rhs: tuple


def check_stanley_reciprocity(P: FinitePoset) -> StanleyReport:
    """Compare the strict order polynomial against the reflected weak one,
    coefficient by coefficient, in exact arithmetic."""
    strict = order_polynomial(P, STRICT)
    weak = order_polynomial(P, WEAK)
    lhs = strict.coefficients
    rhs = _trim(reflect(weak))
    return StanleyReport(lhs == rhs, strict, weak, lhs, rhs)


def euler_via_orderpoly(P: FinitePoset, Q: LexPoset, mode: str) -> int:
    """Euler characteristic of the space of monotone maps from P into a
    totally ordered lex product, via order polynomial evaluation.

    The lex product's Euler characteristic is plugged into the order
    polynomial; the result is always an integer.

    Raises:
        NotTotallyOrdered: the base of Q is not a chain.
        OrdhomError: the value is not an integer (a wrong polynomial).
    """
    if not Q.base.is_chain():
        raise NotTotallyOrdered("lex base must be totally ordered")
    value = evaluate(order_polynomial(P, mode), euler_char(Q))
    if value.denominator != 1:
        raise OrdhomError(f"order polynomial value {value} is not an integer")
    return int(value)
