"""Exact order polynomials and their reciprocity.

For a finite poset P, the strict (weak) order polynomial is the unique
polynomial of degree at most |P| whose value at each positive integer t is
the number of strict (weak) monotone maps from P into the t-chain. Such a
map is a chain of j nonempty down-sets of P, the fibers in value order,
placed on j of the t values: C(t, j) ways. So the polynomial is
sum_j e_j C(t, j), where e_j counts those chains (in strict mode, those
whose blocks are antichains). `euler._chain_sums` computes the e_j, and
they are converted here to power-basis coefficients over exact rationals.
Floating point never enters this module: reciprocity is an identity
between coefficient arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import NotTotallyOrdered, OrdhomError
from .euler import _chain_sums
from .homs import STRICT, WEAK, _check_mode
# `chain` is not used here; bench/test_bench.py checks that the tracer
# wraps it on this module, so the name stays bound
from .posets import FinitePoset, LexPoset, chain, euler_char  # noqa: F401

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


def order_polynomial(P: FinitePoset, mode: str) -> OrderPolynomial:
    """The order polynomial of P, sum_j e_j C(t, j) over the chains of
    down-sets of P, expanded exactly in the power basis.

    C(t, j) is the falling factorial t (t-1) ... (t-j+1) over j!; all terms
    are put over the common denominator |P|!.
    """
    _check_mode(mode)
    n = len(P)
    e = _chain_sums(P.pred_masks, 0, mode, n)
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
    return OrderPolynomial(_trim(Fraction(x, denom) for x in numer), mode, n)


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
