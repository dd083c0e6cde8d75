"""Exact order polynomials and their reciprocity.

For a finite poset P, the strict (weak) order polynomial is the unique
polynomial of degree at most |P| whose value at each positive integer t is
the number of strict (weak) monotone maps from P into the t-chain. Such a
map is a chain of j nonempty down-sets of P, the fibers in value order,
placed on j of the t values: C(t, j) ways. So the polynomial is
sum_j e_j C(t, j), where e_j counts those chains (in strict mode, those
whose blocks are antichains). The sum is expanded into power-basis
coefficients over exact rationals by Horner's rule in the Newton basis
(Knuth, TAOCP vol. 2, 4.6.4; see `order_polynomial`), on integers until
the one division by |P|! at the end. Floating point never enters this
module: reciprocity is an identity between coefficient arrays.

Down-set chains by a zeta transform (`_chain_sums`). The chains are
multichains of the down-set lattice J(P) (Stanley, EC1 3.12), so they are
counted on J(P), built once along the admissible numbering by
`posets._down_sets`. Let f_j[I] count the chains of j blocks that
end at the down-set I, with f_0[I] = [I == 0]. A chain of j + 1 blocks
ending at I extends one of j blocks ending at a down-set I' < I; in strict
mode I minus I' must be an antichain, that is a set of maximal elements of
I. So f_(j+1) = g - f_j, where g[I] sums f_j[I'] over those I' <= I, and
e_j = f_j[P].

g is a zeta transform on J(P) (Bjorklund, Husfeldt, Kaski and Koivisto,
SODA 2012): a copy of f_j, then one pass per element x, where each I in
which x is maximal adds g[I minus x], a down-set that I covers (Stanley,
EC1 3.4). A pass never writes the g[I minus x] it reads. Weak mode runs
the passes in numbering order: after those of the first r elements, g[I]
sums f_j over the I' <= I whose difference with I lies among them; in the
pass of x, an I' with x in I minus I' holds every element of I above x, as
it comes later, so x is maximal in I. Strict mode runs them in reverse:
no element passed before x is below x, so the differences are sets of
maximal elements. A round costs one update per covering pair of J(P).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import NotTotallyOrdered, OrdhomError
from .homs import STRICT, WEAK, _check_mode
# `chain` is not used here; bench/test_bench.py checks that the tracer
# wraps it on this module, so the name stays bound
from .posets import (FinitePoset, LexPoset, _down_sets,  # noqa: F401
                     admissible_numbering, chain, euler_char)

__all__ = [
    "OrderPolynomial",
    "order_polynomial",
    "evaluate",
    "reflect",
    "StanleyReport",
    "check_stanley_reciprocity",
    "euler_via_orderpoly",
]


class OrderPolynomial(namedtuple("OrderPolynomial",
                                 "coefficients mode source_size")):
    """A univariate polynomial with exact rational coefficients.

    ``coefficients[d]`` is the coefficient of t**d, and there are
    source_size + 1 of them. The last is e_n / n!, where e_n counts the
    linear extensions of the source in both modes (n singleton blocks are
    antichains), so it is never zero: the degree equals the source size,
    and the empty poset gives the constant 1. An immutable named tuple:
    iterable, and equal to the plain tuple
    ``(coefficients, mode, source_size)``.
    """

    __slots__ = ()

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


def _drop_steps(P: FinitePoset, J: list) -> list:
    """The updates of one zeta-transform round, as pairs (i, k) of
    positions in J meaning g[i] += g[k]: k is J[i] minus x, for every J[i]
    in which x is maximal, grouped by x in reverse numbering order. Strict
    mode runs them in this order, weak mode reversed (module docstring).
    """
    at = {I: i for i, I in enumerate(J)}
    succs = P.succ_masks
    steps = []
    for x in reversed(admissible_numbering(P).order):
        bit = 1 << x
        steps += [(i, at[I ^ bit]) for i, I in enumerate(J)
                  if I & bit and not I & succs[x]]
    return steps


def _chain_sums(P: FinitePoset, mode: str, top: int) -> list:
    """The vector (e_0, ..., e_top) of P, cut off at its size n when
    top > n: e_j counts the chains of down-sets 0 < I_1 < ... < I_j = P,
    in strict mode only those whose blocks are antichains (module
    docstring).

    With top <= 1 no lattice is built: e_1 is 1 in weak mode, and in
    strict mode exactly when P is an antichain. Otherwise the longest
    vector computed so far for each mode is kept on P, and a call whose
    top it covers returns a copy of its prefix.
    """
    n = len(P)
    top = min(top, n)
    if top <= 1:
        return [int(n == 0)] + [int(mode == WEAK or not any(P.pred_masks))] * top
    kept = P._chains.get(mode, ())
    if len(kept) > top:
        return kept[:top + 1]
    J = _down_sets(P.pred_masks, admissible_numbering(P).order)
    steps = _drop_steps(P, J)
    if mode == WEAK:
        steps.reverse()
    f = [0] * len(J)
    f[0] = 1
    e = [0]
    for _ in range(top):
        g = f[:]
        for i, k in steps:
            g[i] += g[k]
        f = [a - b for a, b in zip(g, f)]
        e.append(f[-1])
    P._chains[mode] = e
    return e[:]


def order_polynomial(P: FinitePoset, mode: str) -> OrderPolynomial:
    """The order polynomial of P, sum_j e_j C(t, j) over the chains of
    down-sets of P, expanded exactly in the power basis.

    The sum is read in nested Newton form, e_0 + t/1 (e_1 + (t-1)/2 (e_2
    + ...)) (Knuth, TAOCP vol. 2, 4.6.4), over the common denominator n!
    with n = |P|: B_n = e_n, B_j = (n!/j!) e_j + (t - j) B_(j+1), and the
    polynomial is B_0 / n!. Each step multiplies by t - j, so only small
    integers multiply the big coefficients.
    """
    _check_mode(mode)
    n = len(P)
    e = _chain_sums(P, mode, n)
    numer = [e[n]]   # B_(j+1), constant first
    denom = 1        # n!/j!, and n! after the last step
    for j in range(n - 1, -1, -1):
        denom *= j + 1
        numer = [0] + numer
        for d in range(n - j):
            numer[d] -= j * numer[d + 1]
        numer[0] += denom * e[j]
    return OrderPolynomial(tuple(Fraction(x, denom) for x in numer), mode, n)


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


class StanleyReport(namedtuple("StanleyReport", "holds strict weak lhs rhs")):
    """Outcome of the strict/weak order polynomial reciprocity check.

    ``lhs`` is the strict polynomial's coefficient array; ``rhs`` is the
    weak polynomial's, reflected through t -> -t and the size sign. Both
    source polynomials are carried for inspection. An immutable named
    tuple: iterable, and equal to the plain tuple
    ``(holds, strict, weak, lhs, rhs)``.
    """

    __slots__ = ()


def check_stanley_reciprocity(P: FinitePoset) -> StanleyReport:
    """Compare the strict order polynomial against the reflected weak one,
    coefficient by coefficient, in exact arithmetic."""
    strict = order_polynomial(P, STRICT)
    weak = order_polynomial(P, WEAK)
    lhs = strict.coefficients
    rhs = reflect(weak)
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
