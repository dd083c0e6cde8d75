"""Staged piecewise-linear change of coordinates between the strict maps
P -> Q x R (lexicographic order) and the weak maps P -> Q paired with one
free real per element.

Fix the admissible numbering p_1, ..., p_n of P. For 1 <= k <= n the space
X_k consists of the points (base, t_1..t_n) with base weakly monotone and
t_i < t_j whenever i < j <= k, p_i < p_j and base(p_i) = base(p_j). Then
X_1 imposes nothing on the reals while X_n is exactly the strict maps into
Q x R (read base(p) as the major coordinate and t as the minor one).

Adjacent spaces are identified one coordinate at a time. At stage k the
coordinate t_{k+1} ranges over (f_k, oo) inside X_{k+1}, where f_k is the
largest t_j over the earlier positions j <= k forced below it (or -oo when
none are); composing with a fixed increasing bijection (f_k, oo) -> R frees
the coordinate. The bijection is piecewise linear with breakpoints at
f + 2**-i; its closed form and exact inverse live in lemma_phi and
lemma_phi_inv. t_1 is never transformed: no earlier position can bound it.
Since the base is weakly monotone, everything between two comparable
same-valued elements shares their value. So one walk over P's covers per
call checks the input and gives each stage's bound positions: on a strict
prefix the max over the same-valued lower covers is f_k (Stanley, EC1 3.1).
One stage loop serves both directions.

Coordinate convention: reals[a] is the value at numbering position a
(0-based), not at input element a. File I/O converts; see fileio.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple

from .errors import DomainError, MembershipError
from .posets import FinitePoset, _cover_pairs, _is_count, admissible_numbering

__all__ = [
    "LexHomPoint",
    "UscSpec",
    "usc_spec",
    "usc_value",
    "lemma_phi",
    "lemma_phi_inv",
    "membership",
    "forward",
    "backward",
    "forward_trace",
    "backward_trace",
]

NEG_INF = float("-inf")


class LexHomPoint(namedtuple("LexHomPoint", "base reals stage")):
    """A base map (a `MonotoneMap`) with one real per element, tagged with
    the stage whose constraints it claims to satisfy.

    reals are indexed by numbering position; stage k claims membership in
    X_k (k = 1 claims nothing beyond a weakly monotone base). An immutable
    named tuple: iterable, and equal to the plain tuple
    ``(base, reals, stage)``.
    """

    __slots__ = ()


class UscSpec(namedtuple("UscSpec", "positions value")):
    """The earlier positions that bound coordinate k+1 from below, ascending,
    plus the bound itself: max of their reals, or -oo when there are none.

    positions is determined by the base map and k alone, never the reals.
    An immutable named tuple: iterable, and equal to the plain tuple
    ``(positions, value)``.
    """

    __slots__ = ()


def usc_spec(point: LexHomPoint, k: int) -> UscSpec:
    """Lower-bound data for coordinate k+1 at stage k (1 <= k <= n-1): the
    0-based numbering positions a < k whose element lies strictly below
    p_{k+1} with the same base value, and the max of the reals there.
    A k that is not an int in that range (a bool or a float too) raises
    ValueError."""
    P = point.base.source
    if not (_is_count(k) and 1 <= k <= len(P) - 1):
        raise ValueError(f"stage k must be in [1, {len(P) - 1}], got {k}")
    order, vals = admissible_numbering(P).order, point.base.values
    positions = tuple(a for a in range(k) if vals[order[a]] == vals[order[k]]
                      and P.less(order[a], order[k]))
    return UscSpec(positions, max((point.reals[a] for a in positions), default=NEG_INF))


def usc_value(point: LexHomPoint, k: int) -> float:
    """The stage-k lower bound f_k as an extended real (-oo when free)."""
    return usc_spec(point, k).value


def lemma_phi(f: float, t: float) -> float:
    """Strictly increasing piecewise-linear bijection (f, oo) -> R.

    For f = -oo the map is t + 1. For finite f it is linear of slope 1
    above f + 1 and, between the breakpoints f + 2**-i (mapped to -i),
    linear of slope 2**(i+1). math.frexp reads off the breakpoint pair
    containing t, so no loop over pieces and no overflow for tiny t - f.
    """
    if f == NEG_INF:
        return t + 1.0
    if not t > f:
        raise DomainError(f"need t > f, got t={t!r} with f={f!r}")
    d = t - f
    if d >= 1.0:
        return d - 1.0
    m, e = math.frexp(d)
    # d = m * 2**e with m in [0.5, 1): the piece with i = -e, where the
    # map is s = -(i+1) + (d - 2**(e-1)) * 2**(1-e) = 2*m - 2 + e
    return 2.0 * m - 2.0 + e


def lemma_phi_inv(f: float, s: float) -> float:
    """Exact piecewise-linear inverse of lemma_phi; accepts any real s."""
    if f == NEG_INF:
        return s - 1.0
    if s >= 0.0:
        return f + s + 1.0
    i = math.floor(-s)
    # s in [-(i+1), -i] inverts to d = (s + i + 2) * 2**-(i+1)
    t = f + math.ldexp(s + i + 2.0, -(i + 1))
    if t <= f:
        # the offset underflowed; the smallest float above f is the honest
        # representative of the true preimage
        t = math.nextafter(f, math.inf)
    return t


def _constraints(P: FinitePoset, Q: FinitePoset, point: LexHomPoint, k: int):
    """One walk over P's cover pairs: for each numbering position, the
    positions of its lower covers with the same base value; None when the
    point is not in X_k (a cover breaks weak monotonicity of the base, or a
    same-valued cover inside the first k positions has unordered reals)."""
    vals, reals = point.base.values, point.reals
    # at[i] is the numbering position of element i
    at = sorted(range(len(P)), key=admissible_numbering(P).order.__getitem__)
    lower = [[] for _ in at]
    for i, j in _cover_pairs(P):
        a, b = at[i], at[j]
        if vals[i] == vals[j]:
            if b < k and not reals[a] < reals[b]:
                return None
            lower[b].append(a)
        elif not Q.less(vals[i], vals[j]):
            return None
    return lower


def membership(P: FinitePoset, Q: FinitePoset, point: LexHomPoint, k: int) -> bool:
    """Check of the stage-k constraints over the cover pairs alone.

    True iff the base values are weakly monotone and reals[a] < reals[b]
    for all positions a < b < k with p_(a) < p_(b) and equal base values.
    """
    return _constraints(P, Q, point, k) is not None


def _stages(P: FinitePoset, Q: FinitePoset, point: LexHomPoint, inverse: bool):
    """Check the input, then run forward's stages, or backward's when inverse,
    on one list of reals; yields the stage claimed and the list after each."""
    n = len(P)
    lower = _constraints(P, Q, point, 1 if inverse else n)
    if lower is None:
        raise MembershipError("base map is not weakly monotone" if inverse else
                              "point is not a strictly monotone map into the lex product")
    if inverse:
        ks, phi, shift = range(1, n), lemma_phi_inv, 1
    else:
        ks, phi, shift = range(n - 1, 0, -1), lemma_phi, 0
    reals = list(point.reals)
    for k in ks:
        reals[k] = phi(max((reals[a] for a in lower[k]), default=NEG_INF), reals[k])
        yield k + shift, reals
    if not ks:
        yield 1, reals  # n <= 1: X_1 is already the strict space


def forward_trace(P: FinitePoset, Q: FinitePoset, point: LexHomPoint):
    """Run the stages k = n-1 .. 1, collecting the point after each one.

    The k-th entry from the start claims stage n-1, n-2, ..., 1; the last
    entry is forward's result. Raises MembershipError unless the input
    satisfies the full strict constraints.
    """
    return [LexHomPoint(point.base, tuple(reals), k)
            for k, reals in _stages(P, Q, point, False)]


def forward(P: FinitePoset, Q: FinitePoset, point: LexHomPoint) -> LexHomPoint:
    """Strict maps into Q x R -> weak base map with free reals.

    Working down from the last coordinate, each stage k rewrites reals[k]
    (position k+1) through lemma_phi with the bound read off the untouched
    earlier coordinates. The base map is returned untouched.
    """
    k, reals = deque(_stages(P, Q, point, False), maxlen=1)[0]
    return LexHomPoint(point.base, tuple(reals), k)


def backward_trace(P: FinitePoset, Q: FinitePoset, point: LexHomPoint):
    """Run the stages k = 1 .. n-1, collecting the point after each one.

    Entries claim stages 2, 3, ..., n; the last entry is backward's result.
    The reals are arbitrary; a base that is not weakly monotone raises
    MembershipError.
    """
    return [LexHomPoint(point.base, tuple(reals), k)
            for k, reals in _stages(P, Q, point, True)]


def backward(P: FinitePoset, Q: FinitePoset, point: LexHomPoint) -> LexHomPoint:
    """Weak base map with free reals -> strict map into Q x R.

    Inverse pass: each stage k rewrites reals[k] through lemma_phi_inv with
    the bound read off the already-restored earlier coordinates.
    """
    k, reals = deque(_stages(P, Q, point, True), maxlen=1)[0]
    return LexHomPoint(point.base, tuple(reals), k)
