import math
import random
from itertools import islice

import pytest

from ordhom import (
    WEAK,
    DomainError,
    FinitePoset,
    LexHomPoint,
    MembershipError,
    MonotoneMap,
    antichain,
    backward,
    backward_trace,
    build_poset,
    chain,
    enumerate_homs,
    forward,
    forward_trace,
    iter_hom_values,
    lemma_phi,
    lemma_phi_inv,
    membership,
    random_poset,
    usc_spec,
    usc_value,
)

from _corpus import constrained_pairs, pairwise_member, small_posets

NEG_INF = float("-inf")
V = build_poset("abc", [("a", "b"), ("a", "c")])
MARGIN = 2.0 ** -40


def mk_point(P, Q, values, reals, stage):
    return LexHomPoint(MonotoneMap(P, Q, tuple(values), WEAK), tuple(reals), stage)


def test_lemma_phi_known_values():
    assert lemma_phi(NEG_INF, 3.25) == 4.25
    assert lemma_phi(0.0, 1.0) == 0.0
    assert lemma_phi(0.0, 0.5) == -1.0
    assert lemma_phi(0.0, 0.25) == -2.0
    assert lemma_phi(0.0, 2.5) == 1.5
    assert lemma_phi(0.0, 0.75) == -0.5
    assert lemma_phi(3.0, 4.0) == 0.0


def test_lemma_phi_breakpoints():
    for i in range(0, 1000, 7):
        assert lemma_phi(0.0, math.ldexp(1.0, -i)) == -float(i)
    for i in range(0, 40):
        # away from zero the breakpoints are still exact floats
        assert lemma_phi(5.0, 5.0 + math.ldexp(1.0, -i)) == -float(i)


def test_lemma_phi_domain():
    with pytest.raises(DomainError):
        lemma_phi(0.0, 0.0)
    with pytest.raises(DomainError):
        lemma_phi(2.0, 1.5)


def test_lemma_phi_strictly_increasing():
    for f in (NEG_INF, 0.0, -3.5, 7.25):
        lo = -6.0 if f == NEG_INF else f + 1e-12
        grid = [lo + (8.0 - lo) * i / 400 for i in range(401)]
        vals = [lemma_phi(f, t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lemma_phi_inverse_roundtrip_exact_at_zero():
    # with f = 0 every step is exact float arithmetic, deep pieces included
    rng = random.Random(4)
    for _ in range(2000):
        s = rng.uniform(-41.0, 30.0)
        t = lemma_phi_inv(0.0, s)
        assert t > 0.0
        assert lemma_phi(0.0, t) == s
    assert lemma_phi_inv(0.0, -1074.0) == math.ldexp(1.0, -1074)
    assert lemma_phi(0.0, math.ldexp(1.0, -1074)) == -1074.0


def test_lemma_phi_inverse_roundtrip_shifted():
    # finite nonzero f quantizes t to ulp(f), so stay in shallow pieces
    rng = random.Random(5)
    for _ in range(2000):
        f = rng.choice([NEG_INF, -2.5, 11.0])
        s = rng.uniform(-8.0, 30.0)
        t = lemma_phi_inv(f, s)
        assert t > f
        assert abs(lemma_phi(f, t) - s) <= 1e-12


def test_lemma_phi_roundtrip_restores_t():
    # the direction the stage maps compose: t -> s -> t
    rng = random.Random(6)
    for _ in range(4000):
        f = rng.choice([NEG_INF, 0.0, -2.5, 11.0, -37.75])
        if f == NEG_INF:
            t = rng.uniform(-50.0, 50.0)
        else:
            t = f + math.ldexp(1.0 + rng.random(), rng.randint(-40, 4))
        assert abs(lemma_phi_inv(f, lemma_phi(f, t)) - t) <= 1e-12


def test_lemma_phi_inv_boundary_pieces():
    assert lemma_phi_inv(NEG_INF, 4.25) == 3.25
    assert lemma_phi_inv(0.0, 0.0) == 1.0
    assert lemma_phi_inv(0.0, -1.0) == 0.5
    assert lemma_phi_inv(0.0, -0.5) == 0.75
    assert lemma_phi_inv(3.0, 2.0) == 6.0


def test_lemma_phi_inv_never_returns_domain_edge():
    # deep negative s underflows; the guard keeps the image above f
    for s in (-1100.5, -4000.0, -1e9):
        assert lemma_phi_inv(0.0, s) > 0.0
        assert lemma_phi_inv(5.5, s) > 5.5


def test_usc_examples():
    pt = mk_point(chain(2), chain(1), (0, 0), (5.0, 99.0), 2)
    spec = usc_spec(pt, 1)
    assert spec.value == 5.0 and spec.positions == (0,)
    pt = mk_point(antichain(2), chain(1), (0, 0), (5.0, 99.0), 2)
    assert usc_value(pt, 1) == NEG_INF
    pt = mk_point(chain(2), chain(2), (0, 1), (5.0, 99.0), 2)
    assert usc_value(pt, 1) == NEG_INF


def test_usc_positions_ignore_reals():
    a = mk_point(chain(3), chain(1), (0, 0, 0), (1.0, 2.0, 3.0), 3)
    b = mk_point(chain(3), chain(1), (0, 0, 0), (9.0, -4.0, 0.0), 3)
    assert usc_spec(a, 2).positions == usc_spec(b, 2).positions == (0, 1)
    assert usc_value(b, 2) == 9.0


def test_usc_stage_bounds():
    # a stage that is not an int gets the same ValueError as one out of
    # range, never range's TypeError, and True is not read as stage 1
    pt = mk_point(chain(2), chain(1), (0, 0), (0.0, 1.0), 2)
    for k in (0, 2, 1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="stage k must be in"):
            usc_value(pt, k)
    assert usc_spec(pt, 1) == ((0,), 0.0)


def test_membership_examples():
    good = mk_point(chain(2), chain(1), (0, 0), (0.0, 1.0), 2)
    assert membership(chain(2), chain(1), good, 2)
    bad = mk_point(chain(2), chain(1), (0, 0), (1.0, 0.0), 2)
    assert not membership(chain(2), chain(1), bad, 2)
    assert membership(chain(2), chain(1), bad, 1)  # stage 1 checks base only
    non_monotone = mk_point(chain(2), chain(2), (1, 0), (0.0, 1.0), 1)
    assert not membership(chain(2), chain(2), non_monotone, 1)


def test_forward_chain_example():
    pt = mk_point(chain(2), chain(1), (0, 0), (0.0, 1.0), 2)
    out = forward(chain(2), chain(1), pt)
    assert out.reals == (0.0, 0.0)
    assert out.stage == 1
    assert out.base.values == (0, 0)


def test_forward_rejects_non_member():
    pt = mk_point(chain(2), chain(1), (0, 0), (1.0, 0.0), 2)
    with pytest.raises(MembershipError):
        forward(chain(2), chain(1), pt)


@pytest.mark.parametrize("run", [backward, backward_trace])
def test_backward_rejects_non_monotone_base(run):
    # the reals are free, but the base must still be weakly monotone
    pt = mk_point(chain(2), chain(2), (1, 0), (0.0, 0.0), 1)
    with pytest.raises(MembershipError):
        run(chain(2), chain(2), pt)


def test_membership_base_check_matches_all_pairs():
    rng = random.Random(12)
    Q = V
    for seed in range(20):
        P = random_poset(7, seed, 0.3)
        for _ in range(50):
            vals = tuple(rng.randrange(len(Q)) for _ in range(len(P)))
            pt = mk_point(P, Q, vals, (0.0,) * len(P), 1)
            assert membership(P, Q, pt, 1) == pairwise_member(P, Q, pt, 1)


def test_forward_antichain_shifts_all_but_first():
    P, Q = antichain(3), chain(1)
    pt = mk_point(P, Q, (0, 0, 0), (2.0, -1.5, 0.25), 3)
    out = forward(P, Q, pt)
    assert out.reals == (2.0, -0.5, 1.25)
    back = backward(P, Q, out)
    assert back.reals == pt.reals


def test_small_posets_identity():
    P, Q = chain(1), chain(2)
    pt = mk_point(P, Q, (1,), (3.5,), 1)
    assert forward(P, Q, pt).reals == (3.5,)
    assert backward(P, Q, pt).reals == (3.5,)
    E = chain(0)
    pt = mk_point(E, chain(1), (), (), 1)
    assert forward(E, chain(1), pt).reals == ()
    assert backward(E, chain(1), pt).reals == ()


def float_bits(point):
    return [t.hex() for t in point.reals]


@pytest.mark.parametrize("n", [0, 1, 10, 50, 200])
def test_stages_match_traces_and_pair_oracle_at_larger_sizes(n):
    rng = random.Random(n)
    for seed, edge_prob in ((1, 0.3), (2, 0.05)):
        P = random_poset(n, seed, edge_prob)
        for Q in (chain(1), chain(3), V):
            bases = list(islice(iter_hom_values(P, Q, WEAK), 200))
            for _ in range(3):
                values = bases[rng.randrange(len(bases))]
                free = LexHomPoint(MonotoneMap(P, Q, values, WEAK),
                                   tuple(rng.uniform(-60.0, 60.0) for _ in range(n)), 1)
                bts = backward_trace(P, Q, free)
                assert [p.stage for p in bts] == (list(range(2, n + 1)) or [1])
                strict = backward(P, Q, free)
                assert strict.stage == bts[-1].stage
                assert float_bits(strict) == float_bits(bts[-1])
                fts = forward_trace(P, Q, strict)
                assert [p.stage for p in fts] == (list(range(n - 1, 0, -1)) or [1])
                out = forward(P, Q, strict)
                assert out.stage == fts[-1].stage
                assert float_bits(out) == float_bits(fts[-1])
                pairs = constrained_pairs(P, values)
                for k in range(1, n):
                    expect = tuple(a for a, b in pairs if b == k)
                    assert usc_spec(strict, k).positions == expect
                    assert usc_spec(free, k).positions == expect


def sample_strict(P, Q, rng):
    bases = list(enumerate_homs(P, Q, WEAK))
    base = bases[rng.randrange(len(bases))]
    pairs = constrained_pairs(P, base.values)
    while True:
        reals = [rng.uniform(-10.0, 10.0) for _ in range(len(P))]
        if all(reals[b] - reals[a] >= MARGIN for a, b in pairs):
            return LexHomPoint(base, tuple(reals), max(len(P), 1))


PAIRS = [(chain(2), chain(1)), (chain(3), chain(2)), (V, chain(2)),
         (antichain(2), chain(2))]


def test_roundtrip_with_stagewise_membership():
    rng = random.Random(12)
    for P, Q in PAIRS:
        for _ in range(300):
            x = sample_strict(P, Q, rng)
            fts = forward_trace(P, Q, x)
            for pt in fts:
                assert membership(P, Q, pt, pt.stage)
                assert pairwise_member(P, Q, pt, pt.stage)
            y = fts[-1]
            assert y.base.values == x.base.values
            bts = backward_trace(P, Q, y)
            for pt in bts:
                assert membership(P, Q, pt, pt.stage)
                assert pairwise_member(P, Q, pt, pt.stage)
            z = bts[-1]
            assert z.base.values == x.base.values
            err = max((abs(s - t) for s, t in zip(x.reals, z.reals)), default=0.0)
            assert err <= 1e-9


def test_backward_lands_in_strict_space():
    rng = random.Random(77)
    for P, Q in PAIRS:
        bases = list(enumerate_homs(P, Q, WEAK))
        for _ in range(200):
            base = bases[rng.randrange(len(bases))]
            pt = LexHomPoint(base, tuple(rng.uniform(-10, 10) for _ in range(len(P))), 1)
            out = backward(P, Q, pt)
            assert membership(P, Q, out, len(P))
            assert pairwise_member(P, Q, out, len(P))
            assert out.base.values == base.values


@pytest.mark.parametrize("n, edge_prob", [(12, 0.3), (10, 0.2)])
def test_backward_lands_in_strict_space_at_cli_sizes(n, edge_prob):
    Q = chain(3)
    for seed in range(3):
        P = random_poset(n, seed, edge_prob)
        bases = list(iter_hom_values(P, Q, WEAK))
        rng = random.Random(seed)
        for _ in range(50):
            base = MonotoneMap(P, Q, bases[rng.randrange(len(bases))], WEAK)
            pt = LexHomPoint(base, tuple(rng.uniform(-10, 10) for _ in range(n)), 1)
            assert membership(P, Q, backward(P, Q, pt), n)


def test_forward_is_increasing_in_last_coordinate():
    P, Q = chain(2), chain(1)
    outs = []
    for t in (0.001, 0.3, 0.9, 1.0, 2.0, 7.5):
        pt = mk_point(P, Q, (0, 0), (0.0, t), 2)
        outs.append(forward(P, Q, pt).reals[1])
    assert all(a < b for a, b in zip(outs, outs[1:]))


def test_trace_shapes():
    P, Q = chain(3), chain(1)
    pt = mk_point(P, Q, (0, 0, 0), (0.0, 1.0, 2.0), 3)
    fts = forward_trace(P, Q, pt)
    assert [p.stage for p in fts] == [2, 1]
    bts = backward_trace(P, Q, fts[-1])
    assert [p.stage for p in bts] == [2, 3]


def test_membership_matches_pairwise_oracle_on_small_posets():
    # bases mostly weakly monotone, reals drawn with ties and nan, often
    # sorted along the numbering so that both answers occur, at k = n and below
    rng = random.Random(36)
    pool = (-1.0, 0.0, 0.0, 1.0, 2.0, math.nan)
    seen = set()
    for P in small_posets(4):
        n = len(P)
        for Q in (chain(1), chain(2), V, antichain(2)):
            weak = list(iter_hom_values(P, Q, WEAK))
            for _ in range(3):
                if rng.random() < 0.75:
                    values = rng.choice(weak)
                else:
                    values = tuple(rng.randrange(len(Q)) for _ in range(n))
                reals = [rng.choice(pool) for _ in range(n)]
                if rng.random() < 0.5:
                    reals.sort()
                pt = mk_point(P, Q, values, reals, 1)
                for k in range(n + 2):
                    got = membership(P, Q, pt, k)
                    assert got == pairwise_member(P, Q, pt, k), (P, Q, pt, k)
                    seen.add((got, k == n))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("edge_prob", [0.3, 0.02])
def test_membership_matches_pairwise_oracle_at_n200(edge_prob):
    n = 200
    rng = random.Random(round(edge_prob * 100))
    P = random_poset(n, 5, edge_prob)
    for Q in (chain(3), V):
        bases = list(islice(iter_hom_values(P, Q, WEAK), 100))
        for _ in range(2):
            values = rng.choice(bases)
            free = LexHomPoint(MonotoneMap(P, Q, values, WEAK),
                               tuple(rng.uniform(-10.0, 10.0) for _ in range(n)), 1)
            strict = backward(P, Q, free)
            a, b = rng.choice(constrained_pairs(P, values))
            tied, nan = list(strict.reals), list(strict.reals)
            tied[b] = tied[a]
            nan[rng.randrange(n)] = math.nan
            moved = list(values)
            moved[rng.randrange(n)] = rng.randrange(len(Q))
            corrupted = [strict._replace(reals=tuple(tied)), strict._replace(reals=tuple(nan)),
                         strict._replace(base=MonotoneMap(P, Q, tuple(moved), WEAK))]
            assert not membership(P, Q, corrupted[0], n)
            for pt in [free, strict] + corrupted:
                for k in (b, b + 1, n):
                    assert membership(P, Q, pt, k) == pairwise_member(P, Q, pt, k)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_stage_bounds_match_usc_value(n):
    # each stage rewrites one coordinate, through the bijection at the
    # usc_spec bound of the point it starts from
    rng = random.Random(n)
    for seed, edge_prob in ((1, 0.3), (2, 0.05)):
        P = random_poset(n, seed, edge_prob)
        for Q in (chain(1), chain(3), V):
            bases = list(islice(iter_hom_values(P, Q, WEAK), 200))
            for _ in range(3):
                prev = LexHomPoint(MonotoneMap(P, Q, rng.choice(bases), WEAK),
                                   tuple(rng.uniform(-60.0, 60.0) for _ in range(n)), 1)
                for inverse, trace in ((True, backward_trace), (False, forward_trace)):
                    for pt in trace(P, Q, prev):
                        k = pt.stage - 1 if inverse else pt.stage
                        phi = lemma_phi_inv if inverse else lemma_phi
                        expect = list(prev.reals)
                        expect[k] = phi(usc_value(prev, k), prev.reals[k])
                        assert float_bits(pt) == [t.hex() for t in expect]
                        prev = pt


class CountingPoset(FinitePoset):
    """The same poset, counting its calls to `less`."""

    def __init__(self, P):
        super().__init__(P.elements, P.succ_masks)
        self.less_calls = 0

    def less(self, i, j):
        self.less_calls += 1
        return super().less(i, j)


def test_homeo_reads_covers_not_pairs():
    # a deterministic cost guard: no comparison of P, at most one of Q per cover
    n = 200
    P, Q = CountingPoset(random_poset(n, 5, 0.3)), CountingPoset(chain(3))
    covers = len(P.covers)
    values = list(islice(iter_hom_values(P, Q, WEAK), 50))[-1]
    rng = random.Random(200)
    free = LexHomPoint(MonotoneMap(P, Q, values, WEAK),
                       tuple(rng.uniform(-10.0, 10.0) for _ in range(n)), 1)
    strict = backward(P, Q, free)
    runs = {"membership(1)": lambda: membership(P, Q, free, 1),
            "membership(n)": lambda: membership(P, Q, strict, n),
            "forward": lambda: forward(P, Q, strict),
            "backward": lambda: backward(P, Q, free)}
    for name, run in runs.items():
        P.less_calls = Q.less_calls = 0
        run()
        assert P.less_calls == 0, name
        assert 0 < Q.less_calls <= covers, name
