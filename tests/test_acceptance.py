"""End-to-end acceptance checks.

Each test prints one line `ACCEPTANCE <n> <name>: PASS/FAIL (<detail>)` and
then asserts, so the module doubles as a checklist. All comparisons are
exact except the homeomorphism round trip, which uses the documented
1e-9 componentwise tolerance.
"""

import random

from ordhom import (
    STRICT,
    WEAK,
    LexHomPoint,
    LexPoset,
    antichain,
    backward,
    backward_trace,
    build_poset,
    chain,
    check_euler_reciprocity,
    check_stanley_reciprocity,
    count_components,
    count_homs,
    enumerate_homs,
    euler_hom,
    evaluate,
    forward_trace,
    membership,
    order_polynomial,
    random_poset,
)

from _corpus import (constrained_pairs, named_five, pairwise_member, random_posets,
                     small_posets)

MODES = (STRICT, WEAK)
SAMPLE_MARGIN = 2.0 ** -40
ROUNDTRIP_TOLERANCE = 1e-9


def report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


def test_1_stanley_reciprocity():
    corpus = list(small_posets(4))
    corpus += random_posets(5, 100, seed=101)
    corpus += random_posets(6, 100, seed=202)
    bad = sum(1 for P in corpus if not check_stanley_reciprocity(P).holds)
    report(1, "stanley_reciprocity", bad == 0,
           f"{len(corpus)} posets, exact coefficient equality, {bad} failures")


def test_2_order_polynomial_out_of_sample():
    corpus = list(small_posets(4)) + named_five() + random_posets(5, 40, seed=303)
    checks = bad = 0
    for P in corpus:
        for mode in MODES:
            poly = order_polynomial(P, mode)
            for n in range(len(P) + 2, len(P) + 6):
                checks += 1
                if evaluate(poly, n) != count_homs(P, chain(n), mode):
                    bad += 1
    report(2, "order_polynomial_out_of_sample", bad == 0,
           f"{len(corpus)} posets, {checks} evaluations past the "
           f"interpolation nodes, {bad} mismatches")


def test_3_euler_reciprocity():
    identities = bad = 0
    targets = list(small_posets(3))
    for P in small_posets(4):
        for Q0 in targets:
            for depth in (0, 1):
                for rep in check_euler_reciprocity(P, LexPoset(Q0, depth)):
                    identities += 1
                    bad += not rep.holds
    spot_targets = [chain(1), chain(2), antichain(2)]
    for i in range(12):
        P = random_poset(5, seed=404 + i)
        for Q0 in spot_targets:
            for rep in check_euler_reciprocity(P, LexPoset(Q0, 2)):
                identities += 1
                bad += not rep.holds
    report(3, "euler_reciprocity", bad == 0,
           f"{identities} identities (exhaustive to |P|=4, |Q0|=3, depth 1; "
           f"12 seeded |P|=5 posets at depth 2), {bad} failures")


def test_4_euler_matches_order_polynomial():
    checks = bad = 0
    for P in small_posets(4):
        for mode in MODES:
            poly = order_polynomial(P, mode)
            for m in range(4):
                target = chain(m)
                for k in range(3):
                    checks += 1
                    lhs = euler_hom(P, LexPoset(target, k), mode)
                    if lhs != evaluate(poly, ((-1) ** k) * m):
                        bad += 1
    report(4, "euler_matches_order_polynomial", bad == 0,
           f"{checks} evaluations of the stratification engine against the "
           f"polynomial route, {bad} mismatches")


def test_5_components_versus_euler():
    target = LexPoset(chain(2), 1)
    comps = count_components(chain(2), target, WEAK)
    eu = euler_hom(chain(2), target, WEAK)
    strict_side = count_homs(chain(2), chain(2), STRICT)
    ok = comps == 3 and eu == 1 and strict_side == 1
    report(5, "components_versus_euler", ok,
           f"weak lex space: {comps} components, euler {eu}; strict product "
           f"side: {strict_side} component")


def _sample(P, bases, pair_table, rng):
    while True:
        i = rng.randrange(len(bases))
        reals = [rng.uniform(-10.0, 10.0) for _ in range(len(P))]
        if all(reals[b] - reals[a] >= SAMPLE_MARGIN for a, b in pair_table[i]):
            return LexHomPoint(bases[i], tuple(reals), max(len(P), 1))


def test_6_homeomorphism_roundtrip():
    pairs = [
        (chain(2), chain(1)),
        (chain(3), chain(2)),
        (build_poset("abc", [("a", "b"), ("a", "c")]), chain(2)),
        (antichain(2), chain(2)),
    ]
    rng = random.Random(505)
    points_per_pair = 10_000
    max_err = 0.0
    bases_ok = stages_ok = free_ok = True
    # free points (weak base, any reals) exercise backward alone, so a
    # fault that forward and backward share cannot cancel out
    free_rng = random.Random(606)
    for P, Q in pairs:
        bases = list(enumerate_homs(P, Q, WEAK))
        pair_table = [constrained_pairs(P, b.values) for b in bases]
        for _ in range(points_per_pair):
            x = _sample(P, bases, pair_table, rng)
            fwd = forward_trace(P, Q, x)
            bwd = backward_trace(P, Q, fwd[-1])
            for pt in fwd + bwd:
                if not (membership(P, Q, pt, pt.stage)
                        and pairwise_member(P, Q, pt, pt.stage)):
                    stages_ok = False
            y = bwd[-1]
            if y.base.values != x.base.values:
                bases_ok = False
            for s, t in zip(x.reals, y.reals):
                max_err = max(max_err, abs(s - t))
            free = LexHomPoint(bases[free_rng.randrange(len(bases))],
                               tuple(free_rng.uniform(-10.0, 10.0) for _ in range(len(P))), 1)
            if not pairwise_member(P, Q, backward(P, Q, free), len(P)):
                free_ok = False
    ok = max_err <= ROUNDTRIP_TOLERANCE and bases_ok and stages_ok and free_ok
    report(6, "homeomorphism_roundtrip", ok,
           f"{points_per_pair} points per pair on {len(pairs)} pairs, "
           f"max |roundtrip - identity| = {max_err:.3e} "
           f"(tolerance {ROUNDTRIP_TOLERANCE:.0e}), bases equal: {bases_ok}, "
           f"all stages pass membership and the pairwise oracle: {stages_ok}, "
           f"{points_per_pair} free points per pair map strictly monotone "
           f"under backward: {free_ok}")


def test_7_empty_strict_space_consistency():
    strict_count = count_homs(chain(2), chain(1), STRICT)
    lhs = euler_hom(chain(2), LexPoset(chain(1), 1), WEAK)
    rhs = ((-1) ** 2) * euler_hom(chain(2), LexPoset(chain(1), 0), STRICT)
    ok = strict_count == 0 and lhs == rhs == 0
    report(7, "empty_strict_space_consistency", ok,
           f"strict map count {strict_count}, weak lex euler {lhs}, "
           f"signed strict euler {rhs}")
