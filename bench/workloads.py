"""The benchmark's four workloads.

Each workload turns a seed into a fixed pool of ops (`setup`; `write_files`
then puts any input files on disk, untimed), runs one op (`run`), checks an
op's output (`check`, outside the timed region) and
reduces an output to its exact, discrete part (`record`), which is what the
recorded default-seed outputs are compared against. Floats (homeo reals and
round-trip errors) are left out of `record`: they are checked against the
library's tolerance instead.

The library is always called through the ``ordhom`` package namespace, at
call time, so that the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import ordhom
from ordhom import STRICT, WEAK

FIVE_ELEMENT_POSETS = 4231   # labeled posets on 5 elements (OEIS A001035)
# prefix of the problem that marks a workload's one known defect: a failed
# op, not a wrong output
REFUSED = "refused: "
# the CLI's error when the roundtrip's rejection sampler gives up
SAMPLER_GIVE_UP = ("could not sample a strictly monotone point; the pair forces "
                   "long coordinate chains, supply a point file instead")
CLI_TIMEOUT_S = 60


def _rng(workload, seed, purpose="inputs"):
    return random.Random(f"{workload}:{seed}:{purpose}")


def _poly(poly):
    return [str(c) for c in poly.coefficients]


def _orderpoly_value(P, base_size, depth, mode):
    """The order polynomial of P in ``mode`` evaluated at the Euler
    characteristic (-1)**depth * base_size of chain(base_size) x R**depth,
    i.e. what `euler_via_orderpoly` returns, without interpolating.

    At a positive point the polynomial counts maps into the chain; at a
    negative point Stanley reciprocity turns it into the other mode's count:
    strict(-m) = (-1)**|P| weak(m) and weak(-m) = (-1)**|P| strict(m).
    """
    chain = ordhom.chain(base_size)
    if depth % 2 == 0:
        return ordhom.count_homs(P, chain, mode)
    other = WEAK if mode == STRICT else STRICT
    return (-1) ** len(P) * ordhom.count_homs(P, chain, other)


def _comparable_pairs(P):
    return sum(bin(mask).count("1") for mask in P.pred_masks)


def _random_poset(n, p, pairs, rng):
    """A seeded ``random_poset(n, ., p)`` with exactly ``pairs`` comparable
    pairs, redrawn until it has them.

    The cost of an order polynomial or an Euler characteristic varies
    mostly with that number: about fivefold across the numbers edge
    probability 0.7 gives at n = 8, against a coefficient of variation of
    0.15-0.35 at one number. Fixing it per class keeps the runs of
    different seeds of equal weight, while their posets still differ.
    Each class takes the most frequent number at its edge probability, or
    one below it.
    """
    while True:
        P = ordhom.random_poset(n, rng.getrandbits(32), p)
        if _comparable_pairs(P) == pairs:
            return P


def _stanley_problems(P, report):
    """Stanley reciprocity and the out-of-sample value at m = |P| + 2."""
    problems = [] if report.holds else ["Stanley reciprocity fails"]
    m = len(P) + 2
    for mode, poly in ((STRICT, report.strict), (WEAK, report.weak)):
        value = ordhom.evaluate(poly, m)
        count = ordhom.count_homs(P, ordhom.chain(m), mode)
        if value != count:
            problems.append(f"{mode} polynomial at {m} is {value}, count_homs gives {count}")
    return problems


class Workload:
    name = ""
    # the `record` of an op refused by the known defect, or None
    known_refusal_record = None
    # ops a run makes per --seconds: about what one CPU-second completed on
    # the 2-CPU machine the benchmark was sized on, at the first commit of
    # the benchmark, or more where p50 and p90 need more samples. A run is
    # a fixed number of ops (`run.run_ops`); this only sizes it.
    ops_per_s = 1.0

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.ops = []

    def setup(self):
        """Generate the op pool from the seed (timed as set-up)."""
        raise NotImplementedError

    def write_files(self):
        """Write the input files the last `setup` generated (untimed)."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, output):
        """List of problems with an op's output; empty when it is right."""
        raise NotImplementedError

    def record(self, op, output):
        raise NotImplementedError

    def check_key(self, index, op):
        """Ops with equal keys have equal inputs, so one check covers them."""
        return index


class OrdPoly(Workload):
    """Seeded random posets at n = 7..8 over a range of edge probabilities,
    each class with a fixed number of comparable pairs (`_random_poset`),
    plus the chain and antichain extremes. Stratified: every round of the
    pool holds one poset of each class, in a seeded order, so that seeds
    differ in the posets drawn and not in the mix of sizes."""

    name = "ordpoly"
    # (n, edge probability, comparable pairs), or an extreme. The classes'
    # latencies form clusters; by median (CPU ms on the machine the
    # benchmark was sized on): (7, 20) 23, (7, 18) 33, (7, 15) 54, chain 58,
    # (8, 27) 78, (8, 26) 104, antichain 140, (8, 23) 174. (8, 27) comes
    # twice in a round, so that p50 falls inside its cluster rather than in
    # the gap below it, where it would jump from seed to seed.
    CLASSES = ((7, 0.5, 15), (7, 0.65, 18), (7, 0.8, 20), (8, 0.6, 23), (8, 0.8, 26),
               (8, 0.9, 27), (8, 0.9, 27), ("chain", 8, None), ("antichain", 6, None))
    ROUNDS = 30   # 270 ops, 1.5 times what a 10 s run makes
    # 1.5 times the CPU rate: p50 and p90 spread too much from seed to
    # seed on fewer ops
    ops_per_s = 18

    def setup(self):
        rng = _rng(self.name, self.seed)
        ops = []
        for _ in range(self.ROUNDS):
            round_ops = []
            for kind, arg, pairs in self.CLASSES:
                if kind == "chain":
                    P = ordhom.chain(arg)
                elif kind == "antichain":
                    P = ordhom.antichain(arg)
                else:
                    P = _random_poset(kind, arg, pairs, rng)
                round_ops.append(P)
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        self.ops = ops

    def run(self, P):
        return ordhom.check_stanley_reciprocity(P)

    def check(self, P, report):
        return _stanley_problems(P, report)

    def record(self, P, report):
        return {"strict": _poly(report.strict), "weak": _poly(report.weak)}

    def check_key(self, index, P):
        return P.elements, P.covers


class Sweep(Workload):
    """Every labeled poset on at most four elements and a seeded 90% of the
    five-element ones, drawn in order through `all_posets` (the next()
    calls that skip an undrawn poset are part of the op that follows). Each
    op checks Stanley reciprocity and both Euler reciprocity identities into
    chain(2) x R; the Euler memo is shared by all ops of a run. A run takes
    the first ops of the pool (about 4050 ops) in order: every smaller
    poset, then the drawn five-element ones in `all_posets` order."""

    name = "sweep"
    MAX_N = 5
    SHARE = 0.9
    ops_per_s = 125

    def setup(self):
        rng = _rng(self.name, self.seed)
        drawn = [j for j in range(FIVE_ELEMENT_POSETS) if rng.random() < self.SHARE]
        self.drawn = set(drawn)
        self.target = ordhom.LexPoset(ordhom.chain(2), 1)
        small = [(n, j) for n, count in ((1, 1), (2, 3), (3, 19), (4, 219))
                 for j in range(count)]
        self.ops = small + [(self.MAX_N, j) for j in drawn]
        self.stream = None

    def _stream(self):
        for n in range(1, self.MAX_N + 1):
            for j, P in enumerate(ordhom.all_posets(n)):
                if n < self.MAX_N or j in self.drawn:
                    yield n, j, P

    def run(self, op):
        if self.stream is None:
            self.stream = self._stream()
        n, j, P = next(self.stream)
        if (n, j) != op:
            raise RuntimeError(f"all_posets stream drew {(n, j)}, expected {op}")
        return (P, ordhom.check_stanley_reciprocity(P),
                ordhom.check_euler_reciprocity(P, self.target))

    def check(self, op, output):
        P, stanley, (first, second) = output
        problems = _stanley_problems(P, stanley)
        if not (first.holds and second.holds):
            problems.append("Euler reciprocity fails")
        # chain base: each Euler characteristic is the order polynomial at
        # euler_char of its target, which euler_via_orderpoly computes
        sign = (-1) ** len(P)
        q, neg_q = self.target, ordhom.negate(self.target)
        for value, target, poly in ((first.lhs, q, stanley.strict),
                                    (sign * first.rhs, neg_q, stanley.weak),
                                    (second.lhs, neg_q, stanley.strict),
                                    (sign * second.rhs, q, stanley.weak)):
            expected = ordhom.evaluate(poly, ordhom.euler_char(target))
            if value != expected:
                problems.append(f"euler_hom {value} != order polynomial value {expected}")
        return problems

    def record(self, op, output):
        _P, stanley, reports = output
        return {"strict": _poly(stanley.strict), "weak": _poly(stanley.weak),
                "euler": [[r.lhs, r.rhs] for r in reports]}


class Euler(Workload):
    """Seeded P at n = 8..9 (n = 10 at depth 1 only), each class with a
    fixed number of comparable pairs as in ordpoly, into chain bases and
    non-chain bases (the fork, antichain(2)) at depth 1..2, plus
    count_components at depth 1 for smaller P. Stratified like ordpoly; the
    Euler memo starts empty in every run and fills as the run goes; a run
    never comes back to an input it has seen."""

    name = "euler"
    FORK = ("abc", (("a", "b"), ("a", "c")))
    # (kind, n, edge probability, comparable pairs, base, depth); base is a
    # chain length or a name
    CLASSES = (
        ("modes", 8, 0.7, 26, 2, 1),
        ("modes", 8, 0.8, 27, 4, 2),
        ("modes", 10, 0.85, 44, 3, 1),
        ("reciprocity", 9, 0.85, 35, 3, 1),
        ("reciprocity", 8, 0.7, 26, "fork", 1),
        ("reciprocity", 9, 0.75, 34, "antichain2", 1),
        ("components", 6, 0.6, 12, 3, 1),
        ("components", 5, 0.5, 6, "fork", 1),
    )
    ROUNDS = 64   # 512 ops, 1.2 times what a 10 s run makes
    ops_per_s = 42

    def _base(self, base):
        if base == "fork":
            return ordhom.build_poset(*self.FORK)
        if base == "antichain2":
            return ordhom.antichain(2)
        return ordhom.chain(base)

    def setup(self):
        rng = _rng(self.name, self.seed)
        ops = []
        for _ in range(self.ROUNDS):
            round_ops = []
            for kind, n, p, pairs, base, depth in self.CLASSES:
                P = _random_poset(n, p, pairs, rng)
                round_ops.append((kind, P, base, ordhom.LexPoset(self._base(base), depth)))
            rng.shuffle(round_ops)
            ops.extend(round_ops)
        self.ops = ops

    def run(self, op):
        kind, P, _base, Q = op
        if kind == "modes":
            return ordhom.euler_hom(P, Q, STRICT), ordhom.euler_hom(P, Q, WEAK)
        if kind == "reciprocity":
            return ordhom.check_euler_reciprocity(P, Q)
        return ordhom.count_components(P, Q, STRICT), ordhom.count_components(P, Q, WEAK)

    def check(self, op, output):
        kind, P, base, Q = op
        problems = []
        chain_base = isinstance(base, int)
        if kind == "modes":
            pairs = [(output[0], STRICT, Q.depth), (output[1], WEAK, Q.depth)]
        elif kind == "reciprocity":
            first, second = output
            if not (first.holds and second.holds):
                problems.append("Euler reciprocity fails")
            sign = (-1) ** len(P)
            pairs = [(first.lhs, STRICT, Q.depth), (sign * first.rhs, WEAK, Q.depth + 1),
                     (second.lhs, STRICT, Q.depth + 1), (sign * second.rhs, WEAK, Q.depth)]
        else:
            # weak maps (constant base maps) and strict maps (constant base,
            # distinct reals along a linear extension) always exist
            if min(output) < 1:
                problems.append(f"component counts {output} include an empty space")
            pairs = []
        if chain_base:
            for value, mode, depth in pairs:
                expected = _orderpoly_value(P, base, depth, mode)
                if value != expected:
                    problems.append(f"{mode} depth {depth}: euler_hom {value} != "
                                    f"order polynomial value {expected}")
        return problems

    def record(self, op, output):
        if op[0] == "reciprocity":
            return [[r.lhs, r.rhs] for r in output]
        return list(output)


def _poset_doc(P):
    return {"elements": list(P.elements), "covers": [list(c) for c in P.covers]}


def _linear_ranks(P, rng):
    """Rank of each element in a seeded random linear extension of P."""
    remaining = set(range(len(P)))
    ranks = [0] * len(P)
    for r in range(len(P)):
        minimal = sorted(i for i in remaining
                         if not P.pred_masks[i] & sum(1 << j for j in remaining))
        i = rng.choice(minimal)
        ranks[i] = r
        remaining.remove(i)
    return ranks


def _point_docs(P, Q, rng):
    """A strictly monotone point of P -> Q x R and a free point with the
    same weakly monotone base, both in P's element order."""
    ranks = _linear_ranks(P, rng)
    n, q = len(P), len(Q)
    base = [Q.elements[min(q - 1, r * q // n)] for r in ranks]
    strict = {"base": base, "reals": [r + rng.uniform(0.0, 0.5) for r in ranks]}
    free = {"base": base, "reals": [rng.uniform(-10.0, 10.0) for _ in range(n)]}
    return strict, free


def _strict_problems(P, Q, records):
    """Every output point must be weakly monotone in its base and strictly
    increasing in its reals along comparable pairs with equal base."""
    problems = []
    for rec in records:
        base = [Q.index(b) for b in rec["base"]]
        reals = rec["reals"]
        for i in range(len(P)):
            for j in range(len(P)):
                if not P.less(i, j):
                    continue
                if base[i] != base[j] and not Q.less(base[i], base[j]):
                    problems.append("output base map is not monotone")
                elif base[i] == base[j] and not reals[i] < reals[j]:
                    problems.append("output point is not strictly monotone")
    return problems[:1]


class Cli(Workload):
    """One client running sequential ``python -m ordhom.cli ... --json``
    processes over all six subcommands: the repo fixtures plus poset and
    point files written at set-up, with heavy ``homeo --random`` requests
    (backward at n = 12, roundtrip at n = 10..12). The roundtrip's rejection
    sampler gives up on some drawn pairs; the CLI then exits 1 with
    SAMPLER_GIVE_UP and the op counts as failed. Set-up generates the files'
    JSON text; writing them is left out of set-up time."""

    name = "cli"
    ROUNDS = 30   # 330 ops; a 10 s run makes MIN_OPS of them
    ops_per_s = 2.6
    known_refusal_record = {"error": SAMPLER_GIVE_UP}

    def _write(self, name, doc):
        path = self.files / name
        self.texts[path] = json.dumps(doc)
        return str(path.relative_to(self.root))

    def write_files(self):
        self.files.mkdir(parents=True, exist_ok=True)
        for path, text in self.texts.items():
            path.write_text(text, encoding="utf-8")

    def setup(self):
        rng = _rng(self.name, self.seed)
        self.files = self.workdir / "files"
        self.texts = {}
        self.posets = {}
        c2 = self._write("chain2.json", _poset_doc(ordhom.chain(2)))
        c3 = self._write("chain3.json", _poset_doc(ordhom.chain(3)))
        fx = "fixtures"
        ops = []
        for r in range(self.ROUNDS):
            def poset(tag, n, p):
                P = ordhom.random_poset(n, rng.getrandbits(32), p)
                path = self._write(f"r{r}_{tag}.json", _poset_doc(P))
                self.posets[path] = P
                return path
            p5, p6, p6b, p7, p8 = (poset("p5", 5, 0.4), poset("p6", 6, 0.4),
                                   poset("p6b", 6, 0.4), poset("p7", 7, 0.5),
                                   poset("p8", 8, 0.3))
            p12, p10 = poset("p12", 12, 0.3), poset("p10", 10 + r % 3, 0.2)
            strict, free = _point_docs(self.posets[p8], ordhom.chain(3), rng)
            pt_strict = self._write(f"r{r}_strict.json", strict)
            pt_free = self._write(f"r{r}_free.json", free)
            seed = str(rng.getrandbits(31))
            round_ops = [
                ["homcount", p5, c3, "--mode", "weak", "--list"],
                ["homcount", f"{fx}/chain2.json", f"{fx}/chain3.json", "--mode", "strict", "--list"],
                ["ordpoly", p6, "--mode", "strict", "--eval=8"],
                ["reciprocity", p6b if r % 2 else f"{fx}/v.json"],
                ["euler", p7, c2, "--depth", "1", "--mode", "weak"],
                ["euler-reciprocity", p6, c2, "--depth", "1", "--components"],
                ["homeo", f"{fx}/chain2.json", f"{fx}/chain1.json",
                 f"{fx}/point_chain2_into_chain1.json", "--direction", "forward"],
                ["homeo", p8, c3, pt_strict, "--direction", "forward"],
                ["homeo", p8, c3, pt_free, "--direction", "backward"],
                ["homeo", p12, c3, "--random", "300", "--seed", seed, "--direction", "backward"],
                ["homeo", p10, c3, "--random", "100", "--seed", seed, "--direction", "roundtrip"],
            ]
            rng.shuffle(round_ops)
            ops.extend(op + ["--json"] for op in round_ops)
        self.ops = ops

    def env(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def run(self, op):
        # the timeout kills a hung command, so a run always ends; the op
        # then raises and counts as crashed
        proc = subprocess.run([sys.executable, "-m", "ordhom.cli", *op], cwd=self.root, env=self.env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def _load(self, path):
        if path in self.posets:
            return self.posets[path]
        P, _depth = ordhom.load_poset(self.root / path)
        return P

    def check(self, op, output):
        code, stdout, stderr = output
        report = json.loads(stdout) if code in (0, 1) and stdout else {}
        error = report.get("result", {}).get("error") if code == 1 else None
        if error is not None and self._sampler_gave_up(op, error):
            return [f"{REFUSED}exit code 1: {error}"]
        if code != 0 or report.get("status") != "ok":
            return [f"exit code {code}, status {report.get('status')!r}: "
                    f"{stderr.strip()[-300:]}"]
        command, result = op[0], report["result"]
        problems = []
        if command == "homcount":
            P, Q = self._load(op[1]), self._load(op[2])
            count = ordhom.count_homs(P, Q, op[4])
            if result["count"] != count or len(result["maps"]) != count:
                problems.append(f"homcount {result['count']} != {count}")
        elif command == "ordpoly":
            P = self._load(op[1])
            m = int(op[4].split("=")[1])
            count = ordhom.count_homs(P, ordhom.chain(m), op[3])
            if result["eval"]["value"] != str(count):
                problems.append(f"ordpoly at {m} is {result['eval']['value']}, count is {count}")
        elif command == "reciprocity":
            if not result["holds"]:
                problems.append("Stanley reciprocity fails")
        elif command == "euler":
            P, Q = self._load(op[1]), self._load(op[2])
            expected = _orderpoly_value(P, len(Q), int(op[4]), op[6])
            if result["euler"] != expected:
                problems.append(f"euler {result['euler']} != order polynomial value {expected}")
        elif command == "euler-reciprocity":
            if not result["holds"]:
                problems.append("Euler reciprocity fails")
            # constant base maps with reals along a linear extension are
            # weak lex maps, so that space is never empty
            if result["components"]["weak_lex_space"] < 1:
                problems.append("no component of weak maps into the lex product")
        else:
            problems.extend(self._homeo_problems(op, result))
        return problems

    @staticmethod
    def _sampler_gave_up(op, error):
        return (op[0] == "homeo" and "--random" in op
                and op[op.index("--direction") + 1] == "roundtrip"
                and error == SAMPLER_GIVE_UP)

    def _homeo_problems(self, op, result):
        P, Q = self._load(op[1]), self._load(op[2])
        direction = op[op.index("--direction") + 1]
        if direction == "roundtrip":
            if not (result["within_tolerance"] and result["base_maps_equal"]):
                return ["round trip outside tolerance or base map changed"]
            return []
        problems = []
        if "--random" not in op:
            given = json.loads((self.root / op[3]).read_text())
            if [out["base"] for out in result["outputs"]] != [given["base"]]:
                problems.append("base map not preserved")
        if direction == "forward" and not result["base_preserved"]:
            problems.append("forward reports the base map changed")
        if direction == "backward":
            problems.extend(_strict_problems(P, Q, result["outputs"]))
        return problems

    def record(self, op, output):
        result = json.loads(output[1])["result"]
        if "error" in result:
            return result
        result.pop("max_error", None)
        for out in result.get("outputs", []):
            out.pop("reals")
        return result


WORKLOADS = {w.name: w for w in (OrdPoly, Sweep, Euler, Cli)}
