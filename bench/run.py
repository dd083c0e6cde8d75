"""Layered benchmark for ordhom.

    python3 bench/run.py --workload {ordpoly,sweep,euler,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src``. Each
invocation is one fresh interpreter running one workload, a closed loop
with one client: the next op starts when the previous one returns. Inputs
come from the seed alone (`workloads.py`); set-up is repeated for at
least SETUP_MIN_S and SETUP_REPEATS times, and its median reported. A
timed run makes one pass over the first `run_ops` ops of the pool, so no
op sees the state (the Euler memo) its own input left behind. That count
is --seconds times the workload's `ops_per_s`, and at least MIN_OPS, so
p90 has at least ten samples beyond it. A run is thus a fixed amount of
work, whatever the speed of the machine or of the program: a faster
program does the same ops in less time, and the memo has seen as many
inputs when a run ends.
Every op's output is checked after the timed loop; with the default seed it
must also match the outputs recorded in ``expected/`` (refresh them with
--record on a commit whose outputs are known to be right).

Every time is CPU time (`cpu_clock`): that of this process, plus that of
the CLI processes for cli. The ops are single-threaded and wait on nothing
but the CPU, so on a machine of their own their CPU time is their wall
time. On a shared virtual machine the wall time also holds the time the
host gives the CPU to others, which swings by a factor of two within
seconds and is not the program's. The run line also gives the wall-clock
figures. --trace 0 prints the end-to-end metrics.
--trace 1 runs the ops through the span wrappers of `tracing.py` for half
the ops and then, as the untraced reference for trace.overhead_pct, the
same ops in a fresh child interpreter. For cli, each op runs once
untraced and once in a traced child process (``cli_shim.py``). The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 20210201   # kept for confirming gain claims; not used for tuning
SETUP_REPEATS = 9
# cheap set-ups repeat until this much set-up time is summed, so that
# their median rests on many samples
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 1000
TAIL_SAMPLES = 10
# the nearest-rank p90 of n samples leaves floor(n / 10) beyond it
MIN_OPS = TAIL_SAMPLES * 10
INTERP_SAMPLES = 5
# a timed loop also ends after this much wall time, so that a run on a
# starved machine still ends in time
WALL_CAP_S = 120.0


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def samples_beyond(count, pct):
    """Samples strictly above the nearest-rank percentile's position."""
    return count - max(1, -(-pct * count // 100))


def digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "numpy": numpy_version, "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seed_role": {DEFAULT_SEED: "default",
                          HELD_OUT_SEED: "held-out"}.get(args.seed, "other"),
            "traced": bool(args.trace), "seconds": args.seconds}


def cpu_clock():
    """CPU seconds used so far by this process and its ended children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_ops(w, seconds, floor=MIN_OPS):
    """Ops in a run of ``seconds``: at least ``floor``, at most the pool."""
    return min(len(w.ops), max(floor, round(seconds * w.ops_per_s)))


def timed_ops(w, count, tracer=None):
    """Closed loop over the first ``count`` ops of the pool, in order, or
    fewer if it has run for WALL_CAP_S. Returns (outputs, CPU latencies,
    CPU elapsed, wall elapsed); an op that raises leaves its exception as
    its output."""
    from tracing import ROOT as ROOT_SPAN

    def run(op):
        if tracer is None:
            return w.run(op)
        index = tracer.open(ROOT_SPAN)
        try:
            return w.run(op)
        finally:
            tracer.close(index)

    clock, wall = cpu_clock, time.perf_counter
    outputs, latencies = [], []
    start, wall_start = clock(), wall()
    while len(outputs) < count and wall() - wall_start < WALL_CAP_S:
        op = w.ops[len(outputs)]
        t0 = clock()
        try:
            out = run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        t1 = clock()
        outputs.append(out)
        latencies.append(t1 - t0)
    return outputs, latencies, clock() - start, wall() - wall_start


def check_outputs(w, outputs, expected):
    """Failed ops as (pool index, kind, reason), kind being "refused",
    "crashed" (the op raised) or "wrong". "refused" is only the workload's
    known defect (`Workload.check` marks it with REFUSED) and, with the
    default seed, only on an op whose recorded output was that refusal;
    every other failure is "crashed" or "wrong" and makes the run
    incorrect. Equal inputs are checked once and must give equal outputs."""
    from workloads import REFUSED

    refusal = w.known_refusal_record
    refusal_digest = None if refusal is None else digest(refusal)
    failures = []
    verdicts = {}
    for index, out in enumerate(outputs):
        op = w.ops[index]
        if isinstance(out, Exception):
            failures.append((index, "crashed", f"{type(out).__name__}: {out}"))
            continue
        try:
            rec = digest(w.record(op, out))
            key = w.check_key(index, op)
            if key not in verdicts:
                verdicts[key] = (w.check(op, out), rec)
            problems, first = verdicts[key]
            problems = list(problems)
            if rec != first:
                problems.append("output differs from an earlier op on the same input")
            # an op recorded as the known refusal may now succeed, once
            # the defect is fixed; its checks above then decide alone
            fixed = expected is not None and expected[index] == refusal_digest and not problems
            if expected is not None and rec != expected[index] and not fixed:
                problems.append("output differs from the recorded default-seed output")
        except Exception as exc:  # a malformed output fails its op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            refused = len(problems) == 1 and problems[0].startswith(REFUSED)
            failures.append((index, "refused" if refused else "wrong",
                             "; ".join(p.removeprefix(REFUSED) for p in problems)))
    return failures


def expected_path(name):
    return BENCH / "expected" / f"{name}.json"


def load_expected(w):
    path = expected_path(w.name)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc["seed"] != w.seed:
        return None
    if len(doc["digests"]) != len(w.ops):
        raise SystemExit(f"{path} records {len(doc['digests'])} ops, the pool has {len(w.ops)}")
    return doc["digests"]


def setup_median(w):
    """Median CPU time of a set-up, over at least SETUP_REPEATS set-ups and
    SETUP_MIN_S of summed set-up time (at most SETUP_MAX_REPEATS)."""
    times = []
    while len(times) < SETUP_MAX_REPEATS and (len(times) < SETUP_REPEATS
                                               or sum(times) < SETUP_MIN_S):
        t0 = cpu_clock()
        w.setup()
        times.append(cpu_clock() - t0)
    return statistics.median(times), len(times)


def untraced_run(w, args):
    setup_s, setup_repeats = setup_median(w)
    w.write_files()
    count = args.ops if args.ops is not None else run_ops(w, args.seconds)
    outputs, latencies, elapsed, wall_s = timed_ops(w, count)
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    latencies_ms = [t * 1000 for t in latencies]
    metrics = {
        "ops_per_s": (len(outputs) / elapsed, "1/s"),
        "op_p50_ms": (percentile(latencies_ms, 50), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    info = {"ops": len(outputs), "cpu_s": elapsed, "wall_s": wall_s,
            "wall_ops_per_s": len(outputs) / wall_s,
            "p90_samples_beyond": samples_beyond(len(outputs), 90),
            "setup_repeats": setup_repeats}
    return outputs, metrics, info


def child_reference(args, count):
    """CPU time of the same ``count`` ops, untraced, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--ops", str(count)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith('{"stamp"'):
            return json.loads(line)["run"]["cpu_s"]
    raise RuntimeError("untraced reference run printed no run line")


def interpreter_ms(w, code):
    times = []
    for _ in range(INTERP_SAMPLES):
        t0 = cpu_clock()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=w.env(), check=True)
        times.append(cpu_clock() - t0)
    return statistics.median(times) * 1000


def traced_cli(w, count, tracer):
    """Each of ``count`` ops once as a plain CLI process and once traced
    in cli_shim."""
    from workloads import CLI_TIMEOUT_S
    interp_ms = interpreter_ms(w, "pass")
    import_ms = interpreter_ms(w, "import ordhom") - interp_ms
    totals_path = w.workdir / "trace_totals.json"
    shim = [sys.executable, str(BENCH / "cli_shim.py"), str(totals_path)]
    outputs, plain_s, traced_s, outside_main_s = [], 0.0, 0.0, 0.0
    clock = cpu_clock
    for op in w.ops[:count]:
        totals_path.unlink(missing_ok=True)
        t0 = clock()
        w.run(op)
        t1 = clock()
        proc = subprocess.run(shim + op, cwd=ROOT, env=w.env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        t2 = clock()
        main_s = 0.0
        if totals_path.is_file():  # absent when the shim crashed; the check fails the op
            totals = json.loads(totals_path.read_text())
            tracer.merge(totals)
            main_s = totals["root_s"]
        plain_s += t1 - t0
        traced_s += t2 - t1
        outside_main_s += (t2 - t1) - main_s
        outputs.append((proc.returncode, proc.stdout, proc.stderr))
    ops = len(outputs)
    tracer.root_s += outside_main_s
    tracer.self_s["bench"] += outside_main_s
    extra = {
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main.self_ms": tracer.self_s["cli.main"] * 1000 / ops,
        "cli.process_overhead_ms": outside_main_s * 1000 / ops,
    }
    return outputs, traced_s, plain_s, extra


def layer_metrics(tracer, w, outputs, traced_s, untraced_s, extra):
    self_ms = {name: s * 1000 for name, s in tracer.self_s.items()}
    calls, outer, yields = tracer.calls, tracer.outer_calls, tracer.yields

    def yielded(layer, parent=None):
        return sum(v for key, v in yields.items()
                   if key.split("<")[0] == layer and key.split("<")[1] != layer
                   and (parent is None or key.split("<")[1] == parent))

    def ratio(a, b):
        return a / b if b else 0.0

    count_maps = tracer.results["ordhom.homs.count_homs"]
    base_maps = yielded("homs.iter", "euler.hom")
    points = outer["homeo.forward"] + outer["homeo.backward"]
    homeo_ms = sum(self_ms.get(f"homeo.{part}", 0.0)
                   for part in ("forward", "backward", "usc_spec", "membership"))
    max_error = 0.0
    if w.name == "cli":
        for code, stdout, _ in outputs:
            if code == 0:
                max_error = max(max_error, json.loads(stdout)["result"].get("max_error", 0.0))
    m = {
        "posets.build.calls": (outer["posets.build"], "count"),
        "posets.build.self_ms": (self_ms.get("posets.build", 0.0), "ms"),
        "posets.all_posets.yielded": (yielded("posets.all_posets"), "count"),
        "posets.all_posets.self_ms": (self_ms.get("posets.all_posets", 0.0), "ms"),
        "posets.numbering.calls": (calls["ordhom.posets.admissible_numbering"], "count"),
        "posets.numbering.self_ms": (self_ms.get("posets.numbering", 0.0), "ms"),
        "homs.count.calls": (calls["ordhom.homs.count_homs"], "count"),
        "homs.count.self_ms": (self_ms.get("homs.count", 0.0), "ms"),
        "homs.count.maps": (count_maps, "count"),
        "homs.count.maps_per_s": (ratio(count_maps, self_ms.get("homs.count", 0.0) / 1000), "1/s"),
        "homs.iter.maps": (yielded("homs.iter"), "count"),
        "homs.iter.self_ms": (self_ms.get("homs.iter", 0.0), "ms"),
        "orderpoly.calls": (calls["ordhom.orderpoly.order_polynomial"], "count"),
        "orderpoly.self_ms": (self_ms.get("orderpoly", 0.0), "ms"),
        "euler.hom.calls": (calls["ordhom.euler.euler_hom"], "count"),
        "euler.hom.self_ms": (self_ms.get("euler.hom", 0.0), "ms"),
        "euler.hom.base_maps": (base_maps, "count"),
        "euler.hom.us_per_base_map": (ratio(self_ms.get("euler.hom", 0.0) * 1000, base_maps), "us"),
        "euler.components.calls": (calls["ordhom.euler.count_components"], "count"),
        "euler.components.self_ms": (self_ms.get("euler.components", 0.0), "ms"),
        "homeo.forward.calls": (outer["homeo.forward"], "count"),
        "homeo.forward.self_ms": (self_ms.get("homeo.forward", 0.0), "ms"),
        "homeo.backward.calls": (outer["homeo.backward"], "count"),
        "homeo.backward.self_ms": (self_ms.get("homeo.backward", 0.0), "ms"),
        "homeo.usc_spec.calls": (outer["homeo.usc_spec"], "count"),
        "homeo.usc_spec.self_ms": (self_ms.get("homeo.usc_spec", 0.0), "ms"),
        "homeo.membership.calls": (calls["ordhom.homeo.membership"], "count"),
        "homeo.membership.self_ms": (self_ms.get("homeo.membership", 0.0), "ms"),
        "homeo.us_per_point": (ratio(homeo_ms * 1000, points), "us"),
        "homeo.roundtrip_max_error": (max_error, "abs"),
        "fileio.load.self_ms": (self_ms.get("fileio.load", 0.0), "ms"),
        "fileio.point_to_dict.self_ms": (self_ms.get("fileio.point_to_dict", 0.0), "ms"),
        "fileio.digest.self_ms": (self_ms.get("fileio.digest", 0.0), "ms"),
        "cli.interp_ms": (extra.get("cli.interp_ms", 0.0), "ms"),
        "cli.import_ms": (extra.get("cli.import_ms", 0.0), "ms"),
        "cli.main.self_ms": (extra.get("cli.main.self_ms", 0.0), "ms"),
        "cli.process_overhead_ms": (extra.get("cli.process_overhead_ms", 0.0), "ms"),
        "bench.self_ms": (self_ms.get("bench", 0.0), "ms"),
        "trace.ops": (len(outputs), "count"),
        "trace.cpu_ms": (traced_s * 1000, "ms"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1) * 100, "%"),
    }
    return m


def traced_run(w, args):
    from tracing import Tracer, traced
    w.setup()
    w.write_files()
    tracer = Tracer()
    count = run_ops(w, args.seconds / 2, floor=1)
    if w.name == "cli":
        outputs, traced_s, untraced_s, extra = traced_cli(w, count, tracer)
    else:
        with traced(tracer):
            outputs, _latencies, traced_s, _wall_s = timed_ops(w, count, tracer=tracer)
        untraced_s = child_reference(args, len(outputs))
        extra = {}
    # loop bookkeeping between ops is benchmark time outside every span
    tracer.self_s["bench"] += traced_s - tracer.root_s
    metrics = layer_metrics(tracer, w, outputs, traced_s, untraced_s, extra)
    accounted_ms = sum(s * 1000 for s in tracer.self_s.values())
    info = {"ops": len(outputs), "cpu_s": traced_s,
            "untraced_cpu_s": untraced_s, "self_ms_sum": accounted_ms}
    return outputs, metrics, info


def record(w):
    """Run every pool op once, check it, and store the output digests."""
    w.setup()
    w.write_files()
    outputs = timed_ops(w, len(w.ops))[0]
    failures = check_outputs(w, outputs, None)
    if any(kind != "refused" for _i, kind, _r in failures):
        raise SystemExit(f"not recording, ops failed: {failures[:5]}")
    for index, kind, reason in failures:
        print(f"op {index} {kind}: {reason}")
    path = expected_path(w.name)
    path.parent.mkdir(exist_ok=True)
    doc = {"seed": w.seed, "digests": [digest(w.record(op, out))
                                       for op, out in zip(w.ops, outputs)]}
    path.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"recorded {len(outputs)} outputs to {path.relative_to(ROOT)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ordpoly", "sweep", "euler", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int,
                        help="run exactly this many ops, untimed bound "
                             "(the untraced reference of a traced run)")
    parser.add_argument("--record", action="store_true",
                        help="store the default-seed output digests and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ordhom" / "__init__.py").is_file():
        print(f"error: no ordhom sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        if args.record:
            record(w)
            return 0
        if args.trace:
            outputs, metrics, info = traced_run(w, args)
        else:
            outputs, metrics, info = untraced_run(w, args)
        failures = check_outputs(w, outputs, load_expected(w))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = len(outputs)
    info["error_rate"] = len(failures) / attempted
    info["failed_ops"] = [{"index": i, "kind": kind, "reason": r}
                          for i, kind, r in failures]
    print(json.dumps({"stamp": stamp(args), "run": info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} error_rate = {info['error_rate']:.6g} ratio "
              f"({len(failures)} of {attempted} ops; p90 has "
              f"{info['p90_samples_beyond']} samples beyond it)")
    # the known refusal is a failed op but not a wrong output
    correct = all(kind == "refused" for _i, kind, _r in failures)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
