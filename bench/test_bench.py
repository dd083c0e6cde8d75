"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import ordhom  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer, self_times, traced  # noqa: E402


def test_p90_leaves_ten_samples_beyond_from_min_ops_on():
    for n in range(run.MIN_OPS, 1001):
        assert run.samples_beyond(n, 90) >= run.TAIL_SAMPLES
        values = list(range(n))
        beyond = sum(v > run.percentile(values, 90) for v in values)
        assert beyond == run.samples_beyond(n, 90)
    assert run.samples_beyond(run.MIN_OPS - 1, 90) < run.TAIL_SAMPLES


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([3, 1, 2], 50) == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [("a", 0.0, 10.0, -1),
             ("b", 1.0, 3.0, 0),
             ("c", 4.0, 6.0, 0),
             ("b", 4.5, 5.0, 2)]
    assert self_times(spans) == {"a": 6.0, "b": 2.5, "c": 1.5}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_module():
    """A module in the ``ordhom`` namespace whose consumer looks the
    generator up in its own globals, as the library's modules do."""
    clock = FakeClock()
    module = types.ModuleType("ordhom._bench_fake")
    module.clock = clock
    exec(
        "def produce(k):\n"
        "    for i in range(k):\n"
        "        clock.work(2.0)\n"
        "        yield i\n"
        "    clock.work(1.0)\n"
        "\n"
        "def consume(k):\n"
        "    total = 0\n"
        "    for i in produce(k):\n"
        "        clock.work(5.0)\n"
        "        total += i\n"
        "    clock.work(3.0)\n"
        "    return total\n",
        module.__dict__)
    sys.modules[module.__name__] = module
    try:
        yield module, clock
    finally:
        del sys.modules[module.__name__]


def test_generator_spans_interleaved_with_their_consumer(fake_module):
    module, clock = fake_module
    layers = {"consume": (module.__name__, ("consume",)),
              "produce": (module.__name__, ("produce",))}
    tracer = Tracer(clock=clock)
    with traced(tracer, layers):
        root = tracer.open("bench")
        clock.work(0.5)
        assert module.consume(3) == 3
        tracer.close(root)
    # three yields of 2 s each plus the final next() that ends the loop
    assert tracer.self_s["produce"] == 7.0
    # the consumer's own work between next() calls stays with the consumer
    assert tracer.self_s["consume"] == 3 * 5.0 + 3.0
    assert tracer.self_s["bench"] == 0.5
    assert sum(tracer.self_s.values()) == tracer.root_s == 25.5
    assert tracer.yields["produce<consume"] == 3
    assert tracer.calls["ordhom._bench_fake.consume"] == 1
    assert tracer.roots == 1 and not tracer.spans


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and (name == "ordhom" or name.startswith("ordhom."))
            for attr, value in vars(module).items()}


def test_wrappers_are_installed_where_callers_look_and_restored():
    import ordhom.cli  # noqa: F401  (so the names cli imports are wrapped too)
    before = _bindings()
    with traced(Tracer()):
        assert ordhom.orderpoly.chain is not before[("ordhom.orderpoly", "chain")]
        assert ordhom.cli.count_homs is not before[("ordhom.cli", "count_homs")]
        assert ordhom.homeo.usc_spec is not before[("ordhom.homeo", "usc_spec")]
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("op failed")
    assert _bindings() == before


def test_every_layer_function_exists():
    import ordhom.cli  # noqa: F401
    for module_name, names in LAYERS.values():
        for name in names:
            assert callable(getattr(sys.modules[module_name], name))


def test_traced_op_is_accounted_for_by_self_times():
    tracer = Tracer()
    with traced(tracer):
        root = tracer.open("bench")
        report = ordhom.check_stanley_reciprocity(ordhom.chain(4))
        tracer.close(root)
    assert report.holds
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s)
    assert tracer.calls["ordhom.orderpoly.order_polynomial"] == 2
    # chain() builds through build_poset: one call of the layer, not two
    assert tracer.outer_calls["posets.build"] == tracer.calls["ordhom.posets.chain"]


class _FakeWorkload:
    ops = ["ok", "boom", "ok"]
    known_refusal_record = None
    ops_per_s = 10

    def run(self, op):
        if op == "boom":
            raise ValueError("boom")
        return op


def test_timed_loop_keeps_failures():
    outputs, latencies, elapsed, wall = run.timed_ops(_FakeWorkload(), 3)
    assert outputs[0] == outputs[2] == "ok"
    assert isinstance(outputs[1], ValueError)
    assert len(latencies) == 3
    assert sum(latencies) <= elapsed < sum(latencies) + 0.5
    assert wall > 0


def test_run_ops_is_fixed_by_seconds_and_makes_one_pass_over_the_pool():
    class Pool:
        ops = list(range(1000))
        ops_per_s = 20

    assert run.run_ops(Pool(), 15) == 300
    assert run.run_ops(Pool(), 1) == run.MIN_OPS
    assert run.run_ops(Pool(), 0.1, floor=1) == 2
    assert run.run_ops(Pool(), 600) == len(Pool.ops)
    assert run.run_ops(_FakeWorkload(), 15) == len(_FakeWorkload.ops)
    outputs = run.timed_ops(_FakeWorkload(), run.run_ops(_FakeWorkload(), 15))[0]
    assert len(outputs) == len(_FakeWorkload.ops)


ROUNDTRIP = ["homeo", "p.json", "q.json", "--random", "100", "--seed", "1",
             "--direction", "roundtrip", "--json"]


def _cli_output(code, result):
    status = "ok" if code == 0 else "error"
    return code, json.dumps({"command": "homeo", "result": result, "status": status}), ""


@pytest.fixture
def cli_workload(tmp_path):
    w = workloads.Cli(0, tmp_path, tmp_path / "work")
    w.posets = {"p.json": ordhom.chain(2), "q.json": ordhom.chain(1)}
    return w


def _kinds(w, outputs, expected=None):
    w.ops = [ROUNDTRIP] * len(outputs)
    return [kind for _i, kind, _r in run.check_outputs(w, outputs, expected)]


def test_only_the_sampler_give_up_counts_as_refused(cli_workload):
    gave_up = _cli_output(1, {"error": workloads.SAMPLER_GIVE_UP})
    assert _kinds(cli_workload, [gave_up]) == ["refused"]
    # any other typed error is a wrong op, also on the roundtrip
    other = _cli_output(1, {"error": "cannot read p.json"})
    assert _kinds(cli_workload, [other]) == ["wrong"]
    # the same give-up on another command is wrong too
    cli_workload.ops = [["homeo", "p.json", "q.json", "--random", "100",
                         "--direction", "backward", "--json"]]
    assert [k for _i, k, _r in run.check_outputs(cli_workload, [gave_up], None)] == ["wrong"]


def test_library_exceptions_make_the_run_incorrect():
    failures = run.check_outputs(_FakeWorkload(), [ordhom.OrdhomError("no")], None)
    assert [kind for _i, kind, _r in failures] == ["crashed"]


def test_default_seed_refusal_must_match_the_recording(cli_workload):
    gave_up = _cli_output(1, {"error": workloads.SAMPLER_GIVE_UP})
    refusal = run.digest(workloads.Cli.known_refusal_record)
    assert _kinds(cli_workload, [gave_up], [refusal]) == ["refused"]
    # refusing an op whose recorded output was a success is wrong
    assert _kinds(cli_workload, [gave_up], ["0123456789abcdef"]) == ["wrong"]
    # an op recorded as refused may succeed once the sampler is fixed
    fixed = _cli_output(0, {"within_tolerance": True, "base_maps_equal": True,
                            "max_error": 0.0})
    assert _kinds(cli_workload, [fixed], [refusal]) == []
    broken = _cli_output(0, {"within_tolerance": False, "base_maps_equal": True})
    assert _kinds(cli_workload, [broken], [refusal]) == ["wrong"]


def _spin(seconds):
    """Use ``seconds`` of this process's CPU time."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


class _SleepingWorkload:
    ops = ["nap"] * 1000

    def run(self, op):
        time.sleep(0.01)
        return op


def test_timed_loop_ends_at_the_wall_clock_cap(monkeypatch):
    monkeypatch.setattr(run, "WALL_CAP_S", 0.1)
    outputs, _latencies, elapsed, wall = run.timed_ops(_SleepingWorkload(), 1000)
    assert 0.1 <= wall < 0.5
    # waiting costs no CPU time
    assert elapsed < 0.05
    assert len(outputs) < len(_SleepingWorkload.ops)


def test_cpu_clock_counts_children_and_not_waiting():
    t0 = run.cpu_clock()
    time.sleep(0.2)
    assert run.cpu_clock() - t0 < 0.1
    t0 = run.cpu_clock()
    subprocess.run([sys.executable, "-c",
                    "import time\nend = time.process_time() + 0.3\n"
                    "while time.process_time() < end: pass"], check=True)
    assert run.cpu_clock() - t0 >= 0.3


class _SetupWorkload:
    def __init__(self, seconds):
        self.seconds = seconds

    def setup(self):
        _spin(self.seconds)


def test_setup_repeats_until_enough_set_up_time_is_summed(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.05)
    repeats = run.setup_median(_SetupWorkload(0.005))[1]
    assert run.SETUP_REPEATS <= repeats and repeats * 0.005 >= 0.05
    # a free set-up stops at the cap
    assert run.setup_median(_SetupWorkload(0))[1] == run.SETUP_MAX_REPEATS


def test_benchmark_json_and_layer_map_name_every_traced_metric():
    class Named:
        name = "ordpoly"

    names = list(run.layer_metrics(Tracer(), Named(), [], 1.0, 1.0, {}))
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == names
    layers = json.loads((BENCH / "layers.json").read_text())["metrics"]
    assert list(layers) == names
