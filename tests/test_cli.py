import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ordhom.cli as cli
from ordhom import chain, random_poset
from ordhom.cli import main

CHAIN1 = {"elements": ["1"]}
CHAIN2 = {"elements": ["1", "2"], "covers": [["1", "2"]]}
CHAIN3 = {"elements": ["1", "2", "3"], "covers": [["1", "2"], ["2", "3"]]}
VPOSET = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
PINNED_BACKWARD_SHA256 = "cf8fecc4bd7c770646efe4683cbe70c2dbe3f17e8a50a22a684fc9fcc2433664"


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)
    return SimpleNamespace(
        write=write,
        chain1=write("chain1.json", CHAIN1),
        chain2=write("chain2.json", CHAIN2),
        chain3=write("chain3.json", CHAIN3),
        v=write("v.json", VPOSET),
    )


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), err


def test_homcount_basic(capsys, files):
    code, out, _ = run(capsys, ["homcount", files.chain2, files.chain3, "--mode", "strict"])
    assert code == 0
    assert "strict monotone maps: 3" in out


def test_homcount_list_json(capsys, files):
    code, rep, _ = run_json(
        capsys, ["homcount", files.chain2, files.chain3, "--mode", "strict", "--list"])
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["result"]["count"] == 3
    assert rep["result"]["maps"] == [["1", "2"], ["1", "3"], ["2", "3"]]


def test_homcount_empty_list_is_ok(capsys, files):
    code, rep, _ = run_json(
        capsys, ["homcount", files.chain2, files.chain1, "--mode", "strict", "--list"])
    assert code == 0
    assert rep["result"]["count"] == 0 and rep["result"]["maps"] == []


def test_ordpoly_string_and_eval(capsys, files):
    code, out, _ = run(capsys, ["ordpoly", files.chain3, "--mode", "weak", "--eval=-1"])
    assert code == 0
    assert "weak order polynomial: 1/6*t^3 + 1/2*t^2 + 1/3*t" in out
    assert "value at -1: 0" in out


def test_ordpoly_bad_eval(capsys, files):
    code, _, err = run(capsys, ["ordpoly", files.chain3, "--mode", "weak", "--eval", "abc"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("t, refused", [("1e2200", False), ("1e-3000", False),
                                        ("1e5000", True), ("1e1_000_000", True),
                                        pytest.param("1" * 5000, False, id="5000digits")])
def test_ordpoly_huge_eval_is_an_error(capsys, files, t, refused):
    # 1e2200 and 1e-3000 parse, but the value has more digits than Python
    # prints; the larger exponents are refused before Fraction builds
    # 10**exponent; 5,000 digits are past the digits int() reads
    code, out, err = run(capsys, ["ordpoly", files.chain2, "--mode", "weak", f"--eval={t}"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: --eval ")
    assert ("exponent" in err) == refused
    assert ("int-digit limit" in err) == (len(t) > 4300)
    assert len(err) < 200
    code, rep, _ = run_json(capsys, ["ordpoly", files.chain2, "--mode", "weak",
                                     f"--eval={t}"])
    assert code == 1
    assert rep["status"] == "error" and rep["result"]["error"].startswith("--eval ")


def test_reciprocity_ok(capsys, files):
    code, out, _ = run(capsys, ["reciprocity", files.v])
    assert code == 0
    assert "reciprocity holds: yes" in out


def test_reciprocity_violation_exits_2(capsys, files, monkeypatch):
    fake = SimpleNamespace(holds=False, strict="s", weak="w", lhs=(), rhs=())
    monkeypatch.setattr(cli, "check_stanley_reciprocity", lambda P: fake)
    code, rep, _ = run_json(capsys, ["reciprocity", files.v])
    assert code == 2
    assert rep["status"] == "theorem-violated"


def test_euler_known_values(capsys, files):
    code, rep, _ = run_json(
        capsys, ["euler", files.chain2, files.chain2, "--depth", "1", "--mode", "weak"])
    assert code == 0 and rep["result"]["euler"] == 1
    code, rep, _ = run_json(
        capsys, ["euler", files.chain2, files.chain2, "--depth", "1", "--mode", "strict"])
    assert code == 0 and rep["result"]["euler"] == 3
    code, rep, _ = run_json(
        capsys, ["euler", files.chain2, files.chain1, "--depth", "1", "--mode", "strict"])
    assert code == 0 and rep["result"]["euler"] == 1


def test_euler_depth_zero_counts_maps(capsys, files):
    code, rep, _ = run_json(capsys, ["euler", files.v, files.chain2, "--mode", "weak"])
    assert code == 0
    assert rep["result"]["depth"] == 0
    assert rep["result"]["euler"] == 5


def test_euler_depth_from_file_and_override(capsys, files):
    q = files.write("qdeep.json", {"elements": ["1", "2"],
                                   "covers": [["1", "2"]], "depth": 1})
    code, rep, _ = run_json(capsys, ["euler", files.chain2, q, "--mode", "strict"])
    assert code == 0 and rep["result"]["depth"] == 1 and rep["result"]["euler"] == 3
    code, rep, _ = run_json(
        capsys, ["euler", files.chain2, q, "--depth", "0", "--mode", "strict"])
    assert code == 0 and rep["result"]["depth"] == 0 and rep["result"]["euler"] == 1


def test_source_file_with_depth_rejected(capsys, files):
    p = files.write("pdeep.json", {"elements": ["1"], "depth": 1})
    code, _, err = run(capsys, ["euler", p, files.chain1, "--mode", "weak"])
    assert code == 1
    assert "depth" in err


def test_negative_depth_flag(capsys, files):
    code, _, err = run(
        capsys, ["euler", files.chain2, files.chain1, "--depth", "-1", "--mode", "weak"])
    assert code == 1


def test_euler_at_large_depth(capsys, files):
    # the weak maps of chain(2) into chain(1) x R^depth: no RecursionError
    for depth, value in ((1000, 1), (10**9 + 1, 0)):
        code, out, _ = run(capsys, ["euler", files.chain2, files.chain1,
                                    "--depth", str(depth), "--mode", "weak"])
        assert code == 0
        assert out == f"euler characteristic (weak, depth {depth}): {value}\n"


def test_cli_import_loads_every_module_and_no_dataclasses():
    # start-up: `import ordhom.cli` loads each library module (the
    # benchmark's tracer wraps only loaded modules) but not `dataclasses`,
    # whose import pulls in `inspect`, `ast`, `dis` and `tokenize`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import json, sys; before = set(sys.modules); import ordhom.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    modules = {"ordhom." + p.stem for p in (src / "ordhom").glob("*.py")
               if p.stem != "__init__"}
    assert modules | {"ordhom"} <= loaded


def test_closed_output_pipe_gives_no_traceback(files):
    # the reader of the JSON report is gone before the report is written,
    # as when ``| head`` has read its lines and exited
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordhom.cli", "euler", files.chain2, files.chain1,
             "--depth", "1000", "--mode", "weak", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_malformed_json_gives_no_traceback(files, tmp_path):
    # a point real too large for a float, an integer past Python's
    # int-digit limit, invalid UTF-8, and nesting past the recursion limit
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    bad = {"big.json": b'{"base": ["1", "1"], "reals": [0.0, ' + b"9" * 401 + b"]}",
           "digits.json": b'{"base": ["1", "1"], "reals": [0.0, ' + b"9" * 5001 + b"]}",
           "utf8.json": b'{"elements": ["\xff"]}',
           "deep.json": b"[" * 100_000}
    for name, raw in bad.items():
        (tmp_path / name).write_bytes(raw)
    argvs = {"big.json": ["homeo", files.chain2, files.chain1, str(tmp_path / "big.json"),
                          "--direction", "forward"],
             "digits.json": ["homeo", files.chain2, files.chain1,
                             str(tmp_path / "digits.json"), "--direction", "forward"],
             "utf8.json": ["homcount", str(tmp_path / "utf8.json"), files.chain1,
                           "--mode", "weak"],
             "deep.json": ["homcount", files.chain1, str(tmp_path / "deep.json"),
                           "--mode", "weak"]}
    for name, argv in argvs.items():
        proc = subprocess.run([sys.executable, "-m", "ordhom.cli", *argv],
                              capture_output=True, env=env, text=True, timeout=60)
        assert proc.returncode == 1, argv
        # the error names the bad file, so it is not a usage error
        assert proc.stderr.startswith(f"error: {tmp_path / name}: ")
        assert "Traceback" not in proc.stderr


def test_euler_reciprocity_ok(capsys, files):
    code, out, _ = run(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                "--depth", "1"])
    assert code == 0
    assert "both hold: yes" in out
    code, rep, _ = run_json(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                     "--depth", "1"])
    assert rep["status"] == "ok"
    idents = [r["identity"] for r in rep["result"]["reports"]]
    assert idents == ["strict_to_negated_weak", "negated_strict_to_weak"]
    assert all(r["holds"] for r in rep["result"]["reports"])


def test_euler_reciprocity_components(capsys, files):
    code, rep, _ = run_json(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                     "--depth", "1", "--components"])
    assert code == 0
    assert rep["result"]["components"] == {"weak_lex_space": 3,
                                           "strict_product_space": 1}
    code, out, _ = run(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                "--depth", "1", "--components"])
    assert "lex product: 3" in out and "euclidean factor: 1" in out


def test_components_need_depth_one(capsys, files):
    for depth in ("0", "2"):
        code, _, err = run(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                    "--depth", depth, "--components"])
        assert code == 1
        assert "depth 1" in err


def test_euler_reciprocity_violation_exits_2(capsys, files, monkeypatch):
    bad = SimpleNamespace(identity="strict_to_negated_weak", lhs=0, rhs=1, holds=False)
    ok = SimpleNamespace(identity="negated_strict_to_weak", lhs=0, rhs=0, holds=True)
    monkeypatch.setattr(cli, "check_euler_reciprocity", lambda P, T: (bad, ok))
    code, rep, _ = run_json(capsys, ["euler-reciprocity", files.chain2, files.chain2,
                                     "--depth", "1"])
    assert code == 2
    assert rep["status"] == "theorem-violated"


def test_homeo_forward_point(capsys, files):
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [0.0, 1.0]})
    code, rep, _ = run_json(capsys, ["homeo", files.chain2, files.chain1, pt,
                                     "--direction", "forward"])
    assert code == 0
    assert rep["result"]["base_preserved"] is True
    assert rep["result"]["outputs"] == [{"base": ["1", "1"], "reals": [0.0, 0.0]}]
    assert rep["inputs"]["point"]["sha256"]


def test_homeo_forward_rejects_nonmember(capsys, files):
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [1.0, 0.0]})
    code, _, err = run(capsys, ["homeo", files.chain2, files.chain1, pt,
                                "--direction", "forward"])
    assert code == 1
    assert "strict" in err


def test_homeo_backward_point(capsys, files):
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [5.0, 0.0]})
    code, rep, _ = run_json(capsys, ["homeo", files.chain2, files.chain1, pt,
                                     "--direction", "backward"])
    assert code == 0
    assert rep["result"]["outputs"] == [{"base": ["1", "1"], "reals": [5.0, 6.0]}]


@pytest.mark.parametrize("direction", ["forward", "backward", "roundtrip"])
def test_homeo_rejects_non_monotone_base(capsys, files, direction):
    # every stage needs a weakly monotone base, backward's free points too
    pt = files.write("pt.json", {"base": ["2", "1"], "reals": [0.5, 0.25]})
    code, out, err = run(capsys, ["homeo", files.chain2, files.chain2, pt,
                                  "--direction", direction])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "weakly monotone" in err
    assert "Traceback" not in err
    code, rep, _ = run_json(capsys, ["homeo", files.chain2, files.chain2, pt,
                                     "--direction", direction])
    assert code == 1
    assert rep["status"] == "error" and "weakly monotone" in rep["result"]["error"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("direction", ["forward", "backward", "roundtrip"])
def test_homeo_rejects_non_finite_reals(capsys, files, token, direction):
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [0.0, float(token.lower())]})
    with open(pt, encoding="utf-8") as fh:
        assert token in fh.read()
    code, out, err = run(capsys, ["homeo", files.chain2, files.chain1, pt,
                                  "--direction", direction])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err
    code, rep, _ = run_json(capsys, ["homeo", files.chain2, files.chain1, pt,
                                     "--direction", direction])
    assert code == 1
    assert rep["status"] == "error" and "finite" in rep["result"]["error"]


@pytest.mark.parametrize("direction, reals", [
    ("forward", [-1e308, 1e308]),
    ("roundtrip", [-1e308, 1e308]),
    ("backward", [1e308, 1e308]),
])
def test_homeo_stage_overflow_is_an_error(capsys, files, direction, reals):
    # finite reads whose stage output leaves the float range
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": reals})
    argv = ["homeo", files.chain2, files.chain1, pt, "--direction", direction]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows" in err
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 1
    assert "Infinity" not in out and "NaN" not in out
    rep = json.loads(out)
    assert rep["status"] == "error" and "overflows" in rep["result"]["error"]


def test_homeo_roundtrip_random(capsys, files):
    code, rep, _ = run_json(capsys, ["homeo", files.v, files.chain2,
                                     "--random", "50", "--seed", "7",
                                     "--direction", "roundtrip"])
    assert code == 0
    res = rep["result"]
    assert res["seed"] == 7 and res["points"] == 50
    assert res["within_tolerance"] is True and res["base_maps_equal"] is True
    assert res["max_error"] <= res["tolerance"] == 1e-9


def test_homeo_roundtrip_random_on_long_forced_chain(capsys, files):
    # every base map into one point forces all ten reals into one chain
    chain10 = files.write("chain10.json", {
        "elements": [str(i) for i in range(1, 11)],
        "covers": [[str(i), str(i + 1)] for i in range(1, 10)]})
    code, rep, _ = run_json(capsys, ["homeo", chain10, files.chain1,
                                     "--random", "5", "--seed", "1",
                                     "--direction", "roundtrip"])
    assert code == 0
    assert rep["result"]["points"] == 5
    assert rep["result"]["within_tolerance"] is True


def test_homeo_roundtrip_holds_large_reals_to_a_relative_tolerance(capsys, files):
    # one ulp near 2^24 is about 1.9e-9, over the absolute 1e-9
    antichain2 = files.write("antichain2.json", {"elements": ["1", "2"]})
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [0.0, 16777215.9]})
    argv = ["homeo", antichain2, files.chain1, pt, "--direction", "roundtrip"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "within tolerance: yes" in out
    code, rep, _ = run_json(capsys, argv)
    assert code == 0 and rep["status"] == "ok"
    res = rep["result"]
    assert set(res) == {"direction", "points", "max_error", "tolerance",
                        "base_maps_equal", "within_tolerance"}
    assert res["tolerance"] == 1e-9 < res["max_error"]


def test_homeo_roundtrip_fails_on_a_relative_error(capsys, files, monkeypatch):
    real_backward = cli.backward

    def drifting_backward(P, Q, x):
        y = real_backward(P, Q, x)
        return y._replace(reals=y.reals[:-1] + (y.reals[-1] * (1 + 1e-6),))

    monkeypatch.setattr(cli, "backward", drifting_backward)
    antichain2 = files.write("antichain2.json", {"elements": ["1", "2"]})
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [0.0, 5000.0]})
    argv = ["homeo", antichain2, files.chain1, pt, "--direction", "roundtrip"]
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert "within tolerance: no" in out
    code, rep, _ = run_json(capsys, argv)
    assert code == 1 and rep["status"] == "error"
    assert rep["result"]["within_tolerance"] is False
    assert rep["result"]["base_maps_equal"] is True


def test_homeo_random_backward_output_is_pinned(capsys, tmp_path, monkeypatch):
    # sha256 of the --json stdout, recorded before the stage maps were
    # rewritten around one stage loop; relative paths keep the bytes stable
    def write_poset(name, P):
        doc = {"elements": list(P.elements), "covers": [list(c) for c in P.covers]}
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")

    write_poset("p12.json", random_poset(12, 5, 0.3))
    write_poset("c3.json", chain(3))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["homeo", "p12.json", "c3.json", "--random", "50",
                                "--seed", "7", "--direction", "backward", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_BACKWARD_SHA256


def test_homeo_usage_errors(capsys, files):
    pt = files.write("pt.json", {"base": ["1", "1"], "reals": [0.0, 1.0]})
    for argv in (
        ["homeo", files.chain2, files.chain1, "--direction", "forward"],
        ["homeo", files.chain2, files.chain1, pt, "--random", "3", "--seed", "1",
         "--direction", "forward"],
        ["homeo", files.chain2, files.chain1, "--random", "3",
         "--direction", "forward"],
        ["homeo", files.chain2, files.chain1, "--random", "-3", "--seed", "1",
         "--direction", "forward"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err


def test_json_report_schema(capsys, files):
    code, rep, _ = run_json(capsys, ["homcount", files.chain2, files.chain3,
                                     "--mode", "weak"])
    assert set(rep) == {"command", "inputs", "result", "status"}
    assert rep["command"] == "homcount"
    for role in ("P", "Q"):
        entry = rep["inputs"][role]
        assert entry["path"]
        digest = entry["sha256"]
        assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)


@pytest.mark.parametrize("argv, roles", [
    (["homcount", "{v}", "{chain3}", "--mode", "weak"], ("P", "Q")),
    (["ordpoly", "{v}", "--mode", "strict"], ("P",)),
    (["reciprocity", "{v}"], ("P",)),
    (["euler", "{v}", "{chain2}", "--mode", "weak", "--depth", "1"], ("P", "Q")),
    (["euler-reciprocity", "{v}", "{chain2}", "--depth", "1"], ("P", "Q")),
    (["homeo", "{chain2}", "{chain1}", "--random", "3", "--seed", "0",
      "--direction", "backward"], ("P", "Q")),
    (["homeo", "{chain2}", "{chain1}", "{point}", "--direction", "forward"],
     ("P", "Q", "point")),
])
def test_inputs_name_each_file_argument_with_its_digest(capsys, files, argv, roles):
    point = files.write("point.json", {"base": ["1", "1"], "reals": [0.0, 1.0]})
    argv = [a.format(v=files.v, chain1=files.chain1, chain2=files.chain2,
                     chain3=files.chain3, point=point) for a in argv]
    _, rep, _ = run_json(capsys, argv)
    assert rep["status"] != "error"
    # the file arguments are the positionals right after the command
    assert list(rep["inputs"]) == list(roles)
    for role, path in zip(roles, argv[1:]):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert rep["inputs"][role] == {"path": path, "sha256": digest}
    argv[1] = str(Path(files.v).with_name("missing.json"))
    code, rep, _ = run_json(capsys, argv)
    assert code == 1 and rep["status"] == "error"
    assert rep["inputs"] == {}


def test_identical_runs_identical_output(capsys, files):
    argv = ["homeo", files.chain3, files.chain2, "--random", "20", "--seed", "3",
            "--direction", "roundtrip", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_operational_errors(capsys, files, tmp_path):
    code, _, err = run(capsys, ["homcount", str(tmp_path / "nope.json"),
                                files.chain1, "--mode", "weak"])
    assert code == 1 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, ["homcount", str(bad), files.chain1, "--mode", "weak"])
    assert code == 1 and "JSON" in err


def test_bad_usage_exits_1_not_2(capsys, files):
    code, _, err = run(capsys, ["homcount", files.chain2, files.chain1,
                                "--mode", "weak", "--bogus"])
    assert code == 1 and err
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 1 and err
    code, _, err = run(capsys, ["homcount", files.chain2, files.chain1,
                                "--mode", "sideways"])
    assert code == 1 and err


def test_json_error_report(capsys, files, tmp_path):
    code, out, _ = run(capsys, ["homcount", str(tmp_path / "nope.json"), files.chain1,
                                "--mode", "weak", "--json"])
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "error" and "error" in rep["result"]


def _old_random_free_points(P, Q, count, rng):
    """The draw before it kept raw value tuples: a list of every weak base
    map as a `MonotoneMap`, then the same seeded calls."""
    from ordhom import enumerate_homs
    from ordhom.homeo import LexHomPoint

    bases = list(enumerate_homs(P, Q, "weak"))
    return [LexHomPoint(bases[rng.randrange(len(bases))],
                        tuple(rng.uniform(-10.0, 10.0) for _ in range(len(P))), 1)
            for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_free_points_match_list_of_maps_draw(seed):
    import random

    from ordhom import chain, random_poset

    P, Q = random_poset(9, seed, 0.3), chain(3)
    got = cli._random_free_points(P, Q, 40, random.Random(seed))
    want = _old_random_free_points(P, Q, 40, random.Random(seed))
    assert got == want


def test_homcount_list_runs_one_search(capsys, files, monkeypatch):
    def no_count(*args):
        raise AssertionError("count_homs called with --list")

    monkeypatch.setattr(cli, "count_homs", no_count)
    code, rep, _ = run_json(
        capsys, ["homcount", files.v, files.chain2, "--mode", "weak", "--list"])
    assert code == 0
    assert list(rep["result"]) == ["mode", "count", "maps"]
    assert rep["result"]["count"] == len(rep["result"]["maps"]) == 5
