import hashlib
import json

import pytest

from ordhom import (
    CycleError,
    FormatError,
    MembershipError,
    UnknownElement,
    build_poset,
    chain,
    file_digest,
    load_point,
    load_poset,
    point_to_dict,
)


def dump(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_load_poset_happy(tmp_path):
    p = dump(tmp_path, "p.json", {"elements": ["a", "b"], "covers": [["a", "b"]], "depth": 2})
    poset, depth = load_poset(p)
    assert poset.elements == ("a", "b")
    assert poset.less(0, 1)
    assert depth == 2


def test_load_poset_defaults(tmp_path):
    poset, depth = load_poset(dump(tmp_path, "p.json", {"elements": ["x"]}))
    assert poset.elements == ("x",) and depth == 0


@pytest.mark.parametrize("doc", [
    ["elements"],
    {"covers": []},
    {"elements": "ab"},
    {"elements": ["a", 1]},
    {"elements": ["a"], "covers": [["a"]]},
    {"elements": ["a"], "covers": ["ab"]},
    {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
    {"elements": ["a"], "depth": True},
    {"elements": ["a"], "depth": -1},
    {"elements": ["a"], "depth": "2"},
    {"elements": ["a"], "depth": 1.0},
    {"elements": ["a"], "extra": 1},
])
def test_load_poset_schema_errors(tmp_path, doc):
    with pytest.raises(FormatError):
        load_poset(dump(tmp_path, "p.json", doc))


def test_load_poset_not_json(tmp_path):
    p = tmp_path / "p.json"
    p.write_text("{nope", encoding="utf-8")
    with pytest.raises(FormatError):
        load_poset(p)


UNREADABLE_JSON = {
    "utf8": b'{"elements": ["\xff"]}',
    "digits": b'{"elements": ["a"], "depth": ' + b"9" * 5001 + b"}",
    "nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("raw", UNREADABLE_JSON.values(), ids=UNREADABLE_JSON.keys())
def test_load_poset_unreadable_json(tmp_path, raw):
    # invalid UTF-8, an integer past Python's int-digit limit, and nesting
    # past the recursion limit all end in the typed error
    p = tmp_path / "p.json"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="not valid JSON"):
        load_poset(p)


def test_load_poset_order_errors(tmp_path):
    with pytest.raises(UnknownElement):
        load_poset(dump(tmp_path, "a.json", {"elements": ["a"], "covers": [["a", "z"]]}))
    with pytest.raises(UnknownElement):
        load_poset(dump(tmp_path, "b.json", {"elements": ["a", "a"]}))
    with pytest.raises(CycleError):
        load_poset(dump(tmp_path, "c.json",
                        {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}))


def test_load_point_permutes_to_numbering_order(tmp_path):
    P = build_poset(["b", "a"], [("a", "b")])  # numbering visits a first
    Q = chain(1)
    p = dump(tmp_path, "pt.json", {"base": ["1", "1"], "reals": [10.0, 20.0]})
    point = load_point(p, P, Q, stage=2)
    assert point.base.values == (0, 0)
    assert point.reals == (20.0, 10.0)
    assert point.stage == 2
    assert point_to_dict(P, Q, point) == {"base": ["1", "1"], "reals": [10.0, 20.0]}


def test_load_point_accepts_ints(tmp_path):
    p = dump(tmp_path, "pt.json", {"base": ["1", "1"], "reals": [0, 1]})
    point = load_point(p, chain(2), chain(1), stage=2)
    assert point.reals == (0.0, 1.0)
    assert all(isinstance(r, float) for r in point.reals)


@pytest.mark.parametrize("doc", [
    {"base": ["1", "1"]},
    {"reals": [0.0, 1.0]},
    {"base": ["1", "1"], "reals": [0.0, 1.0], "stage": 1},
    {"base": ["1"], "reals": [0.0, 1.0]},
    {"base": ["1", "1"], "reals": [0.0]},
    {"base": ["1", 1], "reals": [0.0, 1.0]},
    {"base": ["1", "1"], "reals": [0.0, True]},
    {"base": ["1", "1"], "reals": [0.0, "1"]},
])
def test_load_point_schema_errors(tmp_path, doc):
    with pytest.raises(FormatError):
        load_point(dump(tmp_path, "pt.json", doc), chain(2), chain(1), stage=2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_point_rejects_non_finite_reals(tmp_path, bad):
    # json.dumps writes these as the non-standard tokens NaN / Infinity /
    # -Infinity, which json.load accepts back
    p = dump(tmp_path, "pt.json", {"base": ["1", "1"], "reals": [0.0, bad]})
    with pytest.raises(FormatError, match="finite"):
        load_point(p, chain(2), chain(1), stage=2)


@pytest.mark.parametrize("digits, match", [(401, "too large for a float"),
                                           (5001, "not valid JSON")],
                         ids=["float_overflow", "digit_limit"])
def test_load_point_rejects_huge_integer_reals(tmp_path, digits, match):
    p = tmp_path / "pt.json"
    p.write_bytes(b'{"base": ["1", "1"], "reals": [0.0, ' + b"9" * digits + b"]}")
    with pytest.raises(FormatError, match=match):
        load_point(p, chain(2), chain(1), stage=2)


def test_load_point_unknown_target_id(tmp_path):
    p = dump(tmp_path, "pt.json", {"base": ["1", "9"], "reals": [0.0, 1.0]})
    with pytest.raises(UnknownElement):
        load_point(p, chain(2), chain(1), stage=2)


def test_load_point_rejects_non_monotone_base(tmp_path):
    p = dump(tmp_path, "pt.json", {"base": ["2", "1"], "reals": [0.5, 0.25]})
    with pytest.raises(MembershipError, match="weakly monotone"):
        load_point(p, chain(2), chain(2), stage=1)
    # equal values are weakly monotone, whatever the reals
    p = dump(tmp_path, "pt.json", {"base": ["2", "2"], "reals": [0.5, 0.25]})
    assert load_point(p, chain(2), chain(2), stage=1).base.values == (1, 1)


def test_file_digest(tmp_path):
    payload = b"hello world\n"
    p = tmp_path / "blob"
    p.write_bytes(payload)
    assert file_digest(p) == "a948904f2f0f479b8f8197694b30184b0d2ed1c1cd2a1ec0fb85d299a192a447"
    big = b"x" * 200_000  # spans multiple read chunks
    q = tmp_path / "big"
    q.write_bytes(big)
    assert file_digest(q) == hashlib.sha256(big).hexdigest()
