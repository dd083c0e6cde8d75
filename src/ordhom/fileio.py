"""Reading and writing the JSON file formats consumed by the CLI.

Schemas are documented byte-exactly in FORMATS.md at the repo root. Poset
files carry elements, covers and an optional lex depth; point files carry a
base map and one real per element, both arrays parallel to the poset file's
element order. In-memory points index their reals by numbering position
instead (see homeo), so loading and saving permutes the reals array.
"""

from __future__ import annotations

import hashlib
import json
import math

from .errors import FormatError, MembershipError
from .homs import WEAK, MonotoneMap
from .posets import FinitePoset, _is_count, admissible_numbering, build_poset
from .homeo import LexHomPoint, membership

__all__ = [
    "load_poset",
    "load_point",
    "point_to_dict",
    "file_digest",
]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # bad syntax, invalid UTF-8 and integers past Python's digit
            # limit are ValueErrors; deep nesting is a RecursionError
            raise FormatError(f"{path}: not valid JSON ({exc})") from None


def load_poset(path) -> tuple[FinitePoset, int]:
    """Read a poset file; returns the poset and its lex depth (default 0)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    unknown = set(doc) - {"elements", "covers", "depth"}
    if unknown:
        raise FormatError(f"{path}: unknown keys {sorted(unknown)}")
    elements = doc.get("elements")
    covers = doc.get("covers", [])
    depth = doc.get("depth", 0)
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise FormatError(f"{path}: 'elements' must be an array of strings")
    if (not isinstance(covers, list)
            or not all(isinstance(c, list) and len(c) == 2
                       and all(isinstance(x, str) for x in c) for c in covers)):
        raise FormatError(f"{path}: 'covers' must be an array of string pairs")
    if not _is_count(depth):
        raise FormatError(f"{path}: 'depth' must be a nonnegative integer")
    return build_poset(elements, [tuple(c) for c in covers]), depth


def load_point(path, P: FinitePoset, Q: FinitePoset, stage: int) -> LexHomPoint:
    """Read a point file for the pair (P, Q), claiming the given stage.

    The file's arrays follow P's element order; the returned point's reals
    are permuted into numbering-position order. Raises MembershipError
    unless the base is weakly monotone, which every stage requires.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or set(doc) != {"base", "reals"}:
        raise FormatError(f"{path}: point files have exactly the keys 'base' and 'reals'")
    base, reals = doc["base"], doc["reals"]
    n = len(P)
    if not isinstance(base, list) or len(base) != n or not all(isinstance(b, str) for b in base):
        raise FormatError(f"{path}: 'base' must be an array of {n} element ids")
    if (not isinstance(reals, list) or len(reals) != n
            or not all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in reals)):
        raise FormatError(f"{path}: 'reals' must be an array of {n} numbers")
    try:
        reals = [float(r) for r in reals]
    except OverflowError:
        raise FormatError(f"{path}: 'reals' must be finite numbers, "
                          "got an integer too large for a float") from None
    for r in reals:
        if not math.isfinite(r):
            raise FormatError(f"{path}: 'reals' must be finite numbers, got {r!r}")
    values = tuple(Q.index(b) for b in base)
    order = admissible_numbering(P).order
    by_position = tuple(reals[order[a]] for a in range(n))
    point = LexHomPoint(MonotoneMap(P, Q, values, WEAK), by_position, stage)
    if not membership(P, Q, point, 1):
        raise MembershipError(f"{path}: 'base' is not a weakly monotone map of P into Q")
    return point


def point_to_dict(P: FinitePoset, Q: FinitePoset, point: LexHomPoint) -> dict:
    """Point as a JSON-ready record, arrays back in P's element order."""
    order = admissible_numbering(P).order
    reals = [0.0] * len(P)
    for a, idx in enumerate(order):
        reals[idx] = point.reals[a]
    return {"base": [Q.elements[v] for v in point.base.values], "reals": reals}


def file_digest(path) -> str:
    """Hex sha256 of the file's raw bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
