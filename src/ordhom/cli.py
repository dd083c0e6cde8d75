"""Command-line front end: read posets and points from files, run the
library's computations, print a human-readable or JSON report.

Exit codes: 0 when the command succeeds (and any checked identity holds),
2 when a checking command finds its identity violated, 1 on operational
errors (unreadable files, schema violations, unsupported flags, an output
pipe closed early). Report schemas are documented in FORMATS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from .errors import DepthUnsupported, OrdhomError
from .euler import check_euler_reciprocity, count_components, euler_hom
from .fileio import file_digest, load_point, load_poset, point_to_dict
from .homeo import LexHomPoint, backward, forward
from .homs import STRICT, WEAK, MonotoneMap, count_homs, iter_hom_values
from .orderpoly import check_stanley_reciprocity, evaluate, order_polynomial
from .posets import LexPoset

ROUNDTRIP_TOLERANCE = 1e-9
# `--eval` refuses a decimal exponent past this before Fraction builds
# 10**exponent, whose time and memory grow without bound; 10**4300 already
# has more digits than Python converts to text by default
_EVAL_MAX_EXPONENT = 4300
_EXIT = {"ok": 0, "theorem-violated": 2, "error": 1}


class UsageError(OrdhomError):
    """Bad command line (argparse would normally exit 2; we reserve that)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest_entry(path):
    return {"path": str(path), "sha256": file_digest(path)}


def _poset_arg(path, role, want_depth_zero=True):
    P, depth = load_poset(path)
    if want_depth_zero and depth != 0:
        raise DepthUnsupported(
            f"{role} poset file {path} has depth {depth}; this command needs depth 0")
    return P, depth


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_homcount(args):
    P, _ = _poset_arg(args.P, "source")
    Q, _ = _poset_arg(args.Q, "target")
    if args.list:
        maps = [[Q.elements[v] for v in values]
                for values in iter_hom_values(P, Q, args.mode)]
        result = {"mode": args.mode, "count": len(maps), "maps": maps}
    else:
        result = {"mode": args.mode, "count": count_homs(P, Q, args.mode)}
    inputs = {"P": _digest_entry(args.P), "Q": _digest_entry(args.Q)}
    return inputs, result, "ok"


def cmd_ordpoly(args):
    P, _ = _poset_arg(args.P, "source")
    poly = order_polynomial(P, args.mode)
    result = {
        "mode": args.mode,
        "polynomial": str(poly),
        "coefficients": [str(c) for c in poly.coefficients],
    }
    if args.eval is not None:
        t = _eval_point(args.eval)
        value = evaluate(poly, t)
        try:
            result["eval"] = {"t": str(t), "value": str(value)}
        except ValueError:   # past Python's limit on int-to-text digits
            raise UsageError(f"--eval {_clip(args.eval)}: t or the value has too "
                             "many digits to print") from None
    return {"P": _digest_entry(args.P)}, result, "ok"


def _eval_point(text):
    """The rational number --eval names, read by `fractions.Fraction`
    (which allows underscores between the digits of an exponent)."""
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 4 or digits and int(digits) > _EVAL_MAX_EXPONENT:
        raise UsageError(f"--eval exponent is larger than {_EVAL_MAX_EXPONENT} "
                         "in absolute value")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        # int() reads each side of '/' (with a decimal point's two sides
        # joined) up to Python's digit limit, 0 or absent for none
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < max(len(re.findall(r"\d", s)) for s in re.split(r"[/eE]", text)):
            raise UsageError(f"--eval {_clip(text)}: more than {limit} digits, "
                             "past Python's int-digit limit") from None
        raise UsageError(f"--eval expects a rational number, got {_clip(text)}") from None


def _clip(text):
    """``text`` quoted, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def cmd_reciprocity(args):
    P, _ = _poset_arg(args.P, "source")
    rep = check_stanley_reciprocity(P)
    result = {
        "holds": rep.holds,
        "strict": str(rep.strict),
        "weak": str(rep.weak),
        "lhs": [str(c) for c in rep.lhs],
        "rhs": [str(c) for c in rep.rhs],
    }
    status = "ok" if rep.holds else "theorem-violated"
    return {"P": _digest_entry(args.P)}, result, status


def _lex_target(args):
    Q, file_depth = _poset_arg(args.Q, "target", want_depth_zero=False)
    depth = args.depth if args.depth is not None else file_depth
    if depth < 0:
        raise UsageError("--depth must be nonnegative")
    return LexPoset(Q, depth)


def cmd_euler(args):
    P, _ = _poset_arg(args.P, "source")
    target = _lex_target(args)
    value = euler_hom(P, target, args.mode)
    result = {"mode": args.mode, "depth": target.depth, "euler": value}
    inputs = {"P": _digest_entry(args.P), "Q": _digest_entry(args.Q)}
    return inputs, result, "ok"


def cmd_euler_reciprocity(args):
    P, _ = _poset_arg(args.P, "source")
    target = _lex_target(args)
    first, second = check_euler_reciprocity(P, target)
    holds = first.holds and second.holds
    result = {
        "depth": target.depth,
        "reports": [
            {"identity": r.identity, "lhs": r.lhs, "rhs": r.rhs, "holds": r.holds}
            for r in (first, second)
        ],
        "holds": holds,
    }
    if args.components:
        if target.depth != 1:
            raise DepthUnsupported("--components is defined for depth 1 only")
        # component counts of the two sides whose Euler characteristics the
        # depth-0 identity equates: weak maps into the lex product versus
        # strict maps times a euclidean factor (which never adds components)
        result["components"] = {
            "weak_lex_space": count_components(P, target, WEAK),
            "strict_product_space": count_homs(P, target.base, STRICT),
        }
    status = "ok" if holds else "theorem-violated"
    inputs = {"P": _digest_entry(args.P), "Q": _digest_entry(args.Q)}
    return inputs, result, status


def _random_free_points(P, Q, count, rng):
    """Seeded stage-1 points: random weak base, unconstrained reals."""
    bases = list(iter_hom_values(P, Q, WEAK))
    if not bases and count > 0:
        raise OrdhomError("no weakly monotone base maps exist for this pair")
    n = len(P)
    return [LexHomPoint(MonotoneMap(P, Q, bases[rng.randrange(len(bases))], WEAK),
                        tuple(rng.uniform(-10.0, 10.0) for _ in range(n)), 1)
            for _ in range(count)]


def cmd_homeo(args):
    P, _ = _poset_arg(args.P, "source")
    Q, _ = _poset_arg(args.Q, "target")
    n = len(P)
    inputs = {"P": _digest_entry(args.P), "Q": _digest_entry(args.Q)}
    if (args.point is None) == (args.random is None):
        raise UsageError("supply exactly one of a point file or --random N")
    if args.random is not None and args.seed is None:
        raise UsageError("--random requires --seed")

    if args.point is not None:
        stage = 1 if args.direction == "backward" else max(n, 1)
        points = [load_point(args.point, P, Q, stage)]
        inputs["point"] = _digest_entry(args.point)
    else:
        if args.random < 0:
            raise UsageError("--random expects a nonnegative count")
        points = _random_free_points(P, Q, args.random, random.Random(args.seed))
        if args.direction != "backward":
            # backward carries every free point into the strict space
            points = [backward(P, Q, x) for x in points]

    result = {"direction": args.direction, "points": len(points)}
    if args.seed is not None and args.random is not None:
        result["seed"] = args.seed
    status = "ok"

    if args.direction == "forward":
        outs = [forward(P, Q, x) for x in points]
        result["base_preserved"] = all(
            y.base.values == x.base.values for x, y in zip(points, outs))
        result["outputs"] = [point_to_dict(P, Q, y) for y in outs]
    elif args.direction == "backward":
        outs = [backward(P, Q, x) for x in points]
        result["outputs"] = [point_to_dict(P, Q, y) for y in outs]
    else:
        # max_error is absolute; each real is held to the tolerance
        # relative to its size, with an absolute floor at 1
        max_error = 0.0
        bases_equal = close = True
        for x in points:
            y = backward(P, Q, forward(P, Q, x))
            bases_equal = bases_equal and y.base.values == x.base.values
            for s, t in zip(x.reals, y.reals):
                max_error = max(max_error, abs(s - t))
                close = close and abs(s - t) <= ROUNDTRIP_TOLERANCE * max(1.0, abs(s))
        result["max_error"] = max_error
        result["tolerance"] = ROUNDTRIP_TOLERANCE
        result["base_maps_equal"] = bases_equal
        result["within_tolerance"] = close and bases_equal
        if not result["within_tolerance"]:
            status = "error"
    return inputs, result, status


def _render(command, report):
    result = report["result"]
    if command == "homcount":
        print(f"{result['mode']} monotone maps: {result['count']}")
        for values in result.get("maps", []):
            print("  " + (" ".join(values) if values else "(empty map)"))
    elif command == "ordpoly":
        print(f"{result['mode']} order polynomial: {result['polynomial']}")
        if "eval" in result:
            print(f"value at {result['eval']['t']}: {result['eval']['value']}")
    elif command == "reciprocity":
        print(f"strict: {result['strict']}")
        print(f"weak: {result['weak']}")
        print(f"reciprocity holds: {_yesno(result['holds'])}")
    elif command == "euler":
        print(f"euler characteristic ({result['mode']}, depth {result['depth']}): "
              f"{result['euler']}")
    elif command == "euler-reciprocity":
        print(f"depth: {result['depth']}")
        for rep in result["reports"]:
            print(f"{rep['identity']}: lhs={rep['lhs']} rhs={rep['rhs']} "
                  f"holds={_yesno(rep['holds'])}")
        print(f"both hold: {_yesno(result['holds'])}")
        if "components" in result:
            comp = result["components"]
            print(f"components: weak maps into lex product: {comp['weak_lex_space']}, "
                  f"strict maps times euclidean factor: {comp['strict_product_space']}")
    elif command == "homeo":
        print(f"direction: {result['direction']}")
        print(f"points: {result['points']}")
        if "seed" in result:
            print(f"seed: {result['seed']}")
        if "base_preserved" in result:
            print(f"base preserved: {_yesno(result['base_preserved'])}")
        for out in result.get("outputs", []):
            print("  " + json.dumps(out))
        if "max_error" in result:
            print(f"max error: {result['max_error']:.3e}")
            print(f"tolerance: {result['tolerance']:.0e}")
            print(f"base maps equal: {_yesno(result['base_maps_equal'])}")
            print(f"within tolerance: {_yesno(result['within_tolerance'])}")


def _build_parser():
    parser = _Parser(prog="ordhom",
                     description="order polynomials, Euler characteristics and "
                                 "the strict/weak change of coordinates for "
                                 "finite posets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homcount", help="count monotone maps between two posets")
    p.add_argument("P")
    p.add_argument("Q")
    p.add_argument("--mode", choices=[STRICT, WEAK], required=True)
    p.add_argument("--list", action="store_true", help="also print every map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_homcount)

    p = sub.add_parser("ordpoly", help="order polynomial of a poset")
    p.add_argument("P")
    p.add_argument("--mode", choices=[STRICT, WEAK], required=True)
    p.add_argument("--eval", metavar="T", help="evaluate at a rational point")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_ordpoly)

    p = sub.add_parser("reciprocity",
                       help="check the strict/weak order polynomial identity")
    p.add_argument("P")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_reciprocity)

    p = sub.add_parser("euler",
                       help="Euler characteristic of maps into a lex product")
    p.add_argument("P")
    p.add_argument("Q")
    p.add_argument("--depth", type=int, help="override the target file's depth")
    p.add_argument("--mode", choices=[STRICT, WEAK], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_euler)

    p = sub.add_parser("euler-reciprocity",
                       help="check both Euler characteristic identities")
    p.add_argument("P")
    p.add_argument("Q")
    p.add_argument("--depth", type=int, help="override the target file's depth")
    p.add_argument("--components", action="store_true",
                   help="also count connected components (depth 1 only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_euler_reciprocity)

    p = sub.add_parser("homeo",
                       help="evaluate the strict/weak change of coordinates")
    p.add_argument("P")
    p.add_argument("Q")
    p.add_argument("point", nargs="?", help="point file (omit with --random)")
    p.add_argument("--random", type=int, metavar="N",
                   help="run on N seeded random points")
    p.add_argument("--seed", type=int)
    p.add_argument("--direction", choices=["forward", "backward", "roundtrip"],
                   required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_homeo)
    return parser


def _emit_error(command, json_out, exc):
    if json_out:
        report = {"command": command, "inputs": {},
                  "result": {"error": str(exc)}, "status": "error"}
        print(json.dumps(report, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json_out = getattr(args, "json", False)
    try:
        inputs, result, status = args.handler(args)
    except (OrdhomError, OSError) as exc:
        return _emit_error(args.command, json_out, exc)
    report = {"command": args.command, "inputs": inputs,
              "result": result, "status": status}
    if json_out:
        print(json.dumps(report, indent=2))
    else:
        _render(args.command, report)
    return _EXIT[status]


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``): point stdout at
        # devnull so that the interpreter's last flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
