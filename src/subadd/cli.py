"""Command-line front end.

Verbs: check2d, multiplier, checkmono, strongmono, reproduce, explore.
Input files are UTF-8 JSON in the schemas of the surface and toric
modules; every run emits a JSON report (stdout or --out) and exits 0
on a pass, 1 when a violation was found, 2 on an input error, 3 when
the input is beyond desk scale (a typed out-of-scale error or an
exhausted memory allocation), 4 on an internal error (a failed
internal consistency check or a classification violation).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import proximity as px
from . import surface as sf
from . import toric as tc
from .rationals import as_rational


class ParseError(ValueError):
    """Bad input file; the message carries the path and the cause."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return "sha256:" + h.hexdigest()


def _load_model(path: str) -> sf.ResolutionModel:
    data = _load_json(path)
    try:
        return sf.ResolutionModel.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid model ({exc})") from exc


def _load_cycle(path: str) -> sf.Cycle:
    data = _load_json(path)
    try:
        return sf.Cycle.from_json_dict(data)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid cycle ({exc})") from exc


def _load_ring(path: str) -> tc.ToricRing:
    data = _load_json(path)
    try:
        return tc.ToricRing.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid ring ({exc})") from exc


def _load_ideal(path: str, ring: tc.ToricRing) -> tc.MonomialIdeal:
    data = _load_json(path)
    try:
        return tc.MonomialIdeal.from_json_dict(ring, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: invalid ideal ({exc})") from exc


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(args, command: str, inputs: dict, results: dict, status: str, t0: float) -> int:
    report = {
        "command": command,
        "arguments": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
        },
        "inputs": inputs,
        "results": results,
        "status": status,
        "wall_time_ms": int((time.time() - t0) * 1000),
    }
    _emit(report, args.out)
    return {"pass": 0, "violation": 1}[status]


def _cmd_check2d(args, t0: float) -> int:
    model = _load_model(args.model)
    f_a = _load_cycle(args.ideal_a)
    f_b = _load_cycle(args.ideal_b)
    inputs = {p: _digest(p) for p in (args.model, args.ideal_a, args.ideal_b)}
    cert = px.subadditivity_check_2d(model, f_a, f_b)
    status = "pass" if cert.verdict else "violation"
    return _finish(args, "check2d", inputs, cert.to_json_dict(), status, t0)


def _cmd_multiplier(args, t0: float) -> int:
    c = _rational_arg(args.c)
    if args.model:
        model = _load_model(args.model)
        z = _load_cycle(args.ideal)
        inputs = {p: _digest(p) for p in (args.model, args.ideal)}
        cycle = model.multiplier_cycle(z, c)
        results = {"multiplier_cycle": cycle.to_json_dict()}
    elif args.ring:
        ring = _load_ring(args.ring)
        ideal = _load_ideal(args.ideal, ring)
        inputs = {p: _digest(p) for p in (args.ring, args.ideal)}
        out = tc.multiplier_monomials(ideal, c)
        results = {"multiplier_generators": [list(g) for g in out.generators]}
    else:
        raise ParseError("multiplier needs either --model or --ring")
    return _finish(args, "multiplier", inputs, results, "pass", t0)


def _cmd_checkmono(args, t0: float) -> int:
    ring = _load_ring(args.ring)
    a = _load_ideal(args.ideal_a, ring)
    b = _load_ideal(args.ideal_b, ring)
    inputs = {p: _digest(p) for p in (args.ring, args.ideal_a, args.ideal_b)}
    cert = tc.subadditivity_check_monomial(a, b)
    status = "pass" if cert.verdict else "violation"
    return _finish(args, "checkmono", inputs, cert.to_json_dict(), status, t0)


def _cmd_strongmono(args, t0: float) -> int:
    ring = _load_ring(args.ring)
    a = _load_ideal(args.ideal_a, ring)
    b = _load_ideal(args.ideal_b, ring)
    inputs = {p: _digest(p) for p in (args.ring, args.ideal_a, args.ideal_b)}
    cert = tc.strong_subadd_check_monomial(a, b, _rational_arg(args.c), _rational_arg(args.d))
    status = "pass" if cert.verdict else "violation"
    return _finish(args, "strongmono", inputs, cert.to_json_dict(), status, t0)


def _cmd_explore(args, t0: float) -> int:
    ring = _load_ring(args.ring) if args.ring else None
    ideal_a = ideal_b = None
    if args.ideal_a or args.ideal_b:
        if ring is None:
            raise ParseError("pinned ideals need --ring")
        ideal_a = _load_ideal(args.ideal_a, ring) if args.ideal_a else None
        ideal_b = _load_ideal(args.ideal_b, ring) if args.ideal_b else None
    config = tc.ExploreConfig(
        rank=args.rank,
        trials=args.trials,
        seed=args.seed,
        modulus_min=args.modulus_min,
        modulus_max=args.modulus_max,
        max_generators=args.max_generators,
        max_coordinate=args.max_coordinate,
        gorenstein_only=not args.no_gorenstein_filter,
        ring=ring,
        ideal_a=ideal_a,
        ideal_b=ideal_b,
    )
    inputs = {
        p: _digest(p)
        for p in (args.ring, args.ideal_a, args.ideal_b)
        if p
    }
    report = tc.explore_question33(config)
    status = "pass" if not report.violations else "violation"
    return _finish(args, "explore", inputs, report.to_json_dict(), status, t0)


def _cmd_reproduce(args, t0: float) -> int:
    from .reproduce import run_case

    results, mismatches = run_case(args.id, k=args.k, n=args.n)
    status = "pass" if not mismatches else "violation"
    results = dict(results)
    results["mismatches"] = mismatches
    return _finish(args, "reproduce", {}, results, status, t0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subadd",
        description="Exact multiplier-ideal computations and subadditivity checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check2d", help="subadditivity certificate on a resolution model")
    p.add_argument("--model", required=True)
    p.add_argument("--ideal-a", required=True, dest="ideal_a")
    p.add_argument("--ideal-b", required=True, dest="ideal_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check2d)

    p = sub.add_parser("multiplier", help="multiplier ideal of one input at an exponent")
    p.add_argument("--model")
    p.add_argument("--ring")
    p.add_argument("--ideal", required=True)
    p.add_argument("-c", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_multiplier)

    p = sub.add_parser("checkmono", help="monomial subadditivity certificate")
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal-a", required=True, dest="ideal_a")
    p.add_argument("--ideal-b", required=True, dest="ideal_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_checkmono)

    p = sub.add_parser("strongmono", help="rational-exponent monomial subadditivity")
    p.add_argument("--ring", required=True)
    p.add_argument("--ideal-a", required=True, dest="ideal_a")
    p.add_argument("--ideal-b", required=True, dest="ideal_b")
    p.add_argument("-c", required=True)
    p.add_argument("-d", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_strongmono)

    p = sub.add_parser("reproduce", help="run a built-in worked example by id")
    p.add_argument("id", choices=["2.6.1", "2.6.2", "2.3.2", "2.4.1", "2.4.2", "3.2"])
    p.add_argument("--k", type=int, default=2, help="parameter for case 2.4.1")
    p.add_argument("--n", type=int, default=2, help="parameter for case 2.4.2")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("explore", help="randomized monomial subadditivity search")
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modulus-min", type=int, default=2, dest="modulus_min")
    p.add_argument("--modulus-max", type=int, default=13, dest="modulus_max")
    p.add_argument("--max-generators", type=int, default=4, dest="max_generators")
    p.add_argument("--max-coordinate", type=int, default=30, dest="max_coordinate")
    p.add_argument("--no-gorenstein-filter", action="store_true")
    p.add_argument("--ring")
    p.add_argument("--ideal-a", dest="ideal_a")
    p.add_argument("--ideal-b", dest="ideal_b")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_explore)
    return parser


def _fail(args, t0: float, error: str, code: int) -> int:
    report = {
        "command": args.verb,
        "error": error,
        "status": "error",
        "wall_time_ms": int((time.time() - t0) * 1000),
    }
    _emit(report, getattr(args, "out", None))
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.time()
    try:
        return args.func(args, t0)
    except ParseError as exc:
        return _fail(args, t0, str(exc), 2)
    except (
        sf.ModelError,
        sf.NotAntiNefError,
        sf.NonIntegralError,
        sf.NegativeMarkedError,
        sf.InvalidParametersError,
        sf.StageOutOfRangeError,
        px.NoLambdaError,
        px.NotGorensteinError,
        px.NoQualifyingCycleError,
        tc.RingMismatchError,
    ) as exc:
        return _fail(args, t0, f"{type(exc).__name__}: {exc}", 2)
    except (tc.OutOfScaleError, MemoryError) as exc:
        return _fail(args, t0, f"{type(exc).__name__}: {exc}", 3)
    except (AssertionError, px.ClassificationViolationError) as exc:
        return _fail(args, t0, f"{type(exc).__name__}: {exc}", 4)


if __name__ == "__main__":
    raise SystemExit(main())
