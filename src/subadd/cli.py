"""Command-line front end.

Verbs: check2d, multiplier, checkmono, strongmono, reproduce, explore.
Input files are UTF-8 JSON in the schemas of the surface and toric
modules; every run emits a JSON report (stdout or --out) and exits 0
on a pass, 1 when a violation was found, 2 on an input error (an
unreadable, undecodable or wrongly shaped input file, an invalid
parameter, or an unwritable --out, which leaves no report), 3 when
the input is beyond desk scale (a typed out-of-scale error or an
exhausted memory allocation), 4 on an internal error (a failed
internal consistency check, a classification violation or any other
exception).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from . import proximity as px
from . import surface as sf
from . import toric as tc
from .rationals import as_rational


class ParseError(ValueError):
    """Bad input file; the message carries the path and the cause."""


def _load(path: str, kind: str, parse, inputs: dict[str, str]):
    """Read one JSON input file, record its sha256 digest in ``inputs``
    and build the ``kind`` object from its top-level JSON object with
    ``parse``. Every read, decode and shape failure is a ParseError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from exc
    inputs[path] = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        value = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(value, dict):
        raise ParseError(
            f"{path}: invalid {kind} (top-level JSON value is {type(value).__name__}, not object)"
        )
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{path}: invalid {kind} ({exc})") from exc


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def _cmd_check2d(args, inputs: dict) -> tuple[dict, bool]:
    model = _load(args.model, "model", sf.ResolutionModel.from_json_dict, inputs)
    f_a = _load(args.ideal_a, "cycle", sf.Cycle.from_json_dict, inputs)
    f_b = _load(args.ideal_b, "cycle", sf.Cycle.from_json_dict, inputs)
    cert = px.subadditivity_check_2d(model, f_a, f_b)
    return cert.to_json_dict(), cert.verdict


def _cmd_multiplier(args, inputs: dict) -> tuple[dict, bool]:
    c = _rational_arg(args.c)
    if args.model and args.ring:
        raise ParseError("multiplier takes --model or --ring, not both")
    if args.model:
        model = _load(args.model, "model", sf.ResolutionModel.from_json_dict, inputs)
        z = _load(args.ideal, "cycle", sf.Cycle.from_json_dict, inputs)
        cycle = model.multiplier_cycle(z, c)
        return {"multiplier_cycle": cycle.to_json_dict()}, True
    if args.ring:
        ring = _load(args.ring, "ring", tc.ToricRing.from_json_dict, inputs)
        parse_ideal = partial(tc.MonomialIdeal.from_json_dict, ring)
        ideal = _load(args.ideal, "ideal", parse_ideal, inputs)
        out = tc.multiplier_monomials(ideal, c)
        return {"multiplier_generators": out.rows}, True
    raise ParseError("multiplier needs either --model or --ring")


def _ideal_pair(args, inputs: dict) -> tuple[tc.MonomialIdeal, tc.MonomialIdeal]:
    ring = _load(args.ring, "ring", tc.ToricRing.from_json_dict, inputs)
    parse_ideal = partial(tc.MonomialIdeal.from_json_dict, ring)
    a = _load(args.ideal_a, "ideal", parse_ideal, inputs)
    b = _load(args.ideal_b, "ideal", parse_ideal, inputs)
    return a, b


def _cmd_checkmono(args, inputs: dict) -> tuple[dict, bool]:
    cert = tc.subadditivity_check_monomial(*_ideal_pair(args, inputs))
    return cert.to_json_dict(), cert.verdict


def _cmd_strongmono(args, inputs: dict) -> tuple[dict, bool]:
    a, b = _ideal_pair(args, inputs)
    cert = tc.strong_subadd_check_monomial(a, b, _rational_arg(args.c), _rational_arg(args.d))
    return cert.to_json_dict(), cert.verdict


def _cmd_explore(args, inputs: dict) -> tuple[dict, bool]:
    ring = _load(args.ring, "ring", tc.ToricRing.from_json_dict, inputs) if args.ring else None
    ideal_a = ideal_b = None
    if args.ideal_a or args.ideal_b:
        if ring is None:
            raise ParseError("pinned ideals need --ring")
        parse_ideal = partial(tc.MonomialIdeal.from_json_dict, ring)
        if args.ideal_a:
            ideal_a = _load(args.ideal_a, "ideal", parse_ideal, inputs)
        if args.ideal_b:
            ideal_b = _load(args.ideal_b, "ideal", parse_ideal, inputs)
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
    report = tc.explore_question33(config)
    return report.to_json_dict(), not report.violations


def _cmd_reproduce(args, inputs: dict) -> tuple[dict, bool]:
    from .reproduce import run_case

    results, mismatches = run_case(args.id, k=args.k, n=args.n)
    results = dict(results)
    results["mismatches"] = mismatches
    return results, not mismatches


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


_PARSER = build_parser()


def _row_block(rows, pad: str) -> str:
    """An integer-row block (a 2-d int array, or a list of int lists),
    one row per line: one %-format call over the flattened entries,
    which writes each int as json.dumps does."""
    if type(rows) is np.ndarray:
        formats = ["[" + ", ".join(["%d"] * rows.shape[1]) + "]"] * len(rows)
        flat = rows.ravel().tolist()
    else:
        widths = {n: "[" + ", ".join(["%d"] * n) + "]" for n in set(map(len, rows))}
        formats = [widths[len(row)] for row in rows]
        flat = list(itertools.chain.from_iterable(rows))
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(formats) % tuple(flat) + pad + "]"


_SCALARS = frozenset((str, int, float, bool, type(None)))
# json.dumps of a str, without its argument handling (an int is its repr)
_json_string = json.encoder.encode_basestring_ascii


@lru_cache(maxsize=None)
def _flat_encoder(pad: str):
    """The C encoder for a container of scalars at indent ``pad``: its
    item separator carries the indent of the members."""
    return json.JSONEncoder(
        separators=("," + pad + "  ", ": "), sort_keys=True, check_circular=False
    ).encode


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, except that an
    integer-row block (a nonempty 2-d int array, or a list of int lists
    with at least one entry: generator sets, matrices) puts one row per
    line. A container of scalars is one call of the C encoder; only
    containers holding containers recurse."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is np.ndarray:
        return _row_block(value, pad)
    if kind not in (dict, list) or not value:
        return json.dumps(value)
    members = value.values() if kind is dict else value
    if all(map(_SCALARS.__contains__, map(type, members))):
        text = _flat_encoder(pad)(value)
        return text[0] + pad + "  " + text[1:-1] + pad + text[-1]
    inner = pad + "  "
    if kind is dict:
        return "{" + ",".join(f"{inner}{_json_string(k)}: {_dumps(v, inner)}"
                              for k, v in sorted(value.items())) + pad + "}"
    if set(map(type, value)) == {list} and set(
        map(type, itertools.chain.from_iterable(value))
    ) == {int}:
        return _row_block(value, pad)
    return "[" + ",".join(inner + _dumps(v, inner) for v in value) + pad + "]"


def _report_text(report: dict) -> str:
    """The report as indented JSON with sorted keys, integer-row blocks
    one row per line."""
    return _dumps(report) + "\n"


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.perf_counter()
    inputs: dict[str, str] = {}
    error = None
    try:
        results, passed = args.func(args, inputs)
    except ParseError as exc:
        code, error = 2, str(exc)
    except (
        sf.ModelError,
        sf.NotAntiNefError,
        sf.NonIntegralError,
        sf.NegativeMarkedError,
        sf.InvalidParametersError,
        px.NoLambdaError,
        px.NotGorensteinError,
        px.NoQualifyingCycleError,
        tc.RingMismatchError,
    ) as exc:
        code, error = 2, f"{type(exc).__name__}: {exc}"
    except (tc.OutOfScaleError, MemoryError) as exc:
        code, error = 3, f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        # failed consistency checks, classification violations and every
        # other unmapped exception are faults of the program, not verdicts
        code, error = 4, f"{type(exc).__name__}: {exc}"
    if error is None:
        code = 0 if passed else 1
        report = {
            "command": args.verb,
            "arguments": {
                k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")
            },
            "inputs": inputs,
            "results": results,
            "status": "pass" if passed else "violation",
        }
    else:
        report = {"command": args.verb, "error": error, "status": "error"}
        print(f"error: {error}", file=sys.stderr)
    report["wall_time_ms"] = int((time.perf_counter() - t0) * 1000)
    text = _report_text(report)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        target = args.out or "stdout"
        print(f"error: cannot write the report to {target}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
