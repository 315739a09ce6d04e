"""Seeded inputs and output checks for the four benchmark workloads.

Each workload is a pool of CLI calls. ``build(name, seed)`` returns the
pool: every call names its verb, its arguments (input files are named
relative to the input directory), the JSON input files it needs, and a
checker. Inputs are a pure function of the seed. The generators do their own
lattice and intersection arithmetic; only the ADE graphs come from the
library's catalog.

A checker receives the call's parsed report and exit status and returns
a list of problems. The rechecks go through public library functions
and never through the engine that produced the answer: interior tests
against freshly built Newton polyhedra, product membership, anti-nef
tests on the reported cycles.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from subadd import surface as sf
from subadd import toric as tc

WORKLOADS = ("toric-bigbox", "explore-rank3", "strongmono-powers", "surface-2d")

# Explore trials per CLI call; the call is the unit of latency.
EXPLORE_BATCH = 20


@dataclass
class Call:
    verb: str
    args: list[str]
    files: dict[str, object]
    check: Callable[[dict, int], list[str]]
    # results a call contributes to certs_per_s; None means "read it from
    # the report" (explore counts the trials it ran)
    results: int | None = 1
    mixed_generators: int = 0


# -- toric helpers ------------------------------------------------------------

Q41_RING = {"rank": 3, "congruences": [{"weights": [35, 28, 20], "modulus": 41}]}
Q41_IDEAL = {
    "generators": [[410, 0, 0], [0, 410, 0], [0, 0, 410], [8, 1, 1], [4, 6, 1], [4, 1, 8]]
}


def _ring(data: dict) -> tc.ToricRing:
    return tc.ToricRing.from_json_dict(data)


def _ideal(ring: tc.ToricRing, gens) -> tc.MonomialIdeal:
    return tc.MonomialIdeal(ring, [tuple(g) for g in gens])


def _in_lattice(w, r, v) -> bool:
    return sum(a * b for a, b in zip(w, v)) % r == 0


def _lattice_point(rng: random.Random, w, r, cap: int) -> list[int]:
    while True:
        v = [rng.randint(0, cap) for _ in w]
        if any(v) and _in_lattice(w, r, v):
            return v


def _minimal(points) -> list[tuple[int, ...]]:
    """Componentwise-minimal points, in (sum, point) order."""
    pts = sorted(set(points), key=lambda p: (sum(p), p))
    if not pts:
        return []
    arr = np.array(pts, dtype=np.int64)
    keep = np.empty(len(arr), dtype=bool)
    for start in range(0, len(arr), 512):
        block = arr[start : start + 512]
        # the points are distinct, so a point lies above exactly one point
        # (itself) when it is minimal
        above = (arr[None, :, :] <= block[:, None, :]).all(axis=2).sum(axis=1)
        keep[start : start + 512] = above == 1
    return [p for p, k in zip(pts, keep) if k]


def _sums(a, b) -> list[tuple[int, ...]]:
    return _minimal(tuple(x + y for x, y in zip(u, v)) for u in a for v in b)


def _power(a, k: int) -> list[tuple[int, ...]]:
    out = [tuple(0 for _ in a[0])]
    for _ in range(k):
        out = _sums(out, a)
    return out


def _status_problems(report: dict, rc: int, verdict: bool) -> list[str]:
    want = 0 if verdict else 1
    problems = []
    if rc != want:
        problems.append(f"exit status {rc}, expected {want}")
    if report.get("status") != ("pass" if verdict else "violation"):
        problems.append(f"status {report.get('status')!r} disagrees with the verdict")
    return problems


def _members(poly: tc.NewtonPolyhedron, pts: np.ndarray, c: Fraction) -> np.ndarray:
    """Interior test of every row + 1 against c * poly, in integers."""
    p, q = c.numerator, c.denominator
    ok = np.ones(len(pts), dtype=bool)
    for a, b in poly.facets:
        ok &= q * ((pts + 1) @ np.array(a, dtype=np.int64)) > p * b
    return ok


@functools.lru_cache(maxsize=None)
def _minimal_steps(w: tuple[int, ...], r: int) -> list[tuple[int, ...]]:
    """Irreducible elements of the semigroup of 1/r(w), found by scanning
    [0, r]^3 with the congruence rather than with the engine's
    enumerator."""
    axis = np.arange(r + 1, dtype=np.int64)
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
    pts = pts[(pts @ np.array(w, dtype=np.int64)) % r == 0][1:]
    return _minimal(map(tuple, pts.tolist()))


def _multiplier_problems(ring, poly, c: Fraction, gens) -> list[str]:
    """Every generator is a semigroup point passing the interior test,
    and no generator minus a minimal semigroup step passes it."""
    if not gens:
        return ["empty generator set"]
    arr = np.array(gens, dtype=np.int64)
    ((w, r),) = ring.congruences
    if ((arr @ np.array(w, dtype=np.int64)) % r != 0).any() or (arr < 0).any():
        return ["a generator is not in the semigroup"]
    if not _members(poly, arr, c).all():
        return ["a generator fails the interior test"]
    for h in _minimal_steps(w, r):
        below = arr - np.array(h, dtype=np.int64)
        below = below[(below >= 0).all(axis=1)]
        if len(below) and _members(poly, below, c).any():
            return [f"a generator minus step {h} still passes the interior test"]
    return []


def _witness_problems(ring, poly_mixed, c_mixed, ja, jb, w) -> list[str]:
    problems = []
    if not tc.in_interior(poly_mixed, [x + 1 for x in w], c_mixed):
        problems.append(f"witness {w} is not in the product-side multiplier ideal")
    prod = tc.ideal_product(_ideal(ring, ja), _ideal(ring, jb))
    if tc.ideal_membership(prod, w):
        problems.append(f"witness {w} lies in J(a) J(b)")
    return problems


def _certificate_problems(ring, a, b, ca, cb, poly_mixed, c_mixed, res) -> list[str]:
    """Recheck a monomial certificate: J(a), J(b) and J(mixed) generators
    are members; a witness is a member of J(mixed) outside J(a) J(b); a
    pass has every J(mixed) generator inside J(a) J(b)."""
    problems = []
    for gens, poly, c in (
        (res["j_a_generators"], a.newton_polyhedron(), ca),
        (res["j_b_generators"], b.newton_polyhedron(), cb),
        (res["j_product_generators"], poly_mixed, c_mixed),
    ):
        if not _members(poly, np.array(gens, dtype=np.int64), c).all():
            problems.append("a multiplier generator fails the interior test")
    witness = res["witness"]
    if res["verdict"]:
        if witness is not None:
            problems.append("a passing certificate carries a witness")
        prod = tc.ideal_product(_ideal(ring, res["j_a_generators"]), _ideal(ring, res["j_b_generators"]))
        for g in res["j_product_generators"]:
            if not tc.ideal_membership(prod, g):
                problems.append(f"pass, but {g} is outside J(a) J(b)")
                break
    elif witness is None:
        problems.append("a failing certificate has no witness")
    else:
        problems += _witness_problems(
            ring, poly_mixed, c_mixed, res["j_a_generators"], res["j_b_generators"], witness
        )
    return problems


def _check_checkmono(files):
    def check(report, rc):
        res = report["results"]
        ring = _ring(files["ring.json"])
        a = _ideal(ring, files["a.json"]["generators"])
        b = _ideal(ring, files["b.json"]["generators"])
        poly_ab = tc.newton_polyhedron(tc.ideal_product(a, b))
        problems = _status_problems(report, rc, res["verdict"])
        return problems + _certificate_problems(
            ring, a, b, Fraction(1), Fraction(1), poly_ab, Fraction(1), res
        )

    return check


def _check_strongmono(files, c: Fraction, d: Fraction):
    def check(report, rc):
        res = report["results"]
        ring = _ring(files["ring.json"])
        a = _ideal(ring, files["a.json"]["generators"])
        b = _ideal(ring, files["b.json"]["generators"])
        m = math.lcm(c.denominator, d.denominator)
        p, q = int(c * m), int(d * m)
        # Newt(a^p b^q) = p Newt(a) + q Newt(b): its vertices are among the
        # sums of scaled generators, a route independent of ideal_power.
        sums = {
            tuple(p * x + q * y for x, y in zip(u, v))
            for u in a.generators
            for v in b.generators
        }
        poly_mixed = tc.newton_polyhedron(tc.MonomialIdeal(ring, sums))
        problems = _status_problems(report, rc, res["verdict"])
        return problems + _certificate_problems(
            ring, a, b, c, d, poly_mixed, Fraction(1, m), res
        )

    return check


def _check_multiplier_ring(files, c: Fraction):
    def check(report, rc):
        ring = _ring(files["ring.json"])
        ideal = _ideal(ring, files["ideal.json"]["generators"])
        gens = [tuple(g) for g in report["results"]["multiplier_generators"]]
        problems = _status_problems(report, rc, True)
        return problems + _multiplier_problems(ring, tc.newton_polyhedron(ideal), c, gens)

    return check


def _check_explore(trials: int):
    def check(report, rc):
        res = report["results"]
        problems = _status_problems(report, rc, not res["violations"])
        if res["trials_run"] + res["trials_skipped"] != trials:
            problems.append("trial counts do not add up")
        for v in res["violations"]:
            ring = _ring(v["ring"])
            a = _ideal(ring, v["ideal_a"]["generators"])
            b = _ideal(ring, v["ideal_b"]["generators"])
            cert = v["certificate"]
            if cert["verdict"] or cert["witness"] is None:
                problems.append(f"trial {v['trial']} reported without a witness")
                continue
            poly_ab = tc.newton_polyhedron(tc.ideal_product(a, b))
            problems += _witness_problems(
                ring, poly_ab, Fraction(1), cert["j_a_generators"], cert["j_b_generators"], cert["witness"]
            )
        return problems

    return check


# -- toric-bigbox ---------------------------------------------------------------

_BIGBOX_PRIMES = (31, 37, 41, 43, 47)
_BIGBOX_EXPONENTS = tuple(Fraction(x) for x in ("1/2", "3/4", "1", "5/4", "3/2", "2", "5/2"))
# c * (pure-power coordinate), about the box side: it sets a call's cost,
# so every call gets the same one and the seed varies the lattice and
# the shape of the ideal.
_BIGBOX_SIDE = 270
# depths of the three inner generators, as shares of the pure powers
_BIGBOX_SHAPE = (0.3, 0.12, 0.05)


def _inner_point(rng: random.Random, w, r, top: int) -> list[int]:
    shares = [x * rng.uniform(0.85, 1.15) for x in _BIGBOX_SHAPE]
    rng.shuffle(shares)
    v = [int(x * top) for x in shares]
    while not _in_lattice(w, r, v):
        v[rng.randrange(len(v))] += 1
    return v


def _bigbox(seed: int, tiny: bool) -> list[Call]:
    calls = []
    if not tiny:
        q41 = {"ring.json": Q41_RING, "a.json": Q41_IDEAL, "b.json": Q41_IDEAL}
        calls.append(
            Call(
                "checkmono",
                ["--ring", "ring.json", "--ideal-a", "a.json", "--ideal-b", "b.json"],
                q41,
                _check_checkmono(q41),
            )
        )
    side = 40 if tiny else _BIGBOX_SIDE
    for i in range(8 if tiny else 120):
        rng = random.Random(f"toric-bigbox:{seed}:{i}")
        c = _BIGBOX_EXPONENTS[i % len(_BIGBOX_EXPONENTS)]
        if i % 8 == 7 and not tiny:
            ring, gens = Q41_RING, Q41_IDEAL["generators"]
            c = Fraction(3, 4)
        else:
            # the prime whose multiple brings c * top closest to the side
            r = min(_BIGBOX_PRIMES, key=lambda p: abs(c * max(p, round(side / c / p) * p) - side))
            w = [rng.randrange(1, r) for _ in range(3)]
            top = max(r, round(side / c / r) * r)
            ring = {"rank": 3, "congruences": [{"weights": w, "modulus": r}]}
            gens = [[top, 0, 0], [0, top, 0], [0, 0, top]]
            gens += [_inner_point(rng, w, r, top) for _ in range(3)]
        files = {"ring.json": ring, "ideal.json": {"generators": gens}}
        calls.append(
            Call(
                "multiplier",
                ["--ring", "ring.json", "--ideal", "ideal.json", "-c", str(c)],
                files,
                _check_multiplier_ring(files, c),
            )
        )
    return calls


# -- explore-rank3 ---------------------------------------------------------------


# The first call is one pinned trial whose J(ab) box (side 113, about
# 1.4 million points) is the largest the engine builds as one array, above
# any box of a default trial; it sets the workload's peak memory.
_EXPLORE_ANCHOR = {
    "ring.json": {"rank": 3, "congruences": [{"weights": [1, 12, 0], "modulus": 13}]},
    "a.json": {"generators": [[48, 9, 0], [9, 48, 0], [0, 0, 48], [5, 5, 5]]},
    "b.json": {"generators": [[48, 9, 3], [3, 3, 48], [9, 48, 2]]},
}


def _explore(seed: int, tiny: bool) -> list[Call]:
    trials = 2 if tiny else EXPLORE_BATCH
    calls = []
    if not tiny:
        calls.append(
            Call(
                "explore",
                ["--trials", "1", "--ring", "ring.json", "--ideal-a", "a.json", "--ideal-b", "b.json"],
                _EXPLORE_ANCHOR,
                _check_explore(1),
                results=None,
            )
        )
    for i in range(8 if tiny else 400):
        call_seed = random.Random(f"explore-rank3:{seed}:{i}").randrange(2**31)
        calls.append(
            Call(
                "explore",
                ["--trials", str(trials), "--seed", str(call_seed)],
                {},
                _check_explore(trials),
                results=None,
            )
        )
    return calls


# -- strongmono-powers -------------------------------------------------------------

# The fixed first call sets the workload's peak memory: Newton facets of
# a mixed ideal with this many generators. Counts stay far below the
# 499-generator case that asks numpy for 77.7 GiB.
_ANCHOR = {
    "ring.json": {"rank": 3, "congruences": [{"weights": [1, 1, 1], "modulus": 3}]},
    "a.json": {"generators": [[3, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 6]]},
    "b.json": {"generators": [[2, 1, 0], [0, 2, 4], [1, 0, 2]]},
}
_ANCHOR_EXPONENTS = (Fraction(1, 3), Fraction(2, 5))
# The seeded calls form mixed ideals in one size class, with the
# exponent pairs that most often give such sizes; the class is narrow
# because Newton enumeration grows with the cube of the size.
_STRONG_SIZES = (54, 62)
_STRONG_EXPONENTS = tuple(
    (Fraction(c), Fraction(d))
    for c, d in (
        ("3/4", "3/4"), ("3/5", "3/5"), ("1", "3/4"), ("4/5", "3/5"),
        ("2/3", "1/2"), ("3/4", "1"), ("3/5", "4/5"), ("1/2", "2/3"),
    )
)
_GORENSTEIN = ((3, (1, 1, 1)), (5, (1, 1, 3)), (5, (1, 2, 2)), (7, (1, 2, 4)), (7, (1, 1, 5)), (7, (2, 2, 3)))


def _mixed_size(a, b, c: Fraction, d: Fraction, powers: dict | None = None) -> int:
    """Generator count of the mixed ideal a^p b^q that strongmono forms;
    ``powers`` memoizes the powers of a and b."""
    powers = {} if powers is None else powers
    m = math.lcm(c.denominator, d.denominator)
    sides = []
    for gens, k in ((a, int(c * m)), (b, int(d * m))):
        key = (tuple(gens), k)
        if key not in powers:
            powers[key] = _power(gens, k)
        sides.append(powers[key])
    return len(_sums(*sides))


def _antichain(rng: random.Random, w, r, count: int) -> list[tuple[int, ...]]:
    """``count`` semigroup points, none dominating another."""
    while True:
        gens = _minimal(tuple(_lattice_point(rng, w, r, 6)) for _ in range(count))
        if len(gens) == count:
            return gens


def _strongmono(seed: int, tiny: bool) -> list[Call]:
    calls = []

    def add(files, c, d, size):
        calls.append(
            Call(
                "strongmono",
                ["--ring", "ring.json", "--ideal-a", "a.json", "--ideal-b", "b.json", "-c", str(c), "-d", str(d)],
                files,
                _check_strongmono(files, c, d),
                mixed_generators=size,
            )
        )

    if not tiny:
        c, d = _ANCHOR_EXPONENTS
        a = [tuple(g) for g in _ANCHOR["a.json"]["generators"]]
        b = [tuple(g) for g in _ANCHOR["b.json"]["generators"]]
        add(_ANCHOR, c, d, _mixed_size(a, b, c, d))
    rng = random.Random(f"strongmono-powers:{seed}")
    lo, hi = (4, 30) if tiny else _STRONG_SIZES
    for _ in range(6 if tiny else 60):
        picked = None
        while picked is None:
            r, w = rng.choice(_GORENSTEIN)
            perm = rng.sample(w, 3)
            a = _antichain(rng, perm, r, rng.randint(3, 4))
            b = _antichain(rng, perm, r, 3)
            powers: dict = {}
            for c, d in rng.sample(_STRONG_EXPONENTS, 3):
                size = _mixed_size(a, b, c, d, powers)
                if lo <= size < hi:
                    picked = (perm, r, a, b, c, d, size)
                    break
        perm, r, a, b, c, d, size = picked
        files = {
            "ring.json": {"rank": 3, "congruences": [{"weights": perm, "modulus": r}]},
            "a.json": {"generators": [list(g) for g in a]},
            "b.json": {"generators": [list(g) for g in b]},
        }
        add(files, c, d, size)
    return calls


# -- surface-2d ---------------------------------------------------------------------

_SURFACE_EXPONENTS = tuple(Fraction(x) for x in ("1/2", "2/3", "1", "3/2", "2", "7/3", "5/2"))
_REPRODUCE = ("2.6.1", "2.6.2", "2.3.2", "2.4.1", "2.4.2")


def _ade_labels(n: int) -> list[str]:
    return [f"A{n}"] + ([f"D{n}"] if n >= 4 else []) + ([f"E{n}"] if n in (6, 7, 8) else [])


def _base_model(rng: random.Random, n: int, chain: bool, ade: dict) -> dict:
    """A minimal resolution with ``n`` curves: a Hirzebruch-Jung chain
    with random weights (every chain of weights >= 2 is one) or an ADE
    graph; ``ade`` memoizes the ADE graphs by label."""
    if not chain:
        label = rng.choice(_ade_labels(n))
        if label not in ade:
            ade[label] = sf.ade(label).to_json_dict()
        return ade[label]
    names = [f"E{i + 1}" for i in range(n)]
    return {
        "base_curves": [
            {"name": name, "self_intersection": -rng.randint(2, 4), "kind": "exceptional"}
            for name in names
        ],
        "base_edges": [list(e) for e in zip(names, names[1:])],
    }


def _blow_up(rng: random.Random, model: dict, count: int) -> dict:
    names = [c["name"] for c in model["base_curves"]]
    edges = {frozenset(e) for e in model["base_edges"]}
    blowups = []
    for k in range(count):
        new = f"B{k + 1}"
        if edges and rng.random() < 0.5:
            pair = rng.choice(sorted(tuple(sorted(e)) for e in edges))
            edges.discard(frozenset(pair))
            edges |= {frozenset((pair[0], new)), frozenset((pair[1], new))}
            center = list(pair)
        else:
            center = [rng.choice(names)]
            edges.add(frozenset((center[0], new)))
        names.append(new)
        blowups.append({"name": new, "center_on": center})
    return dict(model, blowups=blowups)


def _intersections(model: dict) -> tuple[list[str], list[list[int]]]:
    """Final intersection matrix, rebuilt from the blowup rule: the new
    curve is a (-1)-curve meeting each center curve once, every center
    curve drops by one, and a blown-up node separates its two curves."""
    names = [c["name"] for c in model["base_curves"]]
    inter = {n: {m: 0 for m in names} for n in names}
    for c in model["base_curves"]:
        inter[c["name"]][c["name"]] = c["self_intersection"]
    for a, b in model["base_edges"]:
        inter[a][b] += 1
        inter[b][a] += 1
    for bl in model.get("blowups", []):
        new = bl["name"]
        for n in names:
            inter[n][new] = 0
        inter[new] = {n: 0 for n in names}
        inter[new][new] = -1
        for c in bl["center_on"]:
            inter[c][c] -= 1
            inter[c][new] = inter[new][c] = 1
        if len(bl["center_on"]) == 2:
            a, b = bl["center_on"]
            inter[a][b] -= 1
            inter[b][a] -= 1
        names.append(new)
    return names, [[inter[a][b] for b in names] for a in names]


def _anti_nef(rng: random.Random, names, matrix) -> dict[str, str]:
    """A nonzero anti-nef cycle: Laufer's loop from a random start."""
    z = [0] * len(names)
    for _ in range(rng.randint(1, 3)):
        z[rng.randrange(len(z))] += rng.randint(1, 3)
    while True:
        bad = [i for i, row in enumerate(matrix) if sum(x * y for x, y in zip(row, z)) > 0]
        if not bad:
            return {n: str(v) for n, v in zip(names, z) if v}
        z[bad[0]] += 1


def _check_check2d(files):
    def check(report, rc):
        res = report["results"]
        model = sf.ResolutionModel.from_json_dict(files["model.json"])
        f_a = sf.Cycle.from_json_dict(files["a.json"])
        f_b = sf.Cycle.from_json_dict(files["b.json"])
        ceil_k = model.relative_canonical.ceil()
        cyc = {k: sf.Cycle.from_json_dict(res[k]) for k in ("cycle_a", "cycle_b", "cycle_ab")}
        problems = _status_problems(report, rc, res["verdict"])
        for key, start in (("cycle_a", f_a), ("cycle_b", f_b), ("cycle_ab", f_a + f_b)):
            if not model.is_anti_nef(cyc[key]):
                problems.append(f"{key} is not anti-nef")
            if not _clamped(start - ceil_k).leq(cyc[key]):
                problems.append(f"{key} lies below its start cycle")
        total = cyc["cycle_a"] + cyc["cycle_b"]
        if total.leq(cyc["cycle_ab"]) != res["verdict"]:
            problems.append("verdict disagrees with the reported cycles")
        if not res["verdict"]:
            problems.append("subadditivity failed on a log terminal surface")
        return problems

    return check


def _clamped(z: sf.Cycle) -> sf.Cycle:
    return sf.Cycle({n: max(q, 0) for n, q in z.items()})


def _check_multiplier_model(files, c: Fraction):
    def check(report, rc):
        model = sf.ResolutionModel.from_json_dict(files["model.json"])
        z = sf.Cycle.from_json_dict(files["ideal.json"])
        out = sf.Cycle.from_json_dict(report["results"]["multiplier_cycle"])
        problems = _status_problems(report, rc, True)
        if not model.is_anti_nef(out):
            problems.append("multiplier cycle is not anti-nef")
        if not _clamped((c * z - model.relative_canonical).floor()).leq(out):
            problems.append("multiplier cycle lies below floor(cZ - K)")
        return problems

    return check


def _check_reproduce(report, rc):
    problems = _status_problems(report, rc, True)
    if report["results"].get("mismatches"):
        problems.append(f"reproduce mismatches: {report['results']['mismatches']}")
    return problems


def _surface(seed: int, tiny: bool) -> list[Call]:
    calls = [Call("reproduce", [case], {}, _check_reproduce) for case in _REPRODUCE]
    ade: dict[str, dict] = {}
    for i in range(6 if tiny else 160):
        rng = random.Random(f"surface-2d:{seed}:{i}")
        # sizes follow the index, not the seed: base curves 1..8, blowups 0..16
        base = _base_model(rng, 1 + i % 8, (i // 8) % 2 == 0, ade)
        model = _blow_up(rng, base, (i * 7) % 17)
        names, matrix = _intersections(model)
        if i % 3 == 2:
            c = _SURFACE_EXPONENTS[i % len(_SURFACE_EXPONENTS)]
            files = {"model.json": model, "ideal.json": _anti_nef(rng, names, matrix)}
            calls.append(
                Call(
                    "multiplier",
                    ["--model", "model.json", "--ideal", "ideal.json", "-c", str(c)],
                    files,
                    _check_multiplier_model(files, c),
                )
            )
        else:
            files = {
                "model.json": model,
                "a.json": _anti_nef(rng, names, matrix),
                "b.json": _anti_nef(rng, names, matrix),
            }
            calls.append(
                Call(
                    "check2d",
                    ["--model", "model.json", "--ideal-a", "a.json", "--ideal-b", "b.json"],
                    files,
                    _check_check2d(files),
                )
            )
    order = random.Random(f"surface-2d:{seed}:order")
    order.shuffle(calls)
    return calls


_BUILDERS = {
    "toric-bigbox": _bigbox,
    "explore-rank3": _explore,
    "strongmono-powers": _strongmono,
    "surface-2d": _surface,
}


def build(name: str, seed: int, tiny: bool = False) -> list[Call]:
    """The workload's call pool for ``seed``; ``tiny`` shrinks every input
    for the smoke test."""
    return _BUILDERS[name](seed, tiny)
