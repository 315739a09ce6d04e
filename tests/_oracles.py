"""Independent oracles for the test suite.

Everything here recomputes library results by a different route: box
enumeration for anti-nef closures and fundamental cycles, one dense
Gauss-Jordan solve per stage for relative canonical divisors and one
on the final surface for total transforms of marked curves, rank and
determinant by Gaussian elimination over Fractions, the
rounded closure formula stage by stage on prefix models, the
blowup rule replayed with cofactor-expansion minors for negative
definiteness, the anti-nef test in d-coordinates, pure-Python
cofactor expansion for Newton-polyhedron facets, integer ranks of
tight normals for vertices, per-generator dominance tests for the
failures of a subadditivity certificate, a column scan for the
irreducibles of a toric semigroup, a box scan for its coordinate steps
(the interior shift), and exact Fourier-Motzkin feasibility for
Newton-polyhedron membership, for membership in a Minkowski sum of two
of them, and for product membership of subadditivity witnesses under
that shift. Nothing imports the algorithms
under test beyond basic data types; the surface of stage s is the model
of the base graph and the first s blowups (:func:`prefix_model`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from subadd.proximity import DCoordinates, ProximityData, proximity_data
from subadd.surface import EXCEPTIONAL, MARKED, Cycle, build_model


def prefix_model(model, stage: int):
    """The model of the base graph and the first ``stage`` blowups: its
    final surface is the stage-``stage`` surface of ``model``."""
    return build_model(model.base_curves, model.base_edges, model.blowups[:stage])


def brute_anti_nef_closure(model, z: Cycle, extra: int = 3) -> Cycle:
    """Minimal anti-nef cycle above z by exhaustive box search.

    Exceptional coefficients range from max(z, 0) upward; marked
    coefficients pass through. The box grows until the componentwise
    minimum of the anti-nef cycles found sits strictly inside it, which
    certifies completeness.
    """
    exc = model.exceptional
    lows = [max(int(z.coeff(e)), 0) for e in exc]
    marked_part = {m: z.coeff(m) for m in model.marked if z.coeff(m)}
    while extra <= 24:
        found = []
        for combo in itertools.product(*[range(lo, lo + extra + 1) for lo in lows]):
            w = Cycle({**dict(zip(exc, combo)), **marked_part})
            if model.is_anti_nef(w):
                found.append(combo)
        if found:
            best = tuple(min(c[i] for c in found) for i in range(len(exc)))
            if all(b < lo + extra for b, lo in zip(best, lows)):
                assert best in found, "componentwise minimum escaped the anti-nef set"
                return Cycle({**dict(zip(exc, best)), **marked_part})
        extra += 3
    raise AssertionError("oracle box exhausted")


def brute_fundamental_cycle(model, hi: int = 5) -> Cycle:
    """Minimal nonzero anti-nef cycle by exhaustive search."""
    exc = model.exceptional
    while hi <= 20:
        found = []
        for combo in itertools.product(range(hi + 1), repeat=len(exc)):
            if not any(combo):
                continue
            w = Cycle(dict(zip(exc, combo)))
            if model.is_anti_nef(w):
                found.append(combo)
        if found:
            best = tuple(min(c[i] for c in found) for i in range(len(exc)))
            if all(b < hi for b in best):
                assert best in found
                return Cycle(dict(zip(exc, best)))
        hi += 3
    raise AssertionError("oracle box exhausted")


def _fraction_solve(rows, rhs) -> list[Fraction]:
    """x with rows.x = rhs, by Gauss-Jordan elimination over Fractions
    (the matrix must be invertible)."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if aug[r][k])
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[k])]
    return [row[n] for row in aug]


def fraction_rank_det(rows) -> tuple[int, Fraction | None]:
    """Rank of the rows and, for a square matrix, its determinant (1 for
    the empty matrix), by Gaussian elimination over Fractions; the
    determinant is None for a non-square matrix."""
    a = [[Fraction(v) for v in row] for row in rows]
    ncols = len(a[0]) if a else 0
    rank, det = 0, Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / a[rank][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det if len(a) == ncols else None


def stage_canonical_dense(model, stage: int) -> Cycle:
    """K of the stage-``stage`` surface from one dense solve of the
    adjunction system K.E = -E^2 - 2 over that stage's exceptional
    curves."""
    exc = [n for n in model.stage_names(stage) if model.kind[n] == EXCEPTIONAL]
    m = prefix_model(model, stage).intersection_matrix(curves=exc)
    rhs = [-m[i][i] - 2 for i in range(len(exc))]
    return Cycle(dict(zip(exc, _fraction_solve(m, rhs))))


def naive_ceil_closure_by_stages(model, z: Cycle) -> Cycle:
    """The rounded closure formula, one prefix model per stage.

    Adds the pullback of E_i to Z - ceil(K) when, on the stage-i
    surface, the pushforward of Z is orthogonal to E_i and ceil(K_i) is
    the one-step pullback of ceil(K_{i-1}) plus E_i, both canonicals
    from the dense adjunction solve.
    """
    result = z - stage_canonical_dense(model, model.n_blowups).ceil()
    k_prev = stage_canonical_dense(model, 0).ceil()
    for i, (name, pb) in enumerate(zip(model.blowup_names, model.blowup_pullbacks()), 1):
        here = prefix_model(model, i)
        k_here = stage_canonical_dense(model, i).ceil()
        mass = sum(k_prev.coeff(c) for c in model.center_of[name])
        commutes = k_here == k_prev + Cycle({name: mass + 1})
        if commutes and here.dot_curve(z.restrict(here.names), name) == 0:
            result = result + pb
        k_prev = k_here
    return result


def total_transform_dense(model, name: str) -> Cycle:
    """f*D for a marked curve D from one dense solve on the final
    exceptional block: D plus the exceptional cycle x with
    x.E = -D.E on every exceptional curve E."""
    exc = model.exceptional
    m = model.intersection_matrix(curves=exc)
    x = _fraction_solve(m, [-model.inter[name][e] for e in exc])
    return Cycle({name: 1, **dict(zip(exc, x))})


def replay_exceptional_block(base_curves, base_edges, blowups) -> list[list[int]]:
    """The final exceptional intersection block, rebuilt from the base
    graph and the blowup rule. ``base_curves`` are (name,
    self-intersection, kind), ``blowups`` (name, center curves), all
    assumed valid."""
    inter = {c[0]: {d[0]: 0 for d in base_curves} for c in base_curves}
    for name, self_int, _ in base_curves:
        inter[name][name] = self_int
    for a, b in base_edges:
        inter[a][b] += 1
        inter[b][a] += 1
    for new, center in blowups:
        for row in inter.values():
            row[new] = 0
        inter[new] = {n: 0 for n in inter}
        inter[new][new] = -1
        for c in center:
            inter[c][c] -= 1
            inter[c][new] = inter[new][c] = 1
        if len(center) == 2:
            inter[center[0]][center[1]] -= 1
            inter[center[1]][center[0]] -= 1
    marked = {c[0] for c in base_curves if c[2] == MARKED}
    exc = [n for n in inter if n not in marked]
    return [[inter[a][b] for b in exc] for a in exc]


def negative_definite_by_minors(rows: list[list[int]]) -> bool:
    """Sylvester's criterion with every leading principal minor
    expanded by cofactors: the k-th has the sign of (-1)^k."""
    return all(
        (-1) ** k * _int_det([row[:k] for row in rows[:k]]) > 0
        for k in range(1, len(rows) + 1)
    )


def anti_nef_test_d(model, dc: DCoordinates, prox: ProximityData | None = None) -> bool:
    """Anti-nef test in d-coordinates, without reconstructing the cycle.

    Requires: P d >= 0, an effective stage-0 part, and corrected
    stage-0 exceptional rows (pushforward row plus the d-mass of
    blowups proximate to the curve) <= 0. Agrees with the direct
    anti-nef test on the reconstructed cycle, for every cycle.
    """
    if prox is None:
        prox = proximity_data(model)
    if not dc.base.is_effective():
        return False
    if any(sum(p * d for p, d in zip(row, dc.d)) < 0 for row in prox.matrix):
        return False
    base = prefix_model(model, 0)
    for c in base.exceptional:
        row = base.dot_curve(dc.base, c)
        for name, di in zip(model.blowup_names, dc.d):
            if c in prox.prox_base[name]:
                row += di
        if row > 0:
            return False
    return True


def _int_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = 0
    for j in range(n):
        if rows[0][j]:
            minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
            det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def generic_newton_facets(rank: int, gens) -> set[tuple[tuple[int, ...], int]]:
    """Facets of conv(gens) + orthant, one rank-sized subset at a time
    in Python integers.

    Each subset of generators and coordinate rays holding a generator
    spans a hyperplane through its first generator when the signed
    minors of its direction rows are not all zero; the hyperplane is a
    facet when its normal is sign-definite and every generator lies on
    one side. The rows are independent, so the tight points span the
    hyperplane and no rank check is needed. Normals come back primitive
    and componentwise nonnegative.
    """
    gens = [tuple(g) for g in gens]
    rays = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    tagged = [(g, False) for g in gens] + [(r, True) for r in rays]
    out = set()
    for subset in itertools.combinations(tagged, rank):
        pivot_pos = next(
            (i for i, (_, is_ray) in enumerate(subset) if not is_ray), None
        )
        if pivot_pos is None:
            continue
        p0 = subset[pivot_pos][0]
        dirs = []
        for i, (p, is_ray) in enumerate(subset):
            if i == pivot_pos:
                continue
            dirs.append(list(p) if is_ray else [x - y for x, y in zip(p, p0)])
        normal = [
            (-1) ** i
            * _int_det([[row[k] for k in range(rank) if k != i] for row in dirs])
            for i in range(rank)
        ]
        if not any(normal):
            continue
        if all(a <= 0 for a in normal):
            normal = [-a for a in normal]
        if not all(a >= 0 for a in normal):
            continue
        b = sum(a * x for a, x in zip(normal, p0))
        if all(sum(a * x for a, x in zip(normal, g)) >= b for g in gens):
            g = 0
            for a in normal:
                g = gcd(g, a)
            out.add((tuple(a // g for a in normal), b // g))
    return out


def _int_rank(vectors) -> int:
    """Rank of integer vectors by fraction-free (Bareiss) elimination:
    every entry stays an integer minor, so each division is exact."""
    rows = [list(v) for v in vectors]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], rows[rank])]
        prev = p
        rank += 1
    return rank


def rank_vertices(gens, facets) -> set[tuple[int, ...]]:
    """Generators whose tight facet normals have full integer rank:
    the vertices of the polyhedron with the given facets."""
    out = set()
    for g in gens:
        tight = [a for a, b in facets if sum(x * y for x, y in zip(a, g)) == b]
        if _int_rank(tight) == len(g):
            out.add(tuple(g))
    return out


def _in_product(v, j_a, j_b) -> bool:
    for u in j_a:
        diff = [y - x for x, y in zip(u, v)]
        if min(diff) >= 0 and any(all(x <= y for x, y in zip(w, diff)) for w in j_b):
            return True
    return False


def product_failures(j_product, j_a, j_b) -> tuple[tuple[int, ...], ...]:
    """Generators of ``j_product`` outside J(a) J(b), one dominance test
    each: v lies in the product when v - u dominates a generator of J(b)
    for some generator u of J(a) below v. All points lie in one lattice,
    so dominance is semigroup divisibility."""
    return tuple(v for v in j_product if not _in_product(v, j_a, j_b))


def _fourier_motzkin_feasible(constraints: list[tuple[list[Fraction], Fraction, bool]]) -> bool:
    """Feasibility of a system (coeffs . x) {<= | <} rhs over the
    rationals; the boolean marks a strict constraint."""
    nvars = len(constraints[0][0]) if constraints else 0
    rows = [([Fraction(c) for c in coeffs], Fraction(rhs), strict) for coeffs, rhs, strict in constraints]
    for var in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs, strict in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs, strict))
            elif c < 0:
                neg.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs, rhs, strict))
        new_rows = rest
        for pc, pr, ps in pos:
            for nc, nr, ns in neg:
                a, b = pc[var], -nc[var]
                coeffs = [b * pc[i] + a * nc[i] for i in range(nvars)]
                new_rows.append((coeffs, b * pr + a * nr, ps or ns))
        rows = new_rows
    for coeffs, rhs, strict in rows:
        if strict:
            if not rhs > 0:
                return False
        elif not rhs >= 0:
            return False
    return True


def in_polyhedron_fm(gens, v, c=Fraction(1), strict=False) -> bool:
    """Is v inside (or strictly inside) c * (conv(gens) + orthant)?

    Decided by exact Fourier-Motzkin on the lambda-space system:
    lambda >= 0, sum lambda = 1, and c * sum(lambda_i g_i) below v,
    strictly for the interior test. Uses no facet data at all.
    """
    gens = [tuple(g) for g in gens]
    m = len(gens)
    n = len(gens[0])
    v = [Fraction(x) for x in v]
    c = Fraction(c)
    # variables: lambda_0 .. lambda_{m-2}; lambda_{m-1} = 1 - sum(others)
    cons: list[tuple[list[Fraction], Fraction, bool]] = []
    last = gens[m - 1]
    for i in range(m - 1):
        row = [Fraction(0)] * (m - 1)
        row[i] = Fraction(-1)
        cons.append((row, Fraction(0), False))        # lambda_i >= 0
    cons.append(([Fraction(1)] * (m - 1), Fraction(1), False))  # sum <= 1
    for coord in range(n):
        row = [c * (gens[i][coord] - last[coord]) for i in range(m - 1)]
        rhs = v[coord] - c * last[coord]
        cons.append((row, rhs, strict))
    return _fourier_motzkin_feasible(cons)


def in_minkowski_interior_fm(gens_a, gens_b, v) -> bool:
    """Is v strictly inside Newt(a) + Newt(b)?

    The sum is conv(gens_a) + conv(gens_b) + orthant, so v is interior
    exactly when some sum(lambda_i a_i) + sum(mu_j b_j) lies strictly
    below v with lambda, mu each in a simplex. One Fourier-Motzkin
    system in the joint (lambda, mu) variables decides it: m + k - 2
    variables, where ``in_polyhedron_fm`` on the m * k product
    generators would need m * k - 1.
    """
    gens_a = [tuple(g) for g in gens_a]
    gens_b = [tuple(g) for g in gens_b]
    m, k = len(gens_a), len(gens_b)
    n = len(gens_a[0])
    nvars = m - 1 + k - 1
    v = [Fraction(x) for x in v]
    # variables: lambda_0 .. lambda_{m-2}, then mu_0 .. mu_{k-2}; the
    # last lambda and the last mu are 1 minus the sum of the others
    cons: list[tuple[list[Fraction], Fraction, bool]] = []
    for i in range(nvars):
        row = [Fraction(0)] * nvars
        row[i] = Fraction(-1)
        cons.append((row, Fraction(0), False))        # lambda_i, mu_j >= 0
    lam = [Fraction(1)] * (m - 1) + [Fraction(0)] * (k - 1)
    mu = [Fraction(0)] * (m - 1) + [Fraction(1)] * (k - 1)
    cons.append((lam, Fraction(1), False))            # sum lambda <= 1
    cons.append((mu, Fraction(1), False))             # sum mu <= 1
    last_a, last_b = gens_a[m - 1], gens_b[k - 1]
    for coord in range(n):
        row = [Fraction(gens_a[i][coord] - last_a[coord]) for i in range(m - 1)]
        row += [Fraction(gens_b[j][coord] - last_b[coord]) for j in range(k - 1)]
        rhs = v[coord] - last_a[coord] - last_b[coord]
        cons.append((row, rhs, True))
    return _fourier_motzkin_feasible(cons)


def fm_product_split(ring, gens_a, gens_b, w, shift=None) -> tuple[int, ...] | None:
    """A lattice point u with u in J(a) and w - u in J(b), or None.

    Members of a multiplier ideal J(a) are the semigroup points u with
    u + shift strictly inside Newt(a), where ``shift`` is the ring's
    vector of coordinate steps (all ones when omitted, as on every
    Gorenstein cyclic quotient). Since J(a) and J(b) are ideals, w lies
    in J(a) J(b) exactly when such a split exists; every lattice point
    below w is tried, each side decided by Fourier-Motzkin.
    """
    shift = shift or (1,) * len(w)
    for u in itertools.product(*[range(x + 1) for x in w]):
        if not ring.contains(u):
            continue
        if not in_polyhedron_fm(gens_a, [x + s for x, s in zip(u, shift)], strict=True):
            continue
        rest = [x - y + s for x, y, s in zip(w, u, shift)]
        if in_polyhedron_fm(gens_b, rest, strict=True):
            return u
    return None


def brute_multiplier_members(ring, gens, c, bound: int, shift=None) -> set[tuple[int, ...]]:
    """All multiplier-ideal members in the box: the semigroup points v
    with v + shift strictly inside c Newt, decided by Fourier-Motzkin
    (``shift`` is all ones when omitted)."""
    shift = shift or (1,) * ring.rank
    out = set()
    for v in itertools.product(range(bound + 1), repeat=ring.rank):
        if not ring.semigroup_contains(v):
            continue
        shifted = tuple(x + s for x, s in zip(v, shift))
        if in_polyhedron_fm(gens, shifted, Fraction(c), strict=True):
            out.add(v)
    return out


def brute_coordinate_steps(ring) -> tuple[int, ...]:
    """Per axis, the least positive i-th coordinate of a lattice point,
    by a scan of the box [0, L]^rank: L e_j lies in the lattice for L
    the lcm of the moduli, so every coordinate can be reduced into it."""
    period = lcm(*(r for _, r in ring.congruences)) if ring.congruences else 1
    inside = [
        v for v in itertools.product(range(period + 1), repeat=ring.rank) if ring.contains(v)
    ]
    return tuple(min(v[i] for v in inside if v[i]) for i in range(ring.rank))


def minimal_steps(ring, cap: int = 10**6) -> tuple[tuple[int, ...], ...]:
    """Irreducibles of the ring's semigroup (its minimal nonzero
    elements) in (sum, coordinates) order. L e_i lies in the lattice for
    L the lcm of the moduli, so every irreducible coordinate is at most
    L, and the lowest nonzero semigroup point of each column over the
    prefixes in [0, L]^(rank-1) holds them all. More than ``cap``
    columns raise ValueError before any scan."""
    n, m = lcm(*(r for _, r in ring.congruences)), ring.rank - 1
    if (n + 1) ** m > cap:
        raise ValueError(f"{(n + 1) ** m} columns pass the scan cap")
    lowest = []
    for prefix in itertools.product(range(n + 1), repeat=m):
        z = next((z for z in range(not any(prefix), n + 1) if ring.contains(prefix + (z,))), None)
        if z is not None:
            lowest.append(prefix + (z,))
    return tuple(sorted(dominance_minimal(lowest), key=lambda p: (sum(p), p)))


def dominance_minimal(points) -> set[tuple[int, ...]]:
    pts = sorted(points, key=lambda p: (sum(p), p))
    kept: list[tuple[int, ...]] = []
    for p in pts:
        if not any(all(k <= x for k, x in zip(q, p)) for q in kept):
            kept.append(p)
    return set(kept)
