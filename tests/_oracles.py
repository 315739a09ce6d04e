"""Independent oracles for the test suite.

Everything here recomputes library results by a different route: box
enumeration for anti-nef closures and fundamental cycles, pure-Python
cofactor expansion for Newton-polyhedron facets, integer ranks of
tight normals for vertices, per-generator dominance tests for the
failures of a subadditivity certificate, and exact Fourier-Motzkin
feasibility for Newton-polyhedron membership, for membership in a
Minkowski sum of two of them, and for product membership of
subadditivity witnesses. Nothing imports the algorithms
under test beyond basic data types.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from subadd.surface import Cycle


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


def fm_product_split(ring, gens_a, gens_b, w) -> tuple[int, ...] | None:
    """A lattice point u with u in J(a) and w - u in J(b), or None.

    Members of a multiplier ideal J(a) on a ring whose coordinate
    steps are all 1 are the semigroup points u with u + (1, .., 1)
    strictly inside Newt(a). Since J(a) and J(b) are ideals, w lies in
    J(a) J(b) exactly when such a split exists; every lattice point
    below w is tried, each side decided by Fourier-Motzkin.
    """
    for u in itertools.product(*[range(x + 1) for x in w]):
        if not ring.contains(u):
            continue
        if not in_polyhedron_fm(gens_a, [x + 1 for x in u], strict=True):
            continue
        if in_polyhedron_fm(gens_b, [x - y + 1 for x, y in zip(w, u)], strict=True):
            return u
    return None


def brute_multiplier_members(ring, gens, c, bound: int) -> set[tuple[int, ...]]:
    """All multiplier-ideal members in the box, via the interior test
    decided by Fourier-Motzkin."""
    out = set()
    for v in itertools.product(range(bound + 1), repeat=ring.rank):
        if not ring.semigroup_contains(v):
            continue
        shifted = tuple(x + 1 for x in v)
        if in_polyhedron_fm(gens, shifted, Fraction(c), strict=True):
            out.add(v)
    return out


def dominance_minimal(points) -> set[tuple[int, ...]]:
    pts = sorted(points, key=lambda p: (sum(p), p))
    kept: list[tuple[int, ...]] = []
    for p in pts:
        if not any(all(k <= x for k, x in zip(q, p)) for q in kept):
            kept.append(p)
    return set(kept)
