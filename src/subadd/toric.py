"""Monomial-ideal multiplier ideals on simplicial toric rings.

Rings are cut out of the ambient lattice by congruences: the toric ring
of M = {v : w.v = 0 mod r for each congruence} intersected with the
nonnegative orthant. Monomial ideals are finite exponent-vector sets,
Newton polyhedra carry exact integer facet data, and membership in a
multiplier ideal is the interior-point test: the monomial with exponent
v lies in the multiplier ideal of I at exponent c exactly when v + 1
(the all-ones shift) is interior to c times the Newton polyhedron of I.

The engine behind minimal generators is a column-minimum search over
an adaptive box [0, bound]^n, starting from a bound of c * (largest
generator coordinate) plus the lattice index plus the rank. Membership
is upward-closed, so over each prefix x' = (x_1..x_{n-1}) only the
lowest member of the column can be minimal. One pass builds the grid
of prefixes in [0, bound]^(n-1), gives each prefix the lattice coset
of its last coordinate, raises a per-prefix lower bound facet by facet
(facets with a_n = 0 only filter prefixes), and takes Z[x'], the least
coset value at or above that bound. The lowest member of a column is
minimal unless some minimal nonzero semigroup step h has
Z[x'] - h_n >= Z[x' - h'], one shifted-slice comparison per step;
correctness rests on upward closure: a member below v forces a member
at distance one step below v. If no member was seen, or a survivor
touches the box boundary, the bound doubles and the pass repeats.

Everything is exact: facet data are primitive integer vectors, interior
tests compare integers after clearing the exponent's denominator, and
no floating point is used anywhere. The numpy arrays are int64, after
a proof that every intermediate value fits; inputs past the grid cap or
that proof raise ``OutOfScaleError``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rationals import QMatrix, as_rational, matrix_rank, solve_linear
from .surface import InvalidParametersError

# prefix cells per engine pass (64 MiB per int64 grid array)
_CELL_CAP = 8_000_000
# C(gens + rank, rank) * gens, the int64 entries of the rank-3 facet check
_FACET_WORK_CAP = 200_000_000
_WITNESS_SCAN_CAP = 2_000_000


class RingMismatchError(ValueError):
    """Operands live over different toric rings."""


class OutOfScaleError(RuntimeError):
    """The input needs arrays or integers past the desk-scale caps."""


class ToricRing:
    """Sublattice of Z^rank cut out by congruences, with its semigroup.

    ``congruences`` is a sequence of (weights, modulus) pairs; the
    lattice M consists of the integer vectors v with weights.v = 0 mod
    modulus for every pair. M always has finite index in Z^rank.
    Instances are immutable and hashable.
    """

    def __init__(self, rank: int, congruences: Sequence[tuple[Sequence[int], int]] = ()):
        if not isinstance(rank, int) or rank < 1:
            raise InvalidParametersError("rank must be a positive integer")
        congs = []
        for weights, modulus in congruences:
            if not isinstance(modulus, int) or modulus < 1:
                raise InvalidParametersError("moduli must be positive integers")
            w = tuple(int(x) % modulus for x in weights)
            if len(w) != rank:
                raise InvalidParametersError("weight vector length must equal rank")
            congs.append((w, modulus))
        self.rank = rank
        self.congruences = tuple(congs)

    def _key(self):
        return (self.rank, self.congruences)

    def __eq__(self, other) -> bool:
        return isinstance(other, ToricRing) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def contains(self, v: Sequence[int]) -> bool:
        """Lattice membership (signs unrestricted)."""
        if len(v) != self.rank:
            raise ValueError("vector length must equal rank")
        return all(
            sum(wi * vi for wi, vi in zip(w, v)) % r == 0
            for w, r in self.congruences
        )

    def semigroup_contains(self, v: Sequence[int]) -> bool:
        return all(x >= 0 for x in v) and self.contains(v)

    @cached_property
    def index(self) -> int:
        """Index of M in Z^rank (order of the generated residue group)."""
        if not self.congruences:
            return 1
        mods = [r for _, r in self.congruences]
        gens = [
            tuple(w[i] % r for (w, r) in self.congruences)
            for i in range(self.rank)
        ]
        zero = tuple(0 for _ in mods)
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for el in frontier:
                for g in gens:
                    s = tuple((a + b) % r for a, b, r in zip(el, g, mods))
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return len(seen)

    @cached_property
    def coordinate_steps(self) -> tuple[int, ...]:
        """Per axis, the positive generator of the lattice's coordinate
        projection: the smallest t > 0 some lattice vector has as its
        i-th coordinate.

        The interior-point criterion for multiplier ideals shifts by
        the vector of these steps; this package implements the
        criterion only where every step is 1, which holds in
        particular for every Gorenstein cyclic quotient.
        """
        if not self.congruences:
            return tuple(1 for _ in range(self.rank))
        mods = [r for _, r in self.congruences]
        imgs = [
            tuple(w[i] % r for (w, r) in self.congruences)
            for i in range(self.rank)
        ]
        zero = tuple(0 for _ in mods)

        def close(generators):
            seen = {zero}
            frontier = [zero]
            while frontier:
                nxt = []
                for el in frontier:
                    for g in generators:
                        s = tuple((a + b) % r for a, b, r in zip(el, g, mods))
                        if s not in seen:
                            seen.add(s)
                            nxt.append(s)
                frontier = nxt
            return seen

        steps = []
        for i in range(self.rank):
            others = close([imgs[j] for j in range(self.rank) if j != i])
            acc = zero
            t = 0
            while True:
                t += 1
                acc = tuple((a + b) % r for a, b, r in zip(acc, imgs[i], mods))
                if acc in others:
                    break
            steps.append(t)
        return tuple(steps)

    @cached_property
    def minimal_steps(self) -> tuple[tuple[int, ...], ...]:
        """Minimal nonzero semigroup elements (the irreducibles).

        Any nonzero semigroup element dominates one of these, with the
        difference back in the semigroup; every irreducible coordinate
        is at most the lattice index, so the search box [0, index]^rank
        is complete. An irreducible is the lowest semigroup point of its
        column, so the candidates are the lowest coset point over each
        prefix in [0, index]^(rank-1), and (0,..,0,step) over the zero
        prefix.
        """
        m = self.rank - 1
        z0, step = _lattice_coset(self, np.indices((self.index + 1,) * m, dtype=np.int64))
        solvable = z0 >= 0
        lowest = np.column_stack([np.argwhere(solvable), z0[solvable]])
        pts = [p for p in map(tuple, lowest.tolist()) if any(p)]
        pts.append((0,) * m + (step,))
        return tuple(_dominance_minimal(pts))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "congruences": [
                {"weights": list(w), "modulus": r} for w, r in self.congruences
            ],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ToricRing":
        return cls(
            int(d["rank"]),
            [
                (tuple(int(x) for x in c["weights"]), int(c["modulus"]))
                for c in d.get("congruences", [])
            ],
        )

    def __repr__(self) -> str:
        if not self.congruences:
            return f"ToricRing(Z^{self.rank})"
        parts = ", ".join(
            f"{list(w)} mod {r}" for w, r in self.congruences
        )
        return f"ToricRing(rank={self.rank}, {parts})"


def cyclic_quotient_ring(r: int, weights: Sequence[int]) -> ToricRing:
    """The cyclic quotient singularity of type 1/r(w_1, ..., w_n)."""
    return ToricRing(len(tuple(weights)), [(tuple(weights), r)])


def is_gorenstein_cyclic(r: int, weights: Sequence[int]) -> bool:
    """Gorenstein test for 1/r(w): the weights sum to 0 mod r.

    This is a standard toric criterion, used here as an external fact.
    """
    return sum(weights) % r == 0


def _dominance_minimal(points: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Componentwise-minimal elements; input points must lie in one
    lattice M so dominance equals semigroup divisibility."""
    pts = sorted(set(points), key=lambda p: (sum(p), p))
    if not pts:
        return []
    if len(pts) <= 64:
        kept: list[tuple[int, ...]] = []
        for p in pts:
            if not any(all(k <= x for k, x in zip(q, p)) for q in kept):
                kept.append(p)
        return kept
    arr = np.array(pts, dtype=np.int64)
    buf = np.empty_like(arr)
    count = 0
    for row in arr:
        if count and bool((buf[:count] <= row).all(axis=1).any()):
            continue
        buf[count] = row
        count += 1
    return [tuple(map(int, r)) for r in buf[:count]]


def _lattice_coset(ring: ToricRing, grid: np.ndarray) -> tuple[np.ndarray, int]:
    """Last coordinates of the lattice over each prefix x' of ``grid``
    (an ``np.indices`` array): the coset z0 + step*Z.

    step is the order of the last unit vector in the residue group; z0
    lies in [0, step), or is -1 where no lattice point lies over x'. A
    table maps each residue tuple of the congruences to the z0
    cancelling it, so any number of congruences costs one lookup.
    """
    step = 1
    for w, r in ring.congruences:
        step = lcm(step, r // gcd(w[-1], r))
    size = math.prod(r for _, r in ring.congruences)
    if size > _CELL_CAP:
        raise OutOfScaleError(f"residue table of {size} entries; out of desk scale")
    z = np.arange(step, dtype=np.int64)
    z_keys = np.zeros(step, dtype=np.int64)
    prefix_keys = np.zeros(grid.shape[1:], dtype=np.int64)
    radix = 1
    for w, r in ring.congruences:
        z_keys += (-w[-1] * z) % r * radix
        prefix_keys += np.tensordot(np.array(w[:-1], dtype=np.int64), grid, 1) % r * radix
        radix *= r
    table = np.full(size, -1, dtype=np.int64)
    table[z_keys] = z
    return table[prefix_keys], step


# -- Newton polyhedra -------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Exact facet description of conv(generators) + nonnegative orthant.

    Facets are (normal, offset) pairs with primitive integer normals,
    componentwise nonnegative, meaning <normal, x> >= offset; every
    facet is tight on enough generators and coordinate rays to span an
    affine hyperplane. ``vertices`` lists the generators whose tight
    facet normals span the full rank.
    """

    rank: int
    facets: tuple[tuple[tuple[int, ...], int], ...]
    vertices: tuple[tuple[int, ...], ...]

    def contains(self, v: Sequence, c=1, strict: bool = False) -> bool:
        cq = as_rational(c)
        for a, b in self.facets:
            val = sum(ai * as_rational(vi) for ai, vi in zip(a, v))
            if strict:
                if not val > cq * b:
                    return False
            elif not val >= cq * b:
                return False
        return True


def in_interior(poly: NewtonPolyhedron, v: Sequence, c=1) -> bool:
    """Is ``v`` interior to c times the polyhedron? Exact and strict on
    every facet; the polyhedron is always full-dimensional here."""
    return poly.contains(v, c, strict=True)


def _primitive(normal: Sequence[int], b: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for x in normal:
        g = gcd(g, abs(x))
    g = gcd(g, abs(b)) if g == 0 else g
    if g > 1:
        return tuple(x // g for x in normal), b // g
    return tuple(int(x) for x in normal), int(b)


def _candidates_rank3(gens: np.ndarray) -> list[tuple[tuple[int, ...], int]]:
    npts = len(gens)
    pts = np.vstack([gens, np.eye(3, dtype=np.int64)])
    isray = np.zeros(len(pts), dtype=bool)
    isray[npts:] = True

    combos = np.array(list(itertools.combinations(range(len(pts)), 3)), dtype=np.int64)
    rayflags = isray[combos]
    keep = ~rayflags.all(axis=1)
    combos, rayflags = combos[keep], rayflags[keep]
    if not len(combos):
        return []
    rows = np.arange(len(combos))
    piv_pos = rayflags.argmin(axis=1)
    piv = combos[rows, piv_pos]
    others = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int64)[piv_pos]
    i1 = combos[rows, others[:, 0]]
    i2 = combos[rows, others[:, 1]]
    p0 = pts[piv]
    d1 = pts[i1] - np.where(isray[i1][:, None], 0, 1) * p0
    d2 = pts[i2] - np.where(isray[i2][:, None], 0, 1) * p0
    normals = np.cross(d1, d2)
    nz = (normals != 0).any(axis=1)
    normals, p0 = normals[nz], p0[nz]
    offs = (normals * p0).sum(axis=1)
    vals = normals @ gens.T
    up = (vals >= offs[:, None]).all(axis=1) & (normals >= 0).all(axis=1)
    down = (vals <= offs[:, None]).all(axis=1) & (normals <= 0).all(axis=1)
    out = [
        (tuple(map(int, a)), int(b)) for a, b in zip(normals[up], offs[up])
    ]
    out += [
        (tuple(map(int, -a)), int(-b)) for a, b in zip(normals[down], offs[down])
    ]
    return out


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


def _candidates_generic(rank: int, gens: list[tuple[int, ...]]):
    rays = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    tagged = [(g, False) for g in gens] + [(r, True) for r in rays]
    out = []
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
        b = sum(a * x for a, x in zip(normal, p0))
        vals = [sum(a * x for a, x in zip(normal, g)) for g in gens]
        if all(v >= b for v in vals) and all(a >= 0 for a in normal):
            out.append((tuple(normal), b))
        elif all(v <= b for v in vals) and all(a <= 0 for a in normal):
            out.append((tuple(-a for a in normal), -b))
    return out


@lru_cache(maxsize=4096)
def _newton_facets(
    rank: int, gens: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    if math.comb(len(gens) + rank, rank) * len(gens) > _FACET_WORK_CAP:
        raise OutOfScaleError(f"facets of {len(gens)} generators; out of desk scale")
    gens_list = list(gens)
    big = max((abs(x) for g in gens_list for x in g), default=0)
    if rank == 3 and big <= 10**6:
        # int64 is safe: cross products are at most ~2 big^2 and the
        # validation dots at most ~6 big^3
        raw = _candidates_rank3(np.array(gens_list, dtype=np.int64))
    else:
        raw = _candidates_generic(rank, gens_list)
    unique = {_primitive(a, b) for a, b in raw}

    facets = []
    for a, b in sorted(unique):
        tight = [g for g in gens_list if sum(x * y for x, y in zip(a, g)) == b]
        if not tight:
            continue
        vectors = [
            [x - y for x, y in zip(g, tight[0])] for g in tight[1:]
        ]
        vectors += [
            [1 if j == i else 0 for j in range(rank)]
            for i in range(rank)
            if a[i] == 0
        ]
        if matrix_rank(vectors) == rank - 1:
            facets.append((a, b))
    return tuple(facets)


def newton_polyhedron(ideal: "MonomialIdeal") -> NewtonPolyhedron:
    """Facets and vertices of the ideal's Newton polyhedron.

    Candidate normals come from rank-sized subsets of generators and
    coordinate rays; a candidate survives when every generator lies on
    its nonnegative side, the normal is componentwise nonnegative, and
    the tight generators and rays span an affine hyperplane.
    """
    rank = ideal.ring.rank
    facets = _newton_facets(rank, ideal.generators)
    vertices = []
    for g in ideal.generators:
        tight_normals = [
            a for a, b in facets if sum(x * y for x, y in zip(a, g)) == b
        ]
        if len(tight_normals) >= rank and matrix_rank(tight_normals) == rank:
            vertices.append(g)
    return NewtonPolyhedron(rank=rank, facets=facets, vertices=tuple(vertices))


# -- monomial ideals ---------------------------------------------------------


class MonomialIdeal:
    """Finite set of exponent vectors in the semigroup, kept minimal.

    Minimality is semigroup divisibility: no stored generator is
    another generator plus a semigroup element. Since all generators
    lie in M, this is plain componentwise dominance.
    """

    def __init__(
        self,
        ring: ToricRing,
        generators: Iterable[Sequence[int]],
        _minimal: bool = False,
    ):
        gens = [tuple(int(x) for x in g) for g in generators]
        if not gens:
            raise InvalidParametersError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != ring.rank:
                raise InvalidParametersError("generator length must equal rank")
            if not ring.semigroup_contains(g):
                raise InvalidParametersError(
                    f"generator {g} is not in the semigroup"
                )
        if not _minimal:
            gens = _dominance_minimal(gens)
        self.ring = ring
        self.generators: tuple[tuple[int, ...], ...] = tuple(
            sorted(gens, key=lambda g: (sum(g), g))
        )
        self._newton: NewtonPolyhedron | None = None

    @classmethod
    def unit(cls, ring: ToricRing) -> "MonomialIdeal":
        return cls(ring, [tuple(0 for _ in range(ring.rank))])

    def _key(self):
        return (self.ring, self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def max_coordinate(self) -> int:
        return max(max(g) for g in self.generators)

    def newton_polyhedron(self) -> NewtonPolyhedron:
        if self._newton is None:
            self._newton = newton_polyhedron(self)
        return self._newton

    def membership(self, v: Sequence[int]) -> bool:
        """Is the monomial with exponent ``v`` in the ideal?"""
        v = tuple(int(x) for x in v)
        for g in self.generators:
            diff = tuple(x - y for x, y in zip(v, g))
            if all(x >= 0 for x in diff) and self.ring.contains(diff):
                return True
        return False

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json_dict(cls, ring: ToricRing, d: Mapping) -> "MonomialIdeal":
        return cls(ring, [tuple(int(x) for x in g) for g in d["generators"]])

    def __repr__(self) -> str:
        return f"MonomialIdeal({len(self.generators)} generators, rank {self.ring.rank})"


def ideal_membership(ideal: MonomialIdeal, v: Sequence[int]) -> bool:
    return ideal.membership(v)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Pairwise sums of generators, minimalized."""
    if a.ring != b.ring:
        raise RingMismatchError("product needs ideals over the same ring")
    sums = {
        tuple(x + y for x, y in zip(u, w))
        for u in a.generators
        for w in b.generators
    }
    return MonomialIdeal(a.ring, sums)


def ideal_power(a: MonomialIdeal, k: int) -> MonomialIdeal:
    if not isinstance(k, int) or k < 0:
        raise InvalidParametersError("power must be a nonnegative integer")
    if k == 0:
        return MonomialIdeal.unit(a.ring)
    out = a
    for _ in range(k - 1):
        out = ideal_product(out, a)
    return out


# -- the column-minimum engine -----------------------------------------------


@lru_cache(maxsize=512)
def _box_minimal_impl(
    ring: ToricRing,
    normals: tuple[tuple[int, ...], ...],
    thresholds: tuple[int, ...],
    q: int,
    strict: bool,
    shift: int,
    start_bound: int,
) -> tuple[tuple[int, ...], ...]:
    m = ring.rank - 1
    row_mass = max((sum(map(abs, a)) for a in normals), default=0)
    top = max((abs(t) for t in thresholds), default=0)
    bound = max(start_bound, 1)
    while True:
        side = bound + 1
        if side**m > _CELL_CAP:
            raise OutOfScaleError(
                f"prefix grid of {side}^{m} cells passes the cap; out of desk scale"
            )
        if q * row_mass * (side + shift) + top >= 2**61:
            raise OutOfScaleError("facet values exceed 64-bit range; out of desk scale")
        grid = np.indices((side,) * m, dtype=np.int64)
        z0, step = _lattice_coset(ring, grid)
        ok = z0 >= 0
        low = np.zeros(z0.shape, dtype=np.int64)
        for a, t in zip(normals, thresholds):
            prefix = np.tensordot(np.array(a[:-1], dtype=np.int64), grid, 1)
            val = q * (prefix + shift * sum(a[:-1]))
            if a[-1]:
                # least z with q<a, (x', z + shift)> > t (or >= t)
                d = q * a[-1]
                need = (t - val) // d + 1 if strict else -((val - t) // d)
                np.maximum(low, need - shift, out=low)
            else:
                ok &= val > t if strict else val >= t
        # Z[x']: the least coset value at or above the bound; side marks
        # a column with no member in the box
        col = np.where(ok, np.minimum(low + (z0 - low) % step, side), side)

        minimal = col <= bound
        for h in ring.minimal_steps:
            hp = h[:-1]
            if not any(hp) or max(hp) > bound:
                continue
            above = tuple(slice(x, None) for x in hp)
            below = tuple(slice(0, side - x) for x in hp)
            minimal[above] &= col[above] - h[-1] < col[below]
        cand = np.column_stack([np.argwhere(minimal), col[minimal]])

        if not len(cand) or bool((cand == bound).any()):
            bound *= 2
            continue
        return tuple(sorted(map(tuple, cand.tolist()), key=lambda g: (sum(g), g)))


def _box_minimal_generators(
    ring: ToricRing,
    facets: tuple[tuple[tuple[int, ...], int], ...],
    c: Fraction,
    strict: bool,
    shift: int,
    start_bound: int,
) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of the upward-closed membership set.

    Membership of v: v in the semigroup and, for every facet (a, b),
    q<a, v + shift> compared against p*b where c = p/q (strict or not).
    Facets that every semigroup point satisfies automatically (offset
    at most zero, given the shift convention) are dropped up front. The
    cache key is the normalized test data, so scaling an exponent
    against scaled facets reuses previous work.
    """
    p, q = c.numerator, c.denominator
    kept: list[tuple[tuple[int, ...], int]] = []
    for a, b in facets:
        t = p * b
        if t < 0 or (t == 0 and (not strict or shift >= 1)):
            continue
        kept.append((a, t))
    normals = tuple(a for a, _ in kept)
    thresholds = tuple(t for _, t in kept)
    return _box_minimal_impl(ring, normals, thresholds, q, strict, shift, start_bound)


def multiplier_monomials(ideal: MonomialIdeal, c) -> MonomialIdeal:
    """Minimal generators of the multiplier ideal of ``ideal`` at
    exponent ``c``: semigroup points v with v + 1 interior to c times
    the Newton polyhedron."""
    c = as_rational(c)
    if c <= 0:
        raise InvalidParametersError("exponent must be positive")
    ring = ideal.ring
    if any(s != 1 for s in ring.coordinate_steps):
        raise InvalidParametersError(
            "the all-ones interior shift needs unit coordinate projections; "
            f"this ring has steps {ring.coordinate_steps}"
        )
    poly = ideal.newton_polyhedron()
    start = math.ceil(c * ideal.max_coordinate) + ring.index + ring.rank
    gens = _box_minimal_generators(ring, poly.facets, c, True, 1, start)
    return MonomialIdeal(ring, gens, _minimal=True)


def integral_closure_monomial(ideal: MonomialIdeal) -> MonomialIdeal:
    """Integral closure: semigroup points inside the Newton polyhedron
    (non-strict facet test).

    The closure provably has the same Newton polyhedron; this is
    re-asserted two-sidedly (closure generators satisfy every facet by
    construction, and the original generators are members of the
    closure), and the polyhedron object is shared with the input.
    """
    ring = ideal.ring
    poly = ideal.newton_polyhedron()
    start = ideal.max_coordinate + ring.index + ring.rank
    gens = _box_minimal_generators(ring, poly.facets, Fraction(1), False, 0, start)
    out = MonomialIdeal(ring, gens, _minimal=True)
    for g in ideal.generators:
        if not out.membership(g):
            raise AssertionError("closure lost an original generator; internal bug")
    if len(out.generators) <= 60:
        if _newton_facets(ring.rank, out.generators) != poly.facets:
            raise AssertionError("closure changed the Newton polyhedron; internal bug")
    out._newton = poly
    return out


def _in_product(
    v: tuple[int, ...], gens_a: np.ndarray, gens_b: np.ndarray
) -> bool:
    """Is v = u + w + s with u, w generators and s in the semigroup?
    All points lie in M, so the test is pure dominance."""
    vv = np.array(v, dtype=np.int64)
    ua = gens_a[(gens_a <= vv).all(axis=1)]
    if not len(ua):
        return False
    diff = vv - ua
    return bool((gens_b[None, :, :] <= diff[:, None, :]).all(axis=2).any())


@dataclass
class MonomialCertificate:
    """Outcome of a monomial subadditivity check.

    On failure, the witness is re-verified on both sides: it is a
    member of the product-side multiplier ideal and not a member of the
    product of the two multiplier ideals. ``exhaustive_recheck`` says
    whether every lattice decomposition of the witness was also tested;
    that scan is skipped when the witness box holds more than
    ``_WITNESS_SCAN_CAP`` lattice points.
    """

    ring: ToricRing
    ideal_a: MonomialIdeal
    ideal_b: MonomialIdeal
    exponent_a: Fraction
    exponent_b: Fraction
    j_product: MonomialIdeal
    j_a: MonomialIdeal
    j_b: MonomialIdeal
    verdict: bool
    witness: tuple[int, ...] | None
    failures: tuple[tuple[int, ...], ...] = ()
    exhaustive_recheck: bool = False

    def to_json_dict(self) -> dict:
        return {
            "exponents": [str(self.exponent_a), str(self.exponent_b)],
            "j_product_generators": [list(g) for g in self.j_product.generators],
            "j_a_generators": [list(g) for g in self.j_a.generators],
            "j_b_generators": [list(g) for g in self.j_b.generators],
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "failures": [list(g) for g in self.failures],
        }


def _members_mask_box(
    ring: ToricRing, box: np.ndarray, poly: NewtonPolyhedron, c: Fraction
) -> np.ndarray:
    """Multiplier-ideal membership of every row of ``box`` (rows must
    lie in the lattice): the all-ones shift, strict on every facet."""
    p, q = c.numerator, c.denominator
    mask = np.ones(len(box), dtype=bool)
    for a, b in poly.facets:
        vals = q * ((box + 1) @ np.array(a, dtype=np.int64))
        mask &= vals > p * b
    return mask


def _witness_has_no_decomposition(
    a: MonomialIdeal, b: MonomialIdeal, ca: Fraction, cb: Fraction, w: tuple[int, ...]
) -> bool:
    """Exhaustive check, independent of the generator engine: no split
    w = u + u' with u a member of J(a^ca) and u' a member of J(b^cb).

    Members of a multiplier ideal are exactly the lattice points
    passing the interior test, so scanning every lattice point below
    the witness settles product membership outright.
    """
    ring = a.ring
    grids = np.meshgrid(
        *[np.arange(x + 1, dtype=np.int64) for x in w], indexing="ij"
    )
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    keep = np.ones(len(pts), dtype=bool)
    for wts, r in ring.congruences:
        keep &= (pts @ np.array(wts, dtype=np.int64)) % r == 0
    pts = pts[keep]
    in_a = _members_mask_box(ring, pts, a.newton_polyhedron(), ca)
    if not in_a.any():
        return True
    rest = np.array(w, dtype=np.int64) - pts[in_a]
    in_b = _members_mask_box(ring, rest, b.newton_polyhedron(), cb)
    return not in_b.any()


def _certify(
    a: MonomialIdeal,
    b: MonomialIdeal,
    ca: Fraction,
    cb: Fraction,
    j_product: MonomialIdeal,
    j_a: MonomialIdeal,
    j_b: MonomialIdeal,
) -> MonomialCertificate:
    ga = np.array(j_a.generators, dtype=np.int64)
    gb = np.array(j_b.generators, dtype=np.int64)
    failures = [
        g for g in j_product.generators if not _in_product(g, ga, gb)
    ]
    witness = failures[0] if failures else None
    exhaustive_recheck = False
    if witness is not None:
        prod = ideal_product(j_a, j_b)
        if prod.membership(witness) or not j_product.membership(witness):
            raise AssertionError("witness failed re-verification; internal bug")
        exhaustive_recheck = math.prod(x + 1 for x in witness) <= _WITNESS_SCAN_CAP
        if exhaustive_recheck and not _witness_has_no_decomposition(
            a, b, ca, cb, witness
        ):
            raise AssertionError(
                "witness admits a decomposition the generator engine missed; "
                "internal bug"
            )
    return MonomialCertificate(
        ring=a.ring,
        ideal_a=a,
        ideal_b=b,
        exponent_a=ca,
        exponent_b=cb,
        j_product=j_product,
        j_a=j_a,
        j_b=j_b,
        verdict=witness is None,
        witness=witness,
        failures=tuple(failures),
        exhaustive_recheck=exhaustive_recheck,
    )


def subadditivity_check_monomial(
    a: MonomialIdeal, b: MonomialIdeal
) -> MonomialCertificate:
    """Does the multiplier ideal of ab sit inside the product of the
    multiplier ideals? The verdict tests every minimal generator of
    J(ab) for membership in J(a) J(b)."""
    if a.ring != b.ring:
        raise RingMismatchError("subadditivity check needs one ring")
    j_ab = multiplier_monomials(ideal_product(a, b), Fraction(1))
    j_a = multiplier_monomials(a, Fraction(1))
    j_b = multiplier_monomials(b, Fraction(1))
    return _certify(a, b, Fraction(1), Fraction(1), j_ab, j_a, j_b)


def strong_subadd_check_monomial(
    a: MonomialIdeal, b: MonomialIdeal, c, d
) -> MonomialCertificate:
    """Rational-exponent subadditivity: compare J(a^c b^d) against
    J(a^c) J(b^d). The mixed ideal is reduced over the common
    denominator m: J(a^c b^d) = J((a^p b^q)^(1/m)) with p = cm, q = dm."""
    if a.ring != b.ring:
        raise RingMismatchError("subadditivity check needs one ring")
    c = as_rational(c)
    d = as_rational(d)
    if c <= 0 or d <= 0:
        raise InvalidParametersError("exponents must be positive")
    m = lcm(c.denominator, d.denominator)
    p = int(c * m)
    q = int(d * m)
    mixed = ideal_product(ideal_power(a, p), ideal_power(b, q))
    j_mixed = multiplier_monomials(mixed, Fraction(1, m))
    j_a = multiplier_monomials(a, c)
    j_b = multiplier_monomials(b, d)
    return _certify(a, b, c, d, j_mixed, j_a, j_b)


def barycentric_solve(points: Sequence[Sequence], target: Sequence) -> list[Fraction]:
    """Exact coefficients writing ``target`` as a linear combination of
    the given (linearly independent) points."""
    pts = [list(p) for p in points]
    n = len(pts)
    if any(len(p) != n for p in pts) or len(list(target)) != n:
        raise ValueError("need n points of length n and a target of length n")
    m = QMatrix([[pts[j][i] for j in range(n)] for i in range(n)])
    return solve_linear(m, list(target))


# -- the explorer ------------------------------------------------------------


_GORENSTEIN_NOTE = (
    "Gorenstein filter: a cyclic quotient 1/r(w_1..w_n) is Gorenstein exactly "
    "when the weights sum to 0 mod r. This is a standard toric criterion, "
    "applied here as an external fact."
)


@dataclass(frozen=True)
class ExploreConfig:
    """Sampling plan for the monomial subadditivity explorer.

    With ``ring`` (and optionally ``ideal_a``/``ideal_b``) pinned, the
    sampler reuses them every trial; otherwise trials draw cyclic
    quotient rings 1/r(w) with r in [modulus_min, modulus_max] and,
    when ``gorenstein_only``, the last weight completing the sum to 0
    mod r. Ideal generators are semigroup points with coordinates at
    most ``max_coordinate``. Everything is deterministic in ``seed``;
    per-trial generators are seeded independently, so trials could run
    in any order or in parallel without changing the findings.
    """

    rank: int = 3
    trials: int = 100
    seed: int = 0
    modulus_min: int = 2
    modulus_max: int = 13
    max_generators: int = 4
    max_coordinate: int = 30
    gorenstein_only: bool = True
    ring: ToricRing | None = None
    ideal_a: MonomialIdeal | None = None
    ideal_b: MonomialIdeal | None = None


@dataclass
class ExplorationReport:
    config: ExploreConfig
    trials_run: int
    trials_skipped: int
    violations: list[dict] = field(default_factory=list)
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
            "violations": self.violations,
            "notes": list(self.notes),
            "seed": self.config.seed,
        }


def _ring_is_gorenstein(ring: ToricRing) -> bool:
    if len(ring.congruences) != 1:
        raise InvalidParametersError(
            "the Gorenstein predicate is implemented for single-congruence rings"
        )
    w, r = ring.congruences[0]
    return is_gorenstein_cyclic(r, w)


def _sample_semigroup_point(
    rng: random.Random, ring: ToricRing, cap: int
) -> tuple[int, ...]:
    for _ in range(400):
        v = tuple(rng.randint(0, cap) for _ in range(ring.rank))
        if any(v) and ring.contains(v):
            return v
    fallback = tuple(
        ring.index if i == 0 else 0 for i in range(ring.rank)
    )
    return fallback


def _sample_ideal(rng: random.Random, ring: ToricRing, config: ExploreConfig) -> MonomialIdeal:
    cap = rng.randint(2, max(2, config.max_coordinate))
    count = rng.randint(2, max(2, config.max_generators))
    gens = {_sample_semigroup_point(rng, ring, cap) for _ in range(count)}
    return MonomialIdeal(ring, gens)


def explore_question33(config: ExploreConfig) -> ExplorationReport:
    """Randomized search for monomial subadditivity violations.

    Reports every violating trial with its full certificate. Violations
    are found on Gorenstein rings too. Each witness is re-verified
    against the product of the multiplier ideals and, when its box
    holds at most 2*10^6 lattice points, exhaustively against every
    decomposition, independently of the generator search.
    """
    if (config.ideal_a or config.ideal_b) and config.ring is None:
        raise InvalidParametersError("pinned ideals need a pinned ring")
    notes = [_GORENSTEIN_NOTE]
    violations: list[dict] = []
    run = 0
    skipped = 0
    for trial in range(config.trials):
        rng = random.Random(f"{config.seed}:{trial}")
        if config.ring is not None:
            ring = config.ring
            if config.gorenstein_only and not _ring_is_gorenstein(ring):
                skipped += 1
                continue
        else:
            r = rng.randint(config.modulus_min, config.modulus_max)
            weights = [rng.randrange(r) for _ in range(config.rank - 1)]
            if config.gorenstein_only:
                weights.append((-sum(weights)) % r)
            else:
                weights.append(rng.randrange(r))
            ring = cyclic_quotient_ring(r, weights)
        if any(s != 1 for s in ring.coordinate_steps):
            # outside the all-ones interior criterion (never Gorenstein)
            skipped += 1
            continue
        ideal_a = config.ideal_a or _sample_ideal(rng, ring, config)
        ideal_b = config.ideal_b or _sample_ideal(rng, ring, config)
        cert = subadditivity_check_monomial(ideal_a, ideal_b)
        run += 1
        if not cert.verdict:
            violations.append(
                {
                    "trial": trial,
                    "ring": ring.to_json_dict(),
                    "ideal_a": ideal_a.to_json_dict(),
                    "ideal_b": ideal_b.to_json_dict(),
                    "certificate": cert.to_json_dict(),
                }
            )
    return ExplorationReport(
        config=config,
        trials_run=run,
        trials_skipped=skipped,
        violations=violations,
        notes=tuple(notes),
    )
