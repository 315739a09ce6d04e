"""Monomial-ideal multiplier ideals on simplicial toric rings.

Rings are cut out of the ambient lattice by congruences: the toric ring
of M = {v : w.v = 0 mod r for each congruence} intersected with the
nonnegative orthant. Monomial ideals are finite exponent-vector sets,
Newton polyhedra carry exact integer facet data, and membership in a
multiplier ideal is the interior-point test: the monomial with exponent
v lies in the multiplier ideal of I at exponent c exactly when v + 1
(the all-ones shift) is interior to c times the Newton polyhedron of I.

Facets come from one vectorised int64 enumeration for every rank: each
rank-sized set of generators and coordinate rays gives a normal as the
signed maximal minors of its direction rows, reduced by its gcd and
deduplicated in the array, then kept when no generator lies below it;
vertices are read off the generator-by-facet incidence matrix.
A multiplier ideal depends only on the Newton polyhedron, and
Newt(a^p b^q) = p Newt(a) + q Newt(b), so the subadditivity checks
build their product-side ideal from the vertex sums p u + q w, never
by expanding the powers and the product.

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
Certificates reuse the prefix grid: a generator of J(ab) lies outside
J(a) J(b) when it is below the staircase of the pairwise sums.

Everything is exact: facet data are primitive integer vectors, interior
tests compare integers after clearing the exponent's denominator, and
no floating point is used anywhere. The numpy arrays are int64, after
a proof that every intermediate value fits; inputs past the grid cap,
the facet-work cap or that proof raise ``OutOfScaleError``.
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

# matrix_rank is unused here but stays importable as toric.matrix_rank:
# the benchmark's layer tracer rebinds that name
from .rationals import QMatrix, as_rational, matrix_rank, solve_linear  # noqa: F401
from .surface import InvalidParametersError

# prefix cells per engine pass (64 MiB per int64 grid array)
_CELL_CAP = 8_000_000
# C(gens + rank, rank) * gens: candidate facets times generators
_FACET_WORK_CAP = 200_000_000
# int64 entries per block of the facet enumeration (32 MiB)
_FACET_BLOCK = 1 << 22
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
        return _residue_group_order(self, range(self.rank))

    @cached_property
    def coordinate_steps(self) -> tuple[int, ...]:
        """Per axis, the positive generator of the lattice's coordinate
        projection: the smallest t > 0 some lattice vector has as its
        i-th coordinate.

        That is the least t with t times the axis's residue in the
        subgroup H generated by the other axes, so it is the index of H
        in the whole residue group. The interior-point criterion for
        multiplier ideals shifts by the vector of these steps; this
        package implements the criterion only where every step is 1,
        which holds in particular for every Gorenstein cyclic quotient.
        """
        return tuple(
            self.index // _residue_group_order(self, [j for j in range(self.rank) if j != i])
            for i in range(self.rank)
        )

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


def _residue_group_order(ring: ToricRing, axes: Iterable[int]) -> int:
    """Order of the subgroup of the residue group (the product of the
    Z/r over the congruences) generated by the unit vectors on ``axes``.

    Each axis's residue g extends the subgroup H so far by the cosets
    H + k*g up to the first one that meets what is already collected,
    which happens at the least k > 0 with k*g in H.
    """
    mods = [r for _, r in ring.congruences]
    group = {(0,) * len(mods)}
    for i in axes:
        g = [w[i] for w, _ in ring.congruences]
        grown, coset = set(group), group
        while True:
            coset = {tuple((x + y) % r for x, y, r in zip(h, g, mods)) for h in coset}
            if next(iter(coset)) in grown:
                break
            grown |= coset
        group = grown
    return len(group)


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


def _batch_det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k integer matrices, by cofactor
    expansion along the first row; exact while the caller's bound on
    the entries holds."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(len(m), dtype=np.int64)
    if k == 1:
        return m[:, 0, 0].copy()
    out = np.zeros(len(m), dtype=np.int64)
    for j in range(k):
        term = m[:, 0, j] * _batch_det(m[:, 1:, _others(k, j)])
        out += -term if j % 2 else term
    return out


def _others(k: int, j: int) -> list[int]:
    return [i for i in range(k) if i != j]


@lru_cache(maxsize=4096)
def _newton_facets(
    rank: int, gens: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Facets (normal, offset) of conv(gens) + orthant, sorted.

    Every rank-sized set of generators and coordinate rays holding at
    least one generator gives a candidate: its first generator is the
    pivot, the others give direction rows (generators minus the pivot,
    rays as they are), and the normal is the vector of signed maximal
    minors of those rows. Normals are oriented, kept when componentwise
    nonnegative, divided by their gcd and deduplicated in the array; a
    candidate is a facet when no generator lies below it, as its own
    independent rows span the hyperplane. Work goes in blocks of
    combinations, so memory stays bounded.
    """
    count = len(gens)
    if math.comb(count + rank, rank) * count > _FACET_WORK_CAP:
        raise OutOfScaleError(f"facets of {count} generators; out of desk scale")
    big = max(max(abs(x) for g in gens for x in g), 1)
    # generators are nonnegative, so direction entries are at most big,
    # the minors at most (rank-1)! big^(rank-1), and offsets and
    # validation dots at most rank! big^rank
    if math.factorial(rank) * big**rank >= 2**62:
        raise OutOfScaleError("facet normals exceed 64-bit range; out of desk scale")
    gens_arr = np.array(gens, dtype=np.int64)
    pts = np.vstack([gens_arr, np.eye(rank, dtype=np.int64)])
    is_gen = np.arange(len(pts)) < count
    combos = itertools.combinations(range(len(pts)), rank)
    block = max(1, _FACET_BLOCK // (count + rank * rank))
    found = []
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, block)), dtype=np.int64
        ).reshape(-1, rank)
        if not len(chunk):
            break
        chunk = chunk[is_gen[chunk[:, 0]]]
        p0 = pts[chunk[:, 0]]
        rest = chunk[:, 1:]
        dirs = pts[rest] - is_gen[rest][:, :, None] * p0[:, None, :]
        normals = np.stack(
            [(-1) ** i * _batch_det(dirs[:, :, _others(rank, i)]) for i in range(rank)], axis=1
        )
        lead = normals[np.arange(len(normals)), (normals != 0).argmax(axis=1)]
        normals *= np.sign(lead)[:, None]
        keep = (lead != 0) & (normals >= 0).all(axis=1)
        normals, p0 = normals[keep], p0[keep]
        normals //= np.gcd.reduce(normals, axis=1)[:, None]
        offsets = (normals * p0).sum(axis=1)
        ok = (normals @ gens_arr.T >= offsets[:, None]).all(axis=1)
        found.append(np.column_stack([normals[ok], offsets[ok]]))

    cand = np.unique(np.concatenate(found), axis=0)
    return tuple((tuple(row[:-1]), row[-1]) for row in cand.tolist())


def newton_polyhedron(ideal: "MonomialIdeal") -> NewtonPolyhedron:
    """Facets and vertices of the ideal's Newton polyhedron.

    Facets come from ``_newton_facets``. A generator is a vertex when no
    other generator is tight on every facet it is tight on: those facets
    cut out the least face holding it, and a face of positive dimension
    is pointed (Newt lies in the orthant), so it has a vertex, which is
    another generator.
    """
    rank = ideal.ring.rank
    facets = _newton_facets(rank, ideal.generators)
    gens = np.array(ideal.generators, dtype=np.int64)
    rows = np.array([(*a, b) for a, b in facets], dtype=np.int64)
    tight = (gens @ rows[:, :-1].T == rows[:, -1]).astype(np.int64)
    shared = tight @ tight.T
    covers = shared == shared.diagonal()[:, None]
    np.fill_diagonal(covers, False)
    vertices = tuple(g for g, c in zip(ideal.generators, covers.any(axis=1)) if not c)
    return NewtonPolyhedron(rank=rank, facets=facets, vertices=vertices)


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


@dataclass
class MonomialCertificate:
    """Outcome of a monomial subadditivity check.

    On failure, the witness is re-verified on both sides: it passes the
    product-side interior test on the Newton polyhedron, and it lies
    above no pairwise sum of generators of J(a) and J(b).
    ``exhaustive_recheck`` says whether every lattice decomposition of
    the witness was also tested; that scan is skipped when the witness
    box holds more than ``_WITNESS_SCAN_CAP`` lattice points.
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
    a: MonomialIdeal, b: MonomialIdeal, ca: Fraction, cb: Fraction,
    mixed: MonomialIdeal, c_mixed: Fraction,
    j_product: MonomialIdeal, j_a: MonomialIdeal, j_b: MonomialIdeal,
) -> MonomialCertificate:
    """Test each generator g of ``j_product`` = J(mixed^c_mixed) against
    J(a^ca) J(b^cb), generated by the pairwise sums s (all in M). The
    staircase P[x'] = min of s_n over s' <= x' comes from scattering the
    sums into the prefix grid of ``j_product`` and a running minimum
    along each axis; g fails exactly when g_n < P[g']."""
    ga = np.array(j_a.generators, dtype=np.int64)
    gb = np.array(j_b.generators, dtype=np.int64)
    if len(ga) * len(gb) > _CELL_CAP:
        raise OutOfScaleError(
            f"{len(ga)} x {len(gb)} generator sums pass the cap; out of desk scale"
        )
    sums = (ga[:, None, :] + gb[None, :, :]).reshape(-1, a.ring.rank)
    gens = np.array(j_product.generators, dtype=np.int64)
    side = gens[:, :-1].max(axis=0, initial=0) + 1
    # a leading axis of length one keeps rank 1 (no prefix) array-shaped
    low = np.full((1, *side.tolist()), np.iinfo(np.int64).max, dtype=np.int64)
    inside = sums[(sums[:, :-1] < side).all(axis=1)]
    np.minimum.at(low, (np.zeros(len(inside), dtype=np.int64), *inside[:, :-1].T), inside[:, -1])
    for axis in range(1, low.ndim):
        np.minimum.accumulate(low, axis=axis, out=low)
    lowest = low[(np.zeros(len(gens), dtype=np.int64), *gens[:, :-1].T)]
    failures = [g for g, f in zip(j_product.generators, gens[:, -1] < lowest) if f]
    witness = failures[0] if failures else None
    exhaustive_recheck = False
    if witness is not None:
        w = np.array([witness], dtype=np.int64)
        if (sums <= w).all(axis=1).any() or not _members_mask_box(
            a.ring, w, mixed.newton_polyhedron(), c_mixed
        )[0]:
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


def _vertex_sum_ideal(a: MonomialIdeal, b: MonomialIdeal, p: int, q: int) -> MonomialIdeal:
    """An ideal with the Newton polyhedron of a^p b^q, which is
    p Newt(a) + q Newt(b): every vertex of a Minkowski sum is a sum of
    vertices, so the points p u + q w over the vertices u of Newt(a)
    and w of Newt(b) generate it up to integral closure. Multiplier
    ideals see only the Newton polyhedron, and there are at most
    |vert(a)| |vert(b)| points instead of the generators of the
    expanded product."""
    va = a.newton_polyhedron().vertices
    vb = b.newton_polyhedron().vertices
    return MonomialIdeal(
        a.ring, {tuple(p * x + q * y for x, y in zip(u, w)) for u in va for w in vb}
    )


def subadditivity_check_monomial(
    a: MonomialIdeal, b: MonomialIdeal
) -> MonomialCertificate:
    """Does the multiplier ideal of ab sit inside the product of the
    multiplier ideals? The verdict tests every minimal generator of
    J(ab) for membership in J(a) J(b); J(ab) is computed from the
    vertex sums of Newt(a) + Newt(b)."""
    if a.ring != b.ring:
        raise RingMismatchError("subadditivity check needs one ring")
    one = Fraction(1)
    mixed = _vertex_sum_ideal(a, b, 1, 1)
    j_ab, j_a, j_b = (multiplier_monomials(x, one) for x in (mixed, a, b))
    return _certify(a, b, one, one, mixed, one, j_ab, j_a, j_b)


def strong_subadd_check_monomial(
    a: MonomialIdeal, b: MonomialIdeal, c, d
) -> MonomialCertificate:
    """Rational-exponent subadditivity: compare J(a^c b^d) against
    J(a^c) J(b^d). The mixed ideal is reduced over the common
    denominator m: J(a^c b^d) = J((a^p b^q)^(1/m)) with p = cm, q = dm.
    Only its Newton polyhedron p Newt(a) + q Newt(b) matters, so it is
    built from the vertex sums p u + q w rather than by expanding the
    powers and the product."""
    if a.ring != b.ring:
        raise RingMismatchError("subadditivity check needs one ring")
    c = as_rational(c)
    d = as_rational(d)
    if c <= 0 or d <= 0:
        raise InvalidParametersError("exponents must be positive")
    m = lcm(c.denominator, d.denominator)
    p = int(c * m)
    q = int(d * m)
    mixed = _vertex_sum_ideal(a, b, p, q)
    j_mixed = multiplier_monomials(mixed, Fraction(1, m))
    j_a = multiplier_monomials(a, c)
    j_b = multiplier_monomials(b, d)
    return _certify(a, b, c, d, mixed, Fraction(1, m), j_mixed, j_a, j_b)


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
    if config.rank < 1:
        raise InvalidParametersError("explore needs rank >= 1")
    if not 1 <= config.modulus_min <= config.modulus_max:
        raise InvalidParametersError("explore needs 1 <= modulus_min <= modulus_max")
    if config.trials < 0:
        raise InvalidParametersError("explore needs trials >= 0")
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
