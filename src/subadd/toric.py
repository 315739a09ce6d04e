"""Monomial-ideal multiplier ideals on simplicial toric rings.

Rings are cut out of the ambient lattice by congruences: the toric ring
of M = {v : w.v = 0 mod r for each congruence} intersected with the
nonnegative orthant. One Hermite basis of M per ring, in Python
integers, gives the index, the coordinate steps and the coset of the
last coordinate over a prefix, so extra congruences cost nothing.
Monomial ideals are finite exponent-vector sets, Newton polyhedra carry
exact integer facet data, and membership in a multiplier ideal is the
interior-point test: the monomial with exponent v lies in the multiplier
ideal of I at exponent c exactly when v + s is interior to c times the
Newton polyhedron of I (Howald, Trans. AMS 2001; Blickle, Math. Z.
2004). The shift s is the point with <s, n_i> = 1 on the primitive ray
generators n_i = e_i*/s_i of the dual lattice, which is the vector of
the ring's coordinate steps s_i; it is all ones exactly when M projects
onto every axis, as on every Gorenstein cyclic quotient.

Facets come from one vectorised int64 enumeration for every rank: each
rank-sized set of generators and coordinate rays gives a normal as the
signed maximal minors of its direction rows, all read from one Leibniz
gather of signed minors (a per-rank table of column permutations and
their signs), reduced by its gcd and deduplicated in a sorted set, then
kept when no generator lies below it. With big the largest generator
entry, every minor is at most (rank-1)! big^(rank-1) and every offset
and validation dot at most rank! big^rank, which must stay under 2^62;
vertices are read off the generator-by-facet incidence matrix.
A multiplier ideal depends only on the Newton polyhedron, and
Newt(a^p b^q) = p Newt(a) + q Newt(b), so the subadditivity checks
build their product-side ideal from the vertex sums p u + q w, never
by expanding the powers and the product.

The engine behind minimal generators has one membership test: v is a
member when q<a, v> >= t for every facet normal a and its integer
threshold t. ``multiplier_monomials`` passes t = p b - q<a, s> + 1 for
c = p/q, which is the strict test q<a, v + s> > p b in integers, and
``integral_closure_monomial`` passes t = b with q = 1. Normals are
nonnegative, so a facet with t <= 0 holds on the whole semigroup and
the engine drops it. The engine is a column-minimum search over
the box [0, bound]^n, with bound = ceil(c M) + index + rank, M the
largest generator coordinate. Membership is upward-closed, so over
each prefix x' = (x_1..x_{n-1}) only the lowest member of the column
can be minimal. One pass over the grid of prefixes in [0, bound]^(n-1)
gives each prefix the coset of its last coordinate (a triangular solve
on open, broadcast axes, one range per axis of a block of the grid: with
unit prefix pivots one outer sum), raises a per-prefix lower bound facet by
facet (a broadcast sum of one row per axis, the rows of a block of
facets built at once; facets with a_n = 0 only filter prefixes), and
takes Z[x'], the least coset value at or above that bound. Points of M
differ by a semigroup element exactly when they compare componentwise,
so a column minimum is minimal exactly when it lies below the
staircase of the columns under it: Z[x'] < P[x' - e_i] on every axis
with x'_i >= 1, where P[y'] is the least Z at or below y', one running
minimum per axis. One pass suffices: index e_i lies in M, and a point
x of the interior of c Newt stays in it when x_i > c M is replaced by
any value above c M (every generator has g_i <= M). So a member v with
v_i > c M + index - s_i stays a member after lowering v_i by the index
(v_i and the index are multiples of s_i, so v_i >= index), and as
s_i >= 1 every minimal generator lies strictly inside the box. The
same staircase yields the certificates: a generator of J(ab) lies
outside J(a) J(b) when it is below the staircase of the pairwise sums.

The pass walks the prefix grid in blocks of rows along the first axis,
about 2^14 cells each (``_ENGINE_BLOCK``: 128 KiB per int64 array, so a
box of explorer size is one block), and carries the last row of P from
one block into the next. Every Z is >= 0, so a zero of P is final: if
P[y'] = 0 and x' >= y' lies in a later row, then P[x' - e_1] <= P[y']
= 0 <= Z[x'] and x' is not minimal. P falls along every axis, so after
each block the later axes narrow to the bounding box of the cells of
the block's last row with P > 0, and the pass ends when none is left.
Each minimal (x', Z) gets the key (x_1 + .. + x_{n-1} + Z) side^(n-1)
plus the flat index of x', and one int64 sort of the keys puts the rows
in (sum, coordinates) order. The certificates' staircase reaches zero
the same way, so their grid stops on each axis at the first pairwise
sum (t e_i, 0).

Everything is exact: facet data are primitive integer vectors, interior
tests compare integers after clearing the exponent's denominator, and
no floating point is used anywhere. The numpy arrays are int64, after
a proof that every intermediate value fits (coset values, for one,
stay below 2^(n-1) side times the largest Hermite basis entry, which
must be under 2^62); inputs past the grid cap, the facet-work cap, the
facet block or that proof raise ``OutOfScaleError``. Engine output
stays one int64 array from the engine through the ideal's ``rows`` to
the report; generator tuples are built only on demand."""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

# matrix_rank is unused here but stays importable as toric.matrix_rank:
# the benchmark's layer tracer rebinds that name
from .rationals import as_rational, matrix_rank, solve_linear  # noqa: F401
from .surface import InvalidParametersError, json_fields

# prefix cells per engine pass (64 MiB per int64 grid array)
_CELL_CAP = 8_000_000
# C(gens + rank, rank) * gens: candidate facets times generators
_FACET_WORK_CAP = 200_000_000
# int64 entries per block of the facet enumeration (32 MiB)
_FACET_BLOCK = 1 << 22
# prefix cells per row block of the engine's pass (128 KiB per int64 array)
_ENGINE_BLOCK = 1 << 14
_WITNESS_SCAN_CAP = 2_000_000


class RingMismatchError(ValueError):
    """Operands live over different toric rings."""


class OutOfScaleError(RuntimeError):
    """The input needs arrays or integers past the desk-scale caps."""


def _integer_entries(values: Sequence, what: str) -> tuple[int, ...]:
    """The entries of ``values`` as Python ints. Python and numpy integers
    pass; floats, booleans and anything else raise InvalidParametersError,
    so no input is rounded or truncated on the way in."""
    values = tuple(values)
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    raise InvalidParametersError(f"{what} {list(values)} has an entry that is not an integer")


class ToricRing:
    """Sublattice of Z^rank cut out by congruences, with its semigroup.

    ``congruences`` is a sequence of (weights, modulus) pairs; the
    lattice M consists of the integer vectors v with weights.v = 0 mod
    modulus for every pair. M always has finite index in Z^rank.
    Instances are immutable and hashable; a ring is its lattice, so two
    presentations of one M compare and hash equal (the reduced Hermite
    basis is unique for a lattice).
    """

    def __init__(self, rank: int, congruences: Sequence[tuple[Sequence[int], int]] = ()):
        if type(rank) is not int or rank < 1:
            raise InvalidParametersError("rank must be a positive integer")
        congs = []
        for weights, modulus in congruences:
            if type(modulus) is not int or modulus < 1:
                raise InvalidParametersError("moduli must be positive integers")
            w = tuple(x % modulus for x in _integer_entries(weights, "weight vector"))
            if len(w) != rank:
                raise InvalidParametersError("weight vector length must equal rank")
            congs.append((w, modulus))
        self.rank = rank
        self.congruences = tuple(congs)

    # the basis has rank rows of rank entries, so it fixes the rank too
    def __eq__(self, other) -> bool:
        return isinstance(other, ToricRing) and self.hermite_basis == other.hermite_basis

    def __hash__(self) -> int:
        return hash(self.hermite_basis)

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
    def hermite_basis(self) -> tuple[tuple[int, ...], ...]:
        """Upper-triangular basis of M: row i starts at column i with a
        positive pivot d_i, and every entry above a pivot lies in [0, pivot).
        Integer row echelon form of the rows [w_1[i] .. w_c[i] | e_i],
        [r_j e_j | 0] and [0 | L e_i], L the lcm of the moduli, congruence
        columns first: the rows after the congruence pivots span the
        vectors with zero congruence part, which are (0 | M), and the
        L rows keep every pivot at most L (Cohen, GTM 138, 2.4)."""
        c, n = len(self.congruences), self.rank
        if (c + n) ** 3 > _CELL_CAP:
            raise OutOfScaleError(f"Hermite basis of {c + n} columns; out of desk scale")
        mods = [r for _, r in self.congruences]
        eye = [[int(i == j) for j in range(c + n)] for i in range(c + n)]
        rows = [[w[i] for w, _ in self.congruences] + eye[c + i][c:] for i in range(n)]
        rows += [[m * x for x in row] for m, row in zip(mods + [lcm(*mods)] * n, eye)]
        pivots = []
        for col in range(c + n):
            live = [row for row in rows if row[col]]
            rows = [row for row in rows if not row[col]]
            while len(live) > 1:
                low = min(live, key=lambda row: abs(row[col]))
                live.remove(low)
                live = [[x - row[col] // low[col] * y for x, y in zip(row, low)] for row in live]
                rows += [row for row in live if not row[col]]
                live = [low] + [row for row in live if row[col]]
            pivots.append([x if live[0][col] > 0 else -x for x in live[0]])
        basis = [row[c:] for row in pivots[c:]]
        for i, j in itertools.combinations(range(n), 2):
            q = basis[i][j] // basis[j][j]
            basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
        return tuple(map(tuple, basis))

    @cached_property
    def index(self) -> int:
        """Index of M in Z^rank: the product of the Hermite pivots."""
        return math.prod(row[i] for i, row in enumerate(self.hermite_basis))

    @cached_property
    def coordinate_steps(self) -> tuple[int, ...]:
        """Per axis, the least t > 0 that is the i-th coordinate of a
        lattice vector: the gcd of the basis column."""
        return tuple(gcd(*(row[i] for row in self.hermite_basis)) for i in range(self.rank))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "congruences": [
                {"weights": list(w), "modulus": r} for w, r in self.congruences
            ],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ToricRing":
        rank, congs = json_fields(d, ("rank",), "ring", ("congruences",))
        keys = ("weights", "modulus")
        return cls(rank, [json_fields(c, keys, "congruence") for c in congs or []])

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
    """Componentwise-minimal elements, sorted by (coordinate sum,
    coordinates) on both paths; input points must lie in one lattice M
    so dominance equals semigroup divisibility."""
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


def _staircase(col: np.ndarray, carry: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The staircase of a prefix grid of column values: P[x'] = min of
    col[y'] over y' <= x', one running minimum per axis, and the mask
    of the x' with col[x'] < P[x' - e_i] on every axis i with x'_i >= 1.
    These are exactly the x' whose value lies below col[y'] for every
    other y' <= x'; a 0-d grid (rank 1) keeps its one cell. A ``carry``
    is the staircase row just before the grid's first row on axis 0,
    which P and the mask of that first row then take in."""
    low = col.copy()
    if carry is not None:
        np.minimum(low[:1], carry, out=low[:1])
    for axis in range(col.ndim):
        np.minimum.accumulate(low, axis=axis, out=low)
    # empty plus fill: np.ones costs more on the small grids of one-block passes
    keep = np.empty(col.shape, dtype=bool)
    keep.fill(True)
    if carry is not None:
        keep[:1] &= col[:1] < carry
    for axis in range(col.ndim):
        up = (slice(None),) * axis + (slice(1, None),)
        down = (slice(None),) * axis + (slice(None, -1),)
        keep[up] &= col[up] < low[down]
    return low, keep


def _lattice_mask(ring: ToricRing, pts: np.ndarray) -> np.ndarray:
    """Lattice membership of every row of an integer array, read from
    the congruences, not from the Hermite basis. Each congruence (w, r)
    is first divided by gcd(w, r); then v -> w.v mod r maps Z^rank onto
    Z/r with M in its kernel, so r is at most the index. The products
    are taken in int64 when rank * (largest entry) * r fits and in
    Python integers otherwise. Engine rows of rank 2 or more always fit:
    their entries and the index lie below the side of the box, which
    the cell cap keeps under 8 * 10^6."""
    mask = np.ones(len(pts), dtype=bool)
    big = max(int(pts.max(initial=1)), -int(pts.min(initial=0)))
    for w, r in ring.congruences:
        g = gcd(*w, r)
        w, r = [x // g for x in w], r // g
        kind = np.int64 if ring.rank * big * r < 2**63 else object
        mask &= (pts.astype(kind, copy=False) @ np.array(w, dtype=kind)) % r == 0
    return mask


def _row_keys(total: np.ndarray, pos: tuple[np.ndarray, ...], side: int) -> np.ndarray:
    """Keys total side^m + (flat index of x' in [0, side)^m) of engine
    rows (x', z) with prefix columns ``pos`` and row sums ``total``, which
    must lie in [0, (m + 1) side). One prefix holds at most one row, so
    equal sums order by prefix, and sorting the keys sorts the rows in
    (sum, coordinates) order. Keys stay below (m + 1) side^(m+1), which
    the cell cap keeps inside int64 (at m = 0 the engine's facet and
    coset checks bound the side)."""
    return np.ravel_multi_index((total, *pos), ((len(pos) + 1) * side,) + (side,) * len(pos))


def _rows_from_keys(keys: np.ndarray, side: int, m: int) -> np.ndarray:
    """The rows of ``_row_keys`` keys, sorted: one int64 sort, then one
    unravel into row sums and prefixes."""
    keys.sort()
    total, *pos = np.unravel_index(keys, ((m + 1) * side,) + (side,) * m)
    rows = np.empty((len(keys), m + 1), dtype=np.int64)
    for i, x in enumerate((*pos, total - sum(pos))):
        rows[:, i] = x
    return rows


def _lattice_coset(ring: ToricRing, spans: Sequence[range]) -> tuple[np.ndarray, int, np.ndarray]:
    """Last coordinates of the lattice over each prefix x' of the box
    spans[0] x .. x spans[n-2], one range per prefix axis, on open axes:
    returns (z, step, solvable), where z and solvable broadcast against
    the box (each axis of length 1 or of its span) and the lattice points
    over a solvable x' are (x', z + step*Z), step = d_{n-1}. A triangular
    solve in the Hermite basis: x' is a lattice prefix when every k_i =
    (x_i - sum over l < i of k_l b_l[i]) / d_i is an integer, and then z =
    sum of k_i b_i[n-1]. Entries above a pivot are below it, so a unit
    pivot d_i has zeros above it and k_i = x_i stays one-dimensional; with
    unit prefix pivots z is one outer sum of one vector per axis. With
    every x_i below top, |k_i| <= 2^i top, and every value is below
    2^(n-1) top times the largest basis entry, which must fit in int64.
    Rank 1 has no axis (top is 1), and no range is built."""
    basis = ring.hermite_basis
    m = ring.rank - 1
    if 2**m * max((r.stop for r in spans), default=1) * max(map(max, basis)) >= 2**62:
        raise OutOfScaleError("lattice coset values exceed 64-bit range; out of desk scale")
    rest = [
        np.arange(r.start, r.stop, dtype=np.int64).reshape((len(r),) + (1,) * (m - 1 - i))
        for i, r in enumerate(spans)
    ]
    z = np.zeros((), dtype=np.int64)
    solvable = np.array(True)
    for i, row in enumerate(basis[:-1]):
        k = rest[i]
        if row[i] != 1:
            solvable = solvable & (k % row[i] == 0)
            k = k // row[i]
        for j in range(i + 1, m):
            if row[j]:
                rest[j] = rest[j] - k * row[j]
        if row[m]:
            z = z + k * row[m]
    return z, basis[-1][-1], solvable


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


@lru_cache(maxsize=None)
def _leibniz_table(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The Leibniz expansion of the rank signed maximal minors of a
    (rank-1) x rank matrix D: minor i is the sum over the permutations
    s of range(rank-1) of sign * prod over r of D[r, cols[i, s, r]],
    where cols[i, s] sends row r to the s(r)-th column other than i and
    sign is (-1)^i times the sign of s. Shapes (rank, (rank-1)!, rank-1)
    and (rank, (rank-1)!); both arrays are read-only."""
    k = rank - 1
    perms = list(itertools.permutations(range(k)))
    inversions = [sum(p[a] > p[b] for a, b in itertools.combinations(range(k), 2)) for p in perms]
    others = np.array([[j for j in range(rank) if j != i] for i in range(rank)], dtype=np.int64)
    cols = others[:, np.array(perms, dtype=np.int64)]
    signs = (-1) ** (np.arange(rank)[:, None] + np.array(inversions, dtype=np.int64))
    cols.flags.writeable = signs.flags.writeable = False
    return cols, signs


@lru_cache(maxsize=4096)
def _newton_facets(
    rank: int, gens: tuple[tuple[int, ...], ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Facets (normal, offset) of conv(gens) + orthant, sorted.

    Every rank-sized set of generators and coordinate rays holding at
    least one generator gives a candidate: its first generator is the
    pivot, the others give direction rows (generators minus the pivot,
    rays as they are), and the normal is the vector of signed maximal
    minors of those rows, all read from one Leibniz gather of the rows'
    entries (``_leibniz_table``). Normals are kept when sign-definite
    and nonzero, made nonnegative, divided by their gcd and
    deduplicated in a sorted set; a candidate is a facet when no
    generator lies below it, as its own independent rows span the
    hyperplane. Products stay in int64: the largest entry big bounds
    every minor by (rank-1)! big^(rank-1) and every offset and
    validation dot by rank! big^rank, which must stay under 2^62. Work
    goes in blocks of combinations whose gathers and validation rows
    fit ``_FACET_BLOCK`` entries, so memory stays bounded.
    """
    count = len(gens)
    if math.comb(count + rank, rank) * count > _FACET_WORK_CAP:
        raise OutOfScaleError(f"facets of {count} generators; out of desk scale")
    gather = rank * math.factorial(rank - 1) * (rank - 1)
    if gather > _FACET_BLOCK:
        raise OutOfScaleError(f"Leibniz minors of rank {rank}; out of desk scale")
    big = max(max(abs(x) for g in gens for x in g), 1)
    # generators are nonnegative, so direction entries are at most big
    if math.factorial(rank) * big**rank >= 2**62:
        raise OutOfScaleError("facet normals exceed 64-bit range; out of desk scale")
    cols, signs = _leibniz_table(rank)
    rows = np.arange(rank - 1)
    gens_arr = np.array(gens, dtype=np.int64)
    pts = np.vstack([gens_arr, np.eye(rank, dtype=np.int64)])
    is_gen = np.arange(len(pts)) < count
    combos = itertools.combinations(range(len(pts)), rank)
    block = max(1, _FACET_BLOCK // (count + rank * rank + gather))
    found: set[tuple[int, ...]] = set()
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, block)), dtype=np.int64
        ).reshape(-1, rank)
        if not len(chunk):
            break
        chunk = chunk[chunk[:, 0] < count]
        p0 = pts[chunk[:, 0]]
        rest = chunk[:, 1:]
        dirs = pts[rest] - is_gen[rest][:, :, None] * p0[:, None, :]
        normals = (dirs[:, rows, cols].prod(axis=-1) * signs).sum(axis=-1)
        # both tests hold only for the zero normal
        keep = (normals >= 0).all(axis=1) ^ (normals <= 0).all(axis=1)
        normals, p0 = np.abs(normals[keep]), p0[keep]
        normals //= np.gcd.reduce(normals, axis=1)[:, None]
        offsets = (normals * p0).sum(axis=1)
        ok = (normals @ gens_arr.T >= offsets[:, None]).all(axis=1)
        found.update(map(tuple, np.column_stack([normals[ok], offsets[ok]]).tolist()))
    return tuple((row[:-1], row[-1]) for row in sorted(found))


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
    facet_rows = np.array([(*a, b) for a, b in facets], dtype=np.int64)
    tight = (ideal.rows @ facet_rows[:, :-1].T == facet_rows[:, -1]).astype(np.int64)
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
    lie in M, this is plain componentwise dominance. ``generators`` are
    tuples in (sum, coordinates) order and ``rows`` the same generators
    as a read-only int64 array; an ideal keeps the form it was built
    from and derives the other once, on first use.
    """

    def __init__(self, ring: ToricRing, generators: Iterable[Sequence[int]]):
        gens = [_integer_entries(g, "generator") for g in generators]
        if not gens:
            raise InvalidParametersError("a monomial ideal needs at least one generator")
        for g in gens:
            if len(g) != ring.rank:
                raise InvalidParametersError("generator length must equal rank")
            if not ring.semigroup_contains(g):
                raise InvalidParametersError(
                    f"generator {g} is not in the semigroup"
                )
        self.ring = ring
        self.generators = tuple(_dominance_minimal(gens))
        self._newton: NewtonPolyhedron | None = None

    @classmethod
    def _from_engine(cls, ring: ToricRing, rows: np.ndarray) -> "MonomialIdeal":
        """The ideal of the engine's int64 rows, already minimal and
        sorted. They are re-checked in one array pass against the ring's
        congruences, not the Hermite basis the engine solved in; a row
        that fails is a fault of the program, not of the input. The ideal
        keeps a read-only view of them and builds no tuples."""
        if rows.ndim != 2 or rows.shape[1] != ring.rank or not len(rows):
            raise AssertionError(f"engine rows of shape {rows.shape}; internal bug")
        bad = (rows < 0).any(axis=1) | ~_lattice_mask(ring, rows)
        if bad.any():
            row = tuple(rows[bad.argmax()].tolist())
            raise AssertionError(f"engine row {row} is not in the semigroup; internal bug")
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal.rows = rows.view()
        ideal.rows.flags.writeable = False
        ideal._newton = None
        return ideal

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def rows(self) -> np.ndarray:
        rows = np.array(self.generators, dtype=np.int64)
        rows.flags.writeable = False
        return rows

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
        """Is the monomial with exponent ``v`` in the ideal? Every
        generator g lies in the group M, so v - g is in M exactly when v
        is: one lattice test, then one dominance scan."""
        v = _integer_entries(v, "vector")
        if not self.ring.contains(v):
            return False
        return any(all(map(operator.le, g, v)) for g in self.generators)

    def to_json_dict(self) -> dict:
        return {"generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json_dict(cls, ring: ToricRing, d: Mapping) -> "MonomialIdeal":
        return cls(ring, *json_fields(d, ("generators",), "ideal"))

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
    start_bound: int,
) -> np.ndarray:
    """Minimal semigroup points v with q<a, v> >= t for every facet
    normal a and threshold t, in the box [0, start_bound]^n, as a
    read-only int64 array, rows in (sum, coordinates) order. The caller's
    bound must exceed every coordinate of a minimal generator (the module
    docstring's proof); a box without members, or a generator on its
    boundary, means that proof failed and raises AssertionError."""
    m = ring.rank - 1
    # normals are nonnegative, so a facet with t <= 0 holds on the whole
    # semigroup
    kept = [(a, t) for a, t in zip(normals, thresholds) if t > 0]
    row_mass = max((sum(map(abs, a)) for a, _ in kept), default=0)
    top = max((t for _, t in kept), default=0)
    bound = max(start_bound, 1)
    side = bound + 1
    if side**m > _CELL_CAP:
        raise OutOfScaleError(
            f"prefix grid of {side}^{m} cells passes the cap; out of desk scale"
        )
    # every |K - q<a', x'>| below is at most q * row_mass * (side + 1) + top
    if q * row_mass * (side + 1) + top >= 2**61:
        raise OutOfScaleError("facet values exceed 64-bit range; out of desk scale")
    # with d = q a_n > 0 the least z with q<a, (x', z)> >= t is
    # (K - q<a', x'>) // d for K = t + d - 1, and with d = 0 the prefix
    # passes when K - q<a', x'> < 0
    scaled = np.array([a for a, _ in kept], dtype=np.int64).reshape(len(kept), m + 1) * q
    ds = scaled[:, -1].tolist()
    ks = np.array([t for _, t in kept], dtype=np.int64) + scaled[:, -1] - 1
    coefs = -scaled[:, :-1]
    # rows [r0, r1) of axis 0 times [0, width) on every later axis: the
    # widths shrink to the cells whose staircase is still above zero
    widths, r0, carry, keys = [side] * m, 0, None, []
    while True:
        r1 = min(side, r0 + max(1, _ENGINE_BLOCK // math.prod(widths[1:])))
        spans = [range(r0, r1), *map(range, widths[1:])][:m]
        lens = list(map(len, spans))
        low = np.zeros(lens, dtype=np.int64)
        z, step, ok = _lattice_coset(ring, spans)
        # axis_rows[f, i] = -q a_i x_i over the block's span of axis i, with
        # K folded into axis 0, for a block of facets holding at most the
        # block's cells (rank 1 has no axis and no row)
        span = np.arange(max(lens, default=0), dtype=np.int64)
        kb = ks + coefs[:, 0] * r0 if r0 else ks
        per = max(1, low.size // max(1, m * len(span)))
        for lo in range(0, len(kept), per):
            hi = lo + per
            if m:
                axis_rows = np.multiply.outer(coefs[lo:hi], span)
                axis_rows[:, 0] += kb[lo:hi, None]
                cut = [axis_rows[:, i, :n] for i, n in enumerate(lens)]
                nums = (reduce(np.add.outer, r) for r in zip(*cut))
            else:
                nums = (np.array(k) for k in kb[lo:hi])
            for num, d in zip(nums, ds[lo:hi]):
                if d:
                    np.maximum(low, np.floor_divide(num, d, out=num), out=low)
                else:
                    ok = ok & (num < 0)
        # Z[x'] = low + (z - low) % step = z - step * ((z - low) // step): the
        # least coset value at or above the bound (floor division by a scalar
        # is much faster than % in numpy); side marks a column with no member
        # in the box, or a prefix off the lattice
        col = np.subtract(z, low, out=low)
        col //= step
        col *= -step
        col += z
        np.minimum(col, side, out=col)
        np.copyto(col, side, where=~ok)
        stair, keep = _staircase(col, carry)
        # a kept cell lies below some staircase value (at most side) unless
        # it is the grid's origin, the one cell that can keep the mark side
        keep[(0,) * m] &= col[(0,) * m] <= bound
        hits = np.flatnonzero(keep)
        pos = np.unravel_index(hits, lens) if m else ()
        if r0:
            np.add(pos[0], r0, out=pos[0])
        keys.append(_row_keys(col.reshape(-1)[hits] + sum(pos), pos, side))
        if not m or r1 == side:
            break
        # every column value is >= 0, so no cell at or above a zero of
        # the staircase in a later row is minimal
        live = np.argwhere(stair[-1] > 0)
        if not len(live):
            break
        widths[1:] = (live.max(axis=0) + 1).tolist()
        carry = stair[-1][tuple(slice(w) for w in widths[1:])]
        r0 = r1
    rows = _rows_from_keys(np.concatenate(keys), side, m)
    if not len(rows) or rows.max() >= bound:
        raise AssertionError(
            f"engine box of bound {bound} is too small for its generators; internal bug"
        )
    rows.flags.writeable = False
    return rows


def _multiplier_start(ideal: MonomialIdeal, c: Fraction) -> int:
    """The engine's start bound for J(ideal^c), checked before any
    Newton polyhedron is built: a prefix grid past ``_CELL_CAP`` is
    refused (at rank 8 or more every grid is, and facet enumeration
    there can take minutes)."""
    ring = ideal.ring
    start = math.ceil(c * ideal.max_coordinate) + ring.index + ring.rank
    side, m = start + 1, ring.rank - 1
    if side**m > _CELL_CAP:
        raise OutOfScaleError(
            f"prefix grid of {side}^{m} cells passes the cap; out of desk scale"
        )
    return start


def multiplier_monomials(ideal: MonomialIdeal, c) -> MonomialIdeal:
    """Minimal generators of the multiplier ideal of ``ideal`` at
    exponent ``c``: semigroup points v with v + s interior to c times
    the Newton polyhedron, s the ring's coordinate steps."""
    c = as_rational(c)
    if c <= 0:
        raise InvalidParametersError("exponent must be positive")
    start = _multiplier_start(ideal, c)
    facets = ideal.newton_polyhedron().facets
    # q<a, v + s> > p b in integers: q<a, v> >= p b - q<a, s> + 1
    p, q = c.numerator, c.denominator
    steps = ideal.ring.coordinate_steps
    normals = tuple(a for a, _ in facets)
    thresholds = tuple(p * b - q * sum(map(operator.mul, a, steps)) + 1 for a, b in facets)
    rows = _box_minimal_impl(ideal.ring, normals, thresholds, q, start)
    return MonomialIdeal._from_engine(ideal.ring, rows)


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
    normals = tuple(a for a, _ in poly.facets)
    offsets = tuple(b for _, b in poly.facets)
    out = MonomialIdeal._from_engine(ring, _box_minimal_impl(ring, normals, offsets, 1, start))
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
            "j_product_generators": self.j_product.rows.tolist(),
            "j_a_generators": self.j_a.rows.tolist(),
            "j_b_generators": self.j_b.rows.tolist(),
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "failures": [list(g) for g in self.failures],
        }


def _members_mask_box(
    box: np.ndarray, poly: NewtonPolyhedron, c: Fraction, ring: ToricRing
) -> np.ndarray:
    """Multiplier-ideal membership of every row of ``box`` (rows must
    lie in ``ring``'s lattice): row v is a member when v + s, s the
    ring's coordinate steps, passes every facet strictly."""
    p, q = c.numerator, c.denominator
    shifted = box + np.array(ring.coordinate_steps, dtype=np.int64)
    mask = np.ones(len(box), dtype=bool)
    for a, b in poly.facets:
        vals = q * (shifted @ np.array(a, dtype=np.int64))
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
    pts = pts[_lattice_mask(ring, pts)]
    in_a = _members_mask_box(pts, a.newton_polyhedron(), ca, ring)
    if not in_a.any():
        return True
    rest = np.array(w, dtype=np.int64) - pts[in_a]
    in_b = _members_mask_box(rest, b.newton_polyhedron(), cb, ring)
    return not in_b.any()


def _certify(
    a: MonomialIdeal, b: MonomialIdeal, ca: Fraction, cb: Fraction,
    mixed: MonomialIdeal, c_mixed: Fraction,
    j_product: MonomialIdeal, j_a: MonomialIdeal, j_b: MonomialIdeal,
) -> MonomialCertificate:
    """Test each generator g of ``j_product`` = J(mixed^c_mixed) against
    J(a^ca) J(b^cb), generated by the pairwise sums s (all in M). The
    staircase P[x'] = min of s_n over s' <= x' comes from scattering the
    sums into the prefix grid of ``j_product`` and ``_staircase``; g
    fails exactly when g_n < P[g']. As in the engine, P = 0 is final:
    the grid stops on each axis at the first sum (t e_i, 0)."""
    ga, gb, gens = j_a.rows, j_b.rows, j_product.rows
    if len(ga) * len(gb) > _CELL_CAP:
        raise OutOfScaleError(
            f"{len(ga)} x {len(gb)} generator sums pass the cap; out of desk scale"
        )
    sums = (ga[:, None, :] + gb[None, :, :]).reshape(-1, a.ring.rank)
    side = gens[:, :-1].max(axis=0, initial=0) + 1
    # every s_n is >= 0, so P = 0 at and past a sum (t e_i, 0) on any axis
    # i: the grid stops at the first such sum, and the generators past it
    # read P there
    zero = sums[sums[:, -1] == 0, :-1]
    axial = zero[(zero != 0).sum(axis=1) <= 1]
    if axial.size:
        np.minimum.at(side, axial.argmax(axis=1), axial.sum(axis=1) + 1)
    # a leading axis of length one keeps rank 1 (no prefix) array-shaped
    low = np.full((1, *side.tolist()), np.iinfo(np.int64).max, dtype=np.int64)
    inside = sums[(sums[:, :-1] < side).all(axis=1)]
    np.minimum.at(low, (np.zeros(len(inside), dtype=np.int64), *inside[:, :-1].T), inside[:, -1])
    at = np.minimum(gens[:, :-1], side - 1)
    lowest = _staircase(low)[0][(np.zeros(len(gens), dtype=np.int64), *at.T)]
    failures = tuple(map(tuple, gens[gens[:, -1] < lowest].tolist()))
    witness = failures[0] if failures else None
    exhaustive_recheck = False
    if witness is not None:
        w = np.array([witness], dtype=np.int64)
        if (sums <= w).all(axis=1).any() or not _members_mask_box(
            w, mixed.newton_polyhedron(), c_mixed, a.ring
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
        failures=failures,
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
    J(ab) for membership in J(a) J(b): the strong check at c = d = 1."""
    return strong_subadd_check_monomial(a, b, 1, 1)


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
    # refuse out-of-scale inputs before any Newton polyhedron is built
    _multiplier_start(a, c)
    _multiplier_start(b, d)
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
    return solve_linear([[pts[j][i] for j in range(n)] for i in range(n)], list(target))


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
    sampler reuses them every trial, as given; otherwise trials draw
    cyclic quotient rings 1/r(w) with r in [modulus_min, modulus_max]
    and, when ``gorenstein_only``, the last weight completing the sum
    to 0 mod r. The Gorenstein filter is a rule for drawing rings only:
    a pinned ring runs whether or not it is Gorenstein. Ideal
    generators are semigroup points with coordinates at most
    ``max_coordinate``. Everything is deterministic in ``seed``;
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
    # every trial runs (a pinned ring as given, drawn rings are filtered
    # as drawn), so this reads 0; the report format keeps the field
    trials_skipped: int = 0
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


def _sample_semigroup_point(
    rng: random.Random, ring: ToricRing, cap: int
) -> tuple[int, ...]:
    """A nonzero semigroup point with coordinates at most ``cap``, by
    rejection. ``rng.randrange(cap + 1)`` makes the draw of
    ``rng.randint(0, cap)``, and the ring's congruences, whose weights
    are already reduced, are tested without ``ToricRing.contains``."""
    draw, top, coords, congs = rng.randrange, cap + 1, range(ring.rank), ring.congruences
    for _ in range(400):
        v = tuple([draw(top) for _ in coords])
        if any(v) and not any(sum(map(operator.mul, w, v)) % r for w, r in congs):
            return v
    return tuple(ring.index if i == 0 else 0 for i in range(ring.rank))


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
    for trial in range(config.trials):
        rng = random.Random(f"{config.seed}:{trial}")
        if config.ring is not None:
            ring = config.ring
        else:
            r = rng.randint(config.modulus_min, config.modulus_max)
            weights = [rng.randrange(r) for _ in range(config.rank - 1)]
            if config.gorenstein_only:
                weights.append((-sum(weights)) % r)
            else:
                weights.append(rng.randrange(r))
            ring = cyclic_quotient_ring(r, weights)
        ideal_a = config.ideal_a or _sample_ideal(rng, ring, config)
        ideal_b = config.ideal_b or _sample_ideal(rng, ring, config)
        cert = subadditivity_check_monomial(ideal_a, ideal_b)
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
        trials_run=config.trials,
        violations=violations,
        notes=tuple(notes),
    )
