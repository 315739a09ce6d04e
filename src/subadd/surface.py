"""Resolution models of normal surface singularities.

A :class:`ResolutionModel` is built from a base dual graph (the minimal
resolution: curves with self-intersections and pairwise intersection
points) plus an ordered history of point blowups. Curves come in two
kinds:

* ``exceptional`` curves contract to the singular point; they are the
  curves that anti-nef conditions quantify over, and their intersection
  block must be negative definite;
* ``marked`` curves ride along in the calculus (strict transforms of
  divisors through the singularity, say) but never enter row tests or
  closure increments. Their self-intersection entry is a formal input:
  such curves are typically non-compact, so the number never feeds any
  mathematical conclusion.

On top of the model sits the cycle calculus: the relative canonical
divisor by adjunction, anti-nef tests and closures (the Laufer loop),
fundamental cycles, pullback/pushforward along the blowup history,
total transforms of marked curves, and multiplier-ideal cycles. All
curves are assumed rational (genus 0); the models cannot express higher
genus. Models are immutable after construction and every operation is
pure, so instances are safe to share across threads.

Two facts let a model do its rational linear algebra on the base graph
alone. Blow up a point P of a stage, with new curve E, and write pi^*C
for the total transform of an earlier exceptional curve C. Then
pi^*C . pi^*C' = C . C', pi^*C . E = 0 and E^2 = -1, and the strict
transforms pi^*C - m_P(C) E together with E span the same lattice as
the pullbacks together with E (a unitriangular change of basis; m_P(C)
is 1 when P lies on C, else 0). So the new exceptional block is
congruent over the integers to the old block plus one diagonal -1, and
by induction the final block is negative definite exactly when the
base block is: ``_build`` tests the base block alone. Likewise
K' = pi^*K + E satisfies adjunction on the new surface, K'.E = -1 =
-E^2 - 2 and K'.C' = K.C + m_P(C) = -C'^2 - 2 on a strict transform C',
so K is the stage-0 solve carried through the blowups, one coefficient
per blowup; one sweep of intersection rows re-checks adjunction on
every exceptional curve of the final surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .rationals import exact, is_negative_definite, solve_linear

EXCEPTIONAL = "exceptional"
MARKED = "marked"

# The Laufer loop provably terminates on a negative-definite block; the
# cap only turns an implementation bug into a loud failure.
_CLOSURE_ITERATION_CAP = 1_000_000


class ModelError(ValueError):
    """Base class for invalid model descriptions."""


class InvalidCenterError(ModelError):
    """A blowup center does not name curves that meet at that stage."""


class NotNegativeDefiniteError(ModelError):
    """The exceptional intersection block is not negative definite."""


class StageOutOfRangeError(IndexError):
    """A stage index outside 0..n_blowups."""


class NonIntegralError(ValueError):
    """A cycle coefficient that must be an integer is fractional."""


class NegativeMarkedError(ValueError):
    """A marked-curve coefficient that must stay nonnegative went negative."""


class NotAntiNefError(ValueError):
    """An operation required an anti-nef cycle."""


class InvalidParametersError(ValueError):
    """Catalog or counterexample parameters outside their domain."""


class Cycle:
    """Formal sum of curves with exact rational coefficients.

    Coefficients are stored sparsely by curve name in canonical form:
    zero coefficients are dropped, an integral one is an ``int`` and a
    fractional one a ``Fraction`` (see :func:`rationals.exact`), so
    equality and support queries are canonical and integral cycles cost
    no Fraction arithmetic. Cycles are immutable values; comparison is
    the componentwise partial order.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[str, object] | None = None):
        c: dict[str, int | Fraction] = {}
        if coeffs:
            for name, val in coeffs.items():
                q = val if type(val) is int else exact(val)
                if q:
                    c[str(name)] = q
        self._c = c

    def coeff(self, name: str) -> int | Fraction:
        return self._c.get(name, 0)

    def support(self) -> tuple[str, ...]:
        return tuple(sorted(self._c))

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def is_integral(self) -> bool:
        return all(type(q) is int for q in self._c.values())

    def is_effective(self) -> bool:
        return all(q >= 0 for q in self._c.values())

    def __add__(self, other: "Cycle") -> "Cycle":
        c = dict(self._c)
        for name, q in other._c.items():
            c[name] = c.get(name, 0) + q
        return Cycle(c)

    def __sub__(self, other: "Cycle") -> "Cycle":
        c = dict(self._c)
        for name, q in other._c.items():
            c[name] = c.get(name, 0) - q
        return Cycle(c)

    def __neg__(self) -> "Cycle":
        return Cycle({n: -q for n, q in self._c.items()})

    def __mul__(self, scalar) -> "Cycle":
        s = exact(scalar)
        return Cycle({n: s * q for n, q in self._c.items()})

    __rmul__ = __mul__

    def floor(self) -> "Cycle":
        return Cycle({n: math.floor(q) for n, q in self._c.items()})

    def ceil(self) -> "Cycle":
        return Cycle({n: math.ceil(q) for n, q in self._c.items()})

    def leq(self, other: "Cycle") -> bool:
        mine, theirs = self._c, other._c
        return all(q <= theirs.get(n, 0) for n, q in mine.items()) and all(
            q >= 0 for n, q in theirs.items() if n not in mine
        )

    def __le__(self, other: "Cycle") -> bool:
        return self.leq(other)

    def __ge__(self, other: "Cycle") -> bool:
        return other.leq(self)

    def __lt__(self, other: "Cycle") -> bool:
        return self.leq(other) and self != other

    def __eq__(self, other) -> bool:
        return isinstance(other, Cycle) and self._c == other._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def restrict(self, names: Iterable[str]) -> "Cycle":
        keep = set(names)
        return Cycle({n: q for n, q in self._c.items() if n in keep})

    def to_json_dict(self) -> dict[str, str]:
        return {n: str(q) for n, q in sorted(self._c.items())}

    @classmethod
    def from_json_dict(cls, d: Mapping[str, object]) -> "Cycle":
        return cls(d)

    def __repr__(self) -> str:
        if not self._c:
            return "Cycle(0)"
        parts = [f"{q}*{n}" for n, q in sorted(self._c.items())]
        return "Cycle(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class BaseCurve:
    name: str
    self_intersection: int
    kind: str


@dataclass(frozen=True)
class Blowup:
    name: str
    center_on: tuple[str, ...]


class ResolutionModel:
    """A base dual graph plus an ordered blowup history.

    Use :func:`build_model` (or the catalog constructors) rather than
    instantiating directly. Stage s means "after the first s blowups";
    stage 0 is the base graph, stage ``n_blowups`` the final surface.
    The model keeps two intersection forms, the base graph's and the
    final surface's. The surface of stage s is the final surface of the
    prefix model ``build_model(base_curves, base_edges, blowups[:s])``;
    everything the calculus needs about stage i is local to blowup E_i
    (E_i^2 = -1, E_i meets each of its center curves once).
    """

    def __init__(
        self,
        base_curves: Sequence[BaseCurve],
        base_edges: Sequence[tuple[str, str]],
        blowups: Sequence[Blowup],
    ):
        self.base_curves = tuple(base_curves)
        self.base_edges = tuple(base_edges)
        self.blowups = tuple(blowups)
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        names: list[str] = []
        kind: dict[str, str] = {}
        for c in self.base_curves:
            if not isinstance(c.name, str):
                raise ModelError(f"curve name {c.name!r} is not a string")
            if c.name in kind:
                raise ModelError(f"duplicate curve name {c.name!r}")
            if c.kind not in (EXCEPTIONAL, MARKED):
                raise ModelError(f"unknown curve kind {c.kind!r}")
            if type(c.self_intersection) is not int:
                raise ModelError("self-intersections must be integers")
            names.append(c.name)
            kind[c.name] = c.kind

        inter: dict[str, dict[str, int]] = {n: {m: 0 for m in names} for n in names}
        for c in self.base_curves:
            inter[c.name][c.name] = c.self_intersection
        for edge in self.base_edges:
            if not _is_names(edge) or len(edge) != 2:
                raise ModelError(f"edge {edge!r} is not a pair of curve names")
            a, b = edge
            if a not in kind or b not in kind:
                raise ModelError(f"edge ({a!r}, {b!r}) names an unknown curve")
            if a == b:
                raise ModelError("a curve cannot intersect itself in an SNC graph")
            inter[a][b] += 1
            inter[b][a] += 1
        self.base_edges = tuple(tuple(edge) for edge in self.base_edges)

        # the base graph, for the stage-0 solves; shared with the final
        # surface when nothing is blown up
        base = {n: dict(row) for n, row in inter.items()} if self.blowups else inter
        blowups = []
        for bl in self.blowups:
            if not isinstance(bl.name, str):
                raise ModelError(f"curve name {bl.name!r} is not a string")
            if bl.name in kind:
                raise ModelError(f"duplicate curve name {bl.name!r}")
            if not _is_names(bl.center_on):
                raise InvalidCenterError(f"center of {bl.name!r} is not a list of curve names")
            center = tuple(bl.center_on)
            if len(center) not in (1, 2) or len(set(center)) != len(center):
                raise InvalidCenterError(
                    f"center of {bl.name!r} must name 1 or 2 distinct curves"
                )
            for c in center:
                if c not in kind:
                    raise InvalidCenterError(
                        f"center of {bl.name!r} names {c!r}, absent at that stage"
                    )
            if len(center) == 2 and inter[center[0]][center[1]] < 1:
                raise InvalidCenterError(
                    f"center curves {center[0]!r}, {center[1]!r} do not meet "
                    f"when {bl.name!r} is blown up"
                )
            _blow_up(inter, bl.name, center)
            names.append(bl.name)
            kind[bl.name] = EXCEPTIONAL
            blowups.append(Blowup(bl.name, center))
        self.blowups = tuple(blowups)

        self.names: tuple[str, ...] = tuple(names)
        self.kind: dict[str, str] = kind
        self.exceptional: tuple[str, ...] = tuple(
            n for n in names if kind[n] == EXCEPTIONAL
        )
        self.marked: tuple[str, ...] = tuple(n for n in names if kind[n] == MARKED)
        self.n_blowups = len(self.blowups)
        self.blowup_names: tuple[str, ...] = tuple(b.name for b in self.blowups)
        self.center_of: dict[str, tuple[str, ...]] = {b.name: b.center_on for b in self.blowups}
        self.inter = inter
        self._base_inter = base
        # The nonzero entries of each final-surface row, for row sweeps.
        self._nonzero: dict[str, tuple[tuple[str, int], ...]] = {
            a: tuple((b, v) for b, v in row.items() if v) for a, row in self.inter.items()
        }

        # definiteness of the base block decides every stage's (module
        # docstring); the stage-0 solve seeds K, the blowups do the rest
        self._base_exceptional = tuple(
            c.name for c in self.base_curves if c.kind == EXCEPTIONAL
        )
        exc0 = self._base_exceptional
        self._base_block = [[base[a][b] for b in exc0] for a in exc0]
        if not is_negative_definite(self._base_block):
            raise NotNegativeDefiniteError(
                "exceptional intersection block is not negative definite"
            )
        base_k = self._base_solve([-base[e][e] - 2 for e in exc0])
        # den*K is integral: the recursion and its adjunction check run
        # on integers
        den = math.lcm(*(q.denominator for q in base_k.values()))
        big_k = _blowup_canonical(
            {n: q.numerator * (den // q.denominator) for n, q in base_k.items()},
            self.blowups,
            den,
        )
        rows = self.curve_rows(big_k.items())
        if any(rows[e] != den * (-inter[e][e] - 2) for e in self.exceptional):
            raise AssertionError("relative canonical divisor fails adjunction; internal bug")
        self._K = Cycle(big_k if den == 1 else {n: Fraction(v, den) for n, v in big_k.items()})
        self._blowup_pullbacks: tuple[Cycle, ...] | None = None

    def _base_solve(self, rhs: Sequence[int]) -> dict[str, Fraction]:
        """The stage-0 exceptional cycle x with x.E = rhs_E on each
        stage-0 exceptional curve E."""
        if not self._base_exceptional:
            return {}
        return dict(zip(self._base_exceptional, solve_linear(self._base_block, rhs)))

    # -- simple accessors -----------------------------------------------

    def stage_names(self, stage: int) -> tuple[str, ...]:
        self._check_stage(stage)
        n_base = len(self.base_curves)
        return self.names[: n_base + stage]

    def _check_stage(self, stage: int) -> None:
        if not 0 <= stage <= self.n_blowups:
            raise StageOutOfRangeError(
                f"stage {stage} outside 0..{self.n_blowups}"
            )

    def _validate_support(self, z: Cycle, stage: int | None = None) -> None:
        allowed = self.inter if stage is None else self.stage_names(stage)
        for n in z.support():
            if n not in allowed:
                raise ModelError(f"cycle names unknown curve {n!r}")

    def dot(self, z1: Cycle, z2: Cycle) -> int | Fraction:
        """Intersection number of two cycles on the final surface."""
        self._validate_support(z1)
        self._validate_support(z2)
        total = 0
        for a, qa in z1.items():
            row = self.inter[a]
            for b, qb in z2.items():
                if row[b]:
                    total += qa * qb * row[b]
        return total

    def curve_rows(
        self, coeffs: Iterable[tuple[str, int | Fraction]]
    ) -> dict[str, int | Fraction]:
        """z.C for every curve C of the final surface, in one sweep.

        ``coeffs`` is the (name, coefficient) pairs of z in
        :func:`rationals.exact` form, names assumed valid, so an
        integral cycle costs no Fraction arithmetic.
        """
        rows: dict[str, int | Fraction] = dict.fromkeys(self.names, 0)
        for a, q in coeffs:
            for b, v in self._nonzero[a]:
                rows[b] += q * v
        return rows

    # -- canonical divisors ----------------------------------------------

    @property
    def relative_canonical(self) -> Cycle:
        """K, supported on exceptional curves, with K.E = -E^2 - 2."""
        return self._K

    def is_log_terminal(self) -> bool:
        """True when every discrepancy exceeds -1.

        Cross-checked against the equivalent formulation: the
        multiplier cycle of the unit ideal vanishes.
        """
        lt = all(self._K.coeff(e) > -1 for e in self.exceptional)
        unit = self.multiplier_cycle(Cycle(), 1)
        if lt != unit.is_zero():
            raise AssertionError("log-terminal criteria disagree; internal bug")
        return lt

    # -- anti-nef calculus -------------------------------------------------

    def is_anti_nef(self, z: Cycle) -> bool:
        """Effective, and nonpositive against every exceptional curve."""
        self._validate_support(z)
        if not z.is_effective():
            return False
        rows = self.curve_rows(z.items())
        return all(rows[e] <= 0 for e in self.exceptional)

    def anti_nef_closure(
        self, z: Cycle, choose: Callable[[list[str]], str] | None = None
    ) -> Cycle:
        """Minimal anti-nef cycle above ``z``.

        Exceptional coefficients must be integers (floor first if
        needed) and are clamped below at 0; marked coefficients must be
        nonnegative integers and pass through untouched. The loop
        raises the coefficient of a violating exceptional curve by one
        until no row is positive; ``choose`` picks among violating
        curves (default: smallest index), and the result is independent
        of that choice.
        """
        self._validate_support(z)
        work: dict[str, int] = {}
        for name, v in z.items():
            if type(v) is not int:
                raise NonIntegralError(f"coefficient of {name!r} is not an integer")
            if self.kind[name] == MARKED:
                if v < 0:
                    raise NegativeMarkedError(
                        f"marked coefficient of {name!r} is negative"
                    )
                work[name] = v
            else:
                work[name] = max(v, 0)

        rows = self.curve_rows(work.items())
        for _ in range(_CLOSURE_ITERATION_CAP):
            bad = [e for e in self.exceptional if rows[e] > 0]
            if not bad:
                return Cycle(work)
            pick = bad[0] if choose is None else choose(bad)
            work[pick] = work.get(pick, 0) + 1
            for b, v in self._nonzero[pick]:
                rows[b] += v
        raise AssertionError("anti-nef closure did not terminate; internal bug")

    def fundamental_cycle(self) -> Cycle:
        """Minimal nonzero anti-nef cycle on the exceptional locus.

        Assumes the exceptional locus is connected (always the case for
        a resolution of a normal local ring); on a disconnected graph
        this returns the sum of the per-component fundamental cycles.
        """
        if not self.exceptional:
            raise InvalidParametersError("model has no exceptional curves")
        return self.anti_nef_closure(Cycle({e: 1 for e in self.exceptional}))

    # -- history transport --------------------------------------------------

    def pushforward(self, z: Cycle, stage: int) -> Cycle:
        """Drop the coefficients of curves created after ``stage``."""
        self._check_stage(stage)
        self._validate_support(z)
        return z.restrict(self.stage_names(stage))

    def pullback(self, stage: int, z: Cycle) -> Cycle:
        """Total transform of a stage-``stage`` cycle on the final surface.

        Each later blowup adds the multiplicity of its center, the sum
        of the coefficients of the curves through it.
        """
        self._check_stage(stage)
        self._validate_support(z, stage)
        w = dict(z.items())
        for bl in self.blowups[stage:]:
            m = sum(w.get(c, 0) for c in bl.center_on)
            if m:
                w[bl.name] = m
        return Cycle(w)

    def blowup_pullbacks(self) -> tuple[Cycle, ...]:
        """Total transforms on the final surface of the blowup curves,
        in blowup order; computed on first use."""
        if self._blowup_pullbacks is None:
            self._blowup_pullbacks = tuple(
                self.pullback(i + 1, Cycle({name: 1}))
                for i, name in enumerate(self.blowup_names)
            )
        return self._blowup_pullbacks

    def total_transform_marked(self, name: str) -> Cycle:
        """f*D for a marked curve D: the strict transform plus the unique
        exceptional correction orthogonal to every exceptional curve.

        Solved on the base graph and pulled back: a pullback stays
        orthogonal to every exceptional curve of the later stages.
        """
        if self.kind.get(name) != MARKED:
            raise ModelError(f"{name!r} is not a marked curve")
        base = self._base_solve([-self._base_inter[name][e] for e in self._base_exceptional])
        base[name] = 1
        result = self.pullback(0, Cycle(base))
        rows = self.curve_rows(result.items())
        if any(rows[e] for e in self.exceptional):
            raise AssertionError("total transform not orthogonal; internal bug")
        return result

    # -- multiplier ideals --------------------------------------------------

    def multiplier_cycle(self, z: Cycle, c) -> Cycle:
        """Cycle of the multiplier ideal of the ideal with cycle ``z``,
        at exponent ``c``: the anti-nef closure of floor(c*z - K)."""
        c = exact(c)
        if c <= 0:
            raise InvalidParametersError("exponent must be positive")
        if not self.is_anti_nef(z):
            raise NotAntiNefError("multiplier cycles need an anti-nef input cycle")
        fl = (c * z - self._K).floor()
        for name in fl.support():
            if self.kind[name] == MARKED and fl.coeff(name) < 0:
                raise NegativeMarkedError(
                    f"marked coefficient of {name!r} floors below zero"
                )
        return self.anti_nef_closure(fl)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "base_curves": [
                {
                    "name": c.name,
                    "self_intersection": c.self_intersection,
                    "kind": c.kind,
                }
                for c in self.base_curves
            ],
            "base_edges": [[a, b] for a, b in self.base_edges],
            "blowups": [
                {"name": b.name, "center_on": list(b.center_on)} for b in self.blowups
            ],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ResolutionModel":
        lists = ("base_curves", "base_edges", "blowups")
        curves, edges, blowups = json_fields(d, (), "model", lists)
        curve_keys = ("name", "self_intersection", "kind")
        base = [BaseCurve(*json_fields(c, curve_keys, "base curve")) for c in curves or []]
        blowups = [Blowup(*json_fields(b, ("name", "center_on"), "blowup")) for b in blowups or []]
        return cls(base, edges or [], blowups)

    def __repr__(self) -> str:
        weights = ", ".join(f"{n}({self.inter[n][n]})" for n in self.names)
        return f"ResolutionModel[{weights}]"


def json_fields(
    d, required: Sequence[str], what: str, optional: Sequence[str] = ()
) -> list:
    """The values of the ``required`` keys, then of the ``optional``
    ones (None when absent), of the input object ``d``. Anything but a
    JSON object, an object without a required key, or one with any
    other key is refused: a misspelt key would otherwise be dropped,
    and a different input would run."""
    if not isinstance(d, Mapping):
        raise InvalidParametersError(f"{what} is not a JSON object")
    unknown = [k for k in d if k not in required and k not in optional]
    if unknown:
        raise InvalidParametersError(f"{what} has unknown keys {unknown}")
    missing = [k for k in required if k not in d]
    if missing:
        raise InvalidParametersError(f"{what} lacks keys {missing}")
    return [d.get(k) for k in (*required, *optional)]


def _is_names(value) -> bool:
    """A list or tuple of strings: names are never coerced with str()."""
    return isinstance(value, (tuple, list)) and all(isinstance(n, str) for n in value)


def _blow_up(inter: dict[str, dict[str, int]], new: str, center: Sequence[str]) -> None:
    """Blow up, in place, a point of the curves ``center`` (one curve, or
    two that meet there): the new curve is a (-1)-curve meeting each
    center curve once, each center curve drops by one, and two center
    curves no longer meet at that point."""
    for row in inter.values():
        row[new] = 0
    inter[new] = dict.fromkeys(inter, 0)
    inter[new][new] = -1
    for c in center:
        inter[c][c] -= 1
        inter[new][c] = 1
        inter[c][new] = 1
    if len(center) == 2:
        inter[center[0]][center[1]] -= 1
        inter[center[1]][center[0]] -= 1


def _blowup_canonical(
    base_k: Mapping[str, int], blowups: Sequence[Blowup], den: int
) -> dict[str, int]:
    """den*K on the final surface from den*K on the base graph.

    Blowing up a point P gives K' = pi^*K + E: the new curve gets the
    K-mass of P (the sum of the coefficients of the curves through it;
    marked curves carry none) plus one, and no earlier coefficient moves.
    """
    k = dict(base_k)
    for bl in blowups:
        k[bl.name] = sum(k.get(c, 0) for c in bl.center_on) + den
    return k


def build_model(
    base_curves: Sequence[tuple[str, int, str] | BaseCurve],
    base_edges: Sequence[tuple[str, str]] = (),
    blowups: Sequence[tuple[str, Sequence[str]] | Blowup] = (),
) -> ResolutionModel:
    """Build and validate a resolution model.

    ``base_curves`` entries are (name, self_intersection, kind) with
    kind "exceptional" or "marked"; ``blowups`` entries are
    (new_curve_name, center_curve_names) with centers of size 1 (smooth
    point on one curve) or 2 (an intersection point of two curves that
    meet at that stage).
    """
    bc = [c if isinstance(c, BaseCurve) else BaseCurve(c[0], c[1], c[2]) for c in base_curves]
    bl = [b if isinstance(b, Blowup) else Blowup(b[0], b[1]) for b in blowups]
    return ResolutionModel(bc, base_edges, bl)


# -- catalogs ------------------------------------------------------------


def hj_weights(r: int, a: int) -> list[int]:
    """Hirzebruch-Jung continued fraction weights of r/a (all >= 2)."""
    if not (isinstance(r, int) and isinstance(a, int) and r > a >= 1):
        raise InvalidParametersError("need integers r > a >= 1")
    if math.gcd(r, a) != 1:
        raise InvalidParametersError("r and a must be coprime")
    weights = []
    p, q = r, a
    while q:
        b = -(-p // q)
        weights.append(b)
        p, q = q, b * q - p
    return weights


def hj_chain(r: int, a: int) -> ResolutionModel:
    """Minimal resolution of the cyclic quotient surface singularity of
    type 1/r(1, a): a chain of rational curves with the continued
    fraction weights. Always log terminal."""
    weights = hj_weights(r, a)
    names = [f"E{i + 1}" for i in range(len(weights))]
    curves = [(n, -w, EXCEPTIONAL) for n, w in zip(names, weights)]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    return build_model(curves, edges)


_ADE_LEGS = {"E6": 5, "E7": 6, "E8": 7}


def ade(label: str) -> ResolutionModel:
    """Minimal resolution dual graph of a rational double point.

    Labels: An (n >= 1), Dn (n >= 4), E6, E7, E8. All curves are -2.
    """
    label = label.strip().upper()
    family, num = label[:1], label[1:]
    if family not in "ADE" or not num.isdigit():
        raise InvalidParametersError(f"unknown ADE label {label!r}")
    n = int(num)
    edges: list[tuple[str, str]] = []
    if family == "A":
        if n < 1:
            raise InvalidParametersError("An needs n >= 1")
        names = [f"E{i + 1}" for i in range(n)]
        edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    elif family == "D":
        if n < 4:
            raise InvalidParametersError("Dn needs n >= 4")
        names = [f"E{i + 1}" for i in range(n)]
        edges = [(names[i], names[i + 1]) for i in range(n - 3)]
        edges += [(names[n - 3], names[n - 2]), (names[n - 3], names[n - 1])]
    else:
        if label not in _ADE_LEGS:
            raise InvalidParametersError("En needs n in {6, 7, 8}")
        chain = _ADE_LEGS[label]
        names = [f"E{i + 1}" for i in range(chain)] + ["E0"]
        edges = [(names[i], names[i + 1]) for i in range(chain - 1)]
        edges.append(("E3", "E0"))
    curves = [(name, -2, EXCEPTIONAL) for name in names]
    return build_model(curves, edges)
