"""Proximity matrices, d-coordinates and computation sequences.

Writing a cycle on the final surface as

    Z = (pullback of its stage-0 pushforward) + sum_i d_i * (pullback of E_i)

turns the anti-nef condition into sign conditions on the proximity
matrix P, and the anti-nef closure of Z - ceil(K) into a short integer
process on the d-vector (the classical unloading computation). This
module implements that machinery, the paired sequences that compare
the closures of F_a, F_b and F_a + F_b, subadditivity certificates for
pairs of anti-nef cycles, the closed-form closure formula available
when K is integral, and the two strong-subadditivity counterexample
constructions on non-regular log terminal models.

The proximity relation is derived twice, from the blowup history and
from intersection numbers of pullbacks against strict transforms, and
the two derivations are cross-asserted.

A note on the anti-nef test in d-coordinates: the row value of Z
against the strict transform of a stage-0 curve C is

    (pushforward of Z).C  +  sum of d_i over blowups centered on C,

not the first term alone; dropping the correction makes the test
accept cycles that fail anti-nefness directly (blow up one point of a
-2 curve F and test Z = F + 4*E_1). The d-test in ``tests/_oracles.py``
uses the corrected rows, which makes it agree with the direct test on
every cycle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .surface import (
    EXCEPTIONAL,
    Cycle,
    InvalidParametersError,
    NonIntegralError,
    NotAntiNefError,
    ResolutionModel,
    build_model,
)

_SEQUENCE_STEP_CAP = 1_000_000


class NoLambdaError(ValueError):
    """ceil(K) is not a 0/1 combination of exceptional pullbacks."""


class ClassificationViolationError(RuntimeError):
    """A paired-sequence triple matched none of the four legal forms."""


class NotGorensteinError(ValueError):
    """The closed-form closure formula needs an integral K."""


class NoQualifyingCycleError(ValueError):
    """The reducible counterexample search box contains no usable cycle."""


@dataclass(frozen=True)
class ProximityData:
    """Proximity structure of a model's blowup history.

    ``matrix`` is indexed by blowup order: the (i, j) entry is 1 on the
    diagonal, -1 when blowup j is centered on the strict transform of
    blowup curve i, and 0 otherwise. ``prox`` maps each blowup curve to
    the earlier blowup curves its center lies on, ``prox_base`` to the
    stage-0 curves its center lies on, and ``order`` is the transitive
    closure of ``prox``.
    """

    model: ResolutionModel
    matrix: tuple[tuple[int, ...], ...]
    prox: dict[str, frozenset[str]]
    prox_base: dict[str, frozenset[str]]
    pullbacks: dict[str, Cycle]
    order: dict[str, frozenset[str]]


def proximity_data(model: ResolutionModel) -> ProximityData:
    names = model.blowup_names
    n = len(names)
    base = set(model.stage_names(0))

    prox: dict[str, frozenset[str]] = {}
    prox_base: dict[str, frozenset[str]] = {}
    for name in names:
        center = set(model.center_of[name])
        prox[name] = frozenset(center - base)
        prox_base[name] = frozenset(center & base)

    pullbacks = dict(zip(names, model.blowup_pullbacks()))

    # Independent derivation: E_i is proximate to E_j exactly when the
    # pullback of E_i meets the strict transform of E_j on the final
    # surface; same for stage-0 curves. Pin down the sign convention.
    for ei in names:
        rows = model.curve_rows(pullbacks[ei].items())
        from_inter = frozenset(ej for ej in names if ej != ei and rows[ej] > 0)
        if from_inter != prox[ei]:
            raise AssertionError("proximity derivations disagree; internal bug")
        base_inter = frozenset(c for c in base if rows[c] > 0)
        if base_inter != prox_base[ei]:
            raise AssertionError("base proximity derivations disagree; internal bug")

    matrix = tuple(
        tuple(
            1 if i == j else (-1 if names[i] in prox[names[j]] else 0)
            for j in range(n)
        )
        for i in range(n)
    )

    order: dict[str, set[str]] = {name: set(prox[name]) for name in names}
    for name in names:  # transitive closure; creation order respects prox
        for t in list(order[name]):
            order[name] |= order[t]
    return ProximityData(
        model=model,
        matrix=matrix,
        prox=prox,
        prox_base=prox_base,
        pullbacks=pullbacks,
        order={k: frozenset(v) for k, v in order.items()},
    )


@dataclass(frozen=True)
class DCoordinates:
    """A cycle written as pullback of its stage-0 part plus a d-vector
    over the blowup curves (aligned with the model's blowup order)."""

    base: Cycle
    d: tuple[int | Fraction, ...]


def d_coordinates(model: ResolutionModel, z: Cycle) -> DCoordinates:
    """Decompose ``z``; exact, and the basis always spans."""
    base = model.pushforward(z, 0)
    rest = dict((z - model.pullback(0, base)).items())
    d: list[int | Fraction] = []
    for name, pb in zip(model.blowup_names, model.blowup_pullbacks()):
        di = rest.get(name, 0)
        d.append(di)
        if di:
            for n, q in pb.items():
                rest[n] = rest.get(n, 0) - di * q
    if any(rest.values()):
        raise AssertionError("d-coordinate remainder nonzero; internal bug")
    return DCoordinates(base=base, d=tuple(d))


def from_d_coordinates(model: ResolutionModel, dc: DCoordinates) -> Cycle:
    z = dict(model.pullback(0, dc.base).items())
    for pb, di in zip(model.blowup_pullbacks(), dc.d):
        if di:
            for n, q in pb.items():
                z[n] = z.get(n, 0) + di * q
    return Cycle(z)


def _pd_rows(matrix, d: Sequence[int | Fraction]) -> list[int | Fraction]:
    return [sum(pij * dj for pij, dj in zip(row, d)) for row in matrix]


def lambda_set(model: ResolutionModel) -> tuple[int, ...]:
    """Indices L (into the blowup order) with ceil(K) equal to the sum
    of the pullbacks of E_i over i in L; raises NoLambdaError when no
    such subset exists."""
    ceil_k = model.relative_canonical.ceil()
    dc = d_coordinates(model, ceil_k)
    if dc.base:
        raise NoLambdaError("ceil(K) has a nonzero stage-0 part")
    lam = []
    for i, di in enumerate(dc.d):
        if di == 1:
            lam.append(i)
        elif di != 0:
            raise NoLambdaError("ceil(K) is not a 0/1 sum of pullbacks")
    return tuple(lam)


@dataclass
class ComputationTrace:
    """One run of the d-vector process for the closure of Z - ceil(K).

    ``d_steps[0]`` is the initial vector (original d lowered by one on
    the Lambda indices where positive); each later step raises the
    chosen index by one and lowers its positive proximate indices.
    """

    model: ResolutionModel
    start: Cycle
    lam: tuple[int, ...]
    d_start: tuple[int, ...]
    d_steps: list[tuple[int, ...]]
    chosen: list[int]
    final_cycle: Cycle

    @property
    def final_d(self) -> tuple[int, ...]:
        return self.d_steps[-1]


def _initial_step(d: Sequence[int], lam: Sequence[int]) -> tuple[int, ...]:
    out = list(d)
    for i in lam:
        if out[i] > 0:
            out[i] -= 1
    return tuple(out)


def _apply_step(d: Sequence[int], j: int, prox: ProximityData) -> tuple[int, ...]:
    # Raise index j; lower every positive index proximate to j, i.e.
    # the -1 entries of row j of the proximity matrix.
    out = list(d)
    out[j] += 1
    for i, pji in enumerate(prox.matrix[j]):
        if pji == -1 and out[i] > 0:
            out[i] -= 1
    return tuple(out)


def _raise_negative_rows(
    d: tuple[int, ...], prox: ProximityData, choose: Callable[[list[int]], int] | None = None
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Step from ``d`` until no P-row is negative, each time raising
    the first negative index (or the one ``choose`` picks): the vectors
    after ``d`` and the chosen indices."""
    steps: list[tuple[int, ...]] = []
    chosen: list[int] = []
    for _ in range(_SEQUENCE_STEP_CAP):
        negative = [j for j, v in enumerate(_pd_rows(prox.matrix, d)) if v < 0]
        if not negative:
            return steps, chosen
        j = negative[0] if choose is None else choose(negative)
        d = _apply_step(d, j, prox)
        steps.append(d)
        chosen.append(j)
    raise AssertionError("computation sequence did not terminate; internal bug")


def computation_sequence(
    model: ResolutionModel,
    z: Cycle,
    choose: Callable[[list[int]], int] | None = None,
    prox: ProximityData | None = None,
) -> ComputationTrace:
    """Run the d-vector process for the closure of ``z - ceil(K)``.

    ``z`` must be an effective anti-nef cycle with integer
    coefficients. The process repeatedly picks an index whose P-row is
    negative (default: the smallest) and applies the step rule; the
    final cycle is the anti-nef closure of z - ceil(K), whatever the
    choices.
    """
    if not z.is_integral():
        raise NonIntegralError("computation sequences need integral cycles")
    if not model.is_anti_nef(z):
        raise NotAntiNefError("computation sequences start from anti-nef cycles")
    if prox is None:
        prox = proximity_data(model)
    lam = lambda_set(model)
    dc = d_coordinates(model, z)
    d0 = dc.d
    d = _initial_step(d0, lam)
    more, chosen = _raise_negative_rows(d, prox, choose)
    steps = [d, *more]
    final = from_d_coordinates(model, DCoordinates(dc.base, steps[-1]))
    return ComputationTrace(
        model=model,
        start=z,
        lam=lam,
        d_start=d0,
        d_steps=steps,
        chosen=chosen,
        final_cycle=final,
    )


_TRIPLE_FORMS = (
    "unchanged",
    "both lowered",
    "a lowered, b zero",
    "b lowered, a zero",
)


@dataclass
class PairedSequences:
    """Coupled computation sequences for F_a, F_b and F_a + F_b."""

    model: ResolutionModel
    c_trace: ComputationTrace
    a_steps: list[tuple[int, ...]]
    b_steps: list[tuple[int, ...]]
    k_c: int
    triples: list[tuple[int, int, int]]
    triple_forms: list[str]
    final_a_d: tuple[int, ...]
    final_b_d: tuple[int, ...]
    final_c_d: tuple[int, ...]
    final_a: Cycle
    final_b: Cycle
    final_c: Cycle
    inequality_holds: bool
    strict_at: tuple[str, ...]


def _classify_triple(a0: int, b0: int, a: int, b: int, c: int) -> str:
    if (a, b, c) == (a0, b0, a0 + b0):
        return _TRIPLE_FORMS[0]
    if (a, b, c) == (a0 - 1, b0 - 1, a0 + b0 - 1):
        return _TRIPLE_FORMS[1]
    if b0 == 0 and (a, b, c) == (a0 - 1, 0, a0 - 1):
        return _TRIPLE_FORMS[2]
    if a0 == 0 and (a, b, c) == (0, b0 - 1, b0 - 1):
        return _TRIPLE_FORMS[3]
    raise ClassificationViolationError(
        f"triple {(a, b, c)} with originals {(a0, b0)} matches no legal form"
    )


def paired_sequences(
    model: ResolutionModel, f_a: Cycle, f_b: Cycle
) -> PairedSequences:
    """Run the coupled process that proves the subadditivity inequality.

    The sequence for F_c = F_a + F_b drives both side tracks: a step of
    the c-sequence at index j is mirrored onto the a-track when the
    original a_j is positive (likewise b), after which both tracks are
    extended to full computation sequences. The per-index triples at
    the end of the c-sequence are classified against the four legal
    forms, and the componentwise inequality

        final_a + final_b <= final_c

    is verified and returned.
    """
    for z in (f_a, f_b):
        if not z.is_integral():
            raise NonIntegralError("ideal cycles must be integral")
        if not model.is_anti_nef(z):
            raise NotAntiNefError("subadditivity checks need anti-nef cycles")
    prox = proximity_data(model)
    names = model.blowup_names

    dc_a = d_coordinates(model, f_a)
    dc_b = d_coordinates(model, f_b)
    a0 = dc_a.d
    b0 = dc_b.d

    c_trace = computation_sequence(model, f_a + f_b, prox=prox)
    a = _initial_step(a0, c_trace.lam)
    b = _initial_step(b0, c_trace.lam)
    a_steps = [a]
    b_steps = [b]
    for j in c_trace.chosen:
        if a0[j] > 0:
            a = _apply_step(a, j, prox)
        if b0[j] > 0:
            b = _apply_step(b, j, prox)
        a_steps.append(a)
        b_steps.append(b)

    k_c = len(c_trace.chosen)
    c_final = c_trace.final_d
    triples = [(a[i], b[i], c_final[i]) for i in range(len(names))]
    forms = [
        _classify_triple(a0[i], b0[i], a[i], b[i], c_final[i])
        for i in range(len(names))
    ]

    a_steps += _raise_negative_rows(a, prox)[0]
    b_steps += _raise_negative_rows(b, prox)[0]
    a_final, b_final = a_steps[-1], b_steps[-1]

    cyc_a = from_d_coordinates(model, DCoordinates(dc_a.base, a_final))
    cyc_b = from_d_coordinates(model, DCoordinates(dc_b.base, b_final))
    cyc_c = c_trace.final_cycle

    total = cyc_a + cyc_b
    holds = total.leq(cyc_c)
    strict = tuple(
        n for n in sorted(set(total.support()) | set(cyc_c.support()))
        if total.coeff(n) < cyc_c.coeff(n)
    )
    return PairedSequences(
        model=model,
        c_trace=c_trace,
        a_steps=a_steps,
        b_steps=b_steps,
        k_c=k_c,
        triples=triples,
        triple_forms=forms,
        final_a_d=a_final,
        final_b_d=b_final,
        final_c_d=c_final,
        final_a=cyc_a,
        final_b=cyc_b,
        final_c=cyc_c,
        inequality_holds=holds,
        strict_at=strict,
    )


@dataclass
class SubadditivityCertificate:
    """Closures of F_a - ceil(K), F_b - ceil(K) and F_a + F_b - ceil(K),
    with the verdict of the componentwise comparison.

    ``verdict`` is True when cycle_a + cycle_b <= cycle_ab, which is the
    cycle-level form of the multiplier-ideal inclusion J(ab) within
    J(a)J(b); ``witness`` names the first curve breaking it otherwise.
    ``strict_at`` lists curves where the inequality is strict, i.e.
    where the inclusion is proper.
    """

    model: ResolutionModel
    f_a: Cycle
    f_b: Cycle
    cycle_a: Cycle
    cycle_b: Cycle
    cycle_ab: Cycle
    verdict: bool
    witness: str | None
    strict_at: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "cycle_a": self.cycle_a.to_json_dict(),
            "cycle_b": self.cycle_b.to_json_dict(),
            "cycle_ab": self.cycle_ab.to_json_dict(),
            "verdict": self.verdict,
            "witness": self.witness,
            "strict_at": list(self.strict_at),
        }


def subadditivity_check_2d(
    model: ResolutionModel, f_a: Cycle, f_b: Cycle
) -> SubadditivityCertificate:
    """Decide the subadditivity inclusion for two anti-nef cycles.

    The three closures are computed by the direct Laufer loop and, when
    a Lambda set exists, cross-checked against the d-vector sequences.
    A warning is emitted on non-log-terminal models, where the verdict
    can be negative.
    """
    if not model.is_log_terminal():
        warnings.warn(
            "model is not log terminal; subadditivity can fail", stacklevel=2
        )
    # paired_sequences validates f_a and f_b before it looks for Lambda,
    # so a NoLambdaError means both inputs passed
    try:
        paired = paired_sequences(model, f_a, f_b)
    except NoLambdaError:
        paired = None
    ceil_k = model.relative_canonical.ceil()
    cycle_a = model.anti_nef_closure(f_a - ceil_k)
    cycle_b = model.anti_nef_closure(f_b - ceil_k)
    cycle_ab = model.anti_nef_closure(f_a + f_b - ceil_k)

    if paired is not None and (
        paired.final_a != cycle_a
        or paired.final_b != cycle_b
        or paired.final_c != cycle_ab
    ):
        raise AssertionError("sequence closures disagree with oracle; internal bug")

    total = cycle_a + cycle_b
    verdict = total.leq(cycle_ab)
    witness = None
    if not verdict:
        for n in model.names:
            if total.coeff(n) > cycle_ab.coeff(n):
                witness = n
                break
    strict = tuple(
        n for n in model.names if total.coeff(n) < cycle_ab.coeff(n)
    )
    return SubadditivityCertificate(
        model=model,
        f_a=f_a,
        f_b=f_b,
        cycle_a=cycle_a,
        cycle_b=cycle_b,
        cycle_ab=cycle_ab,
        verdict=verdict,
        witness=witness,
        strict_at=strict,
    )


def _stage_row(model: ResolutionModel, z: Cycle, name: str) -> int | Fraction:
    """The stage-i pushforward of ``z`` against blowup curve E_i on the
    stage-i surface, where E_i^2 = -1 and E_i meets each of its center
    curves once and no other curve."""
    return sum(z.coeff(c) for c in model.center_of[name]) - z.coeff(name)


def gorenstein_closure_formula(model: ResolutionModel, z: Cycle) -> Cycle:
    """Closed form for the closure of Z - K when K is integral:

        Z - K + sum of pullback(E_i) over blowups i whose stage-i
        pushforward of Z is orthogonal to E_i.

    Raises NotGorensteinError on fractional K. The result equals the
    Laufer-loop closure on every integral-K model; the analogous
    formula with ceil(K) fails in general (see
    :func:`naive_ceil_closure_formula`).
    """
    k = model.relative_canonical
    if not k.is_integral():
        raise NotGorensteinError("relative canonical divisor is not integral")
    if not z.is_integral():
        raise NonIntegralError("the closure formula needs an integral cycle")
    if not model.is_anti_nef(z):
        raise NotAntiNefError("the closure formula needs an anti-nef cycle")
    result = z - k
    for name, pb in zip(model.blowup_names, model.blowup_pullbacks()):
        if _stage_row(model, z, name) == 0:
            result = result + pb
    return result


def naive_ceil_closure_formula(model: ResolutionModel, z: Cycle) -> Cycle:
    """The ceil(K) analog of the integral-K closure formula.

    Adds pullback(E_i) when the stage-i pushforward of Z is orthogonal
    to E_i and rounding commutes with the i-th pullback step of the
    stage canonicals. A blowup keeps every earlier coefficient of K and
    gives E_i the K-mass of its center plus one, so rounding commutes
    exactly when ceil(K_{E_i}) is the ceil-K mass of the center plus
    one (a marked curve carries none). This candidate does not compute
    the closure in general; it exists to demonstrate the failure on
    fractional-K models.
    """
    if not model.is_anti_nef(z):
        raise NotAntiNefError("the closure formula needs an anti-nef cycle")
    ceil_k = model.relative_canonical.ceil()
    result = z - ceil_k
    for name, pb in zip(model.blowup_names, model.blowup_pullbacks()):
        mass = sum(ceil_k.coeff(c) for c in model.center_of[name])
        if ceil_k.coeff(name) == mass + 1 and _stage_row(model, z, name) == 0:
            result = result + pb
    return result


@dataclass
class IrreducibleCounterexample:
    """Strong subadditivity failing over an irreducible exceptional locus.

    One curve of self-intersection -k on the minimal resolution, blown
    up once; Z = 2(k+1)E1 + 2E2. The multiplier cycles at exponents
    1/(k+1) and 2/(k+1) violate the inclusion of J(I^{2/(k+1)}) in
    J(I^{1/(k+1)})^2.
    """

    k: int
    model: ResolutionModel
    z: Cycle
    cycle_single: Cycle
    cycle_double: Cycle
    inclusion_holds: bool
    witness: str | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "z": self.z.to_json_dict(),
            "cycle_single_exponent": self.cycle_single.to_json_dict(),
            "cycle_double_exponent": self.cycle_double.to_json_dict(),
            "inclusion_holds": self.inclusion_holds,
            "witness": self.witness,
        }


def strong_subadd_counterexample_irreducible(k: int) -> IrreducibleCounterexample:
    if not isinstance(k, int) or k < 2:
        raise InvalidParametersError("need an integer k >= 2")
    model = build_model(
        [("E2", -k, EXCEPTIONAL)],
        [],
        [("E1", ["E2"])],
    )
    z = Cycle({"E1": 2 * (k + 1), "E2": 2})
    if not model.is_anti_nef(z):
        raise AssertionError("construction cycle not anti-nef; internal bug")
    single = model.multiplier_cycle(z, Fraction(1, k + 1))
    double = model.multiplier_cycle(z, Fraction(2, k + 1))
    holds = (2 * single).leq(double)
    witness = None
    if not holds:
        witness = next(
            n for n in model.names if double.coeff(n) < 2 * single.coeff(n)
        )
    return IrreducibleCounterexample(
        k=k,
        model=model,
        z=z,
        cycle_single=single,
        cycle_double=double,
        inclusion_holds=holds,
        witness=witness,
    )


@dataclass
class ReducibleCounterexample:
    """Strong subadditivity failing over a reducible exceptional locus.

    On a log terminal minimal resolution with reducible exceptional
    locus, a cycle Z between the fundamental cycle and n times it (and
    with a nonzero floor of Z/n) makes J(I) escape J(I^{1/n})^n.
    """

    model: ResolutionModel
    n: int
    fundamental: Cycle
    z: Cycle
    cycle_whole: Cycle
    cycle_fraction: Cycle
    inclusion_holds: bool
    witness: str | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "fundamental": self.fundamental.to_json_dict(),
            "z": self.z.to_json_dict(),
            "cycle_whole": self.cycle_whole.to_json_dict(),
            "cycle_fraction": self.cycle_fraction.to_json_dict(),
            "inclusion_holds": self.inclusion_holds,
            "witness": self.witness,
        }


def strong_subadd_counterexample_reducible(
    model: ResolutionModel, n: int
) -> ReducibleCounterexample:
    if not isinstance(n, int) or n < 2:
        raise InvalidParametersError("need an integer n >= 2")
    if model.n_blowups:
        raise InvalidParametersError("the construction works on the minimal resolution")
    if not model.is_log_terminal():
        raise InvalidParametersError("the construction needs a log terminal model")
    z_f = model.fundamental_cycle()

    exc = model.exceptional
    ranges = [range(int(z_f.coeff(e)), n * int(z_f.coeff(e)) + 1) for e in exc]
    found: Cycle | None = None
    for combo in itertools.product(*ranges):
        z = Cycle(dict(zip(exc, combo)))
        if z == n * z_f:
            continue
        if (Fraction(1, n) * z).floor().is_zero():
            continue
        if model.is_anti_nef(z):
            found = z
            break
    if found is None:
        raise NoQualifyingCycleError(
            "no anti-nef cycle between the fundamental cycle and its n-fold "
            "multiple has a nonzero n-th floor (is the exceptional locus reducible?)"
        )

    whole = model.multiplier_cycle(found, 1)
    frac = model.multiplier_cycle(found, Fraction(1, n))
    if whole != found or not z_f.leq(frac):
        raise AssertionError("counterexample verification failed; internal bug")
    holds = (n * frac).leq(whole)
    witness = None
    if not holds:
        witness = next(
            e for e in model.names if whole.coeff(e) < n * frac.coeff(e)
        )
    return ReducibleCounterexample(
        model=model,
        n=n,
        fundamental=z_f,
        z=found,
        cycle_whole=whole,
        cycle_fraction=frac,
        inclusion_holds=holds,
        witness=witness,
    )
