"""subadd: exact computations with multiplier ideals.

Two computable settings are covered: anti-nef cycles on two-dimensional
resolution graphs (where integrally closed ideals are represented by
the cycles themselves) and monomial ideals on simplicial toric rings
cut out by congruence lattices. All arithmetic is exact.

The package root exports the names of the README quick tour and the
error types the command line maps to exit statuses; everything else
lives in the modules ``surface``, ``proximity``, ``toric``,
``rationals``, ``reproduce`` and ``cli``.
"""

from .surface import (
    Cycle,
    InvalidParametersError,
    ModelError,
    NegativeMarkedError,
    NonIntegralError,
    NotAntiNefError,
    StageOutOfRangeError,
    ade,
    build_model,
    hj_chain,
)
from .proximity import (
    ClassificationViolationError,
    NoLambdaError,
    NoQualifyingCycleError,
    NotGorensteinError,
    computation_sequence,
    subadditivity_check_2d,
)
from .toric import (
    MonomialIdeal,
    OutOfScaleError,
    RingMismatchError,
    ToricRing,
    cyclic_quotient_ring,
    multiplier_monomials,
    subadditivity_check_monomial,
)

__version__ = "0.1.0"
