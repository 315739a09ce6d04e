"""Exact rational scalars and small dense matrices.

Every scalar in this package is a ``fractions.Fraction`` (arbitrary
precision, always in lowest terms, positive denominator) or a plain
``int``. Floats are rejected at the boundary so no rounding can creep
in anywhere. A matrix is a plain sequence of rows; each entry is
coerced once with :func:`exact` and each row is cleared of
denominators by a positive scale, so the matrix routines work on Python
integers throughout. One elimination serves them: fraction-free
Bareiss (Math. Comp. 22, 1968) with row swaps, which keeps every entry
a minor of the input and makes every division exact. ``solve_linear``
back-substitutes integers over the determinant and re-verifies them
against the un-eliminated rows, so only the returned values are
Fractions; ``matrix_rank`` counts the pivots. ``is_negative_definite``
runs its own pass without swaps, because it reads the leading minors.
Everything is desk-scale (a few dozen rows); there is deliberately no
sparse machinery.

:func:`exact` gives the canonical form of a scalar: an ``int`` for an
integral value and a ``Fraction`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = [
    "SingularMatrixError",
    "NonSymmetricError",
    "as_rational",
    "exact",
    "solve_linear",
    "is_negative_definite",
    "matrix_rank",
]


class SingularMatrixError(ValueError):
    """Raised when a linear solve meets a non-invertible matrix."""


class NonSymmetricError(ValueError):
    """Raised when an operation requires a symmetric matrix."""


def _plain_int(s: str) -> bool:
    """An optional sign, then ASCII digits only.

    ``int`` reads such a string exactly as ``Fraction`` does, on every
    supported Python. Anything else (whitespace, "_" separators, which
    ``Fraction`` accepts from Python 3.11 on only, non-ASCII digits, "/",
    "." or an exponent) is left to ``Fraction``.
    """
    digits = s[1:] if s[:1] in ("+", "-") else s
    return digits.isascii() and digits.isdigit()


def as_rational(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(int(x)) if _plain_int(x) else Fraction(x)
    raise TypeError(f"not an exact rational: {x!r} (floats are not allowed)")


def exact(x) -> int | Fraction:
    """The canonical exact value of ``x``: an ``int`` when it is an
    integer, else a ``Fraction``. Accepts what :func:`as_rational`
    accepts."""
    if type(x) is int:
        return x
    if type(x) is str and _plain_int(x):
        return int(x)
    q = as_rational(x)
    return q.numerator if q.denominator == 1 else q


def _integer_rows(rows: Sequence[Sequence], width: int) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; return rows and scales.

    Entries are coerced with :func:`exact` (an ``int`` passes as is);
    a row whose length is not ``width`` raises ValueError. The scales
    are positive, so a leading minor of the scaled rows has the sign of
    the same minor of the input, and entry (i, j) of the input is
    ``rows[i][j] / scales[i]``.
    """
    out, scales = [], []
    for row in rows:
        row = [x if type(x) is int else exact(x) for x in row]
        if len(row) != width:
            raise ValueError(f"matrix row of length {len(row)}, expected {width}")
        s = lcm(*(x.denominator for x in row))
        out.append(row if s == 1 else [x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return out, scales


def _bareiss_step(a: list[list[int]], r: int, k: int, prev: int) -> None:
    """Eliminate column k below row r of ``a`` in place, fraction-free,
    with pivot a[r][k].

    ``prev`` is the previous pivot (1 for the first). Afterwards each
    entry (i, j), for i > r and j > k, is the minor of the rows as they
    were before elimination began (up to the row swaps) on the pivot
    rows and row i and the pivot columns and column j, so every
    division by ``prev`` is exact (Sylvester's identity). That holds
    when columns without a pivot were skipped too.
    """
    ar = a[r]
    p = ar[k]
    width = len(ar)
    for i in range(r + 1, len(a)):
        ai = a[i]
        f = ai[k]
        for j in range(k + 1, width):
            ai[j] = (p * ai[j] - f * ar[j]) // prev
        ai[k] = 0


def _echelon(a: list[list[int]], cols: int) -> tuple[int, int]:
    """Bring the integer rows ``a`` to row echelon form in place over
    their first ``cols`` columns, by Bareiss elimination with row swaps.

    A column with no pivot is skipped. Returns the rank and the sign of
    the row permutation; for a square matrix of full rank the last
    pivot times that sign is the determinant.
    """
    rank, sign, prev = 0, 1, 1
    for k in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][k]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        _bareiss_step(a, rank, k, prev)
        prev = a[rank][k]
        rank += 1
    return rank, sign


def _back_substitute(tri: list[list[int]], det: int) -> list[int]:
    """The integers X = det*x for the upper-triangular augmented rows
    ``tri`` (last column the right-hand side).

    Row i gives tri[i][i]*X_i = det*b_i - sum_{j>i} tri[i][j]*X_j; the
    division must be exact, which holds when det is a multiple of every
    denominator of x, and an inexact one raises AssertionError.
    """
    n = len(tri)
    big = [0] * n
    for i in range(n - 1, -1, -1):
        row = tri[i]
        acc = det * row[n] - sum(row[j] * big[j] for j in range(i + 1, n))
        q, r = divmod(acc, row[i])
        if r:
            raise AssertionError("fraction-free back substitution is inexact")
        big[i] = q
    return big


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve rows.x = rhs exactly for a square matrix given by its rows.

    :func:`_echelon` on the denominator-cleared augmented rows leaves
    det, the last pivot, equal to the determinant of the scaled rows up
    to sign. By Cramer's rule every det*x_i is an integer, so back
    substitution runs on the integers X_i = det*x_i, and each division
    must leave no remainder. Before return the integers are re-verified
    against the un-eliminated rows, sum_j a_ij*X_j == b_i*det, and
    x_i = X_i/det is returned as a Fraction in lowest terms.
    """
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("right-hand side length does not match matrix")
    if n == 0:
        return []
    original, _ = _integer_rows([[*row, b] for row, b in zip(rows, rhs)], n + 1)
    aug = [row[:] for row in original]
    if _echelon(aug, n)[0] < n:
        raise SingularMatrixError("matrix is singular")
    det = aug[n - 1][n - 1]
    big = _back_substitute(aug, det)
    for row in original:
        if sum(a * x for a, x in zip(row, big)) != row[n] * det:
            raise AssertionError("exact solve failed to re-verify")
    return [Fraction(x, det) for x in big]


def is_negative_definite(rows: Sequence[Sequence]) -> bool:
    """Sylvester test in one Bareiss pass over a symmetric matrix.

    Symmetry is tested on the exact entries, a_ij/s_i against
    a_ji/s_j for the row scales s: the scaled rows of a symmetric
    matrix need not be symmetric. Elimination without pivoting on the
    denominator-cleared rows makes the k-th pivot the k-th leading
    principal minor times a positive row scale. The matrix is negative
    definite exactly when the pivots alternate in sign starting
    negative; the pass stops at the first zero or wrongly signed pivot,
    so it never needs a row swap.
    """
    n = len(rows)
    a, s = _integer_rows(rows, n)
    if any(a[i][j] * s[j] != a[j][i] * s[i] for i in range(n) for j in range(i + 1, n)):
        raise NonSymmetricError("definiteness test needs a symmetric matrix")
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p == 0 or (p > 0) != (k % 2 == 1):
            return False
        _bareiss_step(a, k, k, prev)
        prev = p
    return True


def matrix_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the given vectors, by :func:`_echelon`."""
    width = len(vectors[0]) if vectors else 0
    a, _ = _integer_rows(vectors, width)
    return _echelon(a, width)[0]
