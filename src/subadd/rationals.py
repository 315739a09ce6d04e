"""Exact rational scalars and small dense matrices.

Every scalar in this package is a ``fractions.Fraction`` (arbitrary
precision, always in lowest terms, positive denominator) or a plain
``int``. Floats are rejected at the boundary so no rounding can creep
in anywhere. Matrices keep integer entries as ``int``: intersection
forms are integral, and the matrix routines work on Python integers
throughout. Each row is cleared of denominators by a positive scale,
then eliminated fraction-free (Bareiss, Math. Comp. 22, 1968), which
keeps intermediate integers at minor scale and makes every division
exact. Solutions are back-substituted as integers over the determinant
and re-verified against the un-eliminated rows; only the returned
values are Fractions. Everything is desk-scale (a few dozen rows);
there is deliberately no sparse machinery.

:func:`exact` gives the canonical form of a scalar: an ``int`` for an
integral value and a ``Fraction`` otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = [
    "QMatrix",
    "SingularMatrixError",
    "NonSymmetricError",
    "as_rational",
    "exact",
    "rational_to_string",
    "solve_linear",
    "determinant",
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


def rational_to_string(x) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(as_rational(x))


def _exact(x):
    """An ``int`` stays an ``int``; anything else goes through as_rational
    (so an integral Fraction stays a Fraction, unlike :func:`exact`)."""
    return x if type(x) is int else as_rational(x)


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


class QMatrix:
    """Dense rectangular matrix over the rationals.

    Rows are stored as lists whose entries are ``int`` where the input
    was a plain ``int`` and ``Fraction`` otherwise, so an integral
    matrix costs no Fraction arithmetic. The empty 0x0 matrix is
    allowed (it shows up as the intersection form of a model with no
    exceptional curves).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Sequence[Sequence]):
        data = [[_exact(x) for x in row] for row in entries]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows in matrix")
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int | Fraction:
        return self.data[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.data == other.data

    def __repr__(self) -> str:
        return f"QMatrix({[[str(x) for x in row] for row in self.data]})"


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Scale each row by the lcm of its denominators; return rows and scales.

    The scales are positive, so a leading minor of the scaled rows has
    the sign of the same minor of the input.
    """
    out, scales = [], []
    for row in rows:
        s = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (s // x.denominator) for x in row])
        scales.append(s)
    return out, scales


def _bareiss_step(a: list[list[int]], k: int, prev: int, width: int) -> None:
    """Eliminate column k below row k of ``a`` in place, fraction-free.

    ``prev`` is the pivot of step k-1 (1 at k = 0). Afterwards entry
    (i, j), for i, j > k, is the minor on rows 0..k, i and columns
    0..k, j of the rows as they were before elimination began, so every
    division by ``prev`` is exact (Sylvester's identity).
    """
    ak = a[k]
    p = ak[k]
    for i in range(k + 1, len(a)):
        ai = a[i]
        f = ai[k]
        for j in range(k + 1, width):
            ai[j] = (p * ai[j] - f * ak[j]) // prev
        ai[k] = 0


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


def solve_linear(m: QMatrix, rhs: Sequence) -> list[Fraction]:
    """Solve m.x = rhs exactly.

    Bareiss elimination with row swaps on the denominator-cleared
    augmented rows leaves det, the last pivot, equal to the determinant
    of the scaled rows up to sign. By Cramer's rule every det*x_i is an
    integer, so back substitution runs on the integers X_i = det*x_i,
    and each division must leave no remainder. Before return the
    integers are re-verified against a copy of the un-eliminated rows,
    sum_j a_ij*X_j == b_i*det, and x_i = X_i/det is returned as a
    Fraction in lowest terms.
    """
    if not m.is_square():
        raise ValueError("solve_linear needs a square matrix")
    n = m.rows
    rhs_q = [_exact(x) for x in rhs]
    if len(rhs_q) != n:
        raise ValueError("right-hand side length does not match matrix")
    if n == 0:
        return []

    original, _ = _integer_rows([m.data[i] + [rhs_q[i]] for i in range(n)])
    aug = [list(row) for row in original]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
        _bareiss_step(aug, k, prev, n + 1)
        prev = aug[k][k]

    det = prev
    big = _back_substitute(aug, det)
    for row in original:
        if sum(a * x for a, x in zip(row, big)) != row[n] * det:
            raise AssertionError("exact solve failed to re-verify")
    return [Fraction(x, det) for x in big]


def determinant(m: QMatrix) -> Fraction:
    """Exact determinant by Bareiss elimination (1 for the 0x0 matrix)."""
    if not m.is_square():
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a, scales = _integer_rows(m.data)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        _bareiss_step(a, k, prev, n)
        prev = a[k][k]
    scale = 1
    for s in scales:
        scale *= s
    return Fraction(sign * a[n - 1][n - 1], scale)


def is_negative_definite(m: QMatrix) -> bool:
    """Sylvester test in one Bareiss pass.

    Elimination without pivoting on the denominator-cleared rows makes
    the k-th pivot the k-th leading principal minor times a positive
    row scale. The matrix is negative definite exactly when the pivots
    alternate in sign starting negative; the pass stops at the first
    zero or wrongly signed pivot, so it never needs a row swap.
    """
    if not m.is_square():
        raise ValueError("definiteness needs a square matrix")
    if not m.is_symmetric():
        raise NonSymmetricError("definiteness test needs a symmetric matrix")
    n = m.rows
    a, _ = _integer_rows(m.data)
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p == 0 or (p > 0) != (k % 2 == 1):
            return False
        _bareiss_step(a, k, prev, n)
        prev = p
    return True


def matrix_rank(vectors: Sequence[Sequence]) -> int:
    """Rank of the span of the given vectors, by exact Gaussian elimination."""
    rows = [[as_rational(x) for x in v] for v in vectors]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank
