from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from subadd.rationals import (
    NonSymmetricError,
    SingularMatrixError,
    _back_substitute,
    _echelon,
    as_rational,
    exact,
    is_negative_definite,
    matrix_rank,
    solve_linear,
)

from _oracles import _fraction_solve, fraction_rank_det

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
small_integers = st.integers(-9, 9)
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def sylvester_oracle(rows) -> bool:
    """Negative definite iff the k-th leading principal minor, each one
    a fresh determinant, is nonzero with sign (-1)^k."""
    for k in range(1, len(rows) + 1):
        d = fraction_rank_det([row[:k] for row in rows[:k]])[1]
        if d == 0 or (d > 0) != (k % 2 == 0):
            return False
    return True


@st.composite
def symmetric_rows(draw, entries):
    """A symmetric matrix of size 0-7, shaped at random: as drawn,
    pushed toward negative definite by a dominant negative diagonal
    (slack 0 gives singular boundary cases), or with one diagonal entry
    moved so that one leading minor is zero while the minors after it
    stay generically nonzero."""
    n = draw(st.integers(0, 7))
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    shape = draw(st.sampled_from(["raw", "dominant", "zero-minor"]))
    if shape != "raw":
        for i in range(n):
            off = sum(abs(rows[i][j]) for j in range(n) if j != i)
            rows[i][i] = -off - draw(st.integers(0, 2))
    if shape == "zero-minor" and n >= 2:
        k = draw(st.integers(1, n - 1))
        # the (k+1)-th leading minor is affine in rows[k][k] with slope
        # the k-th leading minor; move rows[k][k] to its root
        below = fraction_rank_det([row[:k] for row in rows[:k]])[1]
        if below != 0:
            here = fraction_rank_det([row[: k + 1] for row in rows[: k + 1]])[1]
            rows[k][k] = rows[k][k] - here / below
    return rows


def test_identity_solve():
    assert solve_linear([[1, 0], [0, 1]], [3, Fraction(-1, 5)]) == [3, Fraction(-1, 5)]


def test_one_by_one_solve():
    assert solve_linear([[-2]], [0]) == [0]


def test_chain_solve():
    # intersection matrix of the -3,-2,-1,-5 chain
    m = [[-3, 1, 0, 0], [1, -2, 1, 0], [0, 1, -1, 1], [0, 0, 1, -5]]
    x = solve_linear(m, [1, 0, -1, 3])
    assert x == [Fraction(-1, 5), Fraction(2, 5), Fraction(1), Fraction(-2, 5)]


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear([[1, 1], [1, 1]], [1, 2])


def test_negative_definite_examples():
    assert is_negative_definite([[-2]])
    # minors -2 and 3, by hand
    assert is_negative_definite([[-2, 1], [1, -2]])
    # the triangle of -2 curves has determinant 0, by direct expansion
    assert not is_negative_definite([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def test_negative_definite_rejects_asymmetric():
    with pytest.raises(NonSymmetricError):
        is_negative_definite([[-2, 1], [0, -2]])


def test_empty_matrix_conventions():
    assert is_negative_definite([])
    assert solve_linear([], []) == []
    assert matrix_rank([]) == 0


def test_rational_strings():
    assert str(as_rational(3)) == "3"
    assert str(as_rational("-2/10")) == "-1/5"
    assert as_rational("2/4") == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_rational(0.5)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


# "1_000" parses from Python 3.11 on only, as Fraction("1_000") does;
# "\u0663" is an Arabic-Indic three, which Fraction reads and the
# integer fast path leaves to it
@pytest.mark.parametrize(
    "text",
    ["1_000", " 3 ", "+3", "-0", "3/1", "3.0", "1e3", "007", "\u0663", "", "+", "+-3", "1/0"],
)
def test_as_rational_strings_match_fraction(text):
    want = _parse_outcome(Fraction, text)
    got = _parse_outcome(as_rational, text)
    assert got == want and type(got) is type(want)
    value = _parse_outcome(exact, text)
    assert value == want
    if isinstance(want, Fraction):
        assert type(value) is (int if want.denominator == 1 else Fraction)


@given(st.text(alphabet="0123456789+-_/.eE \t\u0663", max_size=8))
def test_as_rational_strings_match_fraction_randomized(text):
    want = _parse_outcome(Fraction, text)
    assert _parse_outcome(as_rational, text) == want
    assert _parse_outcome(exact, text) == want


def test_exact_canonical_form():
    assert type(exact(Fraction(4, 2))) is int and exact(Fraction(4, 2)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact("-12")) is int and exact("-12") == -12
    assert type(exact("6/3")) is int
    for bad in (0.5, True, None):
        with pytest.raises(TypeError):
            exact(bad)


def test_matrix_rank():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([]) == 0


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if a != 0:
        assert a * (1 / a) == 1


def _square_system(entries):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            ),
            st.lists(entries, min_size=n, max_size=n),
        )
    )


@given(st.one_of(_square_system(small_integers), _square_system(small_rationals)))
def test_solve_reverifies(data):
    rows, rhs = data
    try:
        x = solve_linear(rows, rhs)
    except SingularMatrixError:
        assert fraction_rank_det(rows)[1] == 0
        return
    for v in x:
        assert type(v) is Fraction
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
    for row, b in zip(rows, rhs):
        assert sum((a * v for a, v in zip(row, x)), Fraction(0)) == b


@given(st.one_of(symmetric_rows(small_integers), symmetric_rows(small_rationals)))
@example([[-1, 1, 0], [1, -1, 1], [0, 1, -2]])  # minors -1, 0, 1
@example([[0, 1], [1, -1]])  # minors 0, -1
@example([[2]])  # positive definite
@example([[-2, 1], [1, -2]])
def test_negative_definite_matches_sylvester_oracle(rows):
    assert is_negative_definite(rows) == sylvester_oracle(rows)


def test_mixed_exact_entries():
    rows = [[1, Fraction(1, 2)], ["3/4", Fraction(4, 2)]]
    assert solve_linear(rows, ["1/2", 3]) == _fraction_solve(rows, [Fraction(1, 2), 3])
    # minors -2 and 2 - 1/4
    assert is_negative_definite([[-2, "1/2"], [Fraction(1, 2), Fraction(-4, 2)]])


def test_symmetry_read_on_exact_entries():
    # the row scales 6 and 2 make the cleared rows [[2, 3], [1, 2]],
    # which are not symmetric; the matrix is
    assert not is_negative_definite([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), 1]])
    # minors -1/3 and 1/3 - 1/4
    assert is_negative_definite([[Fraction(-1, 3), Fraction(1, 2)], [Fraction(1, 2), -1]])
    with pytest.raises(NonSymmetricError):
        is_negative_definite([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 3), 1]])


@pytest.mark.parametrize(
    "call",
    [
        lambda rows: solve_linear(rows, [0] * len(rows)),
        is_negative_definite,
        matrix_rank,
    ],
    ids=["solve_linear", "is_negative_definite", "matrix_rank"],
)
def test_matrix_boundary(call):
    for bad in (0.5, True, None):
        with pytest.raises(TypeError):
            call([[-2, 1], [1, bad]])
    with pytest.raises(ValueError):
        call([[-2, 1], [1]])
    if call is not matrix_rank:
        with pytest.raises(ValueError):
            call([[-2, 1, 0], [1, -2, 0]])


@st.composite
def rank_rows(draw, entries):
    """A matrix of 0-6 rows and 0-6 columns, as drawn or the product of
    an n x k and a k x m matrix (rank at most k), with some rows and
    columns then set to zero."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6)) if n else 0
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        left = [[draw(entries) for _ in range(k)] for _ in range(n)]
        right = [[draw(entries) for _ in range(m)] for _ in range(k)]
        rows = [[sum((l[t] * right[t][j] for t in range(k)), 0) for j in range(m)] for l in left]
    else:
        rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    zero_rows = draw(st.sets(st.integers(0, n - 1))) if n else set()
    zero_cols = draw(st.sets(st.integers(0, m - 1))) if m else set()
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]


@given(st.one_of(rank_rows(small_integers), rank_rows(small_rationals)))
@example([])
@example([[], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 1, 2], [0, 2, 4], [0, 0, 1]])  # zero first column, rank 2
def test_matrix_rank_matches_fraction_oracle(rows):
    assert matrix_rank(rows) == fraction_rank_det(rows)[0]


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(small_integers, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.lists(st.tuples(st.sampled_from(["zero", "copy"]), st.integers(0, 7)), max_size=3),
)
def test_echelon_pivots_are_minors_past_skipped_columns(square, extra):
    """Columns without a pivot (zero columns, copies of a column to
    their left) may sit anywhere; the last pivot is still the
    determinant of the pivot columns, up to the sign of the row swaps."""
    n = len(square)
    rank, det = fraction_rank_det(square)
    cols = [[row[j] for row in square] for j in range(n)]
    for kind, at in extra:
        at %= len(cols) + 1
        cols.insert(at, [0] * n if kind == "zero" or at == 0 else list(cols[at - 1]))
    rows = [[col[i] for col in cols] for i in range(n)]
    found, sign = _echelon(rows, len(cols))
    assert found == rank
    if det:
        assert sign * next(x for x in rows[n - 1] if x) == det


def test_back_substitution_rejects_inexact_division():
    # 2x = 1 has x = 1/2, and 1 is not a multiple of its denominator
    with pytest.raises(AssertionError, match="inexact"):
        _back_substitute([[2, 1]], 1)
    assert _back_substitute([[2, 1]], 2) == [1]
