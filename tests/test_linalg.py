from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centorbits.linalg import Matrix, ShapeError, as_fraction

from conftest import RATIONALS


def small_matrices(max_dim=4):
    @st.composite
    def build(draw):
        r = draw(st.integers(1, max_dim))
        c = draw(st.integers(1, max_dim))
        return Matrix([[draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)])

    return build()


def test_entries_normalize_to_fractions():
    m = Matrix([["1/2", 2], [Fraction(-3, 4), "0"]])
    assert m[0, 0] == Fraction(1, 2)
    assert m[0, 1] == Fraction(2)
    assert m[1, 0] == Fraction(-3, 4)
    assert m[1, 1] == 0


def test_floats_and_bools_are_rejected():
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        as_fraction(True)


def test_identity_multiplication_is_neutral():
    m = Matrix([[1, 2], [3, "4/7"]])
    assert Matrix.identity(2) @ m == m
    assert m @ Matrix.identity(2) == m


def test_nilpotent_square_is_zero():
    n = Matrix([[0, 1], [0, 0]])
    assert n @ n == Matrix([[0, 0], [0, 0]])


def test_inverse_pair_multiplies_to_identity():
    a = Matrix([[1, "1/2"], [0, 1]])
    b = Matrix([[1, "-1/2"], [0, 1]])
    assert a @ b == Matrix.identity(2)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2x3 by 2x2"):
        Matrix([[0, 0, 0]] * 2) @ Matrix([[0, 0]] * 2)


def test_rank_examples(j23):
    assert Matrix([[0] * 3] * 3).rank() == 0
    assert Matrix.identity(4).rank() == 4
    # one 1 per subdiagonal step of the two blocks
    assert j23.rank() == 3


def test_kernel_examples():
    assert Matrix.identity(3).kernel_basis() == []
    assert Matrix([[0, 0], [0, 0]]).kernel_basis() == [Matrix.column([1, 0]), Matrix.column([0, 1])]
    assert Matrix([[0, 1], [0, 0]]).kernel_basis() == [Matrix.column([1, 0])]


def test_inverse_round_trip():
    m = Matrix([[2, 1, 0], [1, 1, 0], ["1/3", 0, 5]])
    assert m @ m.inverse() == Matrix.identity(3)
    assert m.inverse() @ m == Matrix.identity(3)


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_rref_pivots_deterministic():
    reduced, pivots = Matrix([[0, 0, 1], [0, 0, 2], [0, 0, 3]]).rref()
    assert pivots == (2,)
    assert reduced.row(0) == (0, 0, 1)


@given(small_matrices())
@settings(deadline=None)
def test_rank_nullity(m):
    assert m.rank() + len(m.kernel_basis()) == m.cols


@given(small_matrices())
@settings(deadline=None)
def test_kernel_vectors_are_killed(m):
    for v in m.kernel_basis():
        assert (m @ v).is_zero()


@given(st.integers(1, 3), st.data())
@settings(deadline=None)
def test_rank_of_product_bounded(n, data):
    ints = st.integers(-5, 5)
    a = Matrix([[data.draw(ints) for _ in range(n)] for _ in range(n)])
    b = Matrix([[data.draw(ints) for _ in range(n)] for _ in range(n)])
    assert (a @ b).rank() <= min(a.rank(), b.rank())


big_rationals = st.fractions(
    min_value=-(10**40), max_value=10**40, max_denominator=10**40
)


@given(big_rationals, big_rationals)
@settings(deadline=None)
def test_arithmetic_is_exact(a, b):
    m = Matrix([[a]])
    n = Matrix([[b]])
    assert (m + n) - n == m


# -- the integer core against plain Fraction references ---------------------

@st.composite
def rational_matrices(draw, max_dim=5, square=False):
    """Rational matrices with mixed denominators, often rank-deficient.

    A random number of rows is drawn freely; the rest are rational
    combinations of them, and the rows are then shuffled.
    """
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    data = [[draw(RATIONALS) for _ in range(cols)] for _ in range(draw(st.integers(1, rows)))]
    while len(data) < rows:
        coeffs = [draw(RATIONALS) for _ in data]
        data.append([sum(k * row[j] for k, row in zip(coeffs, data)) for j in range(cols)])
    return Matrix(draw(st.permutations(data)))


def reference_rref(rows: list) -> tuple:
    """Gauss-Jordan on Fraction rows: reduced rows and pivot columns."""
    m = [list(row) for row in rows]
    pivots = []
    for pc in range(len(m[0])):
        pr = len(pivots)
        found = next((r for r in range(pr, len(m)) if m[r][pc] != 0), None)
        if found is None:
            continue
        m[pr], m[found] = m[found], m[pr]
        m[pr] = [x / m[pr][pc] for x in m[pr]]
        for r in range(len(m)):
            if r != pr:
                m[r] = [a - m[r][pc] * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        if len(pivots) == len(m):
            break
    return m, tuple(pivots)


def rows_of(m: Matrix) -> list:
    return [list(m.row(i)) for i in range(m.rows)]


@given(rational_matrices())
@settings(deadline=None)
def test_rref_rank_and_kernel_match_fraction_gauss_jordan(m):
    reduced, pivots = reference_rref(rows_of(m))
    assert m.rref() == (Matrix(reduced), pivots)
    assert m.rank() == len(pivots)
    kernel = []
    for free in (j for j in range(m.cols) if j not in pivots):
        coords = [Fraction(int(j == free)) for j in range(m.cols)]
        for r, pc in enumerate(pivots):
            coords[pc] = -reduced[r][free]
        kernel.append(Matrix.column(coords))
    assert m.kernel_basis() == kernel


@given(rational_matrices(square=True))
@settings(deadline=None)
def test_inverse_matches_fraction_gauss_jordan(m):
    n = m.rows
    reduced, pivots = reference_rref([row + [Fraction(int(i == j)) for j in range(n)]
                                      for i, row in enumerate(rows_of(m))])
    if pivots[:n] != tuple(range(n)):
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == Matrix([row[n:] for row in reduced])


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(deadline=None)
def test_matmul_matches_schoolbook_fraction_sums(r, k, c, data):
    a = [[data.draw(RATIONALS) for _ in range(k)] for _ in range(r)]
    b = [[data.draw(RATIONALS) for _ in range(c)] for _ in range(k)]
    expected = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
                for i in range(r)]
    assert Matrix(a) @ Matrix(b) == Matrix(expected)
