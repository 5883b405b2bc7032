import copy
import pickle
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centorbits.cli import parse_operator_spec
from centorbits.jordan import _normalize_eigenvalue
from centorbits.linalg import Matrix, NotANumber, RefusedForm, ShapeError, as_ratio

from conftest import RATIONALS, kernel_basis, plain_product, rank


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
        as_ratio(True)


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


def test_an_entry_past_the_digit_limit_prints_as_a_power_of_two():
    # str() writes at most sys.get_int_max_str_digits() digits (4300 by default); 2^16609 <= 10^5000 < 2^16610
    big = 10**5000
    assert str(Matrix([[big]])) == "Matrix(1x1: at least 2^16609)"
    wide = Matrix([[-big, Fraction(1, 3)], [Fraction(-7, big), 2]])
    assert str(wide) == "Matrix(2x2: -at least 2^16609 1/3; -7/at least 2^16609 2)"
    assert str(Matrix([[Fraction(-1, 2), 0, 10**4299]])) == f"Matrix(1x3: -1/2 0 1{'0' * 4299})"


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2x3 by 2x2"):
        Matrix([[0, 0, 0]] * 2) @ Matrix([[0, 0]] * 2)


def test_rank_examples(j23):
    assert rank(Matrix([[0] * 3] * 3)) == 0
    assert rank(Matrix.identity(4)) == 4
    # one 1 per subdiagonal step of the two blocks
    assert rank(j23) == 3


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(3)) == []
    assert kernel_basis(Matrix([[0, 0], [0, 0]])) == [Matrix.column([1, 0]), Matrix.column([0, 1])]
    assert kernel_basis(Matrix([[0, 1], [0, 0]])) == [Matrix.column([1, 0])]


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
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(small_matrices())
@settings(deadline=None)
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert m @ v == Matrix.column([0] * m.rows)


@given(st.integers(1, 3), st.data())
@settings(deadline=None)
def test_rank_of_product_bounded(n, data):
    ints = st.integers(-5, 5)
    a = Matrix([[data.draw(ints) for _ in range(n)] for _ in range(n)])
    b = Matrix([[data.draw(ints) for _ in range(n)] for _ in range(n)])
    assert rank(a @ b) <= min(rank(a), rank(b))


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
    assert rank(m) == len(pivots)
    kernel = []
    for free in (j for j in range(m.cols) if j not in pivots):
        coords = [Fraction(int(j == free)) for j in range(m.cols)]
        for r, pc in enumerate(pivots):
            coords[pc] = -reduced[r][free]
        kernel.append(Matrix.column(coords))
    assert kernel_basis(m) == kernel


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


def wide_column_rows(rng: random.Random, n: int) -> list:
    """Fraction rows whose column j is small integers, some with a common factor, over a wide denominator of its own."""
    columns = []
    for _ in range(n):
        den, factor = rng.getrandbits(rng.randint(64, 200)) | 1, rng.choice((1, 1, 6, 35))
        columns.append([Fraction(factor * rng.randint(-20, 20), den) for _ in range(n)])
    return [list(row) for row in zip(*columns)]


def test_inverse_of_wide_column_matrices_matches_fraction_gauss_jordan():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = wide_column_rows(rng, n)
        reduced, pivots = reference_rref([row + [Fraction(int(i == j)) for j in range(n)]
                                          for i, row in enumerate(rows)])
        m = Matrix(rows)
        if pivots[:n] != tuple(range(n)):
            with pytest.raises(ValueError, match="^matrix is singular$"):
                m.inverse()
            continue
        inverse = m.inverse()
        assert inverse == Matrix([row[n:] for row in reduced])
        assert_canonical(inverse)
        if n > 1:
            # a zero column and a repeated column (the same entries over the same denominator) are singular
            k, j = rng.sample(range(n), 2)
            for column in ([Fraction(0)] * n, [row[j] for row in rows]):
                with pytest.raises(ValueError, match="^matrix is singular$"):
                    Matrix([[*row[:k], x, *row[k + 1:]] for row, x in zip(rows, column)]).inverse()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(deadline=None)
def test_matmul_matches_schoolbook_fraction_sums(r, k, c, data):
    a = [[data.draw(RATIONALS) for _ in range(k)] for _ in range(r)]
    b = [[data.draw(RATIONALS) for _ in range(c)] for _ in range(k)]
    expected = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(c)]
                for i in range(r)]
    assert Matrix(a) @ Matrix(b) == Matrix(expected)


def test_a_column_product_matches_fraction_sums_in_lowest_terms():
    # seeded: n x 1 and 1 x 1 results, zero and negative vectors, and products whose
    # denominator den_a * den_v cancels against the dot products
    rng = random.Random(30)
    cancelled = 0
    for case in range(600):
        rows, k = (1 if case % 5 == 0 else rng.randint(2, 7)), rng.randint(1, 7)
        a = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for _ in range(k)] for _ in range(rows)]
        kind = case % 4
        if kind == 0:
            v = [Fraction(0)] * k
        elif kind == 1:
            v = [Fraction(-rng.randint(1, 9), rng.choice([1, 2, 5])) for _ in range(k)]
        elif kind == 2:
            # numerators that are multiples of 12 cancel every denominator of a
            v = [Fraction(12 * rng.randint(-3, 3), rng.choice([1, 5, 7])) for _ in range(k)]
        else:
            v = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 10])) for _ in range(k)]
        left, column = Matrix(a), Matrix.column(v)
        product = left @ column
        expected = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]
        assert (product.rows, product.cols) == (rows, 1)
        assert [product[i, 0] for i in range(rows)] == expected
        assert product == Matrix.column(expected)
        assert_canonical(product)
        cancelled += product._den < left._den * column._den
    assert cancelled > 100


# (n, a, v): a sum of n products of a-bit entries by v-bit values. The field width is a + v +
# n.bit_length() + 1. Where n (2^a - 1)(2^v - 1) passes 2^(a + v + n.bit_length() - 1), as at n = 3,
# 7 and 127, a width without the + 1 would overflow.
WIDTH_CASES = [(1, 1, 1), (1, 15, 15), (1, 31, 31), (2, 3, 4), (3, 15, 15), (7, 9, 13), (127, 12, 12),
               (127, 12, 13), (128, 1, 1), (128, 12, 11), (128, 40, 70), (5, 64, 200)]


@pytest.mark.parametrize("n, a, v", WIDTH_CASES)
@pytest.mark.parametrize("sign", [1, -1])
def test_a_column_product_holds_fields_at_the_width_bound(n, a, v, sign):
    top, value = 2 ** a - 1, 2 ** v - 1
    # rows and vector of one sign reach +-n(2^a - 1)(2^v - 1); an alternating row sums near zero
    m = Matrix([[top] * n, [-top] * n, [top * (-1) ** j for j in range(n)], [j % 3 - 1 for j in range(n)]])
    column = Matrix.column([sign * value] * n)
    product = m @ column
    assert product == plain_product(m, column)
    assert product[0, 0] == sign * n * top * value == -product[1, 0]


@pytest.mark.parametrize("n", [1, 128])
def test_zero_matrices_and_zero_vectors_multiply_to_zero(n):
    rng = random.Random(n)
    zero_m, zero_v = Matrix([[0] * n] * 3), Matrix.column([0] * n)
    m = Matrix([[rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)] for _ in range(3)])
    v = Matrix.column([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)])
    for left, right in ((zero_m, v), (m, zero_v), (zero_m, zero_v)):
        assert left @ right == plain_product(left, right) == Matrix.column([0] * 3)
    assert m @ v == plain_product(m, v)


def test_the_packing_memo_only_widens():
    rng = random.Random(34)
    m = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)] for _ in range(5)])
    narrow = Matrix.column([rng.randint(-9, 9) for _ in range(6)])
    wide = Matrix.column([rng.randint(-2 ** 300, 2 ** 300) for _ in range(6)])
    widths = []
    bound = [max(abs(x) for row in grid for x in row).bit_length() for grid in (m._grid, narrow._grid, wide._grid)]
    for v in (narrow, wide, narrow):
        assert m @ v == plain_product(m, v)
        widths.append(m._packed[1])
    # the exact bound a + v + cols.bit_length() + 1 of _apply, no wider
    assert widths == [bound[0] + bound[1] + 4, bound[0] + bound[2] + 4, bound[0] + bound[2] + 4]


def test_the_packing_memo_changes_no_equality_hash_repr_or_copy():
    m, twin = Matrix([["1/2", -3, 7], [4, "5/7", 0]]), Matrix([["1/2", -3, 7], [4, "5/7", 0]])
    before = hash(m), repr(m)
    v = Matrix.column([1, -2 ** 100, "3/4"])
    product = m @ v
    assert m._packed is not None and twin._packed is None
    assert m == twin and (hash(m), repr(m)) == (hash(twin), repr(twin)) == before
    for copied in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied == m and (hash(copied), repr(copied)) == before
        assert copied @ v == product == plain_product(m, v)


def test_a_product_by_a_wider_right_factor_leaves_the_left_unpacked():
    rng = random.Random(36)
    t = Matrix([[rng.getrandbits(250) if j >= i else 0 for j in range(6)] for i in range(6)])
    p = Matrix([[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(4)] for _ in range(6)])
    expected = [[sum((t[i, k] * p[k, j] for k in range(6)), Fraction(0)) for j in range(4)] for i in range(6)]
    assert t @ p == Matrix(expected)
    assert t._packed is None and p._packed is None
    t @ Matrix.column([1] * 6)
    assert t._packed is not None


def test_pickles_and_copies_leave_the_packing_memo_behind():
    rng = random.Random(18)
    m = Matrix([[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(18)] for _ in range(18)])
    v = Matrix.column([rng.getrandbits(200) - 2 ** 199 for _ in range(18)])
    size = len(pickle.dumps(m))
    product = m @ v
    assert m._packed is not None and len(pickle.dumps(m)) == size
    for copied in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert copied._packed is None and copied is not m
        assert copied == m and hash(copied) == hash(m) and repr(copied) == repr(m)
        assert copied @ v == product == plain_product(m, v)
        assert copied @ m == m @ m


WIDE_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2 ** 140, 2 ** 140)).flatmap(
    lambda x: st.integers(1, 6).map(lambda d: Fraction(x, d)))


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(deadline=None)
def test_column_products_of_any_width_match_plain_dot_products(r, k, data):
    m = Matrix([[data.draw(WIDE_ENTRIES) for _ in range(k)] for _ in range(r)])
    # several vectors through one matrix: a packing memoized at one width serves the next call or is widened
    for _ in range(3):
        v = Matrix.column([data.draw(WIDE_ENTRIES) for _ in range(k)])
        assert m @ v == plain_product(m, v)


# -- the stored form: one integer grid over one denominator in lowest terms --

def assert_canonical(m: Matrix):
    """A positive denominator sharing no factor with every entry, over a rows x cols grid."""
    assert m._den > 0
    assert gcd(m._den, *(x for row in m._grid for x in row)) == 1
    assert len(m._grid) == m.rows and all(len(row) == m.cols for row in m._grid)
    assert all(type(x) is int for row in m._grid for x in row)


@given(rational_matrices(), rational_matrices(), RATIONALS, st.data())
@settings(deadline=None)
def test_every_operation_returns_the_canonical_form(a, b, c, data):
    results = [a, b, a.scaled(c), Matrix.identity(a.rows), a.rref()[0], *kernel_basis(a)]
    results.append(Matrix.column(rows_of(a)[0]))
    results.append(a @ Matrix.column([data.draw(RATIONALS) for _ in range(a.cols)]))
    same_shape = Matrix([[data.draw(RATIONALS) for _ in range(a.cols)] for _ in range(a.rows)])
    results += [a + same_shape, a - same_shape, a - a]
    width = data.draw(st.integers(1, 3))
    results.append(a @ Matrix([[data.draw(RATIONALS) for _ in range(width)] for _ in range(a.cols)]))
    if a.is_square() and rank(a) == a.rows:
        results.append(a.inverse())
    for m in results:
        assert_canonical(m)


@given(rational_matrices(), st.lists(st.integers(1, 6), min_size=25, max_size=25), rational_matrices())
@settings(deadline=None)
def test_equality_and_hash_follow_the_entries(m, factors, other):
    # the same values written unreduced, with factors shared across the entries
    unreduced = Matrix([[f"{x.numerator * k}/{x.denominator * k}" for x, k in zip(row, factors[i * 5:])]
                        for i, row in enumerate(rows_of(m))])
    assert unreduced == m and hash(unreduced) == hash(m)
    assert (other == m) == (rows_of(other) == rows_of(m))
    if other == m:
        assert hash(other) == hash(m)


def test_equal_values_give_equal_matrices():
    assert Matrix([["2/4"]]) == Matrix([["1/2"]])
    assert hash(Matrix([["2/4", 6]])) == hash(Matrix([["1/2", "12/2"]]))
    rows = [["1/2", "-3/4", 5], ["2/6", "0", "-7/9"], [-1, "10/4", "3/8"]]
    parsed = parse_operator_spec({"matrix": rows}).matrix  # built from the lcm of the denominators
    assert parsed == Matrix(rows) and hash(parsed) == hash(Matrix(rows))
    assert Matrix([["1/2", "1/3"]]).scaled(6) == Matrix([[3, 2]])
    assert Matrix([["1/2"], ["1/2"]]) - Matrix([["1/2"], ["1/2"]]) == Matrix.column([0, 0])
    assert Matrix([[1, 2]]) != Matrix([[1], [2]])


@pytest.mark.parametrize("build, error, message", [
    (lambda: Matrix([]), ShapeError, "a matrix needs at least one row and one column"),
    (lambda: Matrix([[]]), ShapeError, "a matrix needs at least one row and one column"),
    (lambda: Matrix([[1, 2], [3]]), ShapeError, "all rows must have the same length"),
    (lambda: Matrix([[1, 2]]) @ Matrix.column([1, 2, 3]), ShapeError, "cannot multiply 1x2 by 3x1"),
    (lambda: Matrix.identity(3) @ Matrix.column([1]), ShapeError, "cannot multiply 3x3 by 1x1"),
    (lambda: Matrix.column([1, 2]) @ Matrix.column([1, 2]), ShapeError, "cannot multiply 2x1 by 2x1"),
    (lambda: Matrix([[1, 2]]) + Matrix.column([1, 2]), ShapeError, "cannot add 1x2 and 2x1"),
    (lambda: Matrix([[1, 2]]) - Matrix.column([1, 2]), ShapeError, "cannot subtract 2x1 from 1x2"),
    (lambda: Matrix([[1, 2]]).inverse(), ShapeError, "only square matrices invert, got 1x2"),
    (lambda: Matrix([[1]]) + 1, TypeError, "unsupported operand type(s) for +"),
    (lambda: Matrix([[1]]) - 1, TypeError, "unsupported operand type(s) for -"),
    (lambda: Matrix([[1]]) @ 1, TypeError, "unsupported operand type(s) for @"),
])
def test_shape_and_operand_refusals(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


@pytest.mark.parametrize("text", ["1_000", "-1_0/3", "1_0.5", "2 / 3", "2 /3", "2/ 3", "2\t/3", "1_0 / 3_0",
                                  "7 /0", "1_000/0", "1_" + "1" * 5000])
def test_forms_read_differently_across_versions_are_refused(text):
    # 3.10 reads neither form, 3.11 reads "_" between digits and 3.12 spaces around "/";
    # the form is refused before a zero denominator or an over-long integer in it
    with pytest.raises(RefusedForm, match="Python versions read differently"):
        as_ratio(text)


@pytest.mark.parametrize("text", ["a_1", "_1", "1__0", "1_0_", "a / b"])
def test_underscores_and_slashes_outside_numbers_are_not_refused_as_forms(text):
    with pytest.raises(ValueError) as err:
        as_ratio(text)
    assert not isinstance(err.value, RefusedForm)


@pytest.mark.parametrize("build", [lambda: as_ratio("1/0"), lambda: Matrix([["1/0"]])])
def test_a_zero_denominator_is_a_value_error(build):
    with pytest.raises(ValueError, match=re.escape("zero denominator in '1/0'")) as err:
        build()
    assert type(err.value) is ValueError


@given(st.text(alphabet="0123456789 \t\u00a0/_.+-e", max_size=8))
@settings(max_examples=300)
def test_the_number_grammar_reads_what_fraction_reads_and_leaves_the_rest_to_labels(text):
    try:
        value = Fraction(*as_ratio(text))
    except NotANumber:
        not_a_number = True
    except ValueError:
        not_a_number = False
    else:
        not_a_number = False
        assert value == Fraction(text)
        assert "_" not in text and not re.search(r"\s/|/\s", text)
    try:
        label = isinstance(_normalize_eigenvalue(text), str)
    except ValueError:
        label = False
    # a blank string is no number and no label either
    assert label == (not_a_number and bool(text.strip()))
