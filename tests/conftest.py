from fractions import Fraction

import pytest
from hypothesis import strategies as st

from centorbits import JordanType, Matrix
from centorbits.centralizer import shift_operator_rows
from centorbits.linalg import _integer_rref, _kernel_vectors


# Rational entries for property tests: zeros, small integers and fractions
# with mixed denominators.
RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


def j23_matrix() -> Matrix:
    """Nilpotent with one size-2 and one size-3 block, 1s on the subdiagonal."""
    return Matrix(
        [
            [0, 0, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
        ]
    )


def rank(m: Matrix) -> int:
    """The number of pivots of m's reduced row echelon form."""
    return len(m.rref()[1])


def kernel_basis(m: Matrix) -> list:
    """Basis of m's right kernel as n x 1 matrices, one per free column in increasing order."""
    return [Matrix._column(*v) for v in _kernel_vectors(*_integer_rref(m._grid), m.cols)]


def power(m: Matrix, k: int) -> Matrix:
    """m^k by repeated products; k = 0 gives the identity."""
    result = Matrix.identity(m.rows)
    for _ in range(k):
        result = result @ m
    return result


def operator_matrix(basis, op) -> Matrix:
    """A centralizer basis operator in the original coordinates: P S P^-1."""
    chain_form = Matrix(shift_operator_rows(basis.dimension, *op))
    return basis.transform @ chain_form @ basis.inverse_transform


def plain_product(m: Matrix, v: Matrix) -> Matrix:
    """m @ v for an n x 1 v from one Fraction dot product per row, apart from Matrix.__matmul__ and its packing."""
    return Matrix.column([sum((m[i, j] * v[j, 0] for j in range(m.cols)), Fraction(0)) for i in range(m.rows)])


def transform_column(basis, j: int) -> Matrix:
    """Column j of the chain basis P as an n x 1 matrix: a chain's vectors start at its slot offset."""
    return Matrix.column([basis.transform[i, j] for i in range(basis.dimension)])


def corpus_types() -> list:
    """Jordan types exercised across the suite; all lattices have <= 200 elements."""
    return [
        JordanType.of({0: [(1, 1), (3, 1), (5, 1)]}),          # 18 labels
        JordanType.of({0: [(2, 1), (3, 1)]}),                  # 6
        JordanType.of({0: [(3, 1)]}),                          # chain, 4
        JordanType.of({0: [(2, 2)]}),                          # 3
        JordanType.of({0: [(1, 2), (2, 1)]}),                  # 4
        JordanType.of({1: [(1, 1)], 2: [(1, 1)]}),             # Boolean square, 4
        JordanType.of({Fraction(1, 2): [(2, 1)], 3: [(1, 2)]}),  # 6
        JordanType.of({"a": [(1, 1), (2, 2)], "b": [(3, 1)]}),   # symbolic, 16
        JordanType.of({0: [(2, 1), (3, 1), (7, 1)]}),          # 30
        JordanType.of({0: [(1, 1), (2, 1)], 5: [(1, 1), (3, 1), (5, 1)]}),  # 72
        JordanType.of({0: [(2, 3), (5, 2)]}),                  # 12
        JordanType.of({0: [(1, 1), (2, 1), (3, 1)]}),          # 8, dimension 6
        JordanType.of({0: [(1, 1), (2, 1), (3, 1), (4, 1)]}),  # 16
        JordanType.of({0: [(1, 1), (3, 1), (5, 1)], 1: [(2, 1), (3, 1)]}),  # 108
    ]


def rational_corpus_types(max_dim=None) -> list:
    """Corpus types with rational eigenvalues only, optionally capped by dimension."""
    out = [jt for jt in corpus_types() if all(isinstance(eig, Fraction) for eig, _ in jt.eigen_blocks)]
    if max_dim is not None:
        out = [jt for jt in out if jt.dimension <= max_dim]
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_types()


@pytest.fixture(scope="session")
def j23():
    return j23_matrix()
