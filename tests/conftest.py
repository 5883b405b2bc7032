from fractions import Fraction

import pytest
from hypothesis import strategies as st

from centorbits import JordanType, Matrix
from centorbits.centralizer import shift_operator_rows


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
    out = [jt for jt in corpus_types() if jt.is_rational()]
    if max_dim is not None:
        out = [jt for jt in out if jt.dimension <= max_dim]
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_types()


@pytest.fixture(scope="session")
def j23():
    return j23_matrix()
