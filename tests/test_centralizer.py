import random
from fractions import Fraction

import pytest

from centorbits.centralizer import (
    centralizer_basis,
    centralizer_dimension,
    sample_invertible,
    shift_operator_rows,
    shift_tags,
)
from centorbits.jordan import JordanType, chain_slots, jordan_basis, jordan_matrix
from centorbits.linalg import Matrix

from conftest import corpus_types, operator_matrix, power, rank, rational_corpus_types
from test_cli import wide_step_types
from test_jordan import random_conjugate


def flatten(m):
    return [m[i, j] for i in range(m.rows) for j in range(m.cols)]


def test_two_block_example_has_nine_operators(j23):
    cb = centralizer_basis(jordan_basis(j23))
    assert len(cb.operators) == 9
    assert centralizer_dimension(cb.basis.jordan_type) == 9


def test_two_block_example_parameter_pattern(j23):
    # coefficients keyed by the (source size, target size, shift) of each operator
    cb = centralizer_basis(jordan_basis(j23))
    tags = [(op.source.size, op.target.size, op.shift) for op in cb.operators]
    assert tags == [
        (2, 2, 0), (2, 2, 1), (2, 3, 1), (2, 3, 2),
        (3, 2, 0), (3, 2, 1), (3, 3, 0), (3, 3, 1), (3, 3, 2),
    ]
    a, b, h, k, f, g, c, d, e = range(1, 10)
    combo = Matrix([[0] * 5] * 5)
    for coeff, op in zip((a, b, h, k, f, g, c, d, e), cb.operators):
        combo = combo + operator_matrix(cb.basis, op).scaled(coeff)
    assert combo == Matrix(
        [
            [a, 0, f, 0, 0],
            [b, a, g, f, 0],
            [0, 0, c, 0, 0],
            [h, 0, d, c, 0],
            [k, h, e, d, c],
        ]
    )


def test_single_block_gives_matrix_powers():
    t = jordan_matrix(JordanType.of({0: [(4, 1)]}))
    cb = centralizer_basis(jordan_basis(t))
    assert len(cb.operators) == 4
    for op in cb.operators:
        assert operator_matrix(cb.basis, op) == power(t, op.shift)


def test_distinct_eigenvalues_give_diagonal_idempotents():
    t = Matrix([[1, 0], [0, 2]])
    cb = centralizer_basis(jordan_basis(t))
    assert len(cb.operators) == 2
    matrices = {operator_matrix(cb.basis, op) for op in cb.operators}
    assert matrices == {Matrix([[1, 0], [0, 0]]), Matrix([[0, 0], [0, 1]])}


def test_dimension_formula_examples():
    assert centralizer_dimension(JordanType.of({0: [(2, 1), (3, 1)]})) == 9
    for n in (1, 2, 3, 4):
        assert centralizer_dimension(JordanType.of({7: [(1, n)]})) == n * n
    assert centralizer_dimension(JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})) == 19


def seeded_symbolic_types() -> list:
    """Types of a symbolic eigenvalue and up to two more, multiplicities up to 3."""
    types = []
    for seed in range(8):
        rng = random.Random(seed)
        eigs = ["s"] + rng.sample(["t", 0, Fraction(2, 5)], rng.randint(0, 2))
        types.append(JordanType.of({
            eig: [(size, rng.randint(1, 3)) for size in rng.sample(range(1, 12), rng.randint(1, 4))]
            for eig in eigs
        }))
    return types


@pytest.mark.parametrize("jt", corpus_types() + wide_step_types() + seeded_symbolic_types(), ids=str)
def test_dimension_formula_counts_the_shift_operators(jt):
    assert centralizer_dimension(jt) == len(shift_tags(jt))


def test_operator_count_matches_dimension_formula():
    for jt in rational_corpus_types(max_dim=7):
        cb = centralizer_basis(jordan_basis(jordan_matrix(jt)))
        assert len(cb.operators) == centralizer_dimension(jt)


def test_every_operator_commutes_exactly():
    for jt in rational_corpus_types(max_dim=7):
        t = jordan_matrix(jt)
        cb = centralizer_basis(jordan_basis(t))
        for op in cb.operators:
            m = operator_matrix(cb.basis, op)
            assert m @ t == t @ m


def test_operators_are_linearly_independent():
    for jt in rational_corpus_types(max_dim=7):
        cb = centralizer_basis(jordan_basis(jordan_matrix(jt)))
        stacked = Matrix([flatten(operator_matrix(cb.basis, op)) for op in cb.operators])
        assert rank(stacked) == len(cb.operators)


def test_no_cross_eigenvalue_operators():
    jt = JordanType.of({0: [(2, 1)], 1: [(1, 1), (2, 1)]})
    tags = shift_tags(jt)
    assert all(src.eigenvalue == tgt.eigenvalue for src, tgt, _ in tags)
    # in chain coordinates, entries outside the per-eigenvalue diagonal blocks vanish
    spans = {}
    for slot in chain_slots(jt):
        spans.setdefault(slot.eigenvalue, set()).update(
            range(slot.offset, slot.offset + slot.size)
        )
    n = jt.dimension
    for src, tgt, t in tags:
        rows = shift_operator_rows(n, src, tgt, t)
        for i in range(n):
            for j in range(n):
                if rows[i][j]:
                    assert any(i in s and j in s for s in spans.values())


def test_sample_invertible_contract(j23):
    cb = centralizer_basis(jordan_basis(j23))
    u = sample_invertible(cb, rng_seed=42)
    assert rank(u) == 5
    assert u @ j23 == j23 @ u
    assert sample_invertible(cb, rng_seed=42) == u
    assert sample_invertible(cb, rng_seed=43) != u


def test_sample_invertible_builds_no_matrix_from_entries(monkeypatch):
    jt = JordanType.of({0: [(1, 1), (2, 1)], 3: [(2, 2)]})
    cb = centralizer_basis(jordan_basis(random_conjugate(jordan_matrix(jt), 5)))
    expected = sample_invertible(cb, 7)
    calls, init = [], Matrix.__init__

    def counting(self, rows_data):
        calls.append(self)
        init(self, rows_data)

    monkeypatch.setattr(Matrix, "__init__", counting)
    assert sample_invertible(cb, 7) == expected
    assert calls == []


def test_sample_invertible_single_block_is_polynomial_in_t():
    t = jordan_matrix(JordanType.of({0: [(4, 1)]}))
    cb = centralizer_basis(jordan_basis(t))
    for seed in range(8):
        u = sample_invertible(cb, seed)
        constant = u[0, 0]
        assert constant != 0
        rebuilt = Matrix([[0] * 4] * 4)
        for k in range(4):
            rebuilt = rebuilt + power(t, k).scaled(u[k, 0])
        assert rebuilt == u


def test_shift_range_matches_min_rule():
    jt = JordanType.of({0: [(2, 1), (5, 1)]})
    by_pair = {}
    for src, tgt, t in shift_tags(jt):
        by_pair.setdefault((src.size, tgt.size), []).append(t)
    assert by_pair[(2, 2)] == [0, 1]
    assert by_pair[(2, 5)] == [3, 4]
    assert by_pair[(5, 2)] == [0, 1]
    assert by_pair[(5, 5)] == [0, 1, 2, 3, 4]
