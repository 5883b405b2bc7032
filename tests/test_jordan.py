import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centorbits.jordan import (
    JordanType,
    NonSplittingCharPoly,
    chain_slots,
    characteristic_polynomial,
    coords_in_jordan_basis,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    rational_eigenvalues,
)
from centorbits.linalg import Matrix

from conftest import RATIONALS, power, rational_corpus_types


def diag(*values):
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_conjugate(m, seed):
    """Q^-1 m Q for a seeded random invertible integer Q."""
    rng = random.Random(seed)
    n = m.rows
    while True:
        q = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if q.rank() == n:
            return q.inverse() @ m @ q


def test_characteristic_polynomial_examples():
    assert characteristic_polynomial(diag(1, 2)) == (Fraction(1), Fraction(-3), Fraction(2))
    assert characteristic_polynomial(Matrix([[0, 1], [0, 0]])) == (
        Fraction(1),
        Fraction(0),
        Fraction(0),
    )


def faddeev_leverrier(t: Matrix) -> tuple:
    """Reference char poly: c_k = -tr(T M_k) / k with M_{k+1} = T M_k + c_k I."""
    n = t.rows
    coeffs = [Fraction(1)]
    m = Matrix.identity(n)
    for k in range(1, n + 1):
        m = t @ m
        ck = -sum(m[i, i] for i in range(n)) / k
        coeffs.append(ck)
        m = m + Matrix.identity(n).scaled(ck)
    return tuple(coeffs)


@st.composite
def sparse_subdiagonal_matrices(draw, max_dim=6):
    """Square rational matrices whose entries below the diagonal are mostly zero,
    so the Hessenberg reduction has to swap rows or skip columns."""
    n = draw(st.integers(1, max_dim))
    below = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), RATIONALS)
    return Matrix([[draw(below if i > j else RATIONALS) for j in range(n)] for i in range(n)])


@given(sparse_subdiagonal_matrices())
@settings(deadline=None)
def test_characteristic_polynomial_matches_faddeev_leverrier(t):
    coeffs = characteristic_polynomial(t)
    assert coeffs == faddeev_leverrier(t)
    assert all(isinstance(c, Fraction) for c in coeffs)


def companion(*coeffs) -> Matrix:
    """Companion matrix of the monic polynomial x^n + coeffs[0] x^{n-1} + ... + coeffs[-1]."""
    n = len(coeffs)
    return Matrix([[int(i == j + 1) if j < n - 1 else -coeffs[n - 1 - i] for j in range(n)]
                   for i in range(n)])


def test_distinct_integer_roots_beyond_the_small_primes():
    # 0..30 are distinct only modulo a prime of at least 31
    t = random_conjugate(diag(*range(31)), 5)
    assert rational_eigenvalues(t) == [(Fraction(i), 1) for i in range(31)]


def test_repeated_fractional_root_keeps_its_multiplicity():
    assert characteristic_polynomial(companion(-4, Fraction(16, 3), Fraction(-64, 27))) == (
        1, -4, Fraction(16, 3), Fraction(-64, 27))
    t = jordan_matrix(JordanType.of({Fraction(4, 3): [(3, 1)]}))
    for m in (companion(-4, Fraction(16, 3), Fraction(-64, 27)), random_conjugate(t, 2)):
        assert rational_eigenvalues(m) == [(Fraction(4, 3), 3)]


def test_large_prime_roots():
    assert rational_eigenvalues(diag(100000007, 100000037)) == [
        (Fraction(100000007), 1), (Fraction(100000037), 1)]
    assert rational_eigenvalues(diag(Fraction(-100000007, 99991), 0, 0)) == [
        (Fraction(-100000007, 99991), 1), (Fraction(0), 2)]
    # the denominators, not the numerators, set the size of the lifted modulus
    assert rational_eigenvalues(diag(Fraction(1, 99991), Fraction(-2, 10007))) == [
        (Fraction(-2, 10007), 1), (Fraction(1, 99991), 1)]


@pytest.mark.parametrize(
    "coeffs",
    [(0, -2), (0, 1), (-2, 2, -2, 1)],
    ids=["x^2-2", "x^2+1", "(x-1)^2(x^2+1)"],
)
def test_irrational_and_complex_roots_raise_with_hint(coeffs):
    with pytest.raises(NonSplittingCharPoly, match="Jordan block data directly"):
        rational_eigenvalues(companion(*coeffs))


def test_rational_eigenvalues_examples():
    assert rational_eigenvalues(Matrix([[0, 1], [0, 0]])) == [(Fraction(0), 2)]
    assert rational_eigenvalues(diag("1/2", "1/2", 3)) == [
        (Fraction(1, 2), 2),
        (Fraction(3), 1),
    ]


def test_non_splitting_raises_with_hint():
    rotation = Matrix([[0, -1], [1, 0]])
    with pytest.raises(NonSplittingCharPoly, match="Jordan block data directly"):
        rational_eigenvalues(rotation)
    with pytest.raises(NonSplittingCharPoly):
        jordan_type(rotation)


def test_jordan_type_examples(j23):
    assert jordan_type(j23) == JordanType.of({0: [(2, 1), (3, 1)]})
    assert jordan_type(Matrix.identity(3)) == JordanType.of({1: [(1, 3)]})
    two_blocks = Matrix(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    )
    assert jordan_type(two_blocks) == JordanType.of({0: [(2, 2)]})


def test_jordan_type_is_similarity_invariant():
    for jt in rational_corpus_types(max_dim=5):
        t = jordan_matrix(jt)
        for seed in (1, 2):
            assert jordan_type(random_conjugate(t, seed)) == jt


def test_jordan_matrix_is_lower_subdiagonal(j23):
    assert jordan_matrix(JordanType.of({0: [(2, 1), (3, 1)]})) == j23


def test_jordan_type_canonicalization_and_validation():
    merged = JordanType.of([(0, [(2, 1)]), (0, [(2, 1), (1, 1)])])
    assert merged == JordanType.of({0: [(1, 1), (2, 2)]})
    assert merged.dimension == 5
    with pytest.raises(ValueError):
        JordanType.of({0: [(0, 1)]})
    with pytest.raises(ValueError):
        JordanType.of({0: [(2, 0)]})
    with pytest.raises(ValueError):
        JordanType.of({})


def test_eigenvalue_order_is_canonical():
    jt = JordanType.of({3: [(1, 1)], Fraction(1, 2): [(1, 1)], "z": [(1, 1)], "a": [(1, 1)]})
    assert [eig for eig, _ in jt.eigen_blocks] == [Fraction(1, 2), Fraction(3), "a", "z"]


def test_jordan_basis_reconstruction(j23):
    cases = [j23, diag(5), Matrix([[1, 1], [0, 1]])]
    cases += [random_conjugate(jordan_matrix(jt), 3) for jt in rational_corpus_types(max_dim=5)]
    for t in cases:
        basis = jordan_basis(t)
        jt = basis.jordan_type
        assert basis.inverse_transform @ t @ basis.transform == jordan_matrix(jt)


def test_convention_pinned_on_upper_triangular_input():
    basis = jordan_basis(Matrix([[1, 1], [0, 1]]))
    recon = basis.inverse_transform @ basis.matrix @ basis.transform
    assert recon == Matrix([[1, 0], [1, 1]])


def test_chains_match_type_and_powers(j23):
    basis = jordan_basis(j23)
    assert [(c.size, c.index) for c in basis.chains] == [(2, 1), (3, 1)]
    for chain in basis.chains:
        shift = basis.matrix - Matrix.identity(5).scaled(chain.eigenvalue)
        for t in range(chain.size):
            assert chain.vectors[t] == power(shift, t) @ chain.vectors[0]


def test_jordan_form_input_keeps_standard_basis(j23):
    assert jordan_basis(j23).transform == Matrix.identity(5)


def test_single_scalar_matrix():
    basis = jordan_basis(diag(5))
    assert len(basis.chains) == 1
    assert basis.transform == Matrix.identity(1)


def test_coords_round_trip():
    t = random_conjugate(jordan_matrix(JordanType.of({0: [(2, 1), (3, 1)]})), 11)
    basis = jordan_basis(t)
    v = Matrix.column([1, "2/3", -1, 0, 4])
    coords = coords_in_jordan_basis(basis, v)
    assert basis.transform @ coords == v


def test_coords_identity_transform(j23):
    basis = jordan_basis(j23)
    v = Matrix.column([1, 2, 3, 4, 5])
    assert coords_in_jordan_basis(basis, v) == v


def test_coords_dimension_mismatch(j23):
    basis = jordan_basis(j23)
    with pytest.raises(ValueError):
        coords_in_jordan_basis(basis, Matrix.column([1, 2]))


def test_chain_generator_sum_has_unit_chain_top_coordinates(j23):
    basis = jordan_basis(j23)
    total = basis.chains[0].vectors[0] + basis.chains[1].vectors[0]
    coords = coords_in_jordan_basis(basis, total)
    tops = {slot.offset for slot in chain_slots(basis.jordan_type)}
    for i in range(5):
        assert coords[i, 0] == (1 if i in tops else 0)


def test_block_sizes_account_for_algebraic_multiplicity():
    for jt in rational_corpus_types(max_dim=6):
        t = jordan_matrix(jt)
        for eig, mult in rational_eigenvalues(t):
            blocks = dict(jt.eigen_blocks)[eig]
            assert sum(size * m for size, m in blocks) == mult


def test_jordan_matrix_rejects_symbolic_labels():
    with pytest.raises(TypeError):
        jordan_matrix(JordanType.of({"a": [(2, 1)]}))


def test_chain_slots_layout():
    jt = JordanType.of({0: [(1, 2), (2, 1)], 1: [(1, 1)]})
    slots = chain_slots(jt)
    assert [(s.size, s.index, s.offset) for s in slots] == [
        (1, 1, 0),
        (1, 2, 1),
        (2, 1, 2),
        (1, 1, 4),
    ]
    assert slots[-1].eigenvalue == Fraction(1)
