import dataclasses
import itertools
import pickle
import random
import re
import sys
import threading
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centorbits import jordan, linalg
from centorbits.jordan import (
    CapExceeded,
    ChainPlan,
    JordanType,
    NonSplittingCharPoly,
    chain_slots,
    characteristic_polynomial,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    rational_eigenvalues,
)
from centorbits.linalg import Matrix, _integer_rref, _lowest_terms, _primitive

from conftest import RATIONALS, corpus_types, power, rank, rational_corpus_types, transform_column
from test_cli import primorial_below
from test_golden import EXACT_SEEDS, planted_matrix
from test_golden import MATRICES as GOLDEN_MATRICES


def diag(*values):
    n = len(values)
    return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])


def random_conjugate(m, seed):
    """Q^-1 m Q for a seeded random invertible integer Q."""
    rng = random.Random(seed)
    n = m.rows
    while True:
        q = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if rank(q) == n:
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
    so many leading blocks are triangular or decouple from the rows below."""
    n = draw(st.integers(1, max_dim))
    below = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), RATIONALS)
    return Matrix([[draw(below if i > j else RATIONALS) for j in range(n)] for i in range(n)])


@st.composite
def dense_small_denominator_matrices(draw, max_dim=6):
    """Dense matrices with entries a/b, |a| <= 9 and b <= 30, so that d T has
    large entries once d, the lcm of the denominators, clears them."""
    n = draw(st.integers(1, max_dim))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 30))
    return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@given(st.one_of(sparse_subdiagonal_matrices(), dense_small_denominator_matrices()))
@settings(deadline=None)
def test_characteristic_polynomial_matches_faddeev_leverrier(t):
    coeffs = characteristic_polynomial(t)
    assert coeffs == faddeev_leverrier(t)
    assert all(isinstance(c, Fraction) for c in coeffs)


def test_a_triangular_grid_gives_what_faddeev_leverrier_gives():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 10)
        den = rng.randint(1, 6)
        upper = [[Fraction(rng.randint(-20, 20), den) if j >= i else 0 for j in range(n)] for i in range(n)]
        for grid in (upper, list(zip(*upper))):
            t = Matrix(grid)
            c, d = jordan._integer_charpoly(t)
            assert d == t._den
            assert tuple(Fraction(x, d ** k) for k, x in enumerate(c)) == faddeev_leverrier(t)
            assert characteristic_polynomial(t) == faddeev_leverrier(t)


def test_a_triangular_grid_takes_no_product(monkeypatch):
    products = []

    def counting(a, b):
        products.append((a, b))
        return a * b

    monkeypatch.setattr(jordan, "mul", counting)
    upper = Matrix([[i + j + 1 if j >= i else 0 for j in range(12)] for i in range(12)])
    lower = Matrix([[i - j - 1 if j <= i else 0 for j in range(12)] for i in range(12)])
    for t in (upper, lower, Matrix.identity(40)):
        characteristic_polynomial(t)
    assert products == []
    # neither upper nor lower triangular, but each step has a zero row or column part
    mixed = Matrix([[1, 2, 0], [0, 3, 0], [4, 5, 6]])
    assert jordan._integer_charpoly(mixed) == ([1, -10, 27, -18], 1)
    assert products == []
    characteristic_polynomial(upper + Matrix([[int(i == 5 and j == 0) for j in range(12)] for i in range(12)]))
    assert products


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_a_dense_grid_takes_the_cube_sum_of_products(monkeypatch, n):
    """Step k of Berkowitz's recurrence takes k dot products R M^j C and k - 1 products M^j C, k^2 calls each.

    Over the steps, sum k^3 = (n(n - 1)/2)^2 calls of mul; computing M^k C too, which no entry
    reads, would add sum k^2.
    """
    calls = []

    def counting(a, b):
        calls.append(None)
        return a * b

    rng = random.Random(n)
    t = Matrix([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
    monkeypatch.setattr(jordan, "mul", counting)
    assert characteristic_polynomial(t) == faddeev_leverrier(t)
    assert len(calls) == (n * (n - 1) // 2) ** 2


def companion(*coeffs) -> Matrix:
    """Companion matrix of the monic polynomial x^n + coeffs[0] x^{n-1} + ... + coeffs[-1]."""
    n = len(coeffs)
    return Matrix([[int(i == j + 1) if j < n - 1 else -coeffs[n - 1 - i] for j in range(n)]
                   for i in range(n)])


def test_distinct_integer_roots_beyond_the_small_primes():
    # 0..30 are distinct only modulo a prime of at least 31
    t = random_conjugate(diag(*range(31)), 5)
    assert rational_eigenvalues(t) == [(Fraction(i), 1) for i in range(31)]


def poly_product(factors) -> list:
    """The product of integer polynomials, coefficients highest first."""
    c = [1]
    for factor in factors:
        c = [sum(c[i] * factor[k - i] for i in range(len(c)) if 0 <= k - i < len(factor))
             for k in range(len(c) + len(factor) - 1)]
    return c


def pseudo_remainder(a: list, b: list) -> list:
    """A multiple of a mod b by a nonzero constant, leading zeros stripped (highest first)."""
    lead = b[0]
    while len(a) >= len(b):
        c = a[0]
        a = [lead * x for x in a[1:]]
        for k in range(len(b) - 1):
            a[k] -= c * b[k + 1]
        while a and a[0] == 0:
            a.pop(0)
    return a


def remainder_sequence_part(f: list) -> list:
    """f / gcd(f, f') as a primitive integer polynomial, up to sign, by a primitive remainder sequence over Z:
    the reference for jordan._square_free_part."""
    a, b = _primitive(f), _primitive(jordan._derivative(f))
    common = [1]
    while len(b) > 1:
        r = pseudo_remainder(a, b)
        if not r:
            common = b
            break
        a, b = b, _primitive(r)
    # common is primitive and divides f, so by Gauss's lemma the quotient is integral
    quotient, rest = [], list(f)
    while len(rest) >= len(common):
        q = rest[0] // common[0]
        quotient.append(q)
        rest = [x - q * y for x, y in zip(rest[1:], common[1:] + [0] * len(rest))]
    return _primitive(quotient)


def random_product(rng, bound, shift=0, degrees=(1, 3)):
    """(c, squared): a product of 1-4 random monic factors with coefficients in [-bound, bound], some
    squared. With a shift, each linear factor x + a becomes x + (a shift - 1), so every root of one is
    1 modulo each prime dividing shift."""
    factors, squared = [], False
    for _ in range(rng.randint(1, 4)):
        factor = [1] + [rng.randint(-bound, bound) for _ in range(rng.randint(*degrees))]
        if len(factor) == 2 and shift:
            factor[1] = factor[1] * shift - 1
        exponent = rng.choice((1, 1, 2))
        squared |= exponent == 2
        factors += [factor] * exponent
    return poly_product(factors), squared


def test_square_free_test_mod_p_agrees_with_the_remainder_sequence():
    # products of random monic factors, some squared; a square must never pass
    for seed in range(40):
        c, squared = random_product(random.Random(seed), 50)
        passed = len(jordan._gcd_mod(c, jordan.SQUARE_FREE_PRIME)) == 1
        assert passed == (remainder_sequence_part(c) == c)
        assert not (passed and squared)
    # x^3 - 2 is square-free, but (x + 1)^3 mod 3, where 3 also divides the degree
    assert len(jordan._gcd_mod([1, 0, 0, -2], 5)) == 1
    assert jordan._gcd_mod([1, 0, 0, -2], 3) == [1, 0, 0, 1]
    # x^2 - 3x + 2 is x^2 + x mod 2, square-free although its derivative drops a degree
    assert len(jordan._gcd_mod([1, -3, 2], 2)) == 1


def test_gcd_mod_a_prime_power_refuses_a_leading_coefficient_that_is_no_unit():
    # f' = 3x^2 - 3, and 3 is no unit mod 9
    assert jordan._gcd_mod([1, 0, -3, 0], 9) is None
    assert jordan._gcd_mod([1, 0, -3, 0], 25) == [1]


def test_square_free_part_equals_the_remainder_sequence():
    # coefficients up to 10^30; the part is monic, the reference primitive up to sign
    for seed in range(60):
        c, _ = random_product(random.Random(seed), 10**30)
        part = jordan._square_free_part(c)
        assert part[0] == 1
        assert part in (reference := remainder_sequence_part(c), [-x for x in reference])


def test_square_free_part_walks_past_primes_where_roots_coincide(monkeypatch):
    # the linear factors' roots agree modulo SQUARE_FREE_PRIME and the next two primes
    primes = list(itertools.islice(filter(jordan._is_prime, itertools.count(jordan.SQUARE_FREE_PRIME)), 4))
    shift = primes[0] * primes[1] * primes[2]
    moduli, gcd_mod = [], jordan._gcd_mod
    monkeypatch.setattr(jordan, "_gcd_mod", lambda f, m: moduli.append(m) or gcd_mod(f, m))
    for seed in range(40):
        c, _ = random_product(random.Random(seed), 10**6, shift, degrees=(1, 1))
        c = poly_product([c, [1, -1], [1, -1 - shift]])  # two roots that always coincide
        moduli.clear()
        reference = remainder_sequence_part(c)
        assert jordan._square_free_part(c) in (reference, [-x for x in reference])
        assert [m for m in moduli if m in primes] == primes
        assert all(m % primes[-1] == 0 for m in moduli[moduli.index(primes[-1]):])


def test_a_square_free_char_poly_takes_one_gcd_mod_the_first_prime(monkeypatch):
    # 20 distinct 250-bit roots: the gcd mod a power of q past Mignotte's bound would cost ~100 times more
    moduli, gcd_mod = [], jordan._gcd_mod
    monkeypatch.setattr(jordan, "_gcd_mod", lambda f, m: moduli.append(m) or gcd_mod(f, m))
    rng = random.Random(20)
    for _ in range(3):
        c = poly_product([[1, -rng.getrandbits(250)] for _ in range(20)])
        moduli.clear()
        assert jordan._square_free_part(c) == c
        assert moduli == [jordan.SQUARE_FREE_PRIME]


def test_a_gcd_mod_q_that_divides_f_but_not_f_prime_is_refused():
    # 1 and 1 + q coincide mod q, where x - 1 divides f exactly but not f', and f is square-free
    q = jordan.SQUARE_FREE_PRIME
    f = poly_product([[1, -1], [1, -1 - q]])
    assert jordan._square_free_part(f) == f
    assert sorted(jordan._integer_roots(f)) == [(1, 1), (1 + q, 1)]


def test_is_prime_agrees_with_trial_division():
    sieve = [False, False] + [True] * (10**5 - 2)
    for p in range(2, isqrt(10**5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [jordan._is_prime(p) for p in range(10**5)] == sieve


def test_roots_merged_by_every_prime_below_9000():
    # every prime below 9000 divides every difference of M, 2M and 3M
    m = primorial_below(9000)
    assert rational_eigenvalues(diag(m, 2 * m, 3 * m)) == [
        (Fraction(m), 1), (Fraction(2 * m), 1), (Fraction(3 * m), 1)]


def test_the_lift_stops_at_a_root_bound_read_off_g(monkeypatch):
    # the roots have about as many bits as M; 2 |g(0)| = 12 M^3 has three times as many
    m = primorial_below(3000)
    g = poly_product([[1, -m], [1, -2 * m], [1, -3 * m]])
    moduli, evaluate = [], jordan._eval_mod

    def recording(poly, x, modulus):
        moduli.append(modulus)
        return evaluate(poly, x, modulus)

    monkeypatch.setattr(jordan, "_eval_mod", recording)
    assert sorted(jordan._root_candidates(g)) == [m, 2 * m, 3 * m]
    assert max(moduli).bit_length() < 2 * ((3 * m).bit_length() + 3)


def test_one_inversion_per_root_mod_p(monkeypatch):
    # g'(x)^-1 is lifted with the root, so only the inverse mod p is taken
    m = primorial_below(3000)
    g = poly_product([[1, -m], [1, -2 * m], [1, -3 * m]])
    moduli = []

    def counting(base, exp, mod=None):
        if exp == -1:
            moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(jordan, "pow", counting, raising=False)
    p = next(p for p in filter(jordan._is_prime, itertools.count(2)) if len(jordan._gcd_mod(g, p)) == 1)
    walk = len(moduli)  # the inversions of the square-free tests on the way to p
    assert sorted(jordan._root_candidates(g)) == [m, 2 * m, 3 * m]
    assert moduli[2 * walk:] == [p] * 3


PRIMORIAL_200 = primorial_below(200)
# (x^2 - 2)(x^2 - 3)(x^2 - 6) has a root modulo every prime and none in Q
INTERSECTIVE = poly_product([[1, 0, -2], [1, 0, -3], [1, 0, -6]])
NON_LINEAR = ([1, 0, 1], [1, 1, 1], [1, 0, -PRIMORIAL_200], [1, PRIMORIAL_200, 1], INTERSECTIVE)


@st.composite
def planted_polynomials(draw):
    """(roots, factors): integer roots, multiples of the product of the primes
    below 200, with multiplicities, and monic factors with no rational root;
    degree at most 12 in all."""
    factors = draw(st.lists(st.sampled_from(NON_LINEAR), max_size=2)
                   .filter(lambda fs: sum(len(f) - 1 for f in fs) <= 8))
    room = 12 - sum(len(f) - 1 for f in factors)
    ks = draw(st.lists(st.integers(-6, 6), unique=True, min_size=1, max_size=room))
    roots, spare = [], room - len(ks)
    for k in ks:
        extra = draw(st.integers(0, min(2, spare)))
        spare -= extra
        roots.append((k * PRIMORIAL_200, 1 + extra))
    return roots, factors


@given(planted_polynomials())
@example(([(PRIMORIAL_200, 1), (-2 * PRIMORIAL_200, 2), (0, 1)], [INTERSECTIVE]))
@example(([(0, 3), (PRIMORIAL_200, 1), (-3 * PRIMORIAL_200, 2)], []))
@example(([(0, 2), (2 * PRIMORIAL_200, 1)], [[1, 1, 1]]))
@settings(max_examples=100, deadline=None)
def test_integer_roots_sharing_a_primorial_factor(planted):
    roots, factors = planted
    c = poly_product([[1, -r] for r, m in roots for _ in range(m)] + factors)
    if factors:
        residual = sum(len(f) - 1 for f in factors)
        with pytest.raises(NonSplittingCharPoly, match=rf"\(residual factor of degree {residual}\)"):
            jordan._integer_roots(c)
    else:
        assert sorted(jordan._integer_roots(c)) == sorted(roots)


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
    merged = JordanType.of({0: [(2, 1)], "0": [(2, 1), (1, 1)]})
    assert merged == JordanType.of({0: [(1, 1), (2, 2)]})
    assert merged.dimension == 5
    with pytest.raises(ValueError):
        JordanType.of({0: [(0, 1)]})
    with pytest.raises(ValueError):
        JordanType.of({0: [(2, 0)]})
    with pytest.raises(ValueError):
        JordanType.of({})


@pytest.mark.parametrize(
    "blocks",
    [[(2.7, 1)], [(2, True)], [(True, 1)], [(2, 1.0)], [(Fraction(2), 1)], [("2", 1)], [(2, True), (2, 1)]],
    ids=repr,
)
def test_jordan_type_refuses_non_integer_blocks(blocks):
    with pytest.raises(TypeError, match="size and multiplicity must be ints"):
        JordanType.of({0: blocks})
    with pytest.raises(TypeError, match="size and multiplicity must be ints"):
        JordanType(((Fraction(0), tuple(blocks[:1])),))


def test_eigenvalue_strings_read_as_rationals_first():
    assert JordanType.of({"1/2": [(1, 1)]}) == JordanType.of({Fraction(1, 2): [(1, 1)]})
    assert JordanType.of({"0": [(1, 1)], 0: [(1, 1)]}) == JordanType.of({0: [(1, 2)]})
    assert jordan_matrix(JordanType.of({" -3 ": [(2, 1)]})) == Matrix([[-3, 0], [1, -3]])
    assert JordanType.of({"mu": [(1, 1)]}).eigen_blocks[0][0] == "mu"
    for text in ("1e3", "1/0", " "):
        with pytest.raises(ValueError, match=repr(text) if text.strip() else "nonempty"):
            JordanType.of({text: [(1, 1)]})


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


CHAIN_CASES = {
    "j23": {0: [(2, 1), (3, 1)]},
    "halves": {Fraction(-1, 2): [(2, 1)], 2: [(1, 1), (2, 1)]},
    "seven": {0: [(1, 1), (3, 1)], 1: [(1, 1), (2, 1)]},
}


def test_chains_match_type_and_powers():
    for name, blocks in CHAIN_CASES.items():
        basis = jordan_basis(Matrix(GOLDEN_MATRICES[name]))
        assert basis.jordan_type == JordanType.of(blocks), name
        n = basis.dimension
        for slot in chain_slots(basis.jordan_type):
            shift = basis.matrix - Matrix.identity(n).scaled(slot.eigenvalue)
            chain = [transform_column(basis, slot.offset + k) for k in range(slot.size)]
            for t in range(slot.size + 1):
                assert power(shift, t) @ chain[0] == (
                    chain[t] if t < slot.size else Matrix([[0]] * n)
                ), (name, slot, t)


PLANTED_TYPES = rational_corpus_types() + [
    JordanType.of({0: [(1, 1), (2, 1), (4, 1)], 3: [(3, 1)]}),
    JordanType.of({Fraction(-1, 2): [(5, 1)], 2: [(1, 2), (2, 1)]}),
    JordanType.of({0: [(1, 3), (2, 3), (3, 1)]}),
]


def test_each_kernel_is_the_kernel_basis_of_the_power():
    for seed, jt in enumerate(PLANTED_TYPES):
        t = random_conjugate(jordan_matrix(jt), seed)
        for eig, _, grid, reductions in jordan._kernel_chains(t):
            nilpotent = Matrix._reduced(grid, t._den)
            for k, (rows, pivots) in enumerate(reductions, 1):
                kernel = jordan._kernel_vectors(rows, pivots, t.rows)
                # from the power reduced on its own, not from the chain of reductions
                expected = jordan._kernel_vectors(*jordan._integer_rref(power(nilpotent, k)._grid), t.rows)
                assert kernel == expected, (jt, eig, k)


def test_n_is_written_over_the_denominator_of_t():
    t = Matrix([["-1/2", 1], [0, "-1/2"]])
    [(eig, blocks, grid, _)] = jordan._kernel_chains(t)
    assert (eig, blocks, grid, t._den) == (Fraction(-1, 2), [(2, 1)], [[0, 2], [0, 0]], 2)


def test_each_reduction_after_the_first_has_the_rank_of_the_last_power(monkeypatch):
    jt = JordanType.of({0: [(1, 1), (2, 1), (4, 1)], 3: [(3, 1)]})
    t = random_conjugate(jordan_matrix(jt), 7)
    n = t.rows
    expected = []
    for eig, blocks in jt.eigen_blocks:
        shift = t - Matrix.identity(n).scaled(eig)
        expected += [n] + [rank(power(shift, k - 1)) for k in range(2, blocks[-1][0] + 1)]
    assert expected == [10, 7, 5, 4, 10, 9, 8]
    rows, reduce = [], jordan._integer_rref

    def recording(grid):
        grid = list(grid)
        rows.append(len(grid))
        return reduce(grid)

    monkeypatch.setattr(jordan, "_integer_rref", recording)
    assert jordan_type(t) == jt
    assert rows == expected


def count_builds(monkeypatch) -> tuple:
    """Patch jordan's kernel reader and every Matrix constructor to record calls: (kernels, matrices)."""
    kernels, matrices = [], []
    kernel_vectors, init, reduced, column = jordan._kernel_vectors, Matrix.__init__, Matrix._reduced, Matrix._column

    def counting_kernels(*args):
        kernels.append(args)
        return kernel_vectors(*args)

    def counting_init(self, *args):
        init(self, *args)
        matrices.append(self)

    def counting(build):
        def built(cls, *args):
            matrices.append(build(*args))
            return matrices[-1]
        return classmethod(built)

    monkeypatch.setattr(jordan, "_kernel_vectors", counting_kernels)
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_reduced", counting(reduced))
    monkeypatch.setattr(Matrix, "_column", counting(column))
    return kernels, matrices


def test_jordan_type_builds_no_kernel_basis_and_no_matrix(monkeypatch):
    jt = JordanType.of({0: [(1, 1), (3, 1)], Fraction(1, 2): [(2, 2)]})
    t = random_conjugate(jordan_matrix(jt), 5)
    kernels, matrices = count_builds(monkeypatch)
    assert jordan_type(t) == jt
    assert kernels == [] and matrices == []


def test_jordan_basis_stacks_columns_once_for_p(monkeypatch):
    jt = JordanType.of({0: [(1, 2), (3, 1)], Fraction(1, 2): [(2, 2)]})
    t = random_conjugate(jordan_matrix(jt), 3)
    kernels, matrices = count_builds(monkeypatch)
    basis = jordan_basis(t)
    assert basis.jordan_type == jt
    # one kernel per power reduced: 3 for 0, 2 for 1/2
    assert len(kernels) == 5
    # kernel and chain vectors are integer columns: every Matrix built is n x n, and P is built once
    assert all((m.rows, m.cols) == (t.rows, t.rows) for m in matrices)
    assert [m for m in matrices if m == basis.transform] == [basis.transform]
    assert any(m is basis.transform for m in matrices)


def reference_transform(t: Matrix) -> Matrix:
    """P with each size's tops chosen by a reduction over all n coordinates, chains as n x 1 matrices."""
    n, columns = t.rows, []
    for _, blocks, grid, reductions in jordan._kernel_chains(t):
        nilpotent = Matrix._reduced(grid, t._den)
        kernels = [[]] + [[Matrix._column(*v) for v in jordan._kernel_vectors(rows, pivots, n)]
                          for rows, pivots in reductions]
        chains = []
        for size in range(len(kernels) - 1, 0, -1):
            forced = kernels[size - 1] + [c[len(c) - size] for c in chains]
            candidates = forced + kernels[size]
            _, pivots = jordan._integer_rref([[c._grid[i][0] for c in candidates] for i in range(n)])
            found = [[candidates[c]] for c in pivots if c >= len(forced)]
            assert len(found) == dict(blocks).get(size, 0)
            for chain in found:
                for _ in range(size - 1):
                    chain.append(nilpotent @ chain[-1])
            chains = found + chains
        columns += [vec for chain in chains for vec in chain]
    return Matrix([[c[i, 0] for c in columns] for i in range(n)])


# planted types with repeated block sizes and fractional eigenvalues, n = 13-21
TOP_SELECTION_TYPES = [
    JordanType.of({Fraction(1, 2): [(2, 3), (3, 2)], -1: [(1, 2), (4, 1)]}),
    JordanType.of({Fraction(-3, 4): [(1, 3), (2, 2)], Fraction(5, 3): [(3, 2)], 0: [(2, 2)]}),
    JordanType.of({Fraction(2, 7): [(1, 1), (2, 2), (4, 2)]}),
    JordanType.of({0: [(1, 4), (3, 3)], Fraction(1, 3): [(2, 4)]}),
    JordanType.of({Fraction(-1, 2): [(1, 2), (2, 2), (3, 2)], Fraction(7, 5): [(1, 3)]}),
]


@pytest.mark.parametrize("jt", TOP_SELECTION_TYPES, ids=lambda jt: f"n{jt.dimension}")
def test_tops_chosen_in_the_free_coordinates_give_the_reference_basis(jt):
    for seed in range(3):
        t = random_conjugate(jordan_matrix(jt), 100 * jt.dimension + seed)
        basis = jordan_basis(t)
        p = reference_transform(t)
        assert basis.transform == p, (jt, seed)
        assert basis.inverse_transform == p.inverse(), (jt, seed)


def triangular_grid(rng: random.Random, n: int, bits: int) -> Matrix:
    """Upper triangular with getrandbits(bits) entries on and above the diagonal, so n integer eigenvalues."""
    return Matrix([[rng.getrandbits(bits) if j >= i else 0 for j in range(n)] for i in range(n)])


def reference_chain_inverse(p: Matrix) -> Matrix:
    """P^-1 read off the integer chain columns: with P = Q diag(1/d_j), each column of P in lowest terms
    over its own d_j, P^-1 is Q^-1 with row j times d_j, and [Q | I] row-reduces to Q^-1."""
    n = p.rows
    columns = [_lowest_terms(list(column), p._den) for column in zip(*p._grid)]
    m, pivots = _integer_rref([[*(values[i] for values, _ in columns), *(int(i == j) for j in range(n))]
                               for i in range(n)])
    assert pivots[:n] == tuple(range(n))
    den = lcm(*(row[i] for i, row in enumerate(m)))
    q_inv = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(m)]
    return Matrix._reduced([[d * x for x in row] for row, (_, d) in zip(q_inv, columns)], den)


@pytest.mark.parametrize("n, bits", [(6, 250), (8, 64), (10, 150), (12, 250)])
def test_p_inverse_is_the_inverse_of_the_integer_columns_with_rows_scaled(n, bits):
    rng = random.Random(n)
    for _ in range(2):
        basis = jordan_basis(triangular_grid(rng, n, bits))
        assert basis.transform._den > 1
        assert basis.inverse_transform == reference_chain_inverse(basis.transform)


def test_p_inverse_of_the_planted_goldens_is_the_integer_column_reference():
    for seed in EXACT_SEEDS:
        basis = jordan_basis(planted_matrix(seed))
        assert basis.inverse_transform == reference_chain_inverse(basis.transform), seed


def test_p_inverse_eliminates_on_columns_no_longer_than_the_integer_chain_columns(monkeypatch):
    basis = jordan_basis(triangular_grid(random.Random(1), 10, 150))
    p = basis.transform
    # Q's columns: P's, each in lowest terms over its own denominator
    q = [_lowest_terms(list(column), p._den)[0] for column in zip(*p._grid)]
    longest = max(abs(x).bit_length() for column in q for x in column)
    reduced, integer_rref = [], linalg._integer_rref

    def spy(rows):
        reduced.append([list(row) for row in rows])
        return integer_rref(reduced[-1])

    monkeypatch.setattr(linalg, "_integer_rref", spy)
    assert p.inverse() == basis.inverse_transform
    [rows] = reduced
    left = [row[:p.cols] for row in rows]
    assert all(gcd(*column) == 1 for column in zip(*left))
    assert max(abs(x).bit_length() for row in left for x in row) <= longest
    assert basis.inverse_transform @ p == Matrix.identity(p.rows)


def reference_plan(jt):
    """The chain layout walked afresh over ``eigen_blocks``: the reference for ``JordanType.plan``."""
    sizes, mults, offsets = [], [], []
    offset = 0
    for _, blocks in jt.eigen_blocks:
        size_row, mult_row = zip(*blocks)
        sizes.append(size_row)
        mults.append(mult_row)
        columns = []
        for size, mult in blocks:
            columns.append(tuple(range(offset, offset + size * mult, size)))
            offset += size * mult
        offsets.append(tuple(columns))
    return ChainPlan(tuple(sizes), tuple(mults), tuple(offsets))


def seeded_type(seed):
    """A type of 1 to 3 eigenvalues, rational or symbolic, with 1 to 3 sizes of multiplicity 1 to 3 each."""
    rng = random.Random(seed)
    eigenvalues = rng.sample([0, 1, Fraction(-1, 2), Fraction(7, 3), "a", "b", "c"], rng.randint(1, 3))
    return JordanType.of({eig: [(size, rng.randint(1, 3)) for size in rng.sample(range(1, 7), rng.randint(1, 3))]
                          for eig in eigenvalues})


def test_the_type_carries_its_plan():
    jt = JordanType.of({0: [(1, 2), (3, 1)], Fraction(1, 2): [(2, 2)]})
    basis = jordan_basis(random_conjugate(jordan_matrix(jt), 3))
    assert basis.jordan_type.plan == jt.plan == reference_plan(jt) == ChainPlan(
        sizes=((1, 3), (2,)), mults=((2, 1), (2,)), offsets=(((0, 1), (2,)), ((5, 7),)))
    assert hash(basis) == hash(jordan_basis(basis.matrix))
    with pytest.raises(dataclasses.FrozenInstanceError):
        jt.plan = None


def test_the_plan_and_the_chain_slots_are_the_reference_walk():
    types = [seeded_type(seed) for seed in range(60)]
    assert any(isinstance(eig, str) for jt in types for eig, _ in jt.eigen_blocks)
    assert any(mult > 1 for jt in types for _, blocks in jt.eigen_blocks for _, mult in blocks)
    for jt in types + corpus_types():
        plan = reference_plan(jt)
        assert jt.plan == plan, jt
        flat = [offset for columns in plan.offsets for chains in columns for offset in chains]
        assert [slot.offset for slot in chain_slots(jt)] == flat, jt


def test_threads_reading_a_fresh_plan_all_get_the_same_plan():
    jt = seeded_type(7)
    barrier, plans = threading.Barrier(8), []

    def read():
        barrier.wait(timeout=10)
        plans.append(jt.plan)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert plans == [reference_plan(jt)] * 8


def test_reading_the_plan_changes_no_equality_hash_repr_or_pickle():
    jt, twin = (JordanType.of({0: [(1, 2), (3, 1)], "a": [(2, 1)]}) for _ in range(2))
    before = hash(jt), repr(jt), pickle.loads(pickle.dumps(jt))
    assert jt.plan == reference_plan(jt)
    assert jt == twin == before[2] and before[2] == jt
    assert (hash(jt), repr(jt)) == before[:2] == (hash(twin), repr(twin))
    after = pickle.loads(pickle.dumps(jt))
    assert after == jt == before[2] and hash(after) == hash(jt) and repr(after) == repr(jt)
    assert after.plan == jt.plan


def test_reconstruction_check_catches_a_wrong_chain(j23, monkeypatch):
    kernel_chains = jordan._kernel_chains

    def doubled(t):
        for eig, blocks, grid, reductions in kernel_chains(t):
            yield eig, blocks, [[2 * x for x in row] for row in grid], reductions

    monkeypatch.setattr(jordan, "_kernel_chains", doubled)
    with pytest.raises(RuntimeError, match="Jordan basis reconstruction check failed"):
        jordan_basis(j23)


def test_jordan_form_input_keeps_standard_basis(j23):
    assert jordan_basis(j23).transform == Matrix.identity(5)


def test_single_scalar_matrix():
    basis = jordan_basis(diag(5))
    assert len(chain_slots(basis.jordan_type)) == 1
    assert basis.transform == Matrix.identity(1)


def test_coords_round_trip():
    t = random_conjugate(jordan_matrix(JordanType.of({0: [(2, 1), (3, 1)]})), 11)
    basis = jordan_basis(t)
    v = Matrix.column([1, "2/3", -1, 0, 4])
    coords = basis.inverse_transform @ v
    assert basis.transform @ coords == v


def test_coords_identity_transform(j23):
    basis = jordan_basis(j23)
    v = Matrix.column([1, 2, 3, 4, 5])
    assert basis.inverse_transform @ v == v


def test_coords_dimension_mismatch(j23):
    basis = jordan_basis(j23)
    with pytest.raises(ValueError):
        basis.inverse_transform @ Matrix.column([1, 2])


def test_chain_generator_sum_has_unit_chain_top_coordinates(j23):
    basis = jordan_basis(j23)
    tops = {slot.offset for slot in chain_slots(basis.jordan_type)}
    assert tops == {0, 2}
    total = transform_column(basis, 0) + transform_column(basis, 2)
    coords = basis.inverse_transform @ total
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
    # every corpus type, symbolic labels included, against a direct walk of its blocks
    for jt in corpus_types():
        walk, offset = [], 0
        for eig, blocks in jt.eigen_blocks:
            for size, mult in blocks:
                for index in range(1, mult + 1):
                    walk.append((eig, size, index, offset))
                    offset += size
        assert [(s.eigenvalue, s.size, s.index, s.offset) for s in chain_slots(jt)] == walk, jt
        assert offset == jt.dimension


@pytest.mark.parametrize("eigen_blocks, message", [
    (((Fraction(1), ((1, 1),)), (Fraction(0), ((1, 1),))), "eigenvalues must be distinct and canonically ordered"),
    (((Fraction(0), ((1, 1),)), (Fraction(0), ((2, 1),))), "eigenvalues must be distinct and canonically ordered"),
    (((Fraction(0), ()),), "eigenvalue Fraction(0, 1) has no blocks"),
    (((Fraction(0), ((2, 1), (1, 1))),), "block sizes for eigenvalue Fraction(0, 1) must strictly increase"),
    (((Fraction(0), ((1, 1), (1, 2))),), "block sizes for eigenvalue Fraction(0, 1) must strictly increase"),
    # labels that JordanType.of would read as a rational or strip
    ((("0", ((1, 1),)),), "eigenvalue '0' is not in canonical form; use JordanType.of"),
    ((("3/6", ((1, 1),)),), "eigenvalue '3/6' is not in canonical form; use JordanType.of"),
    (((" a ", ((1, 1),)),), "eigenvalue ' a ' is not in canonical form; use JordanType.of"),
    (((Fraction(0), ((1, 1),)), ("a ", ((1, 1),))), "eigenvalue 'a ' is not in canonical form; use JordanType.of"),
])
def test_non_canonical_types_are_refused(eigen_blocks, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        JordanType(eigen_blocks)


def test_of_parses_each_label_once(monkeypatch):
    calls, normalize = [], jordan._normalize_eigenvalue
    monkeypatch.setattr(jordan, "_normalize_eigenvalue", lambda eig: calls.append(eig) or normalize(eig))
    jt = JordanType.of({**{f"e{i}": [(1, 1)] for i in range(50)}, "1/2": [(2, 1)], " b ": [(1, 2)]})
    assert sorted(calls, key=str) == sorted([f"e{i}" for i in range(50)] + ["1/2", " b "], key=str)
    assert jt.eigen_blocks[0] == (Fraction(1, 2), ((2, 1),)) and ("b", ((1, 2),)) in jt.eigen_blocks
    # a type built directly still has every label parsed
    calls.clear()
    assert JordanType(jt.eigen_blocks) == jt and sorted(calls) == sorted(eig for eig, _ in jt.eigen_blocks[1:])


@pytest.mark.parametrize("blocks_by_eigenvalue, message", [
    ({}, "a Jordan type needs at least one eigenvalue"),
    ({0: []}, "eigenvalue Fraction(0, 1) has no blocks"),
    ({"b": [], 1: [(1, 1)], "a": []}, "eigenvalue 'a' has no blocks"),
])
def test_of_refuses_a_type_without_an_eigenvalue_or_a_block(blocks_by_eigenvalue, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        JordanType.of(blocks_by_eigenvalue)
    # keys that merge into one eigenvalue with blocks make a type
    assert JordanType.of({0: [], "0": [(1, 1)]}) == JordanType.of({0: [(1, 1)]})


@pytest.mark.parametrize("eig", [0, True, 1.5, None])
def test_eigenvalues_of_another_type_are_refused(eig):
    with pytest.raises(TypeError, match=re.escape(f"eigenvalue {eig!r} must be a Fraction or a symbolic label; "
                                                  "use JordanType.of")):
        JordanType(((eig, ((1, 1),)),))


def test_char_poly_needs_a_square_matrix():
    with pytest.raises(ValueError, match=re.escape("characteristic polynomial needs a square matrix, got 1x2")):
        characteristic_polynomial(Matrix([[1, 2]]))


@pytest.mark.parametrize("entry_point", [characteristic_polynomial, rational_eigenvalues, jordan_type, jordan_basis])
def test_every_entry_point_refuses_an_over_cap_grid_at_once(entry_point):
    # the matrix the CLI refuses in test_cli.py::test_long_entries_are_refused_at_once
    rng = random.Random(1000)
    t = Matrix([[str(rng.randrange(10**999, 10**1000)) for _ in range(32)] for _ in range(32)])
    bits = max(x.numerator.bit_length() for i in range(32) for x in t.row(i))
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as refusal:
        entry_point(t)
    assert time.perf_counter() - start < 2
    assert str(refusal.value) == f"refusing to enumerate {bits} bits in an integer of the grid of a 32-row matrix (cap 256)"
    with pytest.raises(CapExceeded, match=re.escape("refusing to enumerate 129 matrix rows (cap 128)")):
        entry_point(Matrix.identity(129))


def test_a_count_past_the_digit_limit_is_written_as_a_power_of_two():
    # str() writes at most sys.get_int_max_str_digits() digits (4300 by default); 2^16609 <= 10^5000 < 2^16610
    refusal = CapExceeded(10**5000, 1)
    assert str(refusal) == "refusing to enumerate at least 2^16609 lattice elements (cap 1)"
    assert (refusal.count, refusal.cap) == (10**5000, 1)
    assert str(CapExceeded(7, 2**20000, what="rows")) == "refusing to enumerate 7 rows (cap at least 2^20000)"
    nines = 10**4300 - 1
    assert str(CapExceeded(nines, 1)) == f"refusing to enumerate {'9' * 4300} lattice elements (cap 1)"


def test_entries_at_the_grid_cap_give_a_longer_eigenvalue():
    # 256 bits is the cap at n = 32; J holds 32 * 2^255, which no cap on construction may refuse
    basis = jordan_basis(Matrix([[2**255] * 32 for _ in range(32)]))
    assert basis.jordan_type == JordanType.of({0: [(1, 31)], 32 * 2**255: [(1, 1)]})
    assert jordan_matrix(basis.jordan_type)[31, 31] == 32 * 2**255
