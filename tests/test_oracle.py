from fractions import Fraction

import pytest

from centorbits.jordan import JordanType, jordan_matrix
from centorbits.lattice import CapExceeded, enumerate_labels
from centorbits.oracle import (
    PrimeFieldMatrix,
    _require_prime,
    all_subspaces,
    compare_with_prediction,
    eigenvalues_mod_p,
    gaussian_binomial,
    invariant_subspaces_bruteforce,
    subspace_count,
)


def test_gaussian_binomial_counts():
    assert [gaussian_binomial(2, k, 2) for k in range(3)] == [1, 3, 1]
    assert [gaussian_binomial(2, k, 3) for k in range(3)] == [1, 4, 1]
    assert [gaussian_binomial(3, k, 2) for k in range(4)] == [1, 7, 7, 1]


def test_all_subspaces_counts_and_uniqueness():
    for p, n, expected in ((2, 2, 5), (3, 2, 6), (2, 3, 16)):
        subs = list(all_subspaces(p, n))
        assert len(subs) == expected == subspace_count(n, p)
        assert len(set(subs)) == expected


def test_all_subspaces_rejects_nonprime_and_cap():
    with pytest.raises(ValueError):
        list(all_subspaces(4, 2))
    with pytest.raises(CapExceeded):
        list(all_subspaces(2, 3, cap=3))


def test_scan_refused_before_anything_is_built(monkeypatch):
    import centorbits.oracle as oracle

    def never(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(oracle, "enumerate_labels", never)
    monkeypatch.setattr(oracle, "shift_operator_rows", never)
    huge = JordanType.of({0: [(1, 200)]})
    for scan in (oracle.compare_with_prediction, oracle.invariant_subspaces_bruteforce):
        with pytest.raises(CapExceeded, match=r"at least 2\^200 subspaces of F_2\^200"):
            scan(huge, 2)
    with pytest.raises(CapExceeded):
        oracle.compare_with_prediction(JordanType.of({0: [(3, 1)]}), 2, cap=15)
    with pytest.raises(ValueError, match="not a prime"):
        oracle.compare_with_prediction(huge, 4)


@pytest.mark.parametrize(
    "p, prime",
    [
        (2, True), (3, True), (37, True), (41, True), (1, False), (0, False), (-7, False),
        (561, False),  # Carmichael number
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (318665857834031151167461, False),  # strong pseudoprime to bases 2 through 37
        (10**17 + 1, False),
        (10**17 + 3, True),
    ],
)
def test_require_prime_is_exact(p, prime):
    if prime:
        _require_prime(p)
    else:
        with pytest.raises(ValueError, match="is not a prime"):
            _require_prime(p)


def test_require_prime_refuses_what_it_cannot_certify():
    with pytest.raises(ValueError, match="too large to certify"):
        _require_prime(3317044064679887385961981)


def test_single_block_flag_subspaces():
    jt = JordanType.of({0: [(3, 1)]})
    subs = invariant_subspaces_bruteforce(jt, 2)
    assert [s.dimension for s in subs] == [0, 1, 2, 3]
    # chain coordinates (v, Nv, N^2 v): the flag fills from the tail end
    assert subs[1].entries == ((0, 0, 1),)
    assert subs[2].entries == ((0, 1, 0), (0, 0, 1))


def test_scalar_matrix_has_only_trivial_invariant_subspaces():
    jt = JordanType.of({1: [(1, 2)]})
    subs = invariant_subspaces_bruteforce(jt, 2)
    assert [s.dimension for s in subs] == [0, 2]


def test_blocks_one_two_match_generating_function():
    jt = JordanType.of({0: [(1, 1), (2, 1)]})
    subs = invariant_subspaces_bruteforce(jt, 2)
    assert [s.dimension for s in subs] == [0, 1, 2, 3]
    verdict = compare_with_prediction(jt, 2)
    assert verdict.passed
    assert verdict.label_count == verdict.bruteforce_count == 4


def test_two_block_example_verdict():
    jt = JordanType.of({0: [(2, 1), (3, 1)]})
    for p in (2, 3):
        verdict = compare_with_prediction(jt, p)
        assert verdict.passed
        assert verdict.label_count == verdict.bruteforce_count == 6
        assert verdict.mismatch is None


def test_count_independent_of_prime():
    types = [
        JordanType.of({0: [(1, 2)]}),
        JordanType.of({0: [(1, 1), (2, 1)]}),
        JordanType.of({0: [(2, 2)]}),
        JordanType.of({0: [(1, 1), (3, 1)]}),
    ]
    for jt in types:
        counts = {p: len(invariant_subspaces_bruteforce(jt, p)) for p in (2, 3)}
        assert counts[2] == counts[3]


def test_corrupted_prediction_is_caught():
    jt = JordanType.of({0: [(1, 1), (2, 1)]})
    labels = enumerate_labels(jt)
    dropped = compare_with_prediction(jt, 2, labels=labels[:-1])
    assert not dropped.passed
    assert "not predicted" in dropped.mismatch
    duplicated = compare_with_prediction(jt, 2, labels=labels[:-1] + [labels[0]])
    assert not duplicated.passed


def test_multi_eigenvalue_verdict():
    jt = JordanType.of({0: [(1, 1)], 1: [(2, 1)]})
    verdict = compare_with_prediction(jt, 3)
    assert verdict.passed
    assert verdict.label_count == 6


def test_symbolic_labels_are_accepted():
    jt = JordanType.of({"a": [(1, 1)], "b": [(2, 1)]})
    verdict = compare_with_prediction(jt, 2)
    assert verdict.passed


def test_eigenvalue_mapping_errors():
    half = JordanType.of({Fraction(1, 2): [(1, 1)]})
    with pytest.raises(ValueError, match="not representable"):
        eigenvalues_mod_p(half, 2)
    collide = JordanType.of({0: [(1, 1)], 2: [(1, 1)]})
    with pytest.raises(ValueError, match="coincide"):
        eigenvalues_mod_p(collide, 2)
    assert eigenvalues_mod_p(collide, 3) == {Fraction(0): 0, Fraction(2): 2}
    with pytest.raises(ValueError, match="not representable"):
        invariant_subspaces_bruteforce(half, 2)


def test_prime_field_matrix_validation():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2, 1, 2, ((0, 3),))
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2, 2, 2, ((0, 1),))


def test_predicted_subspaces_are_coordinate_subspaces():
    jt = JordanType.of({0: [(2, 1), (3, 1)]})
    verdict = compare_with_prediction(jt, 2)
    assert verdict.passed
    subs = invariant_subspaces_bruteforce(jt, 2)
    for sub in subs:
        for row in sub.entries:
            assert sum(row) == 1  # every echelon row is a unit vector
