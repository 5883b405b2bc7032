import pytest

from centorbits.counting import gen_function
from centorbits.classify import orbit_dimension
from centorbits.jordan import JordanType
from centorbits.lattice import CapExceeded, enumerate_labels, orbit_count

from conftest import corpus_types

T135 = JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})


def test_gen_function_refuses_a_dimension_over_the_cap():
    with pytest.raises(CapExceeded, match="refusing to enumerate 1000001 generating-function degrees"):
        gen_function(JordanType.of({0: [(10**6 + 1, 1)]}))


def test_gen_function_refuses_too_many_additions():
    # sizes 1..300 once each: dimension 45150 is under the degree cap, but the
    # 300 factors make 18000400 additions (about 2 s when they were made)
    many_sizes = JordanType.of({0: [(s, 1) for s in range(1, 301)]})
    with pytest.raises(CapExceeded, match=r"refusing to enumerate 18000400 generating-function additions \(cap 10000000\)"):
        gen_function(many_sizes)
    assert len(gen_function(JordanType.of({0: [(s, 1) for s in range(1, 101)]}))) == 5051
    assert gen_function(JordanType.of({0: [(1000, 1000)]}))[1000] == 1


def test_flagship_generating_function():
    f = gen_function(T135)
    assert f == (1, 1, 2, 2, 3, 3, 2, 2, 1, 1)
    assert sum(f) == 18


def test_single_block_generating_function():
    for n in range(1, 7):
        f = gen_function(JordanType.of({0: [(n, 1)]}))
        assert f == tuple([1] * (n + 1))


def test_repeated_block_generating_function():
    f = gen_function(JordanType.of({0: [(2, 2)]}))
    assert f == (1, 0, 1, 0, 1)


def test_multi_eigenvalue_product():
    jt = JordanType.of({1: [(1, 1)], 2: [(1, 1)]})
    assert gen_function(jt) == (1, 2, 1)


def test_orbit_count_examples():
    assert orbit_count(T135) == 18
    for n in range(1, 9):
        assert orbit_count(JordanType.of({0: [(n, 1)]})) == n + 1
    assert orbit_count(JordanType.of({0: [(2, 1), (3, 1), (7, 1)]})) == 30


def test_count_equals_evaluation_at_one():
    for jt in corpus_types():
        assert sum(gen_function(jt)) == orbit_count(jt)


def test_degree_equals_dimension():
    for jt in corpus_types():
        assert len(gen_function(jt)) - 1 == jt.dimension


def test_coefficients_are_palindromic():
    for jt in corpus_types():
        coeffs = gen_function(jt)
        assert coeffs == tuple(reversed(coeffs))


def test_histogram_agreement():
    for jt in corpus_types():
        histogram = {}
        for label in enumerate_labels(jt):
            d = orbit_dimension(jt, label)
            histogram[d] = histogram.get(d, 0) + 1
        coeffs = gen_function(jt)
        assert histogram == {d: c for d, c in enumerate(coeffs) if c}


def test_multiplicity_changes_f_but_not_count():
    base = JordanType.of({0: [(2, 1), (3, 1)]})
    bumped = JordanType.of({0: [(2, 2), (3, 1)]})
    assert orbit_count(base) == orbit_count(bumped) == 6
    assert gen_function(base) != gen_function(bumped)
