import random
from fractions import Fraction

import pytest

from centorbits.centralizer import centralizer_basis, sample_invertible, shift_operator_rows, shift_tags
from centorbits.classify import (
    classify_chain_coordinates,
    classify_vector,
    comparability,
    invariant_positions,
    orbit_dimension,
    representative,
    same_solution_class,
)
from centorbits.jordan import JordanType, chain_slots, coords_in_jordan_basis, jordan_basis, jordan_matrix
from centorbits.lattice import bottom, enumerate_labels, label_for, leq, top
from centorbits.linalg import Matrix, ShapeError

from conftest import rational_corpus_types, transform_column
from test_jordan import random_conjugate

T23 = JordanType.of({0: [(2, 1), (3, 1)]})


def chain_span_oracle(jt, coords):
    """Closure subspace straight from the action: span of all basis operators applied."""
    n = jt.dimension
    images = []
    for src, tgt, t in shift_tags(jt):
        rows = shift_operator_rows(n, src, tgt, t)
        image = [sum(Fraction(rows[i][j]) * coords[j, 0] for j in range(n)) for i in range(n)]
        images.append(image)
    return Matrix(images)  # row span = closure subspace


def rows_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


def test_zero_vector_is_bottom(j23):
    basis = jordan_basis(j23)
    report = classify_vector(basis, Matrix.column([0] * 5))
    assert report.label == bottom(T23)
    assert report.orbit_dimension == 0
    assert report.label.is_bottom() and not report.label.is_top()


def test_sum_of_generators_is_top(j23):
    basis = jordan_basis(j23)
    v = transform_column(basis, 0) + transform_column(basis, 2)  # the chain tops, at offsets 0 and 2
    report = classify_vector(basis, v)
    assert report.label == top(T23)
    assert report.orbit_dimension == 5
    assert report.label.is_top()


def test_shifted_generator_closure(j23):
    # e4 sits one step down the size-3 chain; closure picks up one step of the
    # size-2 chain as well, giving heights (1, 2) and dimension 3
    basis = jordan_basis(j23)
    report = classify_vector(basis, Matrix.column([0, 0, 0, 1, 0]))
    assert report.label.heights == ((1, 2),)
    assert report.label == label_for(T23, [(1, 1)])
    assert report.orbit_dimension == 3
    span = chain_span_oracle(T23, Matrix.column([0, 0, 0, 1, 0]))
    assert span.rank() == 3
    expected = Matrix([[0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    assert set(invariant_positions(T23, report.label)) == {1, 3, 4}
    stacked = Matrix(rows_of(span) + rows_of(expected))
    assert stacked.rank() == 3


def test_classify_against_span_oracle_exhaustively():
    rng = random.Random(5)
    for jt in rational_corpus_types(max_dim=6):
        n = jt.dimension
        for _ in range(12):
            coords = Matrix.column([rng.randint(-2, 2) for _ in range(n)])
            report = classify_chain_coordinates(jt, coords)
            span = chain_span_oracle(jt, coords)
            assert span.rank() == report.orbit_dimension
            positions = invariant_positions(jt, report.label)
            unit_rows = Matrix.identity(n)
            predicted_rows = [list(unit_rows.row(p)) for p in positions]
            if predicted_rows:
                stacked = Matrix(rows_of(span) + predicted_rows)
                assert stacked.rank() == len(positions)
            else:
                assert span.rank() == 0


def test_round_trip_on_every_corpus_label(corpus):
    for jt in corpus:
        for label in enumerate_labels(jt):
            rep = representative(jt, label)
            assert all(rep[i, 0] in (0, 1) for i in range(jt.dimension))
            assert classify_chain_coordinates(jt, rep).label == label


def test_representative_endpoints():
    assert representative(T23, bottom(T23)) == Matrix.column([0] * 5)
    rep = representative(T23, top(T23))
    assert [rep[i, 0] for i in range(5)] == [1, 0, 1, 0, 0]


def test_representative_for_middle_label_sits_one_step_down_each_chain():
    # heights (1, 2): one step into the size-2 chain, one step into the size-3 chain
    label = label_for(T23, [(1, 1)])
    rep = representative(T23, label)
    assert [rep[i, 0] for i in range(5)] == [0, 1, 0, 1, 0]
    assert classify_chain_coordinates(T23, rep).label == label


def test_representative_rejects_foreign_label():
    other = JordanType.of({0: [(3, 1)]})
    with pytest.raises(ValueError):
        representative(T23, bottom(other))


def test_orbit_dimension_examples():
    t135 = JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})
    assert orbit_dimension(t135, top(t135)) == 9
    assert orbit_dimension(t135, bottom(t135)) == 0
    single = JordanType.of({0: [(4, 1)]})
    for l in range(5):
        assert orbit_dimension(single, label_for(single, [(l,)])) == l


def test_orbit_dimension_tail_sum_equals_weighted_heights(corpus):
    for jt in corpus:
        for label in enumerate_labels(jt):
            weighted = sum(
                m * h
                for (_, blocks), heights in zip(jt.eigen_blocks, label.heights)
                for (_, m), h in zip(blocks, heights)
            )
            assert orbit_dimension(jt, label) == weighted


def test_label_invariant_under_commuting_action(j23):
    basis = jordan_basis(j23)
    cb = centralizer_basis(basis)
    rng = random.Random(17)
    for seed in range(20):
        v = Matrix.column([rng.randint(-3, 3) for _ in range(5)])
        u = sample_invertible(cb, seed)
        assert classify_vector(basis, u @ v).label == classify_vector(basis, v).label


def test_classification_monotone_under_the_nilpotent_part():
    for jt in rational_corpus_types(max_dim=6):
        if len(jt.eigen_blocks) != 1:
            continue
        eig = jt.eigen_blocks[0][0]
        t = jordan_matrix(jt)
        basis = jordan_basis(t)
        shift = t - Matrix.identity(jt.dimension).scaled(eig)
        rng = random.Random(23)
        for _ in range(10):
            v = Matrix.column([rng.randint(-2, 2) for _ in range(jt.dimension)])
            lower = classify_vector(basis, shift @ v).label
            upper = classify_vector(basis, v).label
            assert leq(lower, upper)


def test_only_zero_hits_bottom_and_generic_hits_top(j23):
    basis = jordan_basis(j23)
    rng = random.Random(3)
    for _ in range(20):
        v = Matrix.column([rng.randint(-2, 2) for _ in range(5)])
        report = classify_vector(basis, v)
        assert report.label.is_bottom() == (v == Matrix.column([0] * 5))
    generic = Matrix.column([1, 2, 3, 4, 5])
    assert classify_vector(basis, generic).label.is_top()


def test_same_solution_class(j23):
    basis = jordan_basis(j23)
    v = Matrix.column([1, 0, 2, 0, 0])
    equal, r1, r2 = same_solution_class(basis, v, v.scaled(2))
    assert equal and r1.label == r2.label

    generator = Matrix.column([0, 0, 1, 0, 0])  # size-3 chain top
    dropped = j23 @ generator
    equal, r1, r2 = same_solution_class(basis, generator, dropped)
    assert not equal
    assert r1.label.heights == ((2, 3),)
    assert r2.label.heights == ((1, 2),)


def test_comparability_strings():
    labels = enumerate_labels(T23)
    for a in labels:
        assert comparability(a, a) == "="
    a = label_for(T23, [(0, 1)])
    b = label_for(T23, [(1, 1)])
    assert comparability(a, b) == "<"
    assert comparability(b, a) == ">"
    t135 = JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})
    assert comparability(label_for(t135, [(0, 2, 2)]), label_for(t135, [(1, 0, 0)])) == "incomparable"


def test_mixed_eigenvalues_classify_componentwise():
    jt = JordanType.of({1: [(1, 1)], 2: [(1, 1)]})
    t = jordan_matrix(jt)
    basis = jordan_basis(t)
    e1 = Matrix.column([1, 0])
    assert classify_vector(basis, e1).label == label_for(jt, [(1,), (0,)])
    both = Matrix.column([1, 1])
    assert classify_vector(basis, both).label.is_top()
    assert classify_vector(basis, both).orbit_dimension == 2


def test_classify_vector_dimension_mismatch(j23):
    basis = jordan_basis(j23)
    for v, shape in ((Matrix.column([1, 2, 3]), "3x1"), (Matrix([[1, 2]] * 5), "5x2")):
        for call in (classify_vector, coords_in_jordan_basis, lambda b, w: same_solution_class(b, w, w)):
            with pytest.raises(ShapeError) as refusal:
                call(basis, v)
            assert str(refusal.value) == f"vector must be 5x1, got {shape}"


@pytest.mark.parametrize("coords, shape", [(Matrix.column([0]), "1x1"), (Matrix([[0, 0], [0, 0]]), "2x2")])
def test_chain_coordinates_need_an_n_by_1_vector(coords, shape):
    jt = JordanType.of({0: [(2, 1)]})
    with pytest.raises(ValueError, match=f"vector must be 2x1, got {shape}"):
        classify_chain_coordinates(jt, coords)


def test_classify_vector_reads_the_chain_coordinates_of_p_inverse_v():
    types = rational_corpus_types(max_dim=9) + [
        JordanType.of({3: [(1, 2), (2, 1)], Fraction(-1, 2): [(1, 1), (3, 1)]}),
    ]
    for seed, jt in enumerate(types):
        rng = random.Random(seed)
        basis = jordan_basis(random_conjugate(jordan_matrix(jt), seed))
        cb = centralizer_basis(basis)
        n, slots = jt.dimension, chain_slots(jt)
        vectors = [Matrix.column([0] * n)]
        for _ in range(8):
            # chain coordinates with whole chains zero, then mapped back by P
            coords = [rng.randint(-2, 2) for _ in range(n)]
            for slot in rng.sample(slots, rng.randint(1, len(slots))):
                coords[slot.offset:slot.offset + slot.size] = [0] * slot.size
            vectors.append(basis.transform @ Matrix.column(coords))
            vectors.append(Matrix.column([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]))
        units = [sample_invertible(cb, s) for s in range(3)]
        for v in vectors:
            for w in [v] + [u @ v for u in units]:
                expected = classify_chain_coordinates(jt, basis.inverse_transform @ w)
                assert classify_vector(basis, w) == expected, (jt, w)
                assert classify_vector(basis, w).label == classify_vector(basis, v).label


def test_classify_vector_takes_no_matrix_product(monkeypatch):
    jt = JordanType.of({0: [(1, 1), (3, 1)], 2: [(2, 2)]})
    basis = jordan_basis(random_conjugate(jordan_matrix(jt), 13))
    vectors = [Matrix.column([1, 0, "2/3", -1, 0, 4, 0, 1]), Matrix.column([0] * 8)]
    expected = [classify_chain_coordinates(jt, basis.inverse_transform @ v) for v in vectors]

    def refuse(self, other):
        raise AssertionError("classification multiplied two matrices")

    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    assert [classify_vector(basis, v) for v in vectors] == expected
    assert same_solution_class(basis, *vectors) == (False, *expected)

