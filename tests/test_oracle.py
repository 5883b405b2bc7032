import ast
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from centorbits import oracle
from centorbits.centralizer import centralizer_dimension, shift_operator_rows, shift_tags
from centorbits.classify import classify_chain_coordinates, invariant_positions
from centorbits.jordan import JordanType, jordan_matrix
from centorbits.lattice import CapExceeded, enumerate_labels
from centorbits.linalg import Matrix
from centorbits.oracle import (
    _require_prime,
    centralizer_mod_p,
    compare_with_prediction,
    eigenvalues_mod_p,
    gaussian_binomial,
    invariant_subspaces_bruteforce,
    jordan_mod_p,
    subspace_count,
)


# -- reference: the walk over every subspace that the line scan replaced ----


def all_subspaces(p: int, n: int):
    """Every subspace of F_p^n exactly once, as its reduced echelon basis (a tuple of row tuples).

    Enumerates pivot column sets in lexicographic order and fills the free
    positions (right of a pivot, outside pivot columns) with all field
    values.
    """
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_cells = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                grid = [[0] * n for _ in range(k)]
                for r in range(k):
                    grid[r][pivots[r]] = 1
                for (r, c), v in zip(free_cells, values):
                    grid[r][c] = v
                yield tuple(tuple(row) for row in grid)


def reference_echelon(vectors, p: int) -> tuple:
    """Reduced row echelon basis of the span of vectors with entries in [0, p), as row tuples.

    The tuple elimination the oracle ran before it packed its vectors: each
    vector is reduced left to right by the rows found so far until its first
    entry outside their leading columns, and the rows are fully reduced once,
    at the end.
    """
    rows = {}
    n = 0
    for v in sorted(vectors):
        n = len(v)
        for j in range(n):
            x = v[j]
            if x:
                row = rows.get(j)
                if row is None:
                    break
                v = [(a - x * b) % p for a, b in zip(v, row)]
        else:
            continue
        if x != 1:
            inv = pow(x, -1, p)
            v = [a * inv % p for a in v]
        rows[j] = v
        if len(rows) == n:
            return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    leads = sorted(rows)
    for i, lead in enumerate(leads):
        row = rows[lead]
        for other in leads[:i]:
            f = rows[other][lead]
            if f:
                rows[other] = [(a - f * b) % p for a, b in zip(rows[other], row)]
    return tuple(tuple(rows[lead]) for lead in leads)


def reference_centralizer(j: tuple, p: int) -> tuple:
    """A basis of {X : XJ = JX} over F_p, solved on tuple rows by reference_echelon.

    Unknown X[a][b] is number a*n + b; equation (i, k) is
    sum_c X[i][c] J[c][k] - sum_r J[i][r] X[r][k] = 0.
    """
    n = len(j)
    equations = [[0] * (n * n) for _ in range(n * n)]
    for r, row in enumerate(j):
        for c, a in enumerate(row):
            if a:
                for i in range(n):
                    equations[i * n + c][i * n + r] += a
                    equations[r * n + i][c * n + i] -= a
    reduced = reference_echelon([[a % p for a in eq] for eq in equations], p)
    pivots = {next(u for u, a in enumerate(row) if a): row for row in reduced}
    basis = []
    for free in range(n * n):
        if free not in pivots:
            x = [0] * (n * n)
            x[free] = 1
            for u, row in pivots.items():
                x[u] = -row[free] % p
            basis.append(tuple(tuple(x[a * n:(a + 1) * n]) for a in range(n)))
    return tuple(basis)


def _contains(sub: tuple, vec, p: int) -> bool:
    v = list(vec)
    for row in sub:
        pc = next(j for j, x in enumerate(row) if x)
        if v[pc]:
            f = v[pc]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(v)


def invariant_subspaces_walk(jt: JordanType, p: int) -> list:
    """Every subspace of F_p^n that each shift operator maps into itself, sorted as the oracle sorts.

    The shift operators are the library's own centralizer basis in chain
    coordinates (0/1 matrices), so this reference shares nothing with the
    oracle's mod-p solve.
    """
    n = jt.dimension
    operators = [shift_operator_rows(n, *op) for op in shift_tags(jt)]
    survivors = [
        sub
        for sub in all_subspaces(p, n)
        if all(
            _contains(sub, [sum(a * b for a, b in zip(op_row, row)) % p for op_row in op], p)
            for row in sub
            for op in operators
        )
    ]
    return sorted(survivors, key=lambda s: (len(s), s))


def _partitions(n: int, largest: int = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _blocks(partition) -> list:
    return sorted(Counter(partition).items())


def small_types(max_dimension: int) -> list:
    """Every Jordan type of dimension <= max_dimension with eigenvalues 0, or 0 and 1."""
    types = []
    for n in range(1, max_dimension + 1):
        types += [JordanType.of({0: _blocks(part)}) for part in _partitions(n)]
        for n0 in range(1, n):
            for part0 in _partitions(n0):
                for part1 in _partitions(n - n0):
                    types.append(JordanType.of({0: _blocks(part0), 1: _blocks(part1)}))
    return types


def _type_id(jt: JordanType) -> str:
    return "|".join(
        f"{eig}:" + ",".join(f"{size}x{mult}" for size, mult in blocks)
        for eig, blocks in jt.eigen_blocks
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


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("jt", small_types(5), ids=_type_id)
def test_line_scan_matches_the_subspace_walk(jt, p, monkeypatch):
    walk = invariant_subspaces_walk(jt, p)
    assert invariant_subspaces_bruteforce(jt, p) == walk
    labels = enumerate_labels(jt)

    def verdicts():
        found = []
        for ls in (labels, labels[:-1], labels[:-1] + [labels[0]]):
            monkeypatch.setattr(oracle, "enumerate_labels", lambda jt, ls=ls: ls)
            found.append(compare_with_prediction(jt, p))
        return found

    scanned = verdicts()
    assert scanned[0].passed and not scanned[1].passed and not scanned[2].passed

    def packed_walk(j, f):
        return [tuple(pack(f, row) for row in s) for s in walk]

    monkeypatch.setattr(oracle, "_invariant_subspaces", packed_walk)
    assert verdicts() == scanned


def _imported_modules(source: str) -> set:
    """Every dotted module name an import statement in the source refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            sep = "." if node.module else ""
            names.update(base + sep + alias.name for alias in node.names)
    return names


def _uses_centralizer(source: str) -> bool:
    return any("centralizer" in name.split(".") for name in _imported_modules(source))


def test_oracle_imports_nothing_from_the_centralizer():
    for planted in (
        "from .centralizer import shift_tags",
        "from . import centralizer",
        "import centorbits.centralizer",
        "from centorbits.centralizer import shift_operator_rows as rows",
    ):
        assert _uses_centralizer(planted)
    assert not _uses_centralizer(Path(oracle.__file__).read_text())


def _matmul(a, b, p):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)) for row in a
    )


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize(
    "blocks",
    [
        {0: [(3, 1)]},
        {0: [(1, 3)]},
        {0: [(2, 1), (3, 1)]},
        {0: [(1, 1), (2, 1), (4, 1)]},
        {0: [(1, 2), (2, 1)], 1: [(3, 1)]},
        {"a": [(2, 2)], 0: [(1, 1)]},
    ],
    ids=str,
)
def test_solved_algebra_commutes_and_has_the_centralizer_dimension(blocks, p):
    jt = JordanType.of(blocks)
    j = jordan_mod_p(jt, p)
    algebra = unpacked(centralizer_mod_p(j, p), p)
    assert len(algebra) == centralizer_dimension(jt)
    assert algebra == reference_centralizer(j, p)
    flat = [sum(x, ()) for x in algebra]
    assert len(reference_echelon(flat, p)) == len(algebra)
    for x in algebra:
        assert _matmul(x, j, p) == _matmul(j, x, p)


# -- the packed form: the reduction mod p, the echelon and the line walk ----

ABOVE_2_63 = 2**63 + 29  # the least prime above 2^63
LARGEST_CERTIFIED = 3317044064679887385961813  # the largest prime _require_prime accepts
PACKED_PRIMES = (2, 3, 5, 8191, ABOVE_2_63)


def pack(f, v) -> int:
    """v as one int of f.w-bit fields, v[0] in the top field."""
    return sum(a << f.w * i for i, a in enumerate(reversed(v)))


def unpacked(algebra: tuple, p: int) -> tuple:
    """The elements of an algebra centralizer_mod_p returns, from packed columns to row tuples."""
    return tuple(tuple(zip(*map(oracle._Packing(p, len(x)).unpack, x))) for x in algebra)


def line_spans(algebra: tuple, p: int):
    """Each line v of F_p^n with the echelon basis of A v, both as row tuples."""
    f = oracle._Packing(p, len(algebra[0]))
    for v, span in oracle._line_spans(algebra, f):
        yield f.unpack(v), tuple(map(f.unpack, span))


def _small_primes(bound: int) -> list:
    return [q for q in range(2, bound) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _assert_reduces(p: int, values, n: int):
    """values, n fields below p^2 at a time side by side, reduce to themselves mod p."""
    f = oracle._Packing(p, n)
    values = list(values)
    for i in range(0, len(values), n):
        fields = values[i:i + n]
        fields += [p * p - 1] * (n - len(fields))
        assert f.unpack(f.reduce(pack(f, fields))) == tuple(x % p for x in fields), (p, fields)


def test_the_reduction_is_exact_for_every_field_below_p_squared():
    rng = random.Random(256)
    primes = _small_primes(256)
    assert (primes[0], primes[-1], len(primes)) == (2, 251, 54)
    for p in primes:
        values = list(range(p * p))
        rng.shuffle(values)  # every x once, between random neighbours
        _assert_reduces(p, values, 64)


@pytest.mark.parametrize("p", (2**61 - 1, 10**17 + 3, LARGEST_CERTIFIED))
def test_the_reduction_is_exact_for_a_large_prime(p):
    _require_prime(p)
    edges = (0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p,
             (p - 1) ** 2, p - 1 + (p - 1) ** 2, p * p - p, p * p - 1)
    _assert_reduces(p, itertools.chain.from_iterable(itertools.product(edges, repeat=3)), 3)
    rng = random.Random(p)
    _assert_reduces(p, (rng.randrange(p * p) for _ in range(3000)), 3)


def random_vectors(rng: random.Random, p: int, n: int) -> list:
    """A few vectors of F_p^n: some dense, some mostly zero, and combinations of them.

    The combinations make most spans fall short of F_p^n, so rows are cleared.
    """
    vectors = [
        tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(n))
        for density in (1.0, 0.3) for _ in range(rng.randint(0, (n + 1) // 2))
    ]
    vectors += [
        tuple(sum(rng.randrange(p) * v[i] for v in vectors) % p for i in range(n))
        for _ in range(rng.randint(0, 3))
    ]
    return vectors


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_the_packed_echelon_is_the_tuple_echelon(p):
    rng = random.Random(p)
    for n in range(1, 14):
        f = oracle._Packing(p, n)
        for _ in range(25):
            vectors = random_vectors(rng, p, n)
            packed = oracle._echelon({pack(f, v) for v in vectors}, f)
            assert tuple(map(f.unpack, packed)) == reference_echelon(set(vectors), p)
            assert packed == tuple(sorted(packed, reverse=True))  # first pivot first is the larger int


def _random_grid(rng: random.Random, p: int, n: int, density: float) -> tuple:
    return tuple(tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_the_algebra_of_a_dense_grid_is_the_tuple_solve(p):
    rng = random.Random(p + 1)
    for n in range(1, 7):
        for density in (1.0, 0.3):
            j = _random_grid(rng, p, n, density)
            assert unpacked(centralizer_mod_p(j, p), p) == reference_centralizer(j, p)
    scalar = tuple(tuple(7 * int(r == c) % p for c in range(4)) for r in range(4))
    assert unpacked(centralizer_mod_p(scalar, p), p) == reference_centralizer(scalar, p)
    assert len(centralizer_mod_p(scalar, p)) == 16


@pytest.mark.parametrize("p, n", [(2, 1), (2, 6), (3, 4), (5, 3)])
def test_the_walk_yields_every_line_once_in_product_order(p, n):
    rng = random.Random(10 * p + n)
    algebra = centralizer_mod_p(_random_grid(rng, p, n, 0.4), p)
    found = list(line_spans(algebra, p))
    algebra = unpacked(algebra, p)
    lines = [
        (0,) * lead + (1,) + rest
        for lead in range(n) for rest in itertools.product(range(p), repeat=n - lead - 1)
    ]
    assert [v for v, _ in found] == lines
    assert len(found) == (p**n - 1) // (p - 1)
    assert all(next(a for a in v if a) == 1 for v, _ in found)
    for v, span in found:
        images = {tuple(sum(a * b for a, b in zip(row, v)) % p for row in x) for x in algebra}
        assert span == reference_echelon(images, p)


@pytest.mark.parametrize(
    "blocks, p",
    [
        ({0: [(1, 1), (2, 1)]}, 3),
        ({0: [(2, 1), (3, 1)]}, 2),
        ({0: [(1, 1), (2, 1), (4, 1)]}, 2),
        ({0: [(1, 2), (3, 1)]}, 3),
        ({0: [(1, 1)], 1: [(2, 2)]}, 2),
        ({0: [(2, 1)], 2: [(1, 1), (3, 1)]}, 3),
    ],
    ids=str,
)
def test_classify_names_the_cyclic_submodule_of_every_line(blocks, p):
    """For every line v, the label classify gives v's 0..p-1 representative spans A v."""
    jt = JordanType.of(blocks)
    n = jt.dimension
    for v, span in line_spans(centralizer_mod_p(jordan_mod_p(jt, p), p), p):
        label = classify_chain_coordinates(jt, Matrix.column(list(v))).label
        units = tuple(tuple(int(c == i) for c in range(n)) for i in invariant_positions(jt, label))
        assert units == span


def test_scan_refused_before_anything_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(oracle, "enumerate_labels", never)
    monkeypatch.setattr(oracle, "centralizer_mod_p", never)
    huge = JordanType.of({0: [(1, 200)]})
    for scan in (oracle.compare_with_prediction, oracle.invariant_subspaces_bruteforce):
        with pytest.raises(CapExceeded, match=r"at least 2\^199 lines of F_2\^200"):
            scan(huge, 2)
    with pytest.raises(CapExceeded):
        oracle.compare_with_prediction(JordanType.of({0: [(3, 1)]}), 2, cap=6)
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
    assert [len(s) for s in subs] == [0, 1, 2, 3]
    # chain coordinates (v, Nv, N^2 v): the flag fills from the tail end
    assert subs[1] == ((0, 0, 1),)
    assert subs[2] == ((0, 1, 0), (0, 0, 1))


def test_scalar_matrix_has_only_trivial_invariant_subspaces():
    jt = JordanType.of({1: [(1, 2)]})
    subs = invariant_subspaces_bruteforce(jt, 2)
    assert [len(s) for s in subs] == [0, 2]


def test_blocks_one_two_match_generating_function():
    jt = JordanType.of({0: [(1, 1), (2, 1)]})
    subs = invariant_subspaces_bruteforce(jt, 2)
    assert [len(s) for s in subs] == [0, 1, 2, 3]
    verdict = compare_with_prediction(jt, 2)
    assert verdict.passed
    assert verdict.labels == verdict.invariant_subspaces == 4


def test_two_block_example_verdict():
    jt = JordanType.of({0: [(2, 1), (3, 1)]})
    for p in (2, 3):
        verdict = compare_with_prediction(jt, p)
        assert verdict.passed
        assert verdict.labels == verdict.invariant_subspaces == 6
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


def test_corrupted_prediction_is_caught(monkeypatch):
    jt = JordanType.of({0: [(1, 1), (2, 1)]})
    labels = enumerate_labels(jt)
    monkeypatch.setattr(oracle, "enumerate_labels", lambda jt: labels[:-1])
    dropped = compare_with_prediction(jt, 2)
    assert not dropped.passed
    assert "not predicted" in dropped.mismatch
    monkeypatch.setattr(oracle, "enumerate_labels", lambda jt: labels[:-1] + [labels[0]])
    duplicated = compare_with_prediction(jt, 2)
    assert not duplicated.passed


def test_one_verdict_maps_the_eigenvalues_once(monkeypatch):
    calls = []
    mapped = oracle.eigenvalues_mod_p
    monkeypatch.setattr(oracle, "eigenvalues_mod_p", lambda jt, p: calls.append(p) or mapped(jt, p))
    assert compare_with_prediction(JordanType.of({0: [(1, 1)], 1: [(2, 1)]}), 3).passed
    assert calls == [3]


def test_the_algebra_is_solved_for_any_matrix_mod_p():
    # J = [[0, 1], [0, 0]] is a nilpotent block written upper triangular, outside chain coordinates
    j = ((0, 1), (0, 0))
    algebra = centralizer_mod_p(j, 3)
    assert sorted(unpacked(algebra, 3)) == [((0, 1), (0, 0)), ((1, 0), (0, 1))]
    spans = {span for _, span in line_spans(algebra, 3)}
    assert spans == {((1, 0),), ((1, 0), (0, 1))}


def test_non_invariant_prediction_is_named(monkeypatch):
    jt = JordanType.of({0: [(2, 1)]})

    def moved(jt, label):
        positions = invariant_positions(jt, label)
        return (0,) if positions == (1,) else positions

    monkeypatch.setattr(oracle, "invariant_positions", moved)
    verdict = compare_with_prediction(jt, 2)
    assert not verdict.passed
    assert verdict.mismatch == "predicted subspace for label ((1,),) (dimension 1) is not invariant"


def test_coordinate_count_mismatch_is_named_before_the_scan(monkeypatch):
    jt = JordanType.of({0: [(2, 1)]})

    def short(jt, label):
        positions = invariant_positions(jt, label)
        return positions[1:] if len(positions) == 2 else positions

    monkeypatch.setattr(oracle, "invariant_positions", short)
    verdict = compare_with_prediction(jt, 2)
    assert not verdict.passed
    assert verdict.invariant_subspaces == -1
    assert verdict.mismatch == "label ((2,),): coordinate count 1 differs from predicted dimension 2"


def test_multi_eigenvalue_verdict():
    jt = JordanType.of({0: [(1, 1)], 1: [(2, 1)]})
    verdict = compare_with_prediction(jt, 3)
    assert verdict.passed
    assert verdict.labels == 6


def test_default_cap_bounds_lines():
    oracle.check_scan(2, 13, oracle.DEFAULT_LINE_CAP)
    with pytest.raises(CapExceeded, match=r"at least 2\^13 lines of F_2\^14"):
        oracle.check_scan(2, 14, oracle.DEFAULT_LINE_CAP)
    with pytest.raises(CapExceeded, match=r"9841 lines of F_3\^9"):
        oracle.check_scan(3, 9, oracle.DEFAULT_LINE_CAP)


@pytest.mark.parametrize("p, cap, message", [
    (2.0, oracle.DEFAULT_LINE_CAP, "prime 2.0 and line cap 8191 must be ints"),
    (True, oracle.DEFAULT_LINE_CAP, "prime True and line cap 8191 must be ints"),
    (3, 100.0, "prime 3 and line cap 100.0 must be ints"),
    (3, None, "prime 3 and line cap None must be ints"),
], ids=["float-p", "bool-p", "float-cap", "none-cap"])
def test_scan_gate_refuses_a_prime_or_cap_that_is_no_int(p, cap, message):
    jt = JordanType.of({0: [(2, 1)]})
    with pytest.raises(TypeError, match=re.escape(message)):
        compare_with_prediction(jt, p, cap)
    if cap is oracle.DEFAULT_LINE_CAP:
        with pytest.raises(TypeError, match=re.escape(message)):
            invariant_subspaces_bruteforce(jt, p)


def test_symbolic_eigenvalues_take_spare_residues():
    jt = JordanType.of({"a": [(2, 1)], 1: [(1, 1)], "b": [(1, 1)]})
    residues = eigenvalues_mod_p(jt, 3)
    assert residues[Fraction(1)] == 1
    assert sorted(residues.values()) == [0, 1, 2]
    assert compare_with_prediction(jt, 3).passed
    with pytest.raises(ValueError, match="none is left"):
        eigenvalues_mod_p(jt, 2)
    abc = JordanType.of({"a": [(1, 1)], "b": [(1, 1)], "c": [(1, 1)]})
    with pytest.raises(ValueError, match="symbolic eigenvalue c needs a residue modulo 2"):
        compare_with_prediction(abc, 2)


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


def test_predicted_subspaces_are_coordinate_subspaces():
    jt = JordanType.of({0: [(2, 1), (3, 1)]})
    verdict = compare_with_prediction(jt, 2)
    assert verdict.passed
    subs = invariant_subspaces_bruteforce(jt, 2)
    for sub in subs:
        for row in sub:
            assert sum(row) == 1  # every echelon row is a unit vector
