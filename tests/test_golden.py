"""Golden CLI transcripts: exit code and sha256 of stdout for fixed runs.

The recorded digests in ``golden_cli.json`` pin the exact bytes every verb
prints on the test corpus and on a few fixed rational matrices, so that a
refactor of the exact core or the lattice code cannot change any output
unnoticed. The table is data, not code: a run missing from it, or a
recorded run this file no longer makes, fails the test.

The CLI prints labels only, never a sampled commuting invertible, so
``golden_samples.json`` separately pins the sha256 of
``str(sample_invertible(...))`` for each fixed matrix and seeds 0-3, and
``golden_exact.json`` pins the characteristic polynomial, the eigenvalues
and the chain basis P and P^-1 of 20 seeded planted matrices of dimension
6-21.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from centorbits import Matrix, centralizer_basis, cli, jordan_basis
from centorbits.centralizer import sample_invertible
from centorbits.jordan import (
    JordanType,
    characteristic_polynomial,
    jordan_matrix,
    rational_eigenvalues,
)

from conftest import corpus_types, j23_matrix

GOLDEN = Path(__file__).with_name("golden_cli.json")
GOLDEN_SAMPLES = Path(__file__).with_name("golden_samples.json")
SAMPLE_SEEDS = range(4)

# Fixed rational matrices: S J S^-1 for integer S of determinant 1.
MATRICES = {
    "j23": [[str(x) for x in j23_matrix().row(i)] for i in range(5)],
    # eigenvalues -1/2 (one block of size 2) and 2 (blocks of sizes 1 and 2)
    "halves": [
        ["41/2", "-15/2", "5/2", "-1", "-5/2"],
        ["50", "-35/2", "13/2", "-11/2", "-13/2"],
        ["41/2", "-6", "4", "-19/2", "-2"],
        ["21", "-15/2", "5/2", "-3/2", "-5/2"],
        ["37/2", "-15/2", "5/2", "-1", "-1/2"],
    ],
    # eigenvalues 0 (blocks of sizes 1 and 3) and 1 (blocks of sizes 1 and 2)
    "seven": [
        ["0", "21", "10", "-12", "-13", "-5", "3"],
        ["-1", "29", "13", "-17", "-20", "-7", "5"],
        ["0", "-2", "0", "4", "8", "2", "-2"],
        ["-4", "119", "56", "-62", "-63", "-25", "15"],
        ["0", "0", "0", "0", "1", "0", "0"],
        ["4", "-140", "-67", "71", "67", "29", "-15"],
        ["-2", "45", "21", "-23", "-21", "-9", "6"],
    ],
    "scalar": [["3", "0"], ["0", "3"]],
}

VECTORS = {
    "j23": ["0,0,0,1,0", "1,1,1,1,1", "1,0,2,0,0", "0,0,0,0,0"],
    "halves": ["1,0,0,0,0", "1,-1/2,0,3,2", "0,2,-1,0,1/3", "5,1,2,1,5"],
    "seven": ["1,0,0,0,0,0,0", "0,1,-1,2,0,0,1", "3,1,4,1,5,9,2", "0,0,0,0,1,0,0"],
    "scalar": ["1,0", "0,0"],
}


def _jordan_doc(jt) -> dict:
    return {
        "jordan": [
            {"eigenvalue": str(eig), "blocks": [list(b) for b in blocks]}
            for eig, blocks in jt.eigen_blocks
        ]
    }


def golden_runs() -> list:
    """(name, spec document, argv after the spec path) for every recorded run."""
    runs = []
    for i, jt in enumerate(corpus_types()):
        doc = _jordan_doc(jt)
        runs.append((f"corpus{i} analyze", doc, ["analyze"]))
        runs.append((f"corpus{i} lattice json", doc, ["lattice", "--format", "json"]))
        runs.append((f"corpus{i} lattice dot", doc, ["lattice", "--format", "dot"]))
        if jt.dimension <= 6:
            runs.append((f"corpus{i} verify 2", doc, ["verify", "--prime", "2"]))
    for name, rows in MATRICES.items():
        doc = {"matrix": rows}
        vectors = VECTORS[name]
        runs.append((f"{name} analyze", doc, ["analyze"]))
        runs.append((f"{name} lattice json", doc, ["lattice", "--format", "json"]))
        for k, v in enumerate(vectors):
            runs.append((f"{name} classify {k}", doc, ["classify", "--vector", v]))
            runs.append((f"{name} compare seed {k}", doc, ["compare", "--vector", v, "--seed", "0"]))
        for k, (v1, v2) in enumerate(zip(vectors, vectors[1:])):
            runs.append((f"{name} compare pair {k}", doc, ["compare", "--vector", v1, "--vector", v2]))
    return runs


def transcript(tmp_path, capsys, doc, argv) -> list:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([argv[0], str(spec), *argv[1:]])
    out = capsys.readouterr().out
    return [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_golden_table_covers_exactly_the_runs(recorded):
    assert sorted(recorded) == sorted(name for name, _, _ in golden_runs())


@pytest.mark.parametrize(
    "name, doc, argv", [pytest.param(*run, id=run[0]) for run in golden_runs()]
)
def test_cli_output_matches_golden(tmp_path, capsys, recorded, name, doc, argv):
    assert transcript(tmp_path, capsys, doc, argv) == recorded[name]


def test_sampled_invertibles_match_golden():
    recorded = json.loads(GOLDEN_SAMPLES.read_text())
    assert sorted(recorded) == sorted(MATRICES)
    for name, rows in MATRICES.items():
        cb = centralizer_basis(jordan_basis(Matrix(rows)))
        digests = [
            hashlib.sha256(str(sample_invertible(cb, s)).encode("utf-8")).hexdigest()
            for s in SAMPLE_SEEDS
        ]
        assert digests == recorded[name], name


# -- exact core --------------------------------------------------------------

GOLDEN_EXACT = Path(__file__).with_name("golden_exact.json")
EXACT_SEEDS = range(20)
PRIMES = (10007, 10009, 65537, 99991)
FRACTIONS = (Fraction(-7, 3), Fraction(5, 2), Fraction(1, 4), Fraction(-9, 5))


def planted_matrix(seed: int) -> Matrix:
    """S J S^-1 for a seeded Jordan type of dimension 6-21 and a seeded S of determinant 1.

    Every type has a 5-digit prime and a fractional eigenvalue, and every
    other one has 0 as well. S is a product of unit triangular matrices
    with sparse entries in {-1, 0, 1}.
    """
    rng = random.Random(seed)
    n = 6 + 15 * seed // (len(EXACT_SEEDS) - 1)
    eigs = [Fraction(rng.choice(PRIMES)), rng.choice(FRACTIONS)]
    if seed % 2 == 0:
        eigs.append(Fraction(0))
    blocks: dict = {}
    left, k = n, 0
    while left:
        size = rng.randint(1, min(left, 4))
        blocks.setdefault(eigs[k % len(eigs)], []).append((size, 1))
        left -= size
        k += 1

    def unit_triangular(lower: bool) -> Matrix:
        return Matrix(
            [[1 if i == j else (rng.choice((-1, 0, 0, 1)) if (i > j) == lower else 0)
              for j in range(n)] for i in range(n)]
        )

    s = unit_triangular(True) @ unit_triangular(False)
    return s @ jordan_matrix(JordanType.of(blocks)) @ s.inverse()


def exact_digests(t: Matrix) -> list:
    basis = jordan_basis(t)
    texts = [
        str(characteristic_polynomial(t)),
        str(rational_eigenvalues(t)),
        str(basis.transform),
        str(basis.inverse_transform),
    ]
    return [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts]


def test_exact_core_matches_golden():
    recorded = json.loads(GOLDEN_EXACT.read_text())
    assert sorted(recorded) == sorted(f"planted{seed}" for seed in EXACT_SEEDS)
    for seed in EXACT_SEEDS:
        assert exact_digests(planted_matrix(seed)) == recorded[f"planted{seed}"], seed
