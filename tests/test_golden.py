"""Golden CLI transcripts: exit code and sha256 of stdout for fixed runs.

The recorded digests in ``golden_cli.json`` pin the exact bytes every verb
prints on the test corpus and on a few fixed rational matrices, so that a
refactor of the exact core or the lattice code cannot change any output
unnoticed. The table is data, not code: a run missing from it, or a
recorded run this file no longer makes, fails the test.
"""

import hashlib
import json
from pathlib import Path

import pytest

from centorbits import cli

from conftest import corpus_types, j23_matrix

GOLDEN = Path(__file__).with_name("golden_cli.json")

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
