import importlib
import io
import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest

from centorbits import JordanType, cli, jordan, lattice, oracle
from centorbits.classify import orbit_dimension
from centorbits.lattice import (
    DEFAULT_ENUMERATION_CAP,
    _steps,
    column_sizes,
    enumerate_labels,
    hasse_covers,
    orbit_count,
)

from conftest import corpus_types

J23_DOC = {
    "matrix": [
        ["0", "0", "0", "0", "0"],
        ["1", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0"],
        ["0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "0"],
    ]
}
T135_DOC = {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [3, 1], [5, 1]]}]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_matrix(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 5
    assert payload["jordan_type"] == [{"eigenvalue": "0", "blocks": [[2, 1], [3, 1]]}]
    assert payload["increments"][0]["increments"] == [2, 1]
    assert payload["increments"][0]["tail_sums"] == [2, 1]
    assert payload["centralizer_dimension"] == 9
    assert payload["orbit_count"] == 6
    assert payload["generating_function"] == [1, 1, 1, 1, 1, 1]


def test_analyze_jordan_spec(tmp_path, capsys):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 18
    assert payload["generating_function"] == [1, 1, 2, 2, 3, 3, 2, 2, 1, 1]
    assert payload["centralizer_dimension"] == 19


def test_analyze_identity(tmp_path, capsys):
    spec = write(tmp_path, "id.json", {"matrix": [["1", "0"], ["0", "1"]]})
    code, out, _ = run_cli(capsys, "analyze", spec)
    payload = json.loads(out)
    assert payload["centralizer_dimension"] == 4
    assert payload["orbit_count"] == 2
    assert payload["generating_function"] == [1, 0, 1]


def test_symbolic_labels_flow_through_combinatorial_verbs(tmp_path, capsys):
    # "e" is the exponent letter of "1e5", but alone it is a label, not a number
    doc = {"jordan": [{"eigenvalue": "e", "blocks": [[2, 1]]}, {"eigenvalue": "mu", "blocks": [[1, 1]]}]}
    spec = write(tmp_path, "sym.json", doc)
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 6
    assert [e["eigenvalue"] for e in payload["jordan_type"]] == ["e", "mu"]
    code, out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 6
    code, out, _ = run_cli(capsys, "verify", spec, "--prime", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_analyze_non_splitting_matrix(tmp_path, capsys):
    spec = write(tmp_path, "rot.json", {"matrix": [["0", "-1"], ["1", "0"]]})
    code, _, err = run_cli(capsys, "analyze", spec)
    assert code == 2
    assert "Jordan block data directly" in err


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({}, "exactly one"),
        ({"matrix": [["1"]], "jordan": []}, "exactly one"),
        ({"matrix": [["1", "2"]]}, "square"),
        ({"matrix": [[0.5]]}, "matrix[0][0]"),
        ({"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [1, 2]]}]}, "duplicate block size"),
        ({"jordan": [{"eigenvalue": "", "blocks": [[1, 1]]}]}, "nonempty"),
        ({"jordan": [{"eigenvalue": "0", "blocks": [[0, 1]]}]}, ">= 1"),
        ({"spam": 1}, "unknown field"),
        ({"matrix": [["1"]], **{f"k{i}": 0 for i in range(1000)}}, "'k0', 'k1', 'k10', ... (1000 in all)\n"),
        ({"matrix": [["1/0"]]}, "matrix[0][0]"),
        ({"jordan": [{"eigenvalue": "1/0", "blocks": [[1, 1]]}]}, "jordan[0].eigenvalue"),
        ({"jordan": [{"eigenvalue": "0", "blocks": [[1, 1]]}, {"eigenvalue": "0/5", "blocks": [[1, 1]]}]},
         "error: jordan[1].eigenvalue: duplicate eigenvalue '0/5'\n"),
        ({"jordan": [{"eigenvalue": "0", "blocks": []}]}, "error: jordan[0].blocks: expected a non-empty list"),
        ({"jordan": [{"eigenvalue": "0", "blocks": [[1, True]]}]},
         "error: jordan[0].blocks[0]: expected [size, multiplicity] integers\n"),
    ],
)
def test_input_validation_names_fields(tmp_path, capsys, doc, fragment):
    spec = write(tmp_path, "bad.json", doc)
    code, _, err = run_cli(capsys, "analyze", spec)
    assert code == 2
    assert fragment in err


def test_lattice_json(tmp_path, capsys):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 18
    assert ["000", 0] in payload["nodes"]
    assert ["122", 9] in payload["nodes"]
    assert ["000", "001"] in payload["covers"]
    assert ["121", "122"] in payload["covers"]
    assert ["112", "121"] in payload["covers"]


def test_lattice_single_block_is_a_path(tmp_path, capsys):
    spec = write(tmp_path, "j3.json", {"jordan": [{"eigenvalue": "0", "blocks": [[3, 1]]}]})
    code, out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    payload = json.loads(out)
    assert payload["nodes"] == [["0", 0], ["1", 1], ["2", 2], ["3", 3]]
    assert payload["covers"] == [["0", "1"], ["1", "2"], ["2", "3"]]


def test_dot_round_trips_through_json(tmp_path, capsys):
    spec = write(tmp_path, "t135.json", T135_DOC)
    _, dot_out, _ = run_cli(capsys, "lattice", spec, "--format", "dot")
    _, json_out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    dot_edges = set(re.findall(r'"([^"]+)" -> "([^"]+)";', dot_out))
    json_edges = {tuple(pair) for pair in json.loads(json_out)["covers"]}
    assert dot_edges == json_edges
    dot_nodes = set(re.findall(r'"([^"]+)" \[dim=(\d+)\];', dot_out))
    json_nodes = {(name, str(dim)) for name, dim in json.loads(json_out)["nodes"]}
    assert dot_nodes == json_nodes


def test_lattice_cap_exceeded(tmp_path, capsys):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, out, err = run_cli(capsys, "lattice", spec, "--cap", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "18" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("verb", [["lattice"], ["verify", "--prime", "2"]])
def test_non_positive_cap_is_an_input_error(tmp_path, capsys, verb, cap):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, out, err = run_cli(capsys, verb[0], spec, *verb[1:], "--cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: --cap must be at least 1, got {cap}\n"


def wide_step_types() -> list:
    """Seeded types of 2-3 eigenvalues, one with a size step above 9; at most 3000 labels."""
    types = []
    for seed in range(6):
        rng = random.Random(seed)
        while True:
            eigs = rng.sample([0, Fraction(1, 3), "mu", -2], rng.randint(2, 3))
            sizes = [rng.sample(range(1, 30 if i == 0 else 6), rng.randint(1, 3)) for i in range(len(eigs))]
            jt = JordanType.of({
                eig: [(size, rng.randint(1, 3)) for size in group] for eig, group in zip(eigs, sizes)
            })
            if any(max(_steps(sizes)) > 9 for sizes in column_sizes(jt)) and orbit_count(jt) <= 3000:
                types.append(jt)
                break
    return types


# one eigenvalue's table of 8192 rows, cut into runs of lattice._BLOCK
ONE_LONG_TABLE = JordanType.of({0: [(size, 1) for size in range(1, 14)]})
# the last table has _BLOCK + 1 rows, so the top prefix's last run is the top label alone, with no cover
TOP_ALONE = JordanType.of({0: [(1, 1)], 1: [(2, 1), (4, 1), (6, 1), (24, 1)]})


def jordan_doc(jt) -> dict:
    return {
        "jordan": [
            {"eigenvalue": str(eig), "blocks": [list(b) for b in blocks]}
            for eig, blocks in jt.eigen_blocks
        ]
    }


@pytest.mark.parametrize("jt", corpus_types() + wide_step_types() + [
    ONE_LONG_TABLE,
    JordanType.of({0: [(1, 1)], "a": [(1, 1), (2, 1)], Fraction(1, 2): [(2, 1)], 3: [(1, 2), (3, 1)]}),
    TOP_ALONE,
], ids=str)
def test_streamed_lattice_matches_the_label_reference(tmp_path, capsys, jt):
    spec = write(tmp_path, "spec.json", jordan_doc(jt))
    nodes = [[cli.label_name(lab), orbit_dimension(jt, lab)] for lab in enumerate_labels(jt)]
    covers = [[cli.label_name(lo), cli.label_name(hi)] for lo, hi in hasse_covers(jt)]
    code, out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"nodes": nodes, "covers": covers}
    code, out, _ = run_cli(capsys, "lattice", spec, "--format", "dot")
    assert code == 0
    assert [[name, int(dim)] for name, dim in re.findall(r'"([^"]+)" \[dim=(\d+)\];', out)] == nodes
    assert [list(edge) for edge in re.findall(r'"([^"]+)" -> "([^"]+)";', out)] == covers
    assert "\n\n" not in out  # no separator doubled around a label without covers


def test_the_last_table_of_top_alone_ends_in_the_top_row():
    last = lattice.column_tables(TOP_ALONE, DEFAULT_ENUMERATION_CAP)[-1]
    assert len(last) == lattice._BLOCK + 1 and last[-1][2] == []


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_no_write_grows_with_the_label_count(tmp_path, monkeypatch, fmt):
    """8192 labels in one eigenvalue's table: 2.0 MB of json, 1.3 MB of dot, each write below 256 KiB."""
    class Recording(io.StringIO):
        def write(self, text):
            sizes.append(len(text))
            return super().write(text)

    sizes = []
    monkeypatch.setattr(sys, "stdout", Recording())
    assert cli.main(["lattice", write(tmp_path, "spec.json", jordan_doc(ONE_LONG_TABLE)), "--format", fmt]) == 0
    assert sum(sizes) == len(sys.stdout.getvalue()) > 2**20
    assert max(sizes) < 2**18


def test_closed_stdout_ends_quietly(tmp_path):
    """`lattice ... | head -2`: the reader leaves early, and the writer ends without a traceback."""
    spec = write(tmp_path, "big.json", {"jordan": [{"eigenvalue": "0", "blocks": [[99, 1], [198, 1]]}]})
    assert_quiet_after_two_lines([sys.executable, "-m", "centorbits", "lattice", spec, "--format", "json"])


def assert_quiet_after_two_lines(argv):
    """Read two lines of `lattice --format json` and close the pipe: no exit 1 and nothing on stderr."""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert [proc.stdout.readline() for _ in range(2)] == [b"{\n", b'  "nodes": [\n']
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) != 1
    assert err == b""


def test_a_deep_prefix_walk_ends_quietly(tmp_path):
    """One-block eigenvalues: 2^300 labels under a recursion limit of 200, 2^1200 in 512 MiB of address space."""
    # a walk with a frame per eigenvalue fails at the default limit from about 1000 eigenvalues, and the
    # lower limit shows the same failure small; a walk that keeps every level's swapped prefixes on its
    # stack grows as the cube of the eigenvalue count and needed 1179 MiB at 1200 before the first node
    for count, limit in ((300, "sys.setrecursionlimit(200)"),
                         (1200, "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))")):
        doc = {"jordan": [{"eigenvalue": str(i), "blocks": [[1, 1]]} for i in range(count)]}
        run = f"import resource, sys; {limit}; from centorbits.cli import main; sys.exit(main())"
        argv = [sys.executable, "-c", run, "lattice", write(tmp_path, f"deep{count}.json", doc), "--format", "json"]
        assert_quiet_after_two_lines(argv + ["--cap", str(10**400)])


def test_classify_zero_vector(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "classify", spec, "--vector", "0,0,0,0,0")
    payload = json.loads(out)
    assert code == 0
    assert payload["label"] == "00"
    assert payload["orbit_dimension"] == 0
    assert payload["is_bottom"] and not payload["is_top"]


def test_classify_shifted_generator(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "classify", spec, "--vector", "0,0,0,1,0")
    payload = json.loads(out)
    assert payload["label"] == "11"
    assert payload["orbit_dimension"] == 3
    assert payload["eigenvalues"] == [
        {"eigenvalue": "0", "deltas": [1, 1], "heights": [1, 2]}
    ]


def test_classify_generic_vector_is_top(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "classify", spec, "--vector", "1,1,1,1,1")
    payload = json.loads(out)
    assert payload["is_top"]
    assert payload["orbit_dimension"] == 5


def test_classify_requires_matrix_spec(tmp_path, capsys):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, _, err = run_cli(capsys, "classify", spec, "--vector", "1,0,0,0,0,0,0,0,0")
    assert code == 2
    assert "concrete matrix" in err


def test_compare_checks_its_flag_count_before_the_spec(tmp_path, capsys):
    # a jordan spec is itself an error for compare; the flag count is reported first, as classify does
    spec = write(tmp_path, "t135.json", T135_DOC)
    result = run_cli(capsys, "compare", spec, "--vector=1", "--vector=2", "--vector=3")
    assert result == (2, "", "error: compare takes one or two --vector flags, got 3\n")


def test_classify_vector_length_mismatch(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, _, err = run_cli(capsys, "classify", spec, "--vector", "1,2")
    assert code == 2
    assert "expected 5 components" in err


def test_classify_zero_denominator_component(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, _, err = run_cli(capsys, "classify", spec, "--vector", "1/0,0,0,0,0")
    assert code == 2
    assert "vector[0]" in err


def test_classify_takes_one_vector(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, err = run_cli(capsys, "classify", spec, "--vector", "1,0,0,0,0", "--vector", "0,1,0,0,0")
    assert (code, out) == (2, "")
    assert err == "error: classify takes one --vector flag, got 2\n"


def test_compare_scalar_multiple(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(
        capsys, "compare", spec, "--vector", "1,0,2,0,0", "--vector", "3,0,6,0,0"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["label1"] == payload["label2"] == "21"
    assert payload["comparable"] == "="


def test_compare_different_orbits(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(
        capsys, "compare", spec, "--vector", "0,0,0,1,0", "--vector", "1,0,0,0,0"
    )
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["label1"] == "11"
    assert payload["label2"] == "20"
    assert payload["comparable"] == "<"


def test_compare_sampled_commuting_image(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "compare", spec, "--vector", "0,1,0,1,2", "--seed", "11")
    payload = json.loads(out)
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["seed"] == 11


def test_compare_seed_with_two_vectors_is_an_error(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, _, err = run_cli(
        capsys, "compare", spec, "--vector", "1,0,0,0,0", "--vector", "0,1,0,0,0", "--seed", "1"
    )
    assert code == 2
    assert "single --vector" in err


def test_verify_pass(tmp_path, capsys):
    spec = write(tmp_path, "b12.json", {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [2, 1]]}]})
    code, out, _ = run_cli(capsys, "verify", spec, "--prime", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["labels"] == 4
    assert payload["invariant_subspaces"] == 4


def test_verify_two_block_example(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, out, _ = run_cli(capsys, "verify", spec, "--prime", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["invariant_subspaces"] == 6


def test_verify_unrepresentable_eigenvalue(tmp_path, capsys):
    spec = write(
        tmp_path, "half.json", {"jordan": [{"eigenvalue": "1/2", "blocks": [[1, 1]]}]}
    )
    code, _, err = run_cli(capsys, "verify", spec, "--prime", "2")
    assert code == 2
    assert "not representable" in err


def test_verify_cap_exceeded(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    code, _, err = run_cli(capsys, "verify", spec, "--prime", "3", "--cap", "10")
    assert code == 3


@pytest.mark.parametrize("blocks, expected", [([[3, 1]], 3), ([[1, 1]], 0)])
def test_verify_large_prime_ends_at_once(tmp_path, capsys, blocks, expected):
    spec = write(tmp_path, "big.json", {"jordan": [{"eigenvalue": "0", "blocks": blocks}]})
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", spec, "--prime", str(10**17 + 3))
    assert time.perf_counter() - start < 1
    assert code == expected
    assert "Traceback" not in err


def test_verify_needs_a_spare_residue_per_symbolic_eigenvalue(tmp_path, capsys):
    spec = write(tmp_path, "abc.json", {"jordan": [{"eigenvalue": e, "blocks": [[1, 1]]} for e in "abc"]})
    code, out, err = run_cli(capsys, "verify", spec, "--prime", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: symbolic eigenvalue") and err.count("\n") == 1
    code, out, _ = run_cli(capsys, "verify", spec, "--prime", "3")
    assert code == 0 and json.loads(out)["invariant_subspaces"] == 8


def test_verify_prime_too_large_to_certify(tmp_path, capsys):
    spec = write(tmp_path, "one.json", {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1]]}]})
    code, _, err = run_cli(capsys, "verify", spec, "--prime", str(2**89 - 1))
    assert code == 2
    assert "too large to certify" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, blocks",
    [
        (["verify", "--prime", "2"], [[1, 200]]),
        (["verify", "--prime", "2"], [[1, 2000]]),
        (["analyze"], [[10**8, 1]]),
        (["analyze"], [[k, 1] for k in range(1, 20001)]),
    ],
)
def test_huge_type_hits_a_cap_at_once(tmp_path, capsys, argv, blocks):
    spec = write(tmp_path, "huge.json", {"jordan": [{"eigenvalue": "0", "blocks": blocks}]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], spec, *argv[1:])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert err.startswith("error: refusing to enumerate") and err.count("\n") == 1


NINES = 10**4300 - 1  # 4300 digits, the most Python reads or writes an int in by default
NINES_DOC = {"jordan": [{"eigenvalue": "0", "blocks": [[NINES, NINES]]}]}


@pytest.mark.parametrize("argv, doc, refusal", [
    (["lattice"], {"jordan": [{"eigenvalue": f"e{i}", "blocks": [[1, 1]]} for i in range(15000)]},
     "at least 2^15000 lattice elements (cap 1000000)"),
    (["analyze"], NINES_DOC, "at least 2^28568 generating-function degrees (cap 1000000)"),
    (["lattice"], NINES_DOC, "at least 2^14284 lattice elements (cap 1000000)"),
    (["verify", "--prime", "2"], NINES_DOC, "at least 2^(n - 1) lines of F_2^n, n at least 2^28568 (cap 8191)"),
], ids=["symbolic-15000", "analyze-nines", "lattice-nines", "verify-nines"])
def test_a_count_too_long_to_write_is_still_one_refusal(capsys, monkeypatch, argv, doc, refusal):
    # the counts have more digits than str() writes (sys.get_int_max_str_digits()), so the refusal
    # names a power of two read off their bit length
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run_cli(capsys, argv[0], "-", *argv[1:]) == (3, "", f"error: refusing to enumerate {refusal}\n")


@pytest.mark.parametrize("argv, doc", [
    (["analyze"], {"matrix": [[2, 0, 0], [1, 2, 0], [0, 0, 5]]}),
    (["analyze"], {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [2, 2]]}, {"eigenvalue": "x", "blocks": [[3, 1]]}]}),
    (["lattice"], {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [2, 2]]}, {"eigenvalue": "x", "blocks": [[3, 1]]}]}),
    (["lattice", "--format", "dot"], {"jordan": [{"eigenvalue": "0", "blocks": [[2, 1], [3, 1]]}]}),
])
def test_analyze_and_lattice_build_no_chain_layout(tmp_path, capsys, monkeypatch, argv, doc):
    # only walkers of chain coordinates read JordanType.plan; these verbs count and list labels
    def refuse(jt):
        raise AssertionError(f"{argv[0]} built the chain layout of {jt}")

    monkeypatch.setattr(JordanType.plan, "func", refuse)
    code, out, err = run_cli(capsys, argv[0], write(tmp_path, "spec.json", doc), *argv[1:])
    assert code == 0 and out and err == ""


def test_large_prime_eigenvalues_end_at_once(tmp_path, capsys):
    spec = write(tmp_path, "primes.json", {"matrix": [["100000007", "0"], ["0", "100000037"]]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert [e["eigenvalue"] for e in json.loads(out)["jordan_type"]] == ["100000007", "100000037"]


def test_dense_rational_matrix_without_rational_roots_ends_at_once(tmp_path, capsys):
    rng = random.Random(25)
    doc = {"matrix": [[f"{rng.randint(-9, 9)}/{rng.randint(1, 30)}" for _ in range(25)]
                      for _ in range(25)]}
    spec = write(tmp_path, "dense.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "irrational or complex root" in err


def test_dense_square_free_char_poly_skips_the_remainder_sequence(tmp_path, capsys):
    # c = det(xI - dT) is square-free modulo SQUARE_FREE_PRIME, so its square-free part is one gcd mod that prime
    rng = random.Random(40)
    doc = {"matrix": [[f"{rng.randint(-9, 9)}/{rng.randint(1, 30)}" for _ in range(40)]
                      for _ in range(40)]}
    spec = write(tmp_path, "dense40.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "irrational or complex root (residual factor of degree 40)" in err


def test_one_repeated_root_beside_many_wide_simple_ones(tmp_path, capsys):
    # n = 64 at the grid cap: the square-free part comes from a gcd mod SQUARE_FREE_PRIME, not over Z
    rng = random.Random(1)
    values = [1] * 16 + [rng.randrange(2, 2**45) for _ in range(48)]
    doc = {"matrix": [[str(values[i]) if i == j else "0" for j in range(64)] for i in range(64)]}
    spec = write(tmp_path, "diag64.json", doc)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 3
    assert code == 0
    assert json.loads(out)["jordan_type"][0] == {"eigenvalue": "1", "blocks": [[1, 16]]}


@pytest.mark.parametrize("prime, code, message", [
    ("2", 3, "refusing to enumerate at least 2^59 lines of F_2^60 (cap 8191)"),
    ("4", 2, "4 is not a prime"),
], ids=["cap", "prime"])
def test_verify_checks_a_matrix_against_the_line_cap_before_its_jordan_type(
        tmp_path, capsys, prime, code, message):
    values = random.Random(60).sample(range(1, 10**6), 60)
    doc = {"matrix": [[str(values[i]) if i == j else "0" for j in range(60)] for i in range(60)]}
    spec = write(tmp_path, "diag60.json", doc)
    start = time.perf_counter()
    result = run_cli(capsys, "verify", spec, "--prime", prime)
    assert time.perf_counter() - start < 1
    assert result == (code, "", f"error: {message}\n")


def test_verify_checks_a_type_against_the_line_cap_before_its_residues(tmp_path, capsys):
    # n = 14 is over the line cap at p = 2, where the eigenvalues 0 and 2 also coincide
    doc = {"jordan": [{"eigenvalue": e, "blocks": [[7, 1]]} for e in ("0", "2")]}
    result = run_cli(capsys, "verify", write(tmp_path, "coincide.json", doc), "--prime", "2")
    assert result == (3, "", "error: refusing to enumerate at least 2^13 lines of F_2^14 (cap 8191)\n")


@pytest.mark.parametrize("doc, certified", [(T135_DOC, 1), (J23_DOC, 2)], ids=["type", "matrix"])
def test_verify_certifies_the_prime_once_per_gate(tmp_path, capsys, monkeypatch, doc, certified):
    # one gate in compare_with_prediction, plus the CLI's pre-check from n alone for a matrix
    calls = []
    certify = oracle._require_prime
    monkeypatch.setattr(oracle, "_require_prime", lambda p: calls.append(p) or certify(p))
    code, _, _ = run_cli(capsys, "verify", write(tmp_path, "spec.json", doc), "--prime", "2")
    assert (code, calls) == (0, [2] * certified)


def test_verify_prints_the_verdict_record(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", write(tmp_path, "t135.json", T135_DOC), "--prime", "2")
    verdict = oracle.compare_with_prediction(JordanType.of({0: [(1, 1), (3, 1), (5, 1)]}), 2)
    assert (code, out) == (0, json.dumps(asdict(verdict), indent=2) + "\n")


def primorial_below(bound: int) -> int:
    product = 1
    for p in range(2, bound):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            product *= p
    return product


@pytest.mark.parametrize("bound", [3000, 9000])
def test_root_search_ends_at_once_when_small_primes_merge_the_roots(tmp_path, capsys, bound):
    # every prime below the bound divides every difference of the eigenvalues
    # M, 2M and 3M, so the search for a prime where they stay distinct walks past them all
    m = primorial_below(bound)
    doc = {"matrix": [[str(m * (i + 1)) if i == j else "0" for j in range(3)] for i in range(3)]}
    spec = write(tmp_path, "primorial.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert [e["eigenvalue"] for e in json.loads(out)["jordan_type"]] == [str(m), str(2 * m), str(3 * m)]


@pytest.mark.parametrize("text", ["1e3", "2E-2", "1e999999999", "1e1000000"])
@pytest.mark.parametrize("where", ["matrix", "vector", "eigenvalue"])
def test_exponent_notation_is_refused_at_once(tmp_path, capsys, text, where):
    if where == "matrix":
        doc, argv, field = {"matrix": [[text, "0"], ["0", "2"]]}, ["analyze"], "matrix[0][0]"
    elif where == "vector":
        doc, argv, field = {"matrix": [["1", "0"], ["0", "2"]]}, ["classify", f"--vector={text},1"], "vector[0]"
    else:
        doc = {"jordan": [{"eigenvalue": text, "blocks": [[1, 1]]}]}
        argv, field = ["analyze"], "jordan[0].eigenvalue"
    spec = write(tmp_path, "exp.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], spec, *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {field}: ") and repr(text) in err


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"jordan": [{"eigenvalue": ' + "[" * 100_000 + "]" * 100_000 + ', "blocks": [[1, 1]]}]}',
], ids=["open", "matrix", "eigenvalue"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, text):
    spec = tmp_path / "nested.json"
    spec.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(spec))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: invalid JSON in ") and "nested too deeply" in err


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no limit on integer strings")
@pytest.mark.parametrize("where", ["matrix", "number", "fraction", "vector", "eigenvalue"])
def test_over_long_integers_get_a_short_error_line(tmp_path, capsys, where):
    digits = "7" * (DIGIT_LIMIT + 700)
    doc, argv = {"matrix": [["1", "0"], ["0", "2"]]}, ["analyze"]
    if where == "matrix":
        doc["matrix"][0][0] = digits
    elif where == "fraction":
        doc["matrix"][0][0] = "1/" + digits
    elif where == "vector":
        argv = ["classify", f"--vector={digits},1"]
    elif where == "eigenvalue":
        doc = {"jordan": [{"eigenvalue": digits, "blocks": [[1, 1]]}]}
    spec = tmp_path / "long.json"
    text = json.dumps(doc)
    spec.write_text(text.replace('"1"', digits) if where == "number" else text)
    code, out, err = run_cli(capsys, argv[0], str(spec), *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 200
    assert f"{DIGIT_LIMIT} digits" in err and "characters)" in err
    assert "set_int_max_str_digits" not in err


def test_matrix_over_the_dimension_cap_is_refused_at_once(tmp_path, capsys):
    n = jordan.MATRIX_DIMENSION_CAP + 1
    spec = write(tmp_path, "big.json", {"matrix": [[0] * n] * n})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", spec, "--vector=" + ",".join("1" * n))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == f"error: refusing to enumerate {n} matrix rows (cap {n - 1})\n"


def test_analyze_refuses_a_type_with_too_many_sizes(tmp_path, capsys):
    spec = write(tmp_path, "sizes.json", {"jordan": [{"eigenvalue": "0", "blocks": [[s, 1] for s in range(1, 301)]}]})
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 3 and out == ""
    assert err == "error: refusing to enumerate 18000400 generating-function additions (cap 10000000)\n"


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    from centorbits.oracle import OracleVerdict

    spec = write(tmp_path, "j23.json", J23_DOC)
    monkeypatch.setattr(
        cli.oracle,
        "compare_with_prediction",
        lambda jt, p, cap: OracleVerdict(False, p, 5, 6, 5, "forced"),
    )
    code, out, _ = run_cli(capsys, "verify", spec, "--prime", "2")
    assert code == 1
    assert json.loads(out)["mismatch"] == "forced"


def test_analyze_orbit_count_matches_lattice_node_count(tmp_path, capsys):
    spec = write(tmp_path, "j23.json", J23_DOC)
    _, analyze_out, _ = run_cli(capsys, "analyze", spec)
    _, lattice_out, _ = run_cli(capsys, "lattice", spec, "--format", "json")
    assert json.loads(analyze_out)["orbit_count"] == len(json.loads(lattice_out)["nodes"])


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T135_DOC)))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["orbit_count"] == 18


def test_int_entries_are_read_without_as_ratio(capsys, monkeypatch):
    read = cli.as_ratio

    def strings_only(value):
        if type(value) is int:
            raise AssertionError(f"as_ratio called on the int {value}")
        return read(value)

    monkeypatch.setattr(cli, "as_ratio", strings_only)
    doc = {"matrix": [[2, 1, 0], [0, 2, 0], [0, 0, -3]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["jordan_type"] == [{"eigenvalue": "-3", "blocks": [[1, 1]]},
                                              {"eigenvalue": "2", "blocks": [[2, 1]]}]
    for entry, message in (("x", "expected an integer or a 'p/q' string, got 'x'"),
                           (True, "expected an integer or a 'p/q' string, got True")):
        doc = {"matrix": [[2, 1], [entry, 2]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run_cli(capsys, "analyze", "-") == (2, "", f"error: matrix[1][0]: {message}\n")


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/spec.json")
    assert code == 2
    assert "cannot read" in err


def test_a_spec_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff" + json.dumps(T135_DOC).encode())
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, cap", [
    (["lattice", "-"], DEFAULT_ENUMERATION_CAP),
    (["verify", "-", "--prime", "2"], oracle.DEFAULT_LINE_CAP),
], ids=["lattice", "verify"])
def test_the_parser_holds_each_cap_default(argv, cap):
    assert cli.build_parser().parse_args(argv).cap == cap


def test_the_console_script_runs_analyze(capsys, monkeypatch):
    """The [project.scripts] entry point, resolved as an installer would, on a spec from stdin."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["centorbits"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    doc = {"jordan": [{"eigenvalue": "0", "blocks": [[2, 1], [3, 1]]}]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    monkeypatch.setattr(sys, "argv", ["centorbits", "analyze", "-"])
    assert entry() == 0
    assert json.loads(capsys.readouterr().out)["orbit_count"] == 6


def test_byte_identical_runs(tmp_path):
    spec = write(tmp_path, "t135.json", T135_DOC)
    for argv in (
        ["analyze", spec],
        ["lattice", spec, "--format", "dot"],
        ["verify", write(tmp_path, "b12.json", {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [2, 1]]}]}), "--prime", "2"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "centorbits", *argv],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def test_repeated_calls_match_fresh_processes(tmp_path, capsys):
    """The parser is built once per process, and no parsed state leaks between calls."""
    j23 = write(tmp_path, "j23.json", J23_DOC)
    t135 = write(tmp_path, "t135.json", T135_DOC)
    for argv in (
        ["compare", j23, "--vector", "1,0,0,0,0", "--vector", "0,1,0,0,0"],
        ["classify", j23, "--vector", "0,0,0,1,0"],
        ["lattice", t135, "--cap", "5"],
    ):
        in_process = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "centorbits", *argv], capture_output=True, text=True)
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("doc, argv", [
    ({"matrix": [["1", "0"], ["0", "1"]]}, ["verify", "--prime", "1000000007"]),
    ({"jordan": [{"eigenvalue": "0", "blocks": [[1000000000, 1]]}]}, ["lattice", "--format", "json"]),
], ids=["verify-lines", "lattice-heights"])
def test_running_out_of_memory_under_a_raised_cap_is_one_error_line(tmp_path, doc, argv):
    # the child alone runs under a 2 GiB address-space limit, where range(10^9) does not fit
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
             "from centorbits.cli import main\n"
             "raise SystemExit(main(sys.argv[1:]))\n")
    spec = write(tmp_path, "big.json", doc)
    proc = subprocess.run([sys.executable, "-c", child, argv[0], spec, *argv[1:], "--cap", str(10**11)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: out of memory; with a lower --cap such input is refused up front\n"


@pytest.mark.parametrize("doc, argv", [
    ({"jordan": [{"eigenvalue": "0", "blocks": [[1, 2]]}]}, ["verify", "--prime", "10000000000000000051"]),
    ({"jordan": [{"eigenvalue": "0", "blocks": [[10**20, 1]]}]}, ["lattice", "--format", "json"]),
], ids=["verify-lines", "lattice-heights"])
def test_a_cap_raised_past_the_index_range_is_one_error_line(tmp_path, capsys, doc, argv):
    # a range longer than 2^63 has no length, so no list of it is ever attempted
    spec = write(tmp_path, "huge.json", doc)
    start = time.perf_counter()
    result = run_cli(capsys, argv[0], spec, *argv[1:], "--cap", str(10**30))
    assert time.perf_counter() - start < 1
    assert result == (3, "", "error: out of memory; with a lower --cap such input is refused up front\n")


def test_long_entries_are_refused_at_once(tmp_path, capsys):
    rng = random.Random(1000)
    doc = {"matrix": [[str(rng.randrange(10**999, 10**1000)) for _ in range(32)] for _ in range(32)]}
    spec = write(tmp_path, "long.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert re.fullmatch(r"error: refusing to enumerate \d+ bits in an integer of the grid of a 32-row matrix "
                        r"\(cap 256\)\n", err)


@pytest.mark.parametrize("entries, refusal", [
    ((str(2**255),), None),
    ((str(2**256),), "257 bits in an integer of the grid"),
    ((f"1/{2**255}",), None),
    ((f"1/{2**256}",), "257 bits or more in the denominator"),
    ((f"1/{2**200}", f"1/{3**100}"), "359 bits or more in the denominator"),
    ((f"1/{2**200}", f"{2**100 + 1}"), "301 bits in an integer of the grid"),
], ids=["numerator-at-cap", "numerator-over", "denominator-at-cap", "denominator-over", "lcm-over", "scaled-over"])
def test_grid_cap_counts_the_longest_integer_and_the_denominator(tmp_path, capsys, entries, refusal):
    # n^5 b^2 <= 2^41 allows b = 256 bits at n = 32; the grid scales every entry to the lcm
    diagonal = dict(enumerate(entries))
    doc = {"matrix": [[diagonal.get(i, "0") if i == j else "0" for j in range(32)] for i in range(32)]}
    code, out, err = run_cli(capsys, "analyze", write(tmp_path, "diag.json", doc))
    if refusal is None:
        assert code == 0
    else:
        assert (code, out) == (3, "")
        assert err == f"error: refusing to enumerate {refusal} of a 32-row matrix (cap 256)\n"


@pytest.mark.parametrize("verb", ["classify", "compare"])
def test_a_long_vector_denominator_is_refused_at_once(tmp_path, capsys, verb):
    # 16 distinct 100-digit denominators: their lcm passes the 1448 bits a 16-row grid may hold
    rng = random.Random(16)
    vector = ",".join(f"1/{rng.randrange(10**99, 10**100)}" for _ in range(16))
    doc = {"matrix": [[str(i + 1) if i == j else "0" for j in range(16)] for i in range(16)]}
    start = time.perf_counter()
    code, out, err = run_cli(capsys, verb, write(tmp_path, "diag16.json", doc), "--vector", vector)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: refusing to enumerate \d+ bits or more in the denominator of a 16-row vector "
                        r"\(cap 1448\)\n", err)


@pytest.mark.parametrize("text", ["1_000", "2 / 3"])
@pytest.mark.parametrize("where", ["matrix", "vector", "eigenvalue"])
def test_forms_read_differently_across_versions_are_refused(tmp_path, capsys, text, where):
    if where == "matrix":
        doc, argv, field = {"matrix": [[text, "0"], ["0", "2"]]}, ["analyze"], "matrix[0][0]"
    elif where == "vector":
        doc, argv, field = {"matrix": [["1", "0"], ["0", "2"]]}, ["classify", f"--vector={text},1"], "vector[0]"
    else:
        doc = {"jordan": [{"eigenvalue": text, "blocks": [[1, 1]]}]}
        argv, field = ["analyze"], "jordan[0].eigenvalue"
    code, out, err = run_cli(capsys, argv[0], write(tmp_path, "form.json", doc), *argv[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {field}: {text!r} ")
    assert "Python versions read differently" in err


_VERSION_FORM = ("has '_' between digits or whitespace around '/', which Python versions read differently; "
                 "write an integer or 'p/q'")
SINGLE_FAULTS = {
    "not-a-number": ("x", "expected an integer or a 'p/q' string, got 'x'"),
    "zero-denominator": ("3/0", "zero denominator in '3/0'"),
    "exponent": ("1e5", "exponent notation '1e5' is not accepted; write an integer or 'p/q'"),
    "underscore": ("1_000", f"'1_000' {_VERSION_FORM}"),
    "spaced-slash": ("2 / 3", f"'2 / 3' {_VERSION_FORM}"),
    "long-integer": ("1" * 4301, "'11111111111111111111'... (4301 characters) has an integer of more than 4300 "
                                 "digits, the limit on integer strings"),
}


@pytest.mark.parametrize("fault", SINGLE_FAULTS)
@pytest.mark.parametrize("where", ["matrix", "vector", "eigenvalue"])
def test_each_single_fault_has_one_pinned_error_line(tmp_path, capsys, where, fault):
    text, message = SINGLE_FAULTS[fault]
    if where == "matrix":
        doc, argv, field = {"matrix": [["1", "0"], [text, "2"]]}, ["analyze"], "matrix[1][0]"
    elif where == "vector":
        doc, argv, field = {"matrix": [["1", "0"], ["0", "2"]]}, ["classify", f"--vector=1,{text}"], "vector[1]"
    else:
        if fault == "not-a-number":  # a string that is no number is a label, so the fault is a float
            text, message = 1.5, "eigenvalue 1.5 must be an int, Fraction or symbolic label"
        doc = {"jordan": [{"eigenvalue": "0", "blocks": [[1, 1]]}, {"eigenvalue": text, "blocks": [[1, 1]]}]}
        argv, field = ["analyze"], "jordan[1].eigenvalue"
    code, out, err = run_cli(capsys, argv[0], write(tmp_path, "fault.json", doc), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {field}: {message}\n")


# Entry strings with the (numerator, denominator) or the error an entry m[0][0] gave
# when each string was read twice, by the grammar and then by Fraction(str)
_NOT_A_NUMBER = "expected an integer or a 'p/q' string, got "
_TOO_LONG = "... (4303 characters) has an integer of more than 4300 digits, the limit on integer strings"
ENTRY_READINGS = [
    ("1/2", (1, 2)), ("2/4", (1, 2)), ("-6/4", (-3, 2)), ("+3", (3, 1)), (" 7 ", (7, 1)), ("0", (0, 1)),
    ("-0", (0, 1)), ("0/5", (0, 1)), ("-0/7", (0, 1)), ("1.5", (3, 2)), ("-.25", (-1, 4)), ("3.", (3, 1)),
    (".5", (1, 2)), ("1.50", (3, 2)), ("007/014", (1, 2)), ("\t-12/8\n", (-3, 2)), ("\u0661\u0662/\u0663", (4, 1)),
    ("10/1", (10, 1)), ("123456789012345678901234567890/6", (20576131502057613150205761315, 1)),
    ("-0.000", (0, 1)), ("+.125", (1, 8)), ("9" * 4300, (int("9" * 4300), 1)),
    ("1/" + "3" * 4300, (1, int("3" * 4300))), ("0." + "5" * 4299, (int("1" * 4299), 2 ** 4299 * 5 ** 4298)),
    ("1/0", "zero denominator in '1/0'"), ("0/0", "zero denominator in '0/0'"),
    ("-5/00", "zero denominator in '-5/00'"), (" 3/0 ", "zero denominator in ' 3/0 '"),
    ("1e5", "exponent notation '1e5' is not accepted; write an integer or 'p/q'"),
    ("1.5E-3", "exponent notation '1.5E-3' is not accepted; write an integer or 'p/q'"),
    (".5e1", "exponent notation '.5e1' is not accepted; write an integer or 'p/q'"),
    ("1_000", f"'1_000' {_VERSION_FORM}"), ("2 / 3", f"'2 / 3' {_VERSION_FORM}"),
    ("2/ 3", f"'2/ 3' {_VERSION_FORM}"),
    *((text, f"{_NOT_A_NUMBER}{text!r}") for text in
      ("x", "", " ", "1/2/3", "--1", "+-1", "1/-2", "1/2.5", ".", "-", "/2", "1/", "nan", "inf", "0x10", "1 2",
       "\u00bd")),
    ("1" * 4301, "'11111111111111111111'... (4301 characters) has an integer of more than 4300 digits, "
                 "the limit on integer strings"),
    ("1/" + "1" * 4301, "'1/111111111111111111'" + _TOO_LONG),
    ("0." + "1" * 4301, "'0.111111111111111111'" + _TOO_LONG),
    ("1" * 4301 + "/0", "'11111111111111111111'" + _TOO_LONG),  # the digits fail before the zero
]


@pytest.mark.parametrize("text, reading", ENTRY_READINGS, ids=range(len(ENTRY_READINGS)))
def test_entry_strings_are_read_once_with_the_same_ratio_or_error(tmp_path, capsys, text, reading):
    assert sys.get_int_max_str_digits() == 4300
    if isinstance(reading, tuple):
        assert cli._entry(text, "m[0][0]") == reading
        assert Fraction(*reading) == Fraction(text)
        return
    with pytest.raises(cli.SpecError) as err:
        cli._entry(text, "m[0][0]")
    assert str(err.value) == f"m[0][0]: {reading}"
    code, out, err = run_cli(capsys, "analyze", write(tmp_path, "entry.json", {"matrix": [[text]]}))
    assert (code, out, err) == (2, "", f"error: matrix[0][0]: {reading}\n")


def test_underscore_in_a_label_keeps_it_a_label(tmp_path, capsys):
    doc = {"jordan": [{"eigenvalue": "a_1", "blocks": [[1, 1]]}]}
    code, out, _ = run_cli(capsys, "analyze", write(tmp_path, "label.json", doc))
    assert code == 0 and json.loads(out)["jordan_type"][0]["eigenvalue"] == "a_1"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--vector=1", "--vector=2", "--vector=3"], "compare takes one or two --vector flags, got 3"),
    (["compare", "--vector=1", "--vector=2", "--seed=1"], "--seed applies only when a single --vector is given"),
    (["compare", "--vector=1,2"], "vector #1: expected 100 components, got 2"),
    (["classify", "--vector=1,2"], "vector: expected 100 components, got 2"),
], ids=["compare-three", "compare-seed", "compare-length", "classify-length"])
def test_vector_arguments_are_checked_before_the_chain_basis(tmp_path, capsys, argv, message):
    # the chain basis of a dense 100 x 100 matrix would take seconds
    rng = random.Random(100)
    doc = {"matrix": [[rng.randint(-9, 9) for _ in range(100)] for _ in range(100)]}
    spec = write(tmp_path, "dense100.json", doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], spec, *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
