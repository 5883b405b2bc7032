import json
import re
import subprocess
import sys
import time

import pytest

from centorbits import cli

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
    doc = {"jordan": [{"eigenvalue": "a", "blocks": [[2, 1]]}, {"eigenvalue": "b", "blocks": [[1, 1]]}]}
    spec = write(tmp_path, "sym.json", doc)
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_count"] == 6
    assert payload["jordan_type"][0]["eigenvalue"] == "a"
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
        ({"matrix": [["1/0"]]}, "matrix[0][0]"),
        ({"jordan": [{"eigenvalue": "1/0", "blocks": [[1, 1]]}]}, "jordan[0].eigenvalue"),
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
    code, _, err = run_cli(capsys, "lattice", spec, "--cap", "5")
    assert code == 3
    assert "18" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("verb", [["lattice"], ["verify", "--prime", "2"]])
def test_non_positive_cap_is_an_input_error(tmp_path, capsys, verb, cap):
    spec = write(tmp_path, "t135.json", T135_DOC)
    code, out, err = run_cli(capsys, verb[0], spec, *verb[1:], "--cap", cap)
    assert (code, out) == (2, "")
    assert err == f"error: --cap must be at least 1, got {cap}\n"


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
    code, _, err = run_cli(capsys, "verify", spec, "--prime", str(10**17 + 3))
    assert code == expected
    assert "Traceback" not in err


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
    ],
)
def test_huge_type_hits_a_cap_at_once(tmp_path, capsys, argv, blocks):
    spec = write(tmp_path, "huge.json", {"jordan": [{"eigenvalue": "0", "blocks": blocks}]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], spec, *argv[1:])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert err.startswith("error: refusing to enumerate") and err.count("\n") == 1


def test_large_prime_eigenvalues_end_at_once(tmp_path, capsys):
    spec = write(tmp_path, "primes.json", {"matrix": [["100000007", "0"], ["0", "100000037"]]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    assert [e["eigenvalue"] for e in json.loads(out)["jordan_type"]] == ["100000007", "100000037"]


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
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T135_DOC)))
    code, out, _ = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert json.loads(out)["orbit_count"] == 18


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/spec.json")
    assert code == 2
    assert "cannot read" in err


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
