"""Tests of the benchmark itself, on its smoke-sized inputs.

Run from the repository root: python3 -m pytest bench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus as C
import run
from workloads import WORKLOADS, Api

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--smoke"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-2]}
    for m in declared:
        assert printed[m["name"]] == m["unit"]
    assert printed["fail_ratio"] == "ratio" and "fail_ratio 0 ratio" in lines


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [w.why for w in WORKLOADS.values()]


def _loop_with_wrong_label(workload_name, op_type):
    workload = WORKLOADS[workload_name](1, True)
    api, _ = run.setup(workload, None, 1)
    workload.bind(api)
    wrong = next(op for op in workload.passes[0] if isinstance(op, op_type) and op.deltas)
    groups = [list(g) for g in wrong.deltas]
    groups[0][0] = 1 - groups[0][0] if groups[0][0] <= 1 else 0
    wrong.deltas = tuple(tuple(g) for g in groups)
    scaler, _, failed, _ = run.timed_loop(workload.passes[:1], api, 0.0)
    return scaler.raw, failed


def test_planted_wrong_label_is_counted_as_a_failure():
    from workloads import StreamOp

    latencies, failed = _loop_with_wrong_label("classify_stream", StreamOp)
    assert len(latencies) > 1 and failed == 1


def test_planted_wrong_label_on_the_cli_is_counted_as_a_failure():
    from workloads import CliOp

    latencies, failed = _loop_with_wrong_label("matrix_cli", CliOp)
    assert len(latencies) > 1 and failed == 1


def test_traced_counts_repeat_exactly():
    counts = [name for name in run.COUNT_METRICS]
    first = json.loads(bench("matrix_cli", 1)[-1])["metrics"]
    second = json.loads(bench("matrix_cli", 1)[-1])["metrics"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_inputs_follow_the_seed():
    def digest(seed):
        return C.digest(WORKLOADS["matrix_cli"](seed, True).inputs())

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_cover_count_matches_the_package_definition():
    api = Api()
    for groups in (((1, 2),), ((2, 1), (1,)), ((1, 1, 2), (2,))):
        blocks = []
        for deltas in groups:
            size, sizes = 0, []
            for d in deltas:
                size += d
                sizes.append((size, 1))
            blocks.append(sizes)
        jt = C.make_type(zip((C.Fraction(k) for k in range(len(groups))), blocks))
        program_type = api.jordan.JordanType.of(
            {eig: list(b) for eig, b in jt})
        assert C.cover_count(jt) == len(api.lattice.hasse_covers(program_type))
        assert C.orbit_count(jt) == len(api.lattice.enumerate_labels(program_type))


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fp_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_scaler_divides_each_time_by_the_nearby_kernel_times(monkeypatch):
    import hostspeed

    kernel = iter([1.0, 1.0, 3.0, 3.0, 3.0, 1.0])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(kernel) * hostspeed.REFERENCE_S)
    scaler = hostspeed.Scaler()
    for elapsed in (0.5, 2.0, 6.0, 3.0, 0.3):
        scaler.add(elapsed)
    assert scaler.raw == [0.5, 2.0, 6.0, 3.0, 0.3]
    # time i uses kernel runs i - 1 to i + 2: runs 0-2, 0-3, 1-4, 2-5 and 3-5
    assert scaler.scaled() == pytest.approx([0.5 / (5 / 3), 2.0 / 2, 6.0 / 2.5, 3.0 / 2.5,
                                             0.3 / (7 / 3)])
