"""Seeded, checked benchmark of the centorbits pipeline.

Run from the repository root:

    python3 bench/run.py --workload matrix_cli --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json. One process, one
thread, one client in a closed loop: each operation starts when the previous
one returns. The loop runs whole passes over the seeded inputs until
--seconds have elapsed: every pass holds the same mix of operations, drawn
afresh for each of the workload's distinct passes. Every result is checked
against facts planted in the inputs; a failed check or an exception counts
as a failed operation and the run goes on. The latencies are those of every
operation issued and ops_per_s is the operations completed over the sum of
their times, all scaled to a reference host speed by a fixed kernel run
between operations (see ``hostspeed``). setup_s is the median scaled time of
the package import plus the workload's preparation, repeated before the loop.

--trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
with each operation also split into the public library calls it makes,
each timed in a span, and reports the per-layer metrics: times at the
reference host speed and exact counts. Provenance and a summary are printed
before the last line, which is the JSON result; the summary and the spans
are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus as C  # noqa: E402
import hostspeed  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Api, probe_ops  # noqa: E402

# (metric, span, scale): median per call of a span, in the metric's unit.
SPAN_METRICS = (
    ("linalg.rref_ms", "linalg.rref", 1e3),
    ("linalg.matmul_ms", "linalg.matmul", 1e3),
    ("linalg.inverse_ms", "linalg.inverse", 1e3),
    ("linalg.matvec_us", "linalg.matvec", 1e6),
    ("jordan.charpoly_ms", "jordan.charpoly", 1e3),
    ("jordan.eigenvalues_ms", "jordan.eigenvalues", 1e3),
    ("jordan.type_ms", "jordan.type", 1e3),
    ("jordan.basis_ms", "jordan.basis", 1e3),
    ("centralizer.basis_ms", "centralizer.basis", 1e3),
    ("centralizer.sample_ms", "centralizer.sample", 1e3),
    ("classify.vector_us", "classify.vector", 1e6),
    ("classify.chain_coords_us", "classify.chain_coords", 1e6),
    ("classify.orbit_dimension_us", "classify.orbit_dimension", 1e6),
    ("lattice.enumerate_ms", "lattice.enumerate", 1e3),
    ("lattice.covers_ms", "lattice.covers", 1e3),
    ("counting.gen_function_us", "counting.gen_function", 1e6),
    ("oracle.verify_ms", "oracle.verify", 1e3),
    ("oracle.bruteforce_ms", "oracle.bruteforce", 1e3),
    ("cli.parse_us", "cli.parse", 1e6),
    ("cli.main_ms", "cli.main", 1e3),
    ("cli.main_ms.analyze", "cli.main.analyze", 1e3),
    ("cli.main_ms.classify", "cli.main.classify", 1e3),
    ("cli.main_ms.compare", "cli.main.compare", 1e3),
    ("cli.main_ms.lattice", "cli.main.lattice", 1e3),
    ("cli.main_ms.verify", "cli.main.verify", 1e3),
)
# (metric, derived value, scale): median of a per-operation difference or rate.
DERIVED_METRICS = (
    ("jordan.roots_self_ms", "jordan.roots_self", 1e3),
    ("jordan.chain_self_ms", "jordan.chain_self", 1e3),
    ("cli.self_ms", "cli.self", 1e3),
    ("oracle.subspaces_per_s", "oracle.subspaces_per_s", 1.0),
)
# Counts over the first traced pass; exact for a given seed.
COUNT_METRICS = (
    "linalg.entry_bits_max",
    "centralizer.operators",
    "lattice.labels",
    "lattice.covers",
    "oracle.invariant_found",
    "cli.output_bytes",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def provenance(seed, digest, load_start):
    head = None
    git_head = ROOT / ".git" / "HEAD"
    if git_head.is_file():
        ref = git_head.read_text().strip()
        head = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            head = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "commit": head,
        "source_digest": C.digest(sorted(
            (p.name, p.read_text()) for p in (ROOT / "src" / "centorbits").glob("*.py")
        )),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "seed": seed,
        "input_digest": digest,
    }


def derive(rec, api, start, op=None, main=None):
    """Self times and rates from the spans recorded since index start."""
    mine = rec.spans[start:]
    oid = mine[0][3] if mine else 0

    def total(name):
        return sum(s[6] for s in mine if s[0] == name)

    def has(name):
        return any(s[0] == name for s in mine)

    if has("jordan.eigenvalues") and has("jordan.charpoly"):
        rec.derive("jordan.roots_self", oid, total("jordan.eigenvalues") - total("jordan.charpoly"))
    if has("jordan.basis") and has("jordan.type"):
        rec.derive("jordan.chain_self", oid, total("jordan.basis") - total("jordan.type"))
    if has("oracle.bruteforce"):
        n = C.dimension(op.jt)
        rec.derive("oracle.subspaces_per_s", oid,
                   api.oracle.subspace_count(n, op.prime) / total("oracle.bruteforce"))
    if main is not None and op.verb is not None:
        rec.derive("cli.self", oid, main - sum(total(n) for n in set(op.lib_spans)))


def setup(workload, rec, reps):
    """Import the package and run the workload's preparation reps times.

    Returns the last import and a Scaler holding the time of each repeat.
    """
    scaler = hostspeed.Scaler()
    for rep in range(reps):
        start = len(rec.spans) if rec else 0
        t0 = time.perf_counter()
        api = Api()
        workload.prepare(api, rec, rep)
        scaler.add(time.perf_counter() - t0)
        if rec:
            derive(rec, api, start)
    return api, scaler


def attempt(op, api):
    """Run and check one operation: (result or None, seconds, ok)."""
    t0 = time.perf_counter()
    try:
        result = op.run(api)
    except (Exception, SystemExit):
        return None, time.perf_counter() - t0, False
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception:
        ok = False
    return result, elapsed, ok


def passes_until(passes, seconds):
    """The workload's passes in turn, again from the first when they run out,
    until seconds have elapsed at the end of a pass."""
    t_start = time.perf_counter()
    while True:
        for ops in passes:
            yield ops
            if time.perf_counter() - t_start >= seconds:
                return


def timed_loop(passes, api, seconds):
    """Whole passes until seconds elapse: (scaler, passes run, failed, wall)."""
    scaler = hostspeed.Scaler()
    runs = failed = 0
    t_start = time.perf_counter()
    for ops in passes_until(passes, seconds):
        runs += 1
        for op in ops:
            _, elapsed, ok = attempt(op, api)
            scaler.add(elapsed)
            failed += not ok
    return scaler, runs, failed, time.perf_counter() - t_start


def traced_loop(passes, probe, api, seconds, rec):
    """Whole passes of the operations and the probe, each run once in a
    cli.main span and then split into its library calls."""
    attempted = failed = oid = 0
    rec.counting = True
    for ops in passes_until(passes, seconds):
        for source, seq in (("op", ops), ("probe", probe)):
            rec.source = source
            for op in seq:
                oid += 1
                attempted += 1
                start = len(rec.spans)
                try:
                    with rec.span(op.main_span, oid):
                        result = op.run(api)
                    main = rec.spans[-1][6]
                    if op.verb is not None:
                        rec.spans.append((f"cli.main.{op.verb}",) + rec.spans[-1][1:])
                    failed += not op.check(result)
                    if op.verb is not None:
                        rec.count("cli.output_bytes", op.output_bytes(result))
                    op.trace(api, rec, oid)
                    derive(rec, api, start, op, main)
                except (Exception, SystemExit):
                    failed += 1
        rec.counting = False
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(rec, units) -> dict:
    out = {}
    for name, span, scale in SPAN_METRICS:
        values = rec.per_call(span)
        if values:
            out[name] = metric(statistics.median(values) * scale, units[name])
    for name, key, scale in DERIVED_METRICS:
        values = rec.derived(key)
        if values:
            out[name] = metric(statistics.median(values) * scale, units[name])
    for name in COUNT_METRICS:
        value = rec.counter(name)
        if value is not None:
            out[name] = metric(value, units[name])
    return out


def end_to_end(scaler, failed, wall, setup_times, peak_rss_mib, units) -> tuple:
    """End-to-end metrics over every operation the timed loop issued, at
    reference host speed; the raw figures go to the summary."""
    times = scaler.scaled()
    done = len(times) - failed
    p90 = statistics.quantiles(times, n=10)[8]
    metrics = {
        "ops_per_s": metric(done / sum(times), units["ops_per_s"]),
        "op_p50_ms": metric(statistics.median(times) * 1e3, units["op_p50_ms"]),
        "op_p90_ms": metric(p90 * 1e3, units["op_p90_ms"]),
        "setup_s": metric(statistics.median(setup_times.scaled()), units["setup_s"]),
        "peak_rss_mib": metric(peak_rss_mib, units["peak_rss_mib"]),
        "ok_ratio": metric(done / len(times), units["ok_ratio"]),
    }
    raw = scaler.raw
    extra = {
        "fail_ratio": failed / len(times),
        "samples": len(times),
        "samples_beyond_p90": sum(1 for x in times if x > p90),
        "loop_seconds": wall,
        "kernel_runs": len(scaler.kernel_s),
        "kernel_median_ms": statistics.median(scaler.kernel_s) * 1e3,
        "raw_ops_per_s": done / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "raw_setup_s": statistics.median(setup_times.raw),
    }
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "centorbits" / "__init__.py").is_file():
        print(f"error: no centorbits package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    load_start = os.getloadavg()

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    digest = C.digest(workload.inputs())
    rec = Recorder(hostspeed.measure, hostspeed.REFERENCE_S) if args.trace else None
    api, setup_times = setup(workload, rec, workload.setup_reps)
    workload.bind(api)

    if args.trace:
        probe = probe_ops(args.seed)
        attempted, failed = traced_loop(workload.passes, probe, api, args.seconds, rec)
        metrics = layer_metrics(rec, units)
        metrics["trace.span_us"] = metric(statistics.median(rec.span_cost()) * 1e6,
                                          units["trace.span_us"])
        extra = {"fail_ratio": failed / attempted}
    else:
        scaler, runs, failed, wall = timed_loop(workload.passes, api, args.seconds)
        attempted = len(scaler.raw)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, extra = end_to_end(scaler, failed, wall, setup_times, peak_rss_mib, units)
        extra["passes"] = runs

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops_per_pass": len(workload.passes[0]),
        "distinct_passes": len(workload.passes),
        **extra,
        "provenance": provenance(args.seed, digest, load_start),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rec:
        rec.dump(out_dir / f"{stem}-spans.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({**summary, **result}, indent=1))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {extra['fail_ratio']:.6g} ratio")
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
