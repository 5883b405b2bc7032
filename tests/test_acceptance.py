"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter

from centorbits.centralizer import centralizer_basis, sample_invertible, shift_operator_rows, shift_tags
from centorbits.classify import classify_chain_coordinates, classify_vector, orbit_dimension, representative
from centorbits.counting import gen_function
from centorbits.jordan import JordanType, jordan_basis, jordan_matrix
from centorbits.lattice import dual, enumerate_labels, hasse_covers, label_for, leq, orbit_count
from centorbits.linalg import Matrix
from centorbits.oracle import compare_with_prediction

from conftest import corpus_types, j23_matrix, operator_matrix

T135 = JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_generating_function():
    f = gen_function(T135)
    ok = f == (1, 1, 2, 2, 3, 3, 2, 2, 1, 1) and sum(f) == 18
    elapsed = best_time(lambda: gen_function(T135))
    ok = ok and elapsed < 0.001
    report(1, "size-1,3,5 generating function and total of 18", ok, f"best {elapsed * 1e6:.0f} us")


def test_criterion_02_lattice_and_covers():
    start = time.perf_counter()
    labels = enumerate_labels(T135)
    covers = set(hasse_covers(T135))
    elapsed = time.perf_counter() - start
    lab = lambda *d: label_for(T135, [d])
    ok = len(labels) == 18
    ok = ok and (lab(0, 0, 0), lab(0, 0, 1)) in covers
    ok = ok and (lab(1, 2, 1), lab(1, 2, 2)) in covers
    ok = ok and (lab(1, 1, 2), lab(1, 2, 1)) in covers
    # orientation pinned by the order itself, not by any picture
    ok = ok and leq(lab(1, 1, 2), lab(1, 2, 1)) and not leq(lab(1, 2, 1), lab(1, 1, 2))
    ok = ok and elapsed < 0.010
    report(2, "18-element lattice with the expected covers", ok, f"{elapsed * 1e3:.2f} ms")


def test_criterion_03_single_block_chain():
    ok = True
    for n in range(1, 9):
        jt = JordanType.of({0: [(n, 1)]})
        labels = enumerate_labels(jt)
        ok = ok and orbit_count(jt) == n + 1 and len(labels) == n + 1
        ok = ok and all(
            leq(a, b) or leq(b, a) for a in labels for b in labels
        )
    report(3, "single-block operators have a chain of n + 1 orbits", ok)


def test_criterion_04_centralizer_example():
    t = j23_matrix()
    cb = centralizer_basis(jordan_basis(t))
    jt = cb.basis.jordan_type
    from centorbits.centralizer import centralizer_dimension

    ok = centralizer_dimension(jt) == 9 and len(cb.operators) == 9
    matrices = [operator_matrix(cb.basis, op) for op in cb.operators]
    ok = ok and all(m @ t == t @ m for m in matrices)
    report(4, "two-block centralizer has dimension 9 and commutes exactly", ok)


def partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def nilpotent_types_up_to_dim_4():
    return [
        JordanType.of({0: list(Counter(part).items())})
        for dim in range(1, 5)
        for part in partitions(dim)
    ]


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    targets = nilpotent_types_up_to_dim_4() + [JordanType.of({0: [(2, 1), (3, 1)]})]
    ok = True
    runs = 0
    for jt in targets:
        for p in (2, 3):
            verdict = compare_with_prediction(jt, p)
            runs += 1
            ok = ok and verdict.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(5, "brute force matches prediction over F2 and F3", ok, f"{runs} runs, {elapsed:.1f} s")


def test_criterion_06_label_invariance():
    targets = [
        JordanType.of({0: [(2, 1), (3, 1)]}),
        JordanType.of({0: [(1, 2), (2, 1)]}),
        JordanType.of({0: [(2, 2)]}),
        JordanType.of({1: [(1, 1)], 2: [(1, 1)]}),
        JordanType.of({0: [(1, 1), (3, 1)]}),
        JordanType.of({2: [(2, 1), (3, 1)]}),
    ]
    failures = 0
    pairs = 0
    for idx, jt in enumerate(targets):
        basis = jordan_basis(jordan_matrix(jt))
        cb = centralizer_basis(basis)
        n = jt.dimension
        for seed in range(100):
            rng = random.Random(1000 * idx + seed)
            v = Matrix.column([rng.randint(-4, 4) for _ in range(n)])
            u = sample_invertible(cb, seed)
            pairs += 1
            if classify_vector(basis, u @ v).label != classify_vector(basis, v).label:
                failures += 1
    report(6, "orbit label invariant under sampled commuting invertibles", failures == 0,
           f"{pairs} pairs, {failures} failures")


def test_criterion_07_histogram_agreement():
    ok = True
    for jt in corpus_types():
        labels = enumerate_labels(jt)
        if len(labels) > 10_000:
            continue
        histogram = Counter(orbit_dimension(jt, label) for label in labels)
        coeffs = gen_function(jt)
        ok = ok and histogram == {d: c for d, c in enumerate(coeffs) if c}
    report(7, "dimension histogram equals the generating function", ok)


def test_criterion_08_lattice_laws():
    from centorbits.lattice import join, meet

    ok = True
    checked = 0
    for jt in corpus_types():
        labels = enumerate_labels(jt)
        if len(labels) > 200:
            continue
        heights = {lab: tuple(h for grp in lab.heights for h in grp) for lab in labels}
        by_height = {h: lab for lab, h in heights.items()}
        # library meet/join coincide with pointwise min/max of heights (all pairs)
        for a in labels:
            ha = heights[a]
            for b in labels:
                hb = heights[b]
                up = tuple(map(max, ha, hb))
                dn = tuple(map(min, ha, hb))
                if join(a, b) != by_height[up] or meet(a, b) != by_height[dn]:
                    ok = False
                if join(a, meet(a, b)) != a or meet(a, join(a, b)) != a:
                    ok = False  # absorption
                if leq(a, b) != (dn == ha):
                    ok = False
        # distributivity and associativity, exhaustive on the pointwise form
        hs = list(heights.values())
        for ha in hs:
            for hb in hs:
                ab_min = tuple(map(min, ha, hb))
                ab_max = tuple(map(max, ha, hb))
                for hc in hs:
                    checked += 1
                    if tuple(map(min, ha, map(max, hb, hc))) != tuple(
                        map(max, ab_min, map(min, ha, hc))
                    ):
                        ok = False
                    if tuple(map(max, ab_max, hc)) != tuple(map(max, ha, map(max, hb, hc))):
                        ok = False
        # self-duality: order-reversing involution
        for a in labels:
            if dual(dual(a)) != a:
                ok = False
            for b in labels:
                if leq(a, b) and not leq(dual(b), dual(a)):
                    ok = False
    report(8, "distributive, absorptive, self-dual on every corpus lattice", ok,
           f"{checked} triples")


def test_criterion_09_round_trip_and_span():
    ok = True
    for jt in corpus_types():
        for label in enumerate_labels(jt):
            if classify_chain_coordinates(jt, representative(jt, label)).label != label:
                ok = False
    for jt in [t for t in corpus_types() if t.is_rational() and t.dimension <= 6]:
        n = jt.dimension
        tags = shift_tags(jt)
        for label in enumerate_labels(jt):
            rep = representative(jt, label)
            images = []
            for src, tgt, t in tags:
                rows = shift_operator_rows(n, src, tgt, t)
                images.append(
                    [sum(rows[i][j] * rep[j, 0] for j in range(n)) for i in range(n)]
                )
            span_dim = Matrix(images).rank() if images else 0
            if span_dim != orbit_dimension(jt, label):
                ok = False
    report(9, "representatives round-trip and span the predicted closure", ok)


def test_criterion_10_cli_determinism(tmp_path):
    spec_t135 = tmp_path / "t135.json"
    spec_t135.write_text(json.dumps({"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [3, 1], [5, 1]]}]}))
    spec_b12 = tmp_path / "b12.json"
    spec_b12.write_text(json.dumps({"jordan": [{"eigenvalue": "0", "blocks": [[1, 1], [2, 1]]}]}))
    ok = True
    for argv in (
        ["analyze", str(spec_t135)],
        ["lattice", str(spec_t135), "--format", "dot"],
        ["lattice", str(spec_t135), "--format", "json"],
        ["verify", str(spec_b12), "--prime", "3"],
    ):
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "centorbits", *argv], capture_output=True, check=True
            ).stdout
            for _ in range(2)
        ]
        ok = ok and outputs[0] == outputs[1]
    report(10, "CLI output byte-identical across repeated runs", ok)
