"""Benchmark workloads: seeded inputs, operations, checks and trace decompositions.

Each workload builds its inputs from the seed (see ``corpus``), hands the
program only specs, matrices and vectors, and checks every result against
the planted facts. An operation is one call through the package's public
API: ``centorbits.cli.main(argv)`` with stdin and stdout redirected in
process, or a library function. In the traced run each operation is also
decomposed into the public library calls it makes, each timed in a span.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import corpus as C

PACKAGE = "centorbits"


class Api:
    """Fresh import of the package: purges any earlier import first."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.import_module(PACKAGE)
        for module in ("cli", "linalg", "jordan", "centralizer", "classify",
                       "lattice", "counting", "oracle"):
            setattr(self, module, importlib.import_module(f"{PACKAGE}.{module}"))


def run_cli(api, argv, stdin_text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = api.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def entry_bits(m) -> int:
    """Largest numerator or denominator bit length among a matrix's entries."""
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for i in range(m.rows)
        for x in m.row(i)
    )


# -- checks against planted facts -----------------------------------------


def _type_entries(jt) -> list:
    return sorted([str(eig), [list(b) for b in blocks]] for eig, blocks in jt)


def check_analyze(op, code, out) -> bool:
    jt = op.jt
    d = json.loads(out)
    return (
        code == 0
        and d["dimension"] == C.dimension(jt)
        and sorted([e["eigenvalue"], e["blocks"]] for e in d["jordan_type"]) == _type_entries(jt)
        and d["centralizer_dimension"] == C.centralizer_dimension(jt)
        and d["orbit_count"] == C.orbit_count(jt)
        and d["generating_function"] == C.gen_function(jt)
    )


def check_classify(op, code, out) -> bool:
    d = json.loads(out)
    return (
        code == 0
        and d["label"] == C.label_name(op.jt, op.deltas)
        and d["orbit_dimension"] == C.label_dimension(op.jt, op.deltas)
    )


def check_compare(op, code, out) -> bool:
    d = json.loads(out)
    name = C.label_name(op.jt, op.deltas)
    return code == 0 and d["equivalent"] is True and d["label1"] == name and d["label2"] == name


def _dims_match(jt, dims) -> bool:
    histogram = [0] * (C.dimension(jt) + 1)
    for dim in dims:
        histogram[dim] += 1
    return histogram == C.gen_function(jt)


def check_lattice_json(op, code, out) -> bool:
    d = json.loads(out)
    return (
        code == 0
        and len(d["nodes"]) == C.orbit_count(op.jt)
        and len(d["covers"]) == C.cover_count(op.jt)
        and _dims_match(op.jt, [dim for _, dim in d["nodes"]])
    )


def check_lattice_dot(op, code, out) -> bool:
    lines = out.splitlines()
    dims = [int(line.rsplit("[dim=", 1)[1][:-2]) for line in lines if "[dim=" in line]
    edges = sum(1 for line in lines if " -> " in line)
    return (
        code == 0
        and lines[0] == "digraph orbit_lattice {"
        and len(dims) == C.orbit_count(op.jt)
        and edges == C.cover_count(op.jt)
        and _dims_match(op.jt, dims)
    )


def check_verify(op, code, out) -> bool:
    d = json.loads(out)
    count = C.orbit_count(op.jt)
    return (
        code == 0
        and d["passed"] is True
        and d["labels"] == count
        and d["invariant_subspaces"] == count
    )


# -- trace decompositions: the library calls behind each verb --------------


def _first_eigenvalue(jt) -> Fraction:
    return next(eig for eig, _ in jt if isinstance(eig, Fraction))


def trace_analyze(api, rec, oid, op):
    spec = rec.timed("cli.parse", oid, api.cli.parse_operator_spec, op.doc)
    jt = spec.jordan
    if spec.matrix is not None:
        t = spec.matrix
        rec.timed("jordan.charpoly", oid, api.jordan.characteristic_polynomial, t)
        rec.timed("jordan.eigenvalues", oid, api.jordan.rational_eigenvalues, t)
        jt = rec.timed("jordan.type", oid, api.jordan.jordan_type, t)
        shifted = t - api.linalg.Matrix.identity(t.rows).scaled(_first_eigenvalue(op.jt))
        rec.timed("linalg.rref", oid, shifted.rref)
        rec.timed("linalg.matmul", oid, t.__matmul__, t)
    rec.timed("counting.gen_function", oid, api.counting.gen_function, jt)


def _basis_and_vector(api, rec, oid, op):
    spec = rec.timed("cli.parse", oid, api.cli.parse_operator_spec, op.doc)
    t = spec.matrix
    rec.timed("jordan.type", oid, api.jordan.jordan_type, t)
    basis = rec.timed("jordan.basis", oid, api.jordan.jordan_basis, t)
    return basis, api.linalg.Matrix.column(op.vector)


def trace_classify(api, rec, oid, op):
    basis, v = _basis_and_vector(api, rec, oid, op)
    p_inv = rec.timed("linalg.inverse", oid, basis.transform.inverse)
    rec.count_max("linalg.entry_bits_max", entry_bits(p_inv))
    coords = rec.timed("linalg.matvec", oid, p_inv.__matmul__, v)
    report = rec.timed("classify.vector", oid, api.classify.classify_vector, basis, v)
    rec.timed("classify.chain_coords", oid, api.classify.classify_chain_coordinates,
              basis.jordan_type, coords)
    rec.timed("classify.orbit_dimension", oid, api.classify.orbit_dimension,
              basis.jordan_type, report.label)


def trace_compare(api, rec, oid, op):
    basis, v = _basis_and_vector(api, rec, oid, op)
    cb = rec.timed("centralizer.basis", oid, api.centralizer.centralizer_basis, basis)
    rec.count("centralizer.operators", len(cb.operators))
    u = rec.timed("centralizer.sample", oid, api.centralizer.sample_invertible, cb, op.cli_seed)
    image = rec.timed("centralizer.apply", oid, u.__matmul__, v)
    rec.timed("classify.vector", oid, api.classify.classify_vector, basis, v)
    rec.timed("classify.vector", oid, api.classify.classify_vector, basis, image)


def trace_lattice(api, rec, oid, op):
    spec = rec.timed("cli.parse", oid, api.cli.parse_operator_spec, op.doc)
    jt = spec.jordan
    labels = rec.timed("lattice.enumerate", oid, api.lattice.enumerate_labels, jt)
    covers = rec.timed("lattice.covers", oid, api.lattice.hasse_covers, jt)
    rec.count("lattice.labels", len(labels))
    rec.count("lattice.covers", len(covers))
    with rec.span("classify.orbit_dimension", oid, calls=len(labels)):
        for label in labels:
            api.classify.orbit_dimension(jt, label)


def trace_verify(api, rec, oid, op):
    spec = rec.timed("cli.parse", oid, api.cli.parse_operator_spec, op.doc)
    jt = spec.jordan
    rec.timed("oracle.verify", oid, api.oracle.compare_with_prediction, jt, op.prime)
    brute = rec.timed("oracle.bruteforce", oid, api.oracle.invariant_subspaces_bruteforce,
                      jt, op.prime)
    rec.count("oracle.invariant_found", len(brute))


# Per verb: the checker, the decomposition, and the spans of library calls
# that cli.main itself makes (cli.self = cli.main minus these).
VERBS = {
    "analyze": (check_analyze, trace_analyze, ("cli.parse", "jordan.type", "counting.gen_function")),
    "classify": (check_classify, trace_classify, ("cli.parse", "jordan.basis", "classify.vector")),
    "compare": (check_compare, trace_compare,
                ("cli.parse", "jordan.basis", "centralizer.basis", "centralizer.sample",
                 "centralizer.apply", "classify.vector")),
    "lattice-json": (check_lattice_json, trace_lattice,
                     ("cli.parse", "lattice.enumerate", "lattice.covers",
                      "classify.orbit_dimension")),
    "lattice-dot": (check_lattice_dot, trace_lattice,
                    ("cli.parse", "lattice.enumerate", "lattice.covers",
                     "classify.orbit_dimension")),
    "verify": (check_verify, trace_verify, ("cli.parse", "oracle.verify")),
}


class CliOp:
    """One CLI invocation: argv plus the JSON spec fed on stdin."""

    main_span = "cli.main"

    def __init__(self, kind, doc, jt, vector=None, deltas=None, cli_seed=None, prime=None):
        self.kind = kind
        self.verb = kind.split("-")[0]
        self.doc = doc
        self.stdin = json.dumps(doc)
        self.jt = jt
        self.vector = vector
        self.deltas = deltas
        self.cli_seed = cli_seed
        self.prime = prime
        self.checker, self.decompose, self.lib_spans = VERBS[kind]
        argv = [self.verb, "-"]
        if vector is not None:
            argv.append("--vector=" + ",".join(str(C.entry_text(x)) for x in vector))
        if cli_seed is not None:
            argv += ["--seed", str(cli_seed)]
        if kind.startswith("lattice"):
            argv += ["--format", kind.split("-")[1]]
        if prime is not None:
            argv += ["--prime", str(prime)]
        self.argv = argv

    def run(self, api):
        return run_cli(api, self.argv, self.stdin)

    def check(self, result) -> bool:
        code, out = result
        return self.checker(self, code, out)

    def output_bytes(self, result) -> int:
        return len(result[1].encode())

    def trace(self, api, rec, oid):
        self.decompose(api, rec, oid, self)

    def describe(self):
        return {"argv": self.argv, "stdin": self.doc}


def matrix_ops(planted, cli_seed) -> list:
    """analyze, classify and compare --seed on one planted matrix."""
    vec, deltas = planted.vectors[0]
    return [
        CliOp("analyze", planted.doc, planted.jt),
        CliOp("classify", planted.doc, planted.jt, vector=vec, deltas=deltas),
        CliOp("compare", planted.doc, planted.jt, vector=vec, deltas=deltas, cli_seed=cli_seed),
    ]


def probe_ops(seed) -> list:
    """Every verb on one small planted matrix and its Jordan type.

    The traced run uses these spans only for layers a workload's own
    operations never enter, so every per-layer metric is present everywhere.
    """
    rng = C.rng_for(seed, "probe")
    even = rng.choice((0, 2, -2, 4))
    odd = rng.choice((1, 3, -3, 5))
    jt = C.make_type([(Fraction(even), ((1, 1), (2, 1))), (Fraction(odd), ((1, 1), (2, 1)))])
    planted = C.PlantedMatrix(rng, jt, 1)
    doc = C.jordan_doc(jt)
    return matrix_ops(planted, rng.randrange(1000)) + [
        CliOp("lattice-json", doc, jt),
        CliOp("verify", doc, jt, prime=2),
    ]


# -- workloads -------------------------------------------------------------


class Workload:
    """A seeded stream of passes: each pass holds the same mix of operations,
    drawn afresh, so no input repeats within a run of distinct_passes passes."""

    name = ""
    why = ""
    setup_reps = 21  # set-up is the package import alone: repeat it for a steady median
    distinct_passes = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.rng = C.rng_for(seed, self.name)
        self.plant()
        self.passes = []
        for _ in range(2 if smoke else self.distinct_passes):
            ops = self.build()
            self.rng.shuffle(ops)
            self.passes.append(ops)

    def plant(self):
        """Inputs shared by every pass, drawn before the passes."""

    def build(self) -> list:
        """The operations of one pass."""
        raise NotImplementedError

    def prepare(self, api, rec=None, rep=0):
        """Program work done once before the loop; timed in setup_s."""

    def bind(self, api):
        """Turn generated inputs into program objects after the last setup."""

    def inputs(self):
        return [[op.describe() for op in ops] for ops in self.passes]


# (eigenvalue kinds with block lists, analyze, classify and compare calls per
# pass), each call on its own planted matrix; dimension in the comment.
# Sorted by cost, a pass is 31 calls of 10-110 ms and 8 of 140-180 ms (compare
# at n = 9, classify at n = 11, analyze at n = 14), so that the median falls
# among many similar calls and the 90th percentile inside the costliest group.
MATRIX_TEMPLATES = (
    ((("int", ((1, 2), (2, 1))), ("frac", ((2, 1),))), (2, 2, 2)),                # 6
    ((("prime", ((1, 1), (2, 1))), ("int", ((3, 1),))), (2, 2, 2)),               # 6
    ((("frac", ((1, 1), (3, 2))),), (2, 2, 2)),                                   # 7
    ((("int", ((1, 1), (2, 1), (3, 1))), ("prime", ((1, 2),))), (2, 2, 1)),       # 8
    ((("int", ((2, 1), (3, 1))), ("frac", ((1, 2), (2, 1)))), (2, 2, 3)),         # 9
    ((("zero", ((1, 1), (4, 1))), ("int", ((1, 1), (2, 1))), ("frac", ((2, 1),))),
     (1, 1, 0)),                                                                  # 10
    ((("int", ((1, 1), (3, 2))), ("prime", ((2, 1),)), ("frac", ((2, 1),))),
     (1, 3, 0)),                                                                  # 11
    ((("int", ((1, 2), (2, 1), (3, 2))), ("prime", ((2, 1),))), (1, 0, 0)),       # 12
    ((("frac", ((1, 2), (3, 2))), ("int", ((2, 1), (4, 1)))), (2, 0, 0)),         # 14
)


def planted_matrix(rng, template, vectors):
    eigs = C.pick_eigenvalues(rng, [kind for kind, _ in template])
    jt = C.make_type([(e, blocks) for e, (_, blocks) in zip(eigs, template)])
    return C.PlantedMatrix(rng, jt, vectors)


class MatrixCli(Workload):
    name = "matrix_cli"
    why = ("planted rational matrices: analyze n = 6-14, classify n = 6-11, compare n = 6-9; "
           "char poly, roots, ranks, chain basis, P^-1, dense centralizer, all per call")
    distinct_passes = 10

    def build(self):
        templates = MATRIX_TEMPLATES[:2] if self.smoke else MATRIX_TEMPLATES
        ops = []
        for template, counts in templates:
            for index, count in enumerate(counts):
                for _ in range(min(count, 1) if self.smoke else count):
                    planted = planted_matrix(self.rng, template, 1)
                    ops.append(matrix_ops(planted, self.rng.randrange(1000))[index])
        return ops


# The prepared matrix has fixed eigenvalues, so that set-up costs the same
# for every seed; the seed still draws S, the vectors and the sampled U.
STREAM_TYPE = C.make_type([
    (Fraction(3), ((1, 2), (2, 2), (4, 1))),
    (Fraction(-3, 2), ((1, 1), (3, 1))),
    (Fraction(10007), ((2, 2),)),
])  # n = 18
STREAM_SMOKE = C.make_type([(Fraction(2), ((1, 1), (2, 1))), (Fraction(1, 2), ((2, 1),))])


class StreamOp:
    """same_solution_class(basis, v, U v) on the prepared matrix."""

    main_span = "stream.op"
    verb = None

    def __init__(self, workload, vec, u_index, deltas):
        self.workload = workload
        self.vec = vec
        self.u_index = u_index
        self.deltas = deltas
        self.v = None  # the vector as a program Matrix, set by bind

    def run(self, api):
        return api.classify.same_solution_class(
            self.workload.basis, self.v, self.workload.pool[self.u_index] @ self.v)

    def check(self, result) -> bool:
        equivalent, r1, r2 = result
        return equivalent is True and r1.label.deltas == self.deltas == r2.label.deltas

    def trace(self, api, rec, oid):
        w = self.workload
        coords = rec.timed("linalg.matvec", oid, w.basis.inverse_transform.__matmul__, self.v)
        report = rec.timed("classify.vector", oid, api.classify.classify_vector, w.basis, self.v)
        rec.timed("classify.chain_coords", oid, api.classify.classify_chain_coordinates,
                  w.basis.jordan_type, coords)
        rec.timed("classify.orbit_dimension", oid, api.classify.orbit_dimension,
                  w.basis.jordan_type, report.label)

    def describe(self):
        return {"vector": [str(x) for x in self.vec], "u": self.u_index}


class ClassifyStream(Workload):
    name = "classify_stream"
    why = ("one prepared n = 18 matrix, then same_solution_class(basis, v, U v) per call: "
           "matrix-vector products and chain coordinates, no elimination")
    setup_reps = 5
    distinct_passes = 40

    def plant(self):
        jt = STREAM_SMOKE if self.smoke else STREAM_TYPE
        self.vectors_per_pass, pool = (4, 2) if self.smoke else (32, 4)
        self.planted = C.PlantedMatrix(self.rng, jt, 0)
        self.pool_seeds = [self.rng.randrange(10**6) for _ in range(pool)]

    def build(self):
        ops = []
        for vec, deltas in self.planted.plant_vectors(self.rng, self.vectors_per_pass):
            for j in range(len(self.pool_seeds)):
                ops.append(StreamOp(self, vec, j, deltas))
        return ops

    def prepare(self, api, rec=None, rep=0):
        t = api.linalg.Matrix(self.planted.matrix)
        if rec is None:
            self.basis = api.jordan.jordan_basis(t)
            cb = api.centralizer.centralizer_basis(self.basis)
            self.pool = [api.centralizer.sample_invertible(cb, s) for s in self.pool_seeds]
            return
        oid = -1 - rep
        rec.counting = rep == 0
        rec.timed("jordan.charpoly", oid, api.jordan.characteristic_polynomial, t)
        rec.timed("jordan.eigenvalues", oid, api.jordan.rational_eigenvalues, t)
        rec.timed("jordan.type", oid, api.jordan.jordan_type, t)
        shifted = t - api.linalg.Matrix.identity(t.rows).scaled(_first_eigenvalue(self.planted.jt))
        rec.timed("linalg.rref", oid, shifted.rref)
        rec.timed("linalg.matmul", oid, t.__matmul__, t)
        self.basis = rec.timed("jordan.basis", oid, api.jordan.jordan_basis, t)
        p_inv = rec.timed("linalg.inverse", oid, self.basis.transform.inverse)
        rec.count_max("linalg.entry_bits_max", entry_bits(p_inv))
        cb = rec.timed("centralizer.basis", oid, api.centralizer.centralizer_basis, self.basis)
        rec.count("centralizer.operators", len(cb.operators))
        self.pool = [
            rec.timed("centralizer.sample", oid, api.centralizer.sample_invertible, cb, s)
            for s in self.pool_seeds
        ]

    def bind(self, api):
        for ops in self.passes:
            for op in ops:
                op.v = api.linalg.Matrix.column(op.vec)

    def inputs(self):
        return {
            "matrix": self.planted.doc,
            "pool_seeds": self.pool_seeds,
            "passes": super().inputs(),
        }


# (per-eigenvalue increment sequences, verbs, copies per pass); the lattice
# size, the product of (Delta + 1), in the comment. Sorted by cost, a pass is
# 4 analyze calls (about 1 ms), 4 lattice calls on 144 labels, 6 on 576, 5 on
# 1152 and 1 on 2304: the median and the 90th percentile fall inside a run of
# similar operations, not between two, and a run holds enough passes for ten
# samples beyond the 90th percentile.
LATTICE_VERBS = ("lattice-json", "lattice-dot")
LATTICE_TEMPLATES = (
    (((2, 3, 4),), ("analyze",), 2),                              # 60
    (((3, 2), (1, 1, 2)), LATTICE_VERBS + ("analyze",), 2),       # 144
    (((2, 2, 3), (3, 3)), LATTICE_VERBS, 3),                      # 576
    (((1, 2, 3), (3, 3), (2,)), LATTICE_VERBS, 2),                # 1152
    (((1, 2, 3), (3, 3), (2,)), ("lattice-dot",), 1),             # 1152
    (((3, 3), (3, 3), (2, 2)), ("lattice-json",), 1),             # 2304
)
LATTICE_SMOKE = ((((1, 2),), LATTICE_VERBS + ("analyze",), 1),
                 (((1, 1), (2,)), LATTICE_VERBS, 1))
SYMBOLS = ("a", "b", "mu", "nu", "x1", "x2", "lam")


def seeded_eigenvalues(rng, count, p=None) -> list:
    """Distinct eigenvalues, half symbolic labels and half small rationals.

    With a prime p, rational eigenvalues are representable and distinct mod p;
    symbolic labels are always distinct.
    """
    used = set()
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            eig = key = rng.choice(SYMBOLS)
        else:
            eig = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2)))
            if p is not None and eig.denominator % p == 0:
                continue
            key = eig.numerator * pow(eig.denominator, -1, p) % p if p else eig
        if key not in used:
            used.add(key)
            out.append(eig)
    return out


def blocks_from_increments(rng, deltas) -> tuple:
    """Block sizes with the given increments and seeded multiplicities 1-2."""
    size = 0
    blocks = []
    for d in deltas:
        size += d
        blocks.append((size, rng.randint(1, 2)))
    return tuple(blocks)


class LatticeJordan(Workload):
    name = "lattice_jordan"
    why = ("Jordan-type specs with 60-2304 labels through lattice json, lattice dot and "
           "analyze: enumeration, pairwise covers, orbit dimensions and output, no rationals")
    distinct_passes = 16

    def build(self):
        ops = []
        for groups, verbs, copies in LATTICE_SMOKE if self.smoke else LATTICE_TEMPLATES:
            for _ in range(copies):
                blocks = [blocks_from_increments(self.rng, deltas) for deltas in groups]
                jt = C.make_type(zip(seeded_eigenvalues(self.rng, len(groups)), blocks))
                doc = C.jordan_doc(jt)
                ops += [CliOp(kind, doc, jt) for kind in verbs]
        return ops


# (prime, blocks per eigenvalue, copies per pass); n in the comment. Sorted
# by cost, a pass is 7 scans of a few hundred subspaces, 10 of the 2 664
# subspaces of F_3^5, 2 of the 2 825 of F_2^6 and 1 of the 29 212 of F_2^7:
# the median falls among the scans of F_3^5, the 90th percentile among those
# of F_2^6, and a run holds enough passes for ten samples beyond it. n = 6
# at p = 3 (56 632 subspaces, over a second per call) is left out.
VERIFY_TEMPLATES = (
    (3, (((1, 1), (3, 1)),), 3),                    # n = 4
    (2, (((1, 1), (2, 1)), ((2, 1),)), 4),          # n = 5
    (3, (((1, 1), (2, 2)),), 5),                    # n = 5
    (3, (((2, 1),), ((3, 1),)), 5),                 # n = 5
    (2, (((1, 2), (2, 2)),), 1),                    # n = 6
    (2, (((1, 1), (3, 1)), ((2, 1),)), 1),          # n = 6
    (2, (((1, 1), (2, 1), (4, 1)),), 1),            # n = 7
)
VERIFY_SMOKE = ((2, (((1, 1), (2, 1)),), 1), (3, (((1, 1),), ((2, 1),)), 1))


class FpVerify(Workload):
    name = "fp_verify"
    why = ("verify --prime 2 for n = 5-7 and --prime 3 for n = 4-5: the brute-force scan "
           "of every subspace of F_p^n, a layer no other workload enters")
    distinct_passes = 12

    def build(self):
        ops = []
        for p, groups, copies in VERIFY_SMOKE if self.smoke else VERIFY_TEMPLATES:
            for _ in range(copies):
                jt = C.make_type(zip(seeded_eigenvalues(self.rng, len(groups), p), groups))
                ops.append(CliOp("verify", C.jordan_doc(jt), jt, prime=p))
        return ops


WORKLOADS = {w.name: w for w in (MatrixCli, ClassifyStream, LatticeJordan, FpVerify)}
