"""Command-line front end.

Input is a single JSON document (a file path, or ``-`` for stdin) that
describes the operator in exactly one of two ways::

    {"matrix": [["0", "1"], ["0", "0"]]}
    {"jordan": [{"eigenvalue": "0", "blocks": [[2, 1], [3, 1]]}]}

Matrix entries and vector components are integers or exact strings like
"-3/4"; floats are rejected. Jordan eigenvalues may be symbolic labels
("a"), which flow through every combinatorial command but are rejected by
the vector commands, since those need concrete coordinates.

Verbs: analyze, lattice (--format dot|json), classify (--vector), compare
(two --vector flags, or one --vector plus --seed to compare against its
image under a sampled commuting invertible), verify (--prime).

Exit codes: 0 success or verification pass, 1 verification failure,
2 input error, 3 enumeration cap exceeded. All output is deterministic:
identical inputs (and seeds) give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import oracle
from .centralizer import centralizer_basis, centralizer_dimension, sample_invertible
from .classify import classify_vector, comparability, orbit_dimension, same_solution_class
from .counting import _tail_sums, gen_function
from .jordan import (
    JordanBasis,
    JordanType,
    _normalize_eigenvalue,
    jordan_basis,
    jordan_type,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    CapExceeded,
    OrbitLabel,
    _steps,
    column_sizes,
    enumerate_labels,
    orbit_count,
    upper_covers,
)
from .linalg import Matrix, as_fraction

DEFAULT_SEED = 0


class SpecError(ValueError):
    """Invalid input document; the message names the offending field."""


@dataclass
class OperatorSpec:
    matrix: object  # Matrix or None
    jordan: object  # JordanType or None


def _entry(value, field: str) -> Fraction:
    try:
        return as_fraction(value)
    except (TypeError, ValueError):
        raise SpecError(f"{field}: expected an integer or a 'p/q' string, got {value!r}") from None
    except ZeroDivisionError:
        raise SpecError(f"{field}: zero denominator in {value!r}") from None


def _parse_matrix(raw, field: str) -> Matrix:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise SpecError(f"{field}: expected a non-empty 2D array")
    n = len(raw)
    for i, row in enumerate(raw):
        if len(row) != n:
            raise SpecError(f"{field}: must be square, row {i} has {len(row)} entries for {n} rows")
    return Matrix(
        [[_entry(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(raw)]
    )


def _parse_eigenvalue(raw, field: str):
    """A rational when the string reads as one, else whatever the type accepts."""
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except ValueError:
            pass
        except ZeroDivisionError:
            raise SpecError(f"{field}: zero denominator in {raw!r}") from None
    try:
        return _normalize_eigenvalue(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{field}: {exc}") from None


def _parse_jordan(raw, field: str) -> JordanType:
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{field}: expected a non-empty list of eigenvalue entries")
    pairs = []
    seen = set()
    for i, item in enumerate(raw):
        here = f"{field}[{i}]"
        if not isinstance(item, dict) or set(item) != {"eigenvalue", "blocks"}:
            raise SpecError(f"{here}: expected an object with 'eigenvalue' and 'blocks'")
        eig = _parse_eigenvalue(item["eigenvalue"], f"{here}.eigenvalue")
        if eig in seen:
            raise SpecError(f"{here}.eigenvalue: duplicate eigenvalue {item['eigenvalue']!r}")
        seen.add(eig)
        blocks_raw = item["blocks"]
        if not isinstance(blocks_raw, list) or not blocks_raw:
            raise SpecError(f"{here}.blocks: expected a non-empty list of [size, multiplicity]")
        blocks = []
        sizes = set()
        for j, pair in enumerate(blocks_raw):
            spot = f"{here}.blocks[{j}]"
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or any(isinstance(x, bool) or not isinstance(x, int) for x in pair)
            ):
                raise SpecError(f"{spot}: expected [size, multiplicity] integers")
            size, mult = pair
            if size < 1 or mult < 1:
                raise SpecError(f"{spot}: size and multiplicity must be >= 1")
            if size in sizes:
                raise SpecError(f"{spot}: duplicate block size {size}")
            sizes.add(size)
            blocks.append((size, mult))
        pairs.append((eig, blocks))
    return JordanType.of(pairs)


def parse_operator_spec(doc) -> OperatorSpec:
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    unknown = set(doc) - {"matrix", "jordan"}
    if unknown:
        raise SpecError(f"unknown field(s): {', '.join(map(repr, sorted(unknown)))}")
    if ("matrix" in doc) == ("jordan" in doc):
        raise SpecError("exactly one of 'matrix' or 'jordan' must be given")
    if "matrix" in doc:
        return OperatorSpec(matrix=_parse_matrix(doc["matrix"], "matrix"), jordan=None)
    return OperatorSpec(matrix=None, jordan=_parse_jordan(doc["jordan"], "jordan"))


def load_spec(path: str) -> OperatorSpec:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from None
    return parse_operator_spec(doc)


def spec_type(spec: OperatorSpec) -> JordanType:
    if spec.jordan is not None:
        return spec.jordan
    return jordan_type(spec.matrix)


def spec_basis(spec: OperatorSpec, verb: str) -> JordanBasis:
    if spec.matrix is None:
        raise SpecError(
            f"'{verb}' needs a concrete matrix: vectors live in matrix coordinates, "
            "but this input supplies only Jordan block data"
        )
    return jordan_basis(spec.matrix)


def _parse_vector(text: str, n: int, field: str) -> Matrix:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SpecError(f"{field}: expected {n} components, got {len(parts)}")
    return Matrix.column([_entry(p, f"{field}[{i}]") for i, p in enumerate(parts)])


def label_name(label: OrbitLabel) -> str:
    """Per-eigenvalue digit strings joined by '|'; commas when a bound exceeds 9."""
    return "|".join(
        ("" if all(b <= 9 for b in bounds) else ",").join(map(str, deltas))
        for deltas, bounds in zip(label.deltas, label.limits)
    )


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


# -- verbs ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    jt = spec_type(load_spec(args.spec))
    payload = {
        "dimension": jt.dimension,
        "jordan_type": [
            {"eigenvalue": str(eig), "blocks": [list(b) for b in blocks]}
            for eig, blocks in jt.eigen_blocks
        ],
        "increments": [
            {
                "eigenvalue": str(eig),
                "sizes": list(sizes),
                "increments": list(_steps(sizes)),
                "multiplicities": [mult for _, mult in blocks],
                "tail_sums": list(_tail_sums(blocks)),
            }
            for (eig, blocks), sizes in zip(jt.eigen_blocks, column_sizes(jt))
        ],
        "centralizer_dimension": centralizer_dimension(jt),
        "orbit_count": orbit_count(jt),
        "generating_function": list(gen_function(jt)),
    }
    _emit(payload)
    return 0


def _cap(args, default: int) -> int:
    if args.cap is None:
        return default
    if args.cap < 1:
        raise SpecError(f"--cap must be at least 1, got {args.cap}")
    return args.cap


def cmd_lattice(args) -> int:
    cap = _cap(args, DEFAULT_ENUMERATION_CAP)
    jt = spec_type(load_spec(args.spec))
    labels = enumerate_labels(jt, cap)
    names = {lab: label_name(lab) for lab in labels}
    nodes = [(names[lab], orbit_dimension(jt, lab)) for lab in labels]
    edges = [(names[lo], names[hi]) for lo in labels for hi in upper_covers(lo)]
    if args.format == "json":
        _emit({"nodes": [list(n) for n in nodes], "covers": [list(e) for e in edges]})
    else:
        lines = ["digraph orbit_lattice {", "  rankdir=BT;"]
        for name, dim in nodes:
            lines.append(f'  "{name}" [dim={dim}];')
        for lo, hi in edges:
            lines.append(f'  "{lo}" -> "{hi}";')
        lines.append("}")
        print("\n".join(lines))
    return 0


def _classification_payload(jt, report) -> dict:
    return {
        "label": label_name(report.label),
        "orbit_dimension": report.orbit_dimension,
        "closure_dimension": report.closure_dimension,
        "eigenvalues": [
            {
                "eigenvalue": str(eig),
                "deltas": list(deltas),
                "heights": list(heights),
            }
            for (eig, _), deltas, heights in zip(
                jt.eigen_blocks, report.label.deltas, report.heights
            )
        ],
        "is_bottom": report.is_bottom(),
        "is_top": report.is_top(),
    }


def cmd_classify(args) -> int:
    if len(args.vector) != 1:
        raise SpecError(f"classify takes one --vector flag, got {len(args.vector)}")
    basis = spec_basis(load_spec(args.spec), "classify")
    v = _parse_vector(args.vector[0], basis.dimension, "vector")
    report = classify_vector(basis, v)
    _emit(_classification_payload(basis.jordan_type, report))
    return 0


def cmd_compare(args) -> int:
    basis = spec_basis(load_spec(args.spec), "compare")
    vectors = [
        _parse_vector(text, basis.dimension, f"vector #{i + 1}")
        for i, text in enumerate(args.vector)
    ]
    payload = {}
    if len(vectors) == 1:
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        u = sample_invertible(centralizer_basis(basis), seed)
        v1, v2 = vectors[0], u @ vectors[0]
        payload["seed"] = seed
    elif len(vectors) == 2:
        if args.seed is not None:
            raise SpecError("--seed applies only when a single --vector is given")
        v1, v2 = vectors
    else:
        raise SpecError(f"compare takes one or two --vector flags, got {len(vectors)}")
    equivalent, r1, r2 = same_solution_class(basis, v1, v2)
    payload = {
        "equivalent": equivalent,
        "label1": label_name(r1.label),
        "label2": label_name(r2.label),
        "comparable": comparability(r1.label, r2.label),
        **payload,
    }
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    cap = _cap(args, oracle.DEFAULT_SUBSPACE_CAP)
    jt = spec_type(load_spec(args.spec))
    try:
        verdict = oracle.compare_with_prediction(jt, args.prime, cap)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    _emit(
        {
            "passed": verdict.passed,
            "prime": verdict.prime,
            "dimension": verdict.dimension,
            "labels": verdict.label_count,
            "invariant_subspaces": verdict.bruteforce_count,
            "mismatch": verdict.mismatch,
        }
    )
    return 0 if verdict.passed else 1


# -- entry point ---------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="centorbits",
        description="Classify solutions of x' = Tx up to the invertible operators commuting with T.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="JSON operator description (path, or '-' for stdin)")
        p.set_defaults(func=func)
        return p

    add("analyze", cmd_analyze, "Jordan type, centralizer dimension, orbit counts")

    p = add("lattice", cmd_lattice, "orbit lattice nodes and covering edges")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--cap", type=int, default=None, help=f"enumeration cap (default {DEFAULT_ENUMERATION_CAP})")

    p = add("classify", cmd_classify, "orbit of a concrete vector")
    p.add_argument("--vector", action="append", required=True, metavar="a,b,...")

    p = add("compare", cmd_compare, "equivalence of two initial conditions")
    p.add_argument("--vector", action="append", required=True, metavar="a,b,...")
    p.add_argument("--seed", type=int, default=None,
                   help=f"with a single vector, compare against a sampled commuting image (default {DEFAULT_SEED})")

    p = add("verify", cmd_verify, "brute-force check of the predicted lattice over F_p")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help=f"subspace cap (default {oracle.DEFAULT_SUBSPACE_CAP})")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
