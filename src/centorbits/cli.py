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
2 input error, 3 enumeration cap exceeded (matrix caps: ``jordan``). All
output is deterministic: identical inputs (and seeds) give identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import oracle
from .centralizer import centralizer_basis, centralizer_dimension, sample_invertible
from .classify import classify_vector, comparability, same_solution_class
from .counting import gen_function
from .jordan import (
    JordanType,
    _normalize_eigenvalue,
    grid_bits,
    jordan_basis,
    jordan_type,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    CapExceeded,
    column_steps,
    label_name,
    lattice_text,
    orbit_count,
)
from .linalg import Matrix, NotANumber, _echo, as_ratio

DEFAULT_SEED = 0


class SpecError(ValueError):
    """Invalid input document; the message names the offending field."""


@dataclasses.dataclass
class OperatorSpec:
    matrix: object  # Matrix or None
    jordan: object  # JordanType or None


def _entry(value, field: str) -> tuple:
    if type(value) is int:  # a JSON int, not a bool, is its own numerator over 1
        return value, 1
    try:
        return as_ratio(value)
    except (TypeError, NotANumber):
        raise SpecError(f"{field}: expected an integer or a 'p/q' string, got {_echo(value)}") from None
    except ValueError as exc:
        raise SpecError(f"{field}: {exc}") from None


def _parse_matrix(raw, field: str) -> Matrix:
    if not isinstance(raw, list) or not raw or not all(isinstance(r, list) for r in raw):
        raise SpecError(f"{field}: expected a non-empty 2D array")
    n = len(raw)
    longest = grid_bits(n)
    for i, row in enumerate(raw):
        if len(row) != n:
            raise SpecError(f"{field}: must be square, row {i} has {len(row)} entries for {n} rows")
    entries = [[_entry(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(raw)]
    return _over_common_denominator(entries, longest, f"{n}-row matrix")


def _over_common_denominator(entries, longest: int, what: str) -> Matrix:
    """Rows of (numerator, denominator) pairs over the lcm of the denominators, refused past longest bits."""
    den = 1
    for d in {d for row in entries for _, d in row}:
        den = math.lcm(den, d)
        if den.bit_length() > longest:  # refuse before a long lcm is built and the grid scaled to it
            raise CapExceeded(den.bit_length(), longest, what=f"bits or more in the denominator of a {what}")
    return Matrix._reduced([[x * (den // d) for x, d in row] for row in entries], den)


def _parse_eigenvalue(raw, field: str):
    try:
        return _normalize_eigenvalue(raw)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{field}: {exc}") from None


def _parse_jordan(raw, field: str) -> JordanType:
    if not isinstance(raw, list) or not raw:
        raise SpecError(f"{field}: expected a non-empty list of eigenvalue entries")
    types = {}  # eigenvalue -> {size: multiplicity}
    for i, item in enumerate(raw):
        here = f"{field}[{i}]"
        if not isinstance(item, dict) or set(item) != {"eigenvalue", "blocks"}:
            raise SpecError(f"{here}: expected an object with 'eigenvalue' and 'blocks'")
        eig = _parse_eigenvalue(item["eigenvalue"], f"{here}.eigenvalue")
        if eig in types:
            raise SpecError(f"{here}.eigenvalue: duplicate eigenvalue {_echo(item['eigenvalue'])}")
        blocks_raw = item["blocks"]
        if not isinstance(blocks_raw, list) or not blocks_raw:
            raise SpecError(f"{here}.blocks: expected a non-empty list of [size, multiplicity]")
        blocks = types[eig] = {}
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
            if size in blocks:
                raise SpecError(f"{spot}: duplicate block size {size}")
            blocks[size] = mult
    return JordanType.of({eig: blocks.items() for eig, blocks in types.items()})


def parse_operator_spec(doc) -> OperatorSpec:
    if not isinstance(doc, dict):
        raise SpecError("input document must be a JSON object")
    unknown = sorted(set(doc) - {"matrix", "jordan"})
    if unknown:
        more = f", ... ({len(unknown)} in all)" if len(unknown) > 3 else ""
        raise SpecError(f"unknown field(s): {', '.join(map(_echo, unknown[:3]))}{more}")
    if ("matrix" in doc) == ("jordan" in doc):
        raise SpecError("exactly one of 'matrix' or 'jordan' must be given")
    if "matrix" in doc:
        return OperatorSpec(matrix=_parse_matrix(doc["matrix"], "matrix"), jordan=None)
    return OperatorSpec(matrix=None, jordan=_parse_jordan(doc["jordan"], "jordan"))


def load_spec(path: str) -> OperatorSpec:
    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise SpecError(
                f"invalid JSON in {path}: the number {text[:20]}... ({len(text)} characters) has "
                f"more than {sys.get_int_max_str_digits()} digits, the limit on integers"
            ) from None

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        return parse_operator_spec(json.loads(text, parse_int=number))
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise SpecError(f"invalid JSON in {path}: arrays or objects nested too deeply") from None


def spec_type(spec: OperatorSpec) -> JordanType:
    if spec.jordan is not None:
        return spec.jordan
    return jordan_type(spec.matrix)


def spec_matrix(spec: OperatorSpec, verb: str) -> Matrix:
    if spec.matrix is None:
        raise SpecError(
            f"'{verb}' needs a concrete matrix: vectors live in matrix coordinates, "
            "but this input supplies only Jordan block data"
        )
    return spec.matrix


def _parse_vector(text: str, n: int, field: str) -> Matrix:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise SpecError(f"{field}: expected {n} components, got {len(parts)}")
    entries = [[_entry(p, f"{field}[{i}]")] for i, p in enumerate(parts)]
    return _over_common_denominator(entries, grid_bits(n), f"{n}-row vector")


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
                "sizes": [size for size, _ in blocks],
                "increments": [step for step, _ in column],
                "multiplicities": [mult for _, mult in blocks],
                "tail_sums": [tail for _, tail in column],
            }
            for (eig, blocks), column in zip(jt.eigen_blocks, column_steps(jt))
        ],
        "centralizer_dimension": centralizer_dimension(jt),
        "orbit_count": orbit_count(jt),
        "generating_function": list(gen_function(jt)),
    }
    _emit(payload)
    return 0


def _cap(args) -> int:
    if args.cap < 1:
        raise SpecError(f"--cap must be at least 1, got {args.cap}")
    return args.cap


def cmd_lattice(args) -> int:
    cap = _cap(args)
    sys.stdout.writelines(lattice_text(spec_type(load_spec(args.spec)), args.format, cap))
    return 0


def _classification_payload(jt, report) -> dict:
    label = report.label
    return {
        "label": label_name(label),
        "orbit_dimension": report.orbit_dimension,
        "closure_dimension": report.orbit_dimension,  # an orbit is dense in its closure
        "eigenvalues": [
            {
                "eigenvalue": str(eig),
                "deltas": list(deltas),
                "heights": list(heights),
            }
            for (eig, _), deltas, heights in zip(jt.eigen_blocks, label.deltas, label.heights)
        ],
        "is_bottom": label.is_bottom(),
        "is_top": label.is_top(),
    }


def _basis_and_vectors(args, verb: str, fields) -> tuple:
    """The chain basis of the spec's matrix, then each --vector flag as a column named by fields."""
    matrix = spec_matrix(load_spec(args.spec), verb)
    vectors = [_parse_vector(text, matrix.rows, field) for text, field in zip(args.vector, fields)]
    return jordan_basis(matrix), vectors


def cmd_classify(args) -> int:
    if len(args.vector) != 1:
        raise SpecError(f"classify takes one --vector flag, got {len(args.vector)}")
    basis, (v,) = _basis_and_vectors(args, "classify", ["vector"])
    _emit(_classification_payload(basis.jordan_type, classify_vector(basis, v)))
    return 0


def cmd_compare(args) -> int:
    if len(args.vector) > 2:
        raise SpecError(f"compare takes one or two --vector flags, got {len(args.vector)}")
    if len(args.vector) == 2 and args.seed is not None:
        raise SpecError("--seed applies only when a single --vector is given")
    basis, vectors = _basis_and_vectors(args, "compare", ["vector #1", "vector #2"])
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if len(vectors) == 1:
        vectors.append(sample_invertible(centralizer_basis(basis), seed) @ vectors[0])
    equivalent, r1, r2 = same_solution_class(basis, *vectors)
    payload = {
        "equivalent": equivalent,
        "label1": label_name(r1.label),
        "label2": label_name(r2.label),
        "comparable": comparability(r1.label, r2.label),
    }
    if len(args.vector) == 1:
        payload["seed"] = seed
    _emit(payload)
    return 0


def cmd_verify(args) -> int:
    cap = _cap(args)
    spec = load_spec(args.spec)
    if spec.matrix is not None:  # the line cap needs only n, not the Jordan type
        oracle.check_scan(args.prime, spec.matrix.rows, cap)
    verdict = oracle.compare_with_prediction(spec_type(spec), args.prime, cap)
    _emit(dataclasses.asdict(verdict))
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
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap (default %(default)s)")

    p = add("classify", cmd_classify, "orbit of a concrete vector")
    p.add_argument("--vector", action="append", required=True, metavar="a,b,...")

    p = add("compare", cmd_compare, "equivalence of two initial conditions")
    p.add_argument("--vector", action="append", required=True, metavar="a,b,...")
    p.add_argument("--seed", type=int, default=None,
                   help=f"with a single vector, compare against a sampled commuting image (default {DEFAULT_SEED})")

    p = add("verify", cmd_verify, "exhaustive check of the predicted lattice over F_p")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_LINE_CAP, help="cap on the lines of F_p^n scanned (default %(default)s)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): end quietly, and point stdout
        # at devnull so the flush at interpreter exit has nothing to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, OverflowError):  # a raised --cap can admit more than memory holds or an index reaches
        print("error: out of memory; with a lower --cap such input is refused up front", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
