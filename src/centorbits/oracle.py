"""Brute-force verification over small prime fields.

The predicted lattice can be checked independently: enumerate every subspace
of F_p^n (one reduced row echelon basis per subspace), keep those invariant
under every centralizer basis operator, and compare the survivors against
the predicted coordinate subspaces, label by label. Invariance under the
basis suffices because invariance under an algebra is decided by any
spanning set, and the shift operators have 0/1 entries in chain coordinates,
so they reduce mod p verbatim.

The block-size arguments behind the prediction only ever use that the
eigenvalues lie in the field and are distinct, so agreement over F_2 and F_3
is evidence (not proof) that the classification computed over the rationals
is field-independent. Eigenvalues must remain representable and distinct
mod p; symbolic labels are opaque and treated as automatically distinct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .centralizer import shift_operator_rows, shift_tags
from .classify import invariant_positions, orbit_dimension
from .jordan import JordanType
from .lattice import CapExceeded, enumerate_labels

DEFAULT_SUBSPACE_CAP = 100_000


# Miller-Rabin with these witnesses is exact below _WITNESS_BOUND (the least
# strong pseudoprime to all of them is 3317044064679887385961981).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _require_prime(p: int):
    """Reject p unless it is certainly prime (deterministic Miller-Rabin)."""
    if p >= _WITNESS_BOUND:
        raise ValueError(f"{p} is too large to certify as prime")
    if p < 2:
        raise ValueError(f"{p} is not a prime")
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        if a >= p:
            break
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not a prime")


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """Dense matrix over F_p; rows of a reduced echelon basis when used as a subspace."""

    modulus: int
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples, values in [0, p)

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match the declared shape")
        if any(not 0 <= x < self.modulus for row in self.entries for x in row):
            raise ValueError("entries must be reduced mod p")

    @property
    def dimension(self) -> int:
        """Subspace reading: number of basis rows."""
        return self.rows


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def all_subspaces(p: int, n: int, cap: int = DEFAULT_SUBSPACE_CAP):
    """Every subspace of F_p^n exactly once, as its reduced echelon basis.

    Enumerates pivot column sets in lexicographic order and fills the free
    positions (right of a pivot, outside pivot columns) with all field
    values, so the stream is deterministic.
    """
    _require_prime(p)
    total = subspace_count(n, p)
    if total > cap:
        raise CapExceeded(total, cap, what=f"subspaces of F_{p}^{n}")
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivot_set = set(pivots)
            free_cells = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free_cells)):
                grid = [[0] * n for _ in range(k)]
                for r in range(k):
                    grid[r][pivots[r]] = 1
                for (r, c), v in zip(free_cells, values):
                    grid[r][c] = v
                yield PrimeFieldMatrix(p, k, n, tuple(tuple(row) for row in grid))


def _pivot_columns(sub: PrimeFieldMatrix) -> tuple:
    return tuple(next(j for j, x in enumerate(row) if x) for row in sub.entries)


def _contains(sub: PrimeFieldMatrix, pivots: tuple, vec) -> bool:
    p = sub.modulus
    v = list(vec)
    for row, pc in zip(sub.entries, pivots):
        if v[pc]:
            f = v[pc]
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return not any(v)


def eigenvalues_mod_p(jt: JordanType, p: int) -> dict:
    """Map rational eigenvalues into F_p; reject collisions and zero denominators."""
    _require_prime(p)
    mapped = {}
    seen = {}
    for eig, _ in jt.eigen_blocks:
        if isinstance(eig, Fraction):
            if eig.denominator % p == 0:
                raise ValueError(f"eigenvalue {eig} is not representable modulo {p}")
            value = eig.numerator * pow(eig.denominator, -1, p) % p
            if value in seen:
                raise ValueError(
                    f"eigenvalues {seen[value]} and {eig} coincide modulo {p}"
                )
            seen[value] = eig
            mapped[eig] = value
    return mapped


def invariant_subspaces_bruteforce(
    jt: JordanType, p: int, cap: int = DEFAULT_SUBSPACE_CAP
) -> list:
    """All subspaces of F_p^n invariant under every centralizer basis operator.

    Works in chain coordinates. Result is sorted by dimension, then by the
    echelon basis lexicographically.
    """
    eigenvalues_mod_p(jt, p)
    n = jt.dimension
    operators = [shift_operator_rows(n, *op) for op in shift_tags(jt)]
    survivors = []
    for sub in all_subspaces(p, n, cap):
        pivots = _pivot_columns(sub)
        ok = True
        for row in sub.entries:
            for op in operators:
                image = tuple(sum(a * b for a, b in zip(op_row, row)) % p for op_row in op)
                if not _contains(sub, pivots, image):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            survivors.append(sub)
    survivors.sort(key=lambda s: (s.rows, s.entries))
    return survivors


def coordinate_subspace(p: int, n: int, positions) -> PrimeFieldMatrix:
    rows = []
    for pos in sorted(positions):
        row = [0] * n
        row[pos] = 1
        rows.append(tuple(row))
    return PrimeFieldMatrix(p, len(rows), n, tuple(rows))


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    prime: int
    dimension: int
    label_count: int
    bruteforce_count: int
    mismatch: object  # str describing the first mismatch, or None


def compare_with_prediction(
    jt: JordanType,
    p: int,
    cap: int = DEFAULT_SUBSPACE_CAP,
    labels=None,
) -> OracleVerdict:
    """Check the predicted lattice against the brute force, subspace by subspace.

    ``labels`` defaults to the full predicted label set; passing a mutated
    list exists so the harness can be shown to catch corrupted predictions.
    A mismatch is a verdict, not an exception.
    """
    n = jt.dimension
    if labels is None:
        labels = enumerate_labels(jt)
    predicted = []
    for label in labels:
        positions = invariant_positions(jt, label)
        sub = coordinate_subspace(p, n, positions)
        if len(positions) != orbit_dimension(jt, label):
            return OracleVerdict(
                False, p, n, len(labels), -1,
                f"label {label.deltas}: coordinate count {len(positions)} "
                f"differs from predicted dimension {orbit_dimension(jt, label)}",
            )
        predicted.append((label, sub))
    brute = invariant_subspaces_bruteforce(jt, p, cap)
    predicted_set = {sub for _, sub in predicted}
    if len(predicted_set) != len(predicted):
        return OracleVerdict(
            False, p, n, len(labels), len(brute),
            "two predicted labels map to the same subspace",
        )
    mismatch = None
    brute_set = set(brute)
    for label, sub in predicted:
        if sub not in brute_set:
            mismatch = (
                f"predicted subspace for label {label.deltas} "
                f"(dimension {sub.rows}) is not invariant"
            )
            break
    if mismatch is None:
        for sub in brute:
            if sub not in predicted_set:
                mismatch = (
                    f"invariant subspace of dimension {sub.rows} with basis "
                    f"{sub.entries} was not predicted"
                )
                break
    if mismatch is None and len(brute) != len(predicted):
        mismatch = f"{len(predicted)} predicted vs {len(brute)} brute-force subspaces"
    return OracleVerdict(mismatch is None, p, n, len(labels), len(brute), mismatch)
