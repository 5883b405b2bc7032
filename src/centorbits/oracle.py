"""Independent verification over prime fields.

The predicted lattice says that the subspaces invariant under the algebra A
of operators commuting with the Jordan form J are exactly the coordinate
subspaces of the orbit closures, one per label. This module checks that
claim over F_p without the library's own centralizer construction, in
stages that pass their results on as data: the gate check_scan certifies p
and caps the lines of F_p^n from n alone, and every stage after it trusts
p; jordan_mod_p writes J mod p in chain coordinates; centralizer_mod_p,
which takes any n x n matrix mod p, solves XJ = JX as n^2 linear equations
mod p for a basis of A; cyclic_submodules spans A v for every line v; and a
sum closure ends the scan. Every invariant W is the sum of the submodules
A w over w in W, and A (cw) = A w for c != 0, so these spans, closed under
sums, are exactly the invariant subspaces. The scan visits the
(p^n - 1)/(p - 1) lines, not every subspace.

The block-size arguments behind the prediction only ever use that the
eigenvalues lie in the field and are distinct, so agreement over F_2 and F_3
is evidence (not proof) that the classification computed over the rationals
is field-independent. Rational eigenvalues must stay representable and
distinct mod p (eigenvalues_mod_p). A matrix input is checked through its
Jordan type: its chain basis is not mapped into F_p.

A matrix mod p is a tuple of row tuples with entries in [0, p), and a
subspace is the tuple of rows of its reduced echelon basis (its echelon
tuple), so equal subspaces are equal tuples.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .classify import invariant_positions, orbit_dimension
from .jordan import JordanType, _jordan_rows
from .lattice import CapExceeded, enumerate_labels

DEFAULT_LINE_CAP = 8191


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


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subspace_count(n: int, p: int) -> int:
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def check_scan(p: int, n: int, cap: int):
    """The gate before every scan: certify p, then refuse more than cap lines of F_p^n.

    F_p^n has at least 2^(n-1) lines, so a large n goes uncounted.
    """
    _require_prime(p)
    what = f"lines of F_{p}^{n}"
    if n > cap.bit_length():
        raise CapExceeded(f"at least 2^{n - 1}", cap, what=what)
    count = (p**n - 1) // (p - 1)
    if count > cap:
        raise CapExceeded(count, cap, what=what)


def eigenvalues_mod_p(jt: JordanType, p: int) -> dict:
    """Map every eigenvalue to a distinct residue mod p.

    One pass in canonical order. Rational eigenvalues reduce mod p; a zero
    denominator or two eigenvalues with one residue is an error. Each
    symbolic label, coming after every rational, takes the least residue not
    yet used, and it is an error if none is left. p is trusted: check_scan
    has certified it.
    """
    owner = {}  # residue -> eigenvalue
    spare = 0
    for eig, _ in jt.eigen_blocks:  # rationals first: symbolic labels sort last
        if isinstance(eig, Fraction):
            if eig.denominator % p == 0:
                raise ValueError(f"eigenvalue {eig} is not representable modulo {p}")
            value = eig.numerator * pow(eig.denominator, -1, p) % p
            if value in owner:
                raise ValueError(f"eigenvalues {owner[value]} and {eig} coincide modulo {p}")
        else:
            while spare in owner:
                spare += 1
            if spare >= p:
                raise ValueError(
                    f"symbolic eigenvalue {eig} needs a residue modulo {p} "
                    "that no other eigenvalue uses, and none is left"
                )
            value = spare
        owner[value] = eig
    return {eig: value for value, eig in owner.items()}


def jordan_mod_p(jt: JordanType, p: int) -> tuple:
    """J over F_p in chain coordinates: each residue on the diagonal, 1 below it within a chain.

    Like every stage behind check_scan, it trusts p to be prime.
    """
    return tuple(map(tuple, _jordan_rows(jt, eigenvalues_mod_p(jt, p), 1)))


def centralizer_mod_p(j: tuple, p: int) -> tuple:
    """A basis of the algebra {X : XJ = JX} over F_p, for any n x n matrix j = J mod p.

    Unknown X[a][b] is number a*n + b; equation (i, k) is
    sum_c X[i][c] J[c][k] - sum_r J[i][r] X[r][k] = 0. Each unknown left
    free by the reduced equations gives one basis element.
    """
    n = len(j)
    equations = [[0] * (n * n) for _ in range(n * n)]
    for r, row in enumerate(j):
        for c, a in enumerate(row):
            if a:
                for i in range(n):
                    equations[i * n + c][i * n + r] += a
                    equations[r * n + i][c * n + i] -= a
    reduced = _echelon([[a % p for a in eq] for eq in equations], p)
    pivots = {next(u for u, a in enumerate(row) if a): row for row in reduced}
    basis = []
    for free in range(n * n):
        if free not in pivots:
            x = [0] * (n * n)
            x[free] = 1
            for u, row in pivots.items():
                x[u] = -row[free] % p
            basis.append(tuple(tuple(x[a * n:(a + 1) * n]) for a in range(n)))
    return tuple(basis)


def _lines(p: int, n: int):
    """Every line of F_p^n once, as its vector whose first nonzero entry is 1."""
    for lead in range(n):
        head = (0,) * lead + (1,)
        tail = n - lead - 1
        # product materialises range(p) once a tail exists; the default line
        # cap keeps p small then, but a raised --cap can admit a p whose range
        # does not fit in memory, or past 2^63 no range length at all (the CLI
        # reports the MemoryError or OverflowError, exit 3)
        for rest in itertools.product(range(p), repeat=tail) if tail else ((),):
            yield head + rest


@functools.cache
def _identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def _echelon(vectors, p: int) -> tuple:
    """Reduced row echelon basis of the span of vectors with entries in [0, p), as row tuples.

    Each vector is reduced left to right by the rows found so far (keyed by
    their leading column, zero to its left) until its first entry outside
    those columns; the rows are fully reduced once, at the end. Vectors go
    in ascending order, latest leading column first, so a vector whose
    leading column is new needs no reduction at all.
    """
    rows = {}
    n = 0
    for v in sorted(vectors):
        n = len(v)
        for j in range(n):
            x = v[j]
            if x:
                row = rows.get(j)
                if row is None:
                    break
                v = [(a - x * b) % p for a, b in zip(v, row)]
        else:
            continue
        if x != 1:
            inv = pow(x, -1, p)
            v = [a * inv % p for a in v]
        rows[j] = v
        if len(rows) == n:
            return _identity(n)
    leads = sorted(rows)
    for i, lead in enumerate(leads):
        row = rows[lead]
        for other in leads[:i]:
            f = rows[other][lead]
            if f:
                rows[other] = [(a - f * b) % p for a, b in zip(rows[other], row)]
    return tuple(tuple(rows[lead]) for lead in leads)


def cyclic_submodules(algebra: tuple, p: int):
    """Each line v of F_p^n with the echelon basis of A v = span{X v : X in algebra}, a basis of A.

    No cap is applied here: callers pass check_scan first.
    """
    n = len(algebra[0])
    # by_column[c] lists the nonzero entries X_k[r][c] = a as (k, r, a); the
    # images X_k v are kept mod p and updated only where v changes from the
    # previous line
    by_column = [[] for _ in range(n)]
    for k, x in enumerate(algebra):
        for r, row in enumerate(x):
            for c, a in enumerate(row):
                if a:
                    by_column[c].append((k, r, a))
    images = [[0] * n for _ in algebra]
    previous = (0,) * n
    for v in _lines(p, n):
        for c, (new, old) in enumerate(zip(v, previous)):
            if new != old:
                for k, r, a in by_column[c]:
                    images[k][r] = (images[k][r] + a * (new - old)) % p
        previous = v
        yield v, _echelon(set(map(tuple, images)), p)


def _sum_closure(generators, p: int) -> set:
    """Every sum of a subset of the given subspaces, as echelon bases.

    Adding the generators one at a time keeps the found set closed under
    sums; a generator that is already such a sum adds nothing.
    """
    found = {()}
    for c in sorted(generators, key=lambda s: (len(s), s)):
        if c not in found:
            found |= {_echelon(w + c, p) for w in found}
    return found


def _invariant_subspaces(j: tuple, p: int) -> list:
    """Every subspace invariant under the algebra commuting with j mod p, by dimension, then echelon tuple."""
    cyclic = {span for _, span in cyclic_submodules(centralizer_mod_p(j, p), p)}
    return sorted(_sum_closure(cyclic, p), key=lambda s: (len(s), s))


def invariant_subspaces_bruteforce(jt: JordanType, p: int) -> list:
    """All subspaces of F_p^n invariant under the centralizer algebra solved mod p.

    Works in chain coordinates and scans at most DEFAULT_LINE_CAP lines.
    Result is sorted by dimension, then by the echelon tuple lexicographically.
    """
    check_scan(p, jt.dimension, DEFAULT_LINE_CAP)
    return _invariant_subspaces(jordan_mod_p(jt, p), p)


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    prime: int
    dimension: int
    labels: int
    invariant_subspaces: int
    mismatch: object  # str describing the first mismatch, or None


def compare_with_prediction(jt: JordanType, p: int, cap: int = DEFAULT_LINE_CAP) -> OracleVerdict:
    """Check the predicted lattice against the invariant subspaces found mod p.

    A mismatch is a verdict, not an exception; p, the line cap and then the
    eigenvalue residues are checked before any label or subspace is built.
    """
    n = jt.dimension
    check_scan(p, n, cap)
    j = jordan_mod_p(jt, p)
    labels = enumerate_labels(jt)
    predicted = {}  # echelon tuple -> label, in label order
    for label in labels:
        positions = invariant_positions(jt, label)
        if len(positions) != (dimension := orbit_dimension(jt, label)):
            return OracleVerdict(
                False, p, n, len(labels), -1,
                f"label {label.deltas}: coordinate count {len(positions)} "
                f"differs from predicted dimension {dimension}",
            )
        predicted.setdefault(tuple(_identity(n)[i] for i in positions), label)
    brute = _invariant_subspaces(j, p)
    found = set(brute)
    mismatches = [
        f"predicted subspace for label {label.deltas} (dimension {len(sub)}) is not invariant"
        for sub, label in predicted.items() if sub not in found
    ] + [
        f"invariant subspace of dimension {len(sub)} with basis {sub} was not predicted"
        for sub in brute if sub not in predicted
    ]
    if len(predicted) < len(labels):
        mismatches.insert(0, "two predicted labels map to the same subspace")
    mismatch = mismatches[0] if mismatches else None
    return OracleVerdict(mismatch is None, p, n, len(labels), len(brute), mismatch)
