"""Independent verification over prime fields.

The predicted lattice says that the subspaces invariant under the algebra A
of operators commuting with the Jordan form J are exactly the coordinate
subspaces of the orbit closures, one per label. This module checks that
claim over F_p without the library's own centralizer construction, in
stages that pass their results on as data: the gate check_scan certifies p
and caps the lines of F_p^n from n alone, and every stage after it trusts
p; jordan_mod_p writes J mod p in chain coordinates; centralizer_mod_p,
which takes any n x n matrix mod p, solves XJ = JX as n^2 linear equations
mod p for a basis of A; _line_spans spans A v for every line v; and a sum
closure ends the scan. Every invariant W is the sum of the submodules
A w over w in W, and A (cw) = A w for c != 0, so these spans, closed under
sums, are exactly the invariant subspaces. The scan visits the
(p^n - 1)/(p - 1) lines, not every subspace.

The block-size arguments behind the prediction only ever use that the
eigenvalues lie in the field and are distinct, so agreement over F_2 and F_3
is evidence (not proof) that the classification computed over the rationals
is field-independent. Rational eigenvalues must stay representable and
distinct mod p (eigenvalues_mod_p). A matrix input is checked through its
Jordan type: its chain basis is not mapped into F_p.

J mod p is a tuple of row tuples with entries in [0, p). From the solve on
a vector of F_p^n is one int: n fields of w bits, coordinate 0 in the top
field, so the order of the ints is the lexicographic order of the tuples.
An element of the algebra is the tuple of its packed columns. A subspace
is the tuple of the packed rows of its reduced echelon basis, first pivot
first (its echelon tuple), so equal subspaces are equal tuples and tuples
sort as their row tuples do. Row tuples come back only at the two exits:
the sorted list invariant_subspaces_bruteforce returns, and the subspace a
mismatch text names.

Arithmetic acts on all fields at once (SWAR, "SIMD within a register"). Let
b = p.bit_length(), k = 3b, M = 2^k // p + 1 and w = k + b + 1, and let Q
mask the low b bits of every field. For a packed s whose fields all lie
below p^2, q = ((s * M) >> k) & Q holds each field's quotient by p, and
s - p q holds each field mod p. The reduction is exact. With
e = Mp - 2^k <= p, a field x < p^2 has xM / 2^k = x/p + xe / (p 2^k), and
xe < p^3 <= 2^k puts the second term below 1/p, so the floor is x // p,
which is below p and fits b bits. xM < 2^(k + b) does not spill into the
field above, and the low k bits of a field's product, shifted down, land
above bit b of the field below, where Q drops them. A row operation
v + (p - x) row keeps every field at most (p - 1) + (p - 1)^2 < p^2, so one
reduction follows each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .classify import invariant_positions, orbit_dimension
from .jordan import JordanType, _WITNESS_BOUND, _is_prime, _jordan_rows
from .lattice import CapExceeded, enumerate_labels
from .linalg import _count_text, _echo

DEFAULT_LINE_CAP = 8191


def _require_prime(p: int):
    """Reject p unless it is certainly prime (deterministic Miller-Rabin)."""
    if p >= _WITNESS_BOUND:
        raise ValueError(f"{p} is too large to certify as prime")
    if not _is_prime(p):
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

    F_p^n has at least 2^(n-1) lines, so a large n goes uncounted; an n of
    more digits than str() writes is named as _count_text names it. A p or
    cap that is not an int (a bool is none) is refused before any arithmetic.
    """
    if type(p) is not int or type(cap) is not int:
        raise TypeError(f"prime {_echo(p)} and line cap {_echo(cap)} must be ints")
    _require_prime(p)
    if n > cap.bit_length():
        if not (dimension := _count_text(n)).isdigit():
            raise CapExceeded("at least 2^(n - 1)", cap, what=f"lines of F_{p}^n, n {dimension}")
        raise CapExceeded(f"at least 2^{n - 1}", cap, what=f"lines of F_{p}^{n}")
    count = (p**n - 1) // (p - 1)
    if count > cap:
        raise CapExceeded(count, cap, what=f"lines of F_{p}^{n}")


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


class _Packing:
    """Vectors of F_p^n packed into ints, and their reduction mod p.

    A vector is one int of n fields w bits wide, coordinate 0 in the top
    field; the constants and why the reduction is exact are in the module
    docstring.
    """

    def __init__(self, p: int, n: int):
        b = p.bit_length()
        self.p, self.n, self.k = p, n, 3 * b
        self.w = self.k + b + 1
        self.m = (1 << self.k) // p + 1
        self.low = ((1 << b) - 1) * (((1 << self.w * n) - 1) // ((1 << self.w) - 1))
        self.units = tuple(1 << self.w * i for i in reversed(range(n)))  # the rows of the identity

    def reduce(self, s: int) -> int:
        """s with every field x < p^2 replaced by x mod p."""
        return s - self.p * (s * self.m >> self.k & self.low)

    def unpack(self, x: int) -> tuple:
        field = (1 << self.w) - 1
        return tuple(x >> self.w * i & field for i in reversed(range(self.n)))


def centralizer_mod_p(j: tuple, p: int) -> tuple:
    """A basis of the algebra {X : XJ = JX} over F_p, for any n x n matrix j = J mod p.

    Each basis element X is the tuple of its n columns, column b packed as
    the vector (X[0][b], ..., X[n-1][b]) of F_p^n. Unknown X[a][b] is number
    a*n + b, coordinate a*n + b of a packed equation; equation (i, k) is
    sum_c X[i][c] J[c][k] - sum_r J[i][r] X[r][k] = 0. An unknown takes at
    most two terms of one equation (X[i][k] takes J[k][k] and -J[i][i]), so
    every field stays below 2p until the one reduction. Each unknown left
    free by the reduced equations gives one basis element.
    """
    n = len(j)
    f = _Packing(p, n * n)
    unit = f.units
    equations = [0] * (n * n)
    for r, row in enumerate(j):
        for c, a in enumerate(row):
            if a % p:
                for i in range(n):
                    equations[i * n + c] += a % p * unit[i * n + r]
                    equations[r * n + i] += -a % p * unit[c * n + i]
    reduced = _echelon(map(f.reduce, equations), f)
    pivots = {n * n - 1 - row.bit_length() // f.w: row for row in reduced}
    field = (1 << f.w) - 1
    column_units = unit[-n:]  # packed as vectors of F_p^n: the fields are as wide
    basis = []
    for free in range(n * n):
        if free not in pivots:
            x = [0] * (n * n)
            x[free] = 1
            at = f.w * (n * n - 1 - free)
            for u, row in pivots.items():
                x[u] = -(row >> at & field) % p
            basis.append(tuple(sum(map(mul, x[b::n], column_units)) for b in range(n)))
    return tuple(basis)


def _echelon(vectors, f: _Packing) -> tuple:
    """Reduced row echelon basis of the span of packed vectors, first pivot first (an echelon tuple).

    Each vector is reduced by the rows found so far (keyed by the field of
    their leading coordinate, zero above it) until its top nonzero field is
    one no row leads. Vectors go in ascending order, latest leading
    coordinate first, so a vector whose leading coordinate is new needs no
    reduction at all. A row operation adds (p - x) times a row, which leads
    with 1, to a vector whose field x sits there, then reduces every field at
    once. At the end each row, latest lead first, is cleared at the leads
    after its own by the rows already cleared.
    """
    p, w, k, m, low = f.p, f.w, f.k, f.m, f.low
    rows = {}  # field of the leading coordinate, counted from the bottom -> row
    for v in sorted(vectors):
        while v:
            top = v.bit_length() // w  # a field's value has at most b < w bits
            row = rows.get(top)
            if row is None:
                break
            s = v + (p - (v >> top * w)) * row
            v = s - p * (s * m >> k & low)  # f.reduce(s), inlined in the two loops run per line
        else:
            continue
        x = v >> top * w
        if x != 1:
            v = f.reduce(v * pow(x, -1, p))
        rows[top] = v
        if len(rows) == f.n:  # fp_verify's spans A v are often the whole space: no clearing pass then
            return f.units
    field = (1 << w) - 1
    cleared = []
    for lead in sorted(rows):
        v = rows[lead]
        for other, row in cleared:
            y = v >> other * w & field
            if y:
                v = f.reduce(v + (p - y) * row)
        cleared.append((lead, v))
    return tuple(v for _, v in reversed(cleared))


def _line_spans(algebra: tuple, f: _Packing):
    """(v, echelon tuple of A v = span{X v : X in algebra}) for every line v of F_p^n, both packed.

    algebra is as centralizer_mod_p returns it; callers pass check_scan first.

    v is the vector whose first nonzero entry is 1, its tail after the lead
    walked by itertools.product(range(p), repeat=...), so in the order of
    the product. images[i] is X_i v. One step of the product changes only a
    suffix of the tail, and raises each coordinate c in it by 1 mod p; the
    walk finds that suffix by comparing the tail with the one before from
    the end, and adds column c of each X_i that has one to X_i v. Memory
    stays O(n + p) however many lines there are.
    """
    n, p, k, m, low = f.n, f.p, f.k, f.m, f.low
    unit = f.units
    by_column = [[] for _ in range(n)]  # per coordinate c, (i, column c of X_i) where that column is not 0
    for i, x in enumerate(algebra):
        for c, col in enumerate(x):
            if col:
                by_column[c].append((i, col))
    # images updated per step, not computed afresh per line: paid by fp_verify, a scan of every line
    for lead in range(n):
        v, images = unit[lead], [0] * len(algebra)
        for i, col in by_column[lead]:
            images[i] = col
        units, columns = unit[lead + 1:], by_column[lead + 1:]  # position j of the tail is coordinate lead + 1 + j
        backwards = range(n - 2 - lead, -1, -1)
        before = (0,) * (n - 1 - lead)
        # once a tail exists, product holds range(p) whole before the first line: the default line
        # cap keeps p small then, but a raised --cap can admit a p whose range does not fit in memory,
        # or past 2^63 has no length at all (the CLI reports the MemoryError or OverflowError, exit 3)
        for tail in itertools.product(range(p), repeat=n - 1 - lead):
            for j in backwards:
                d = tail[j]
                if d == before[j]:
                    break
                v += units[j] if d else (1 - p) * units[j]
                for i, col in columns[j]:
                    s = images[i] + col
                    images[i] = s - p * (s * m >> k & low)  # f.reduce(s), inlined
            before = tail
            yield v, _echelon(set(images), f)


def _sum_closure(generators, f: _Packing) -> set:
    """Every sum of a subset of the given subspaces, as echelon tuples.

    Adding the generators one at a time keeps the found set closed under
    sums; a generator that is already such a sum adds nothing.
    """
    found = {()}
    for c in sorted(generators, key=lambda s: (len(s), s)):
        if c not in found:
            found |= {_echelon(w + c, f) for w in found}
    return found


def _invariant_subspaces(j: tuple, f: _Packing) -> list:
    """Every subspace of F_p^n invariant under the algebra commuting with j mod p, as echelon tuples.

    Sorted by dimension, then by the echelon tuple (the order of its row tuples).
    """
    cyclic = {span for _, span in _line_spans(centralizer_mod_p(j, f.p), f)}
    return sorted(_sum_closure(cyclic, f), key=lambda s: (len(s), s))


def invariant_subspaces_bruteforce(jt: JordanType, p: int) -> list:
    """All subspaces of F_p^n invariant under the centralizer algebra solved mod p.

    Works in chain coordinates and scans at most DEFAULT_LINE_CAP lines.
    Result is sorted by dimension, then by the echelon tuple lexicographically.
    """
    check_scan(p, jt.dimension, DEFAULT_LINE_CAP)
    f = _Packing(p, jt.dimension)
    return [tuple(map(f.unpack, s)) for s in _invariant_subspaces(jordan_mod_p(jt, p), f)]


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
    f = _Packing(p, n)
    predicted = {}  # echelon tuple -> label, in label order
    for label in labels:
        positions = invariant_positions(jt, label)
        if len(positions) != (dimension := orbit_dimension(jt, label)):
            return OracleVerdict(
                False, p, n, len(labels), -1,
                f"label {label.deltas}: coordinate count {len(positions)} "
                f"differs from predicted dimension {dimension}",
            )
        predicted.setdefault(tuple(f.units[i] for i in positions), label)
    brute = _invariant_subspaces(j, f)
    found = set(brute)
    mismatches = itertools.chain(
        ["two predicted labels map to the same subspace"] if len(predicted) < len(labels) else [],
        (f"predicted subspace for label {label.deltas} (dimension {len(sub)}) is not invariant"
         for sub, label in predicted.items() if sub not in found),
        (f"invariant subspace of dimension {len(sub)} with basis {tuple(map(f.unpack, sub))} was not predicted"
         for sub in brute if sub not in predicted),
    )
    mismatch = next(mismatches, None)
    return OracleVerdict(mismatch is None, p, n, len(labels), len(brute), mismatch)
