"""Jordan structure of a rational matrix.

The similarity class of an operator is captured by its block data: for each
eigenvalue, the multiset of Jordan block sizes. Matrix input is accepted
whenever the characteristic polynomial factors completely into rational
roots; every downstream computation depends only on the block data, so an
operator with irrational or complex eigenvalues can still be analyzed by
supplying a :class:`JordanType` directly, with opaque string labels standing
in for the eigenvalues.

Conventions, pinned for reproducibility:

* Jordan blocks carry their 1s on the subdiagonal. The orientation is fixed:
  the chain basis and the chain-coordinate code both depend on it.
* The chain basis of a block of size s is (v, Nv, ..., N^{s-1}v) with
  N = T - lambda, and the change of basis lists chains by eigenvalue (in the
  canonical order below), then by increasing block size, then by chain index.
* Rational eigenvalues are ordered by (numerator, denominator) of their
  canonical form; symbolic labels follow all rationals, ordered as strings.

The eigenvalues come from the characteristic polynomial, computed over the
integers: T is stored as an integer grid over d, the lcm of its entry
denominators, and Berkowitz's division-free recurrence on that grid gives
c(x) = det(xI - dT), monic with integer coefficients, in O(n^4) integer
operations; a triangular grid gives c as the product of the x - a_ii at
once. Its roots are d times the eigenvalues, and by Gauss's lemma
each rational root is an integer root of the square-free part g of c,
itself monic up to sign. g is c when gcd(c, c') = 1 modulo one large
prime, else it comes from a primitive remainder sequence. The roots are
found without factoring any coefficient: g is taken modulo the smallest
prime p at which the same gcd test finds it square-free, one not dividing
disc(g), so the input bounds the walk. The roots mod p, found by evaluation,
are simple and lift by Newton's (Hensel's) iteration past twice Fujiwara's
bound read off g, where the symmetric residue is the integer root
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15). A
candidate is accepted, with its multiplicity, only by exact synthetic
division of c; a factor left over means an irrational or complex root. Each
accepted root r gives the eigenvalue r / d. Every entry point on T starts
here, refusing first n > MATRIX_DIMENSION_CAP or a grid integer (d included)
over grid_bits(n) bits. Matrix() has no cap: J may hold longer entries.

Both the type and the basis come from one kernel chain per eigenvalue: the
kernel bases of ker N ⊂ ker N^2 ⊂ ... for N = T - lambda, built once and
stopped where dim ker N^k reaches the algebraic multiplicity, which happens
exactly at the largest block size. No power of N is formed: as
rowspace(N^k) = rowspace(N^{k-1}) N, the kernel basis of N^k is that of
R N, R the nonzero rows left by the reduction for N^{k-1}, and the reduced
form, so the kernel basis, depends only on the row space. With
d_k = dim ker N^k, the number of blocks of size exactly i is
2 d_i - d_{i-1} - d_{i+1}. N is written on the integer grid of T = A/d: for
lambda = p/q, N = (qA - pd I) / (qd).

Chain construction walks block sizes from largest to smallest. At size s the
vectors already forced into ker N^s are a basis of ker N^{s-1} together with
the depth s - 1 tails N^{j-s} w of the chains of sizes j > s found earlier,
read off those chains. The forced vectors and then the kernel basis of N^s,
in its deterministic order, are the columns of one integer row reduction;
the chain generators are the kernel columns among its pivot columns, since
a column is a pivot exactly when it lies outside the span of the columns
before it. Each chain (v, Nv, ..., N^{s-1}v) is built once by repeated
products with N as soon as v is found. The count of generators must match
the block multiplicities, and the result is verified outright: the
assembled change of basis P must satisfy T P == P J, checked against
`jordan_matrix`, and computing P^-1 certifies that P is invertible, so
P^-1 T P == J. P is the only record of the chains: the chain at
``chain_slots(jt)[i]`` is the run of P's columns from its offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import NamedTuple, Union

from .linalg import Matrix, NotANumber, ShapeError, _echo, _kernel_vectors, _primitive, as_fraction

Eigenvalue = Union[Fraction, str]

class NonSplittingCharPoly(ValueError):
    """The characteristic polynomial has an irrational or complex root."""


class CapExceeded(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "lattice elements"):
        super().__init__(f"refusing to enumerate {count} {what} (cap {cap})")
        self.count = count
        self.cap = cap


def eigenvalue_sort_key(eig: Eigenvalue) -> tuple:
    """Canonical eigenvalue order: rationals by (numerator, denominator), then labels."""
    if isinstance(eig, Fraction):
        return (0, eig.numerator, eig.denominator)
    return (1, str(eig))


def _normalize_eigenvalue(eig) -> Eigenvalue:
    """A rational when eig is one or a string that reads as one, else a symbolic label."""
    if isinstance(eig, str):
        try:
            return as_fraction(eig)
        except NotANumber:
            label = eig.strip()
        if not label:
            raise ValueError("symbolic eigenvalue label must be nonempty")
        return label
    if isinstance(eig, (Fraction, int)) and not isinstance(eig, bool):
        return Fraction(eig)
    raise TypeError(f"eigenvalue {_echo(eig)} must be an int, Fraction or symbolic label")


@dataclass(frozen=True)
class JordanType:
    """Complete similarity invariant: per eigenvalue, (block size, multiplicity) pairs.

    ``eigen_blocks`` is canonical: eigenvalues in the order of
    :func:`eigenvalue_sort_key`, sizes strictly increasing within each
    eigenvalue, all sizes and multiplicities >= 1.
    """

    eigen_blocks: tuple

    def __post_init__(self):
        if not self.eigen_blocks:
            raise ValueError("a Jordan type needs at least one eigenvalue")
        keys = [eigenvalue_sort_key(eig) for eig, _ in self.eigen_blocks]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("eigenvalues must be distinct and canonically ordered")
        for eig, blocks in self.eigen_blocks:
            if not blocks:
                raise ValueError(f"eigenvalue {eig!r} has no blocks")
            for size, mult in blocks:
                _check_block(eig, size, mult)
            sizes = [size for size, _ in blocks]
            if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
                raise ValueError(f"block sizes for eigenvalue {eig!r} must strictly increase")

    @classmethod
    def of(cls, blocks_by_eigenvalue) -> "JordanType":
        """Canonicalize block data given as a mapping of eigenvalue to blocks.

        blocks is an iterable of (size, multiplicity). Repeated sizes merge by
        summing multiplicities; keys that read as one eigenvalue, such as 0 and
        "0", merge their blocks.
        """
        merged: dict = {}
        for eig, blocks in blocks_by_eigenvalue.items():
            eig = _normalize_eigenvalue(eig)
            per_size = merged.setdefault(eig, {})
            for size, mult in blocks:
                _check_block(eig, size, mult)
                per_size[size] = per_size.get(size, 0) + mult
        canonical = tuple(
            (eig, tuple(sorted(per_size.items())))
            for eig, per_size in sorted(merged.items(), key=lambda kv: eigenvalue_sort_key(kv[0]))
        )
        return cls(canonical)

    @property
    def dimension(self) -> int:
        return sum(size * mult for _, blocks in self.eigen_blocks for size, mult in blocks)


def _check_block(eig, size, mult):
    """Refuse a block unless its size and multiplicity are ints >= 1 (a bool is no size)."""
    if type(size) is not int or type(mult) is not int:
        raise TypeError(f"block ({size!r}, {mult!r}) for {eig!r}: size and multiplicity must be ints")
    if size < 1 or mult < 1:
        raise ValueError(f"block ({size}, {mult}) for {eig!r}: size and multiplicity must be >= 1")


class ChainSlot(NamedTuple):
    """Position of one Jordan chain in chain coordinates."""

    eigenvalue: Eigenvalue
    size: int
    index: int   # 1-based within (eigenvalue, size)
    offset: int  # first chain coordinate of this chain


def chain_slots(jt: JordanType) -> tuple:
    """Chains of a type in canonical order, with their coordinate offsets."""
    slots = []
    offset = 0
    for eig, blocks in jt.eigen_blocks:
        for size, mult in blocks:
            for index in range(1, mult + 1):
                slots.append(ChainSlot(eig, size, index, offset))
                offset += size
    return tuple(slots)


class ChainPlan(NamedTuple):
    """The chains of a type grouped for a scan, one entry per eigenvalue in canonical order.

    ``sizes`` holds each eigenvalue's distinct block sizes (so ``sizes`` is
    ``lattice.column_sizes(jt)``), ``mults`` their multiplicities, and
    ``offsets`` per size the first chain coordinate of each of its chains.
    """

    sizes: tuple
    mults: tuple
    offsets: tuple


def chain_plan(jt: JordanType) -> ChainPlan:
    """The chains of :func:`chain_slots`, grouped by eigenvalue and size."""
    sizes, mults, offsets = [], [], []
    offset = 0
    for _, blocks in jt.eigen_blocks:
        sizes.append(tuple(size for size, _ in blocks))
        mults.append(tuple(mult for _, mult in blocks))
        columns = []
        for size, mult in blocks:
            columns.append(tuple(range(offset, offset + size * mult, size)))
            offset += size * mult
        offsets.append(tuple(columns))
    return ChainPlan(tuple(sizes), tuple(mults), tuple(offsets))


# -- characteristic polynomial and rational roots -----------------------


# Largest matrix dimension accepted. Kernel chains cost about n^4 integer
# operations: at n = 128 with 5-bit entries, analyze takes about 13 s and
# classify about 14 s. Long blocks cost more, each power of T - lambda
# taking one more reduction: three eigenvalues with one block of 20 each
# (n = 60) take about 2.6 s for analyze, blocks of 30 (n = 90) about 13.5 s.
# So does one repeated root beside many simple ones, through the remainder
# sequence for the square-free part: 1 (32 times) and 64 distinct integers
# on the diagonal (n = 96) take about 8.4 s (README, the caps list).
MATRIX_DIMENSION_CAP = 128
# Largest n^5 b^2 accepted for a matrix of n rows whose integer grid (the
# entries over their common denominator, and that denominator) holds integers
# of up to b bits. The char poly and the kernel chains multiply b-bit entries
# by intermediates of about n b bits some n^4 times: a planted 32 x 32 matrix
# S J S^-1 with 256-bit entries, at this cap, takes about 8 s for classify
# (README, the caps list).
MATRIX_GRID_CAP = 2 ** 41


def grid_bits(n: int) -> int:
    """The most bits an integer of the grid of an n-row matrix may hold; refuses n over the dimension cap."""
    if n > MATRIX_DIMENSION_CAP:
        raise CapExceeded(n, MATRIX_DIMENSION_CAP, what="matrix rows")
    return isqrt(MATRIX_GRID_CAP // n ** 5)


def _integer_charpoly(t: Matrix) -> tuple:
    """(c, d): d the common denominator of T, c = det(xI - dT) highest first.

    T is stored as an integer grid over d, the lcm of its entry
    denominators, so dT is that grid. A triangular grid gives c as the
    product of the x - a_ii, any other runs :func:`_berkowitz`.
    """
    if not t.is_square():
        raise ShapeError(f"characteristic polynomial needs a square matrix, got {t.rows}x{t.cols}")
    a, d = t._grid, t._den
    longest, bits = grid_bits(t.rows), max(max(map(int.bit_length, row)) for row in ((d,), *a))
    if bits > longest:
        raise CapExceeded(bits, longest, what=f"bits in an integer of the grid of a {t.rows}-row matrix")
    triangular = (all(not any(row[:i]) for i, row in enumerate(a))
                  or all(not any(row[i + 1:]) for i, row in enumerate(a)))
    if not triangular:
        return _berkowitz(a), d
    poly = [1]
    for i, row in enumerate(a):
        poly = [x - row[i] * y for x, y in zip(poly + [0], [0] + poly)]
    return poly, d


def _berkowitz(a: tuple) -> list:
    """det(xI - A) for a square integer grid A, highest first, by Berkowitz's recurrence.

    With A_k = [[M, C], [R, a]] the leading k x k block of A, p_k is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RMC, ..., -RM^{k-2}C) applied to p_{k-1}.
    """
    poly = [1]
    for k in range(len(a)):
        row, column = a[k][:k], [a[i][k] for i in range(k)]
        toeplitz = [1, -a[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, row, column)))
            column = [sum(map(mul, a[i], column)) for i in range(k)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
                for i in range(k + 2)]
    return poly


def characteristic_polynomial(t: Matrix) -> tuple:
    """Monic characteristic polynomial det(xI - T), coefficients highest first."""
    c, d = _integer_charpoly(t)
    return tuple(Fraction(x, d ** k) for k, x in enumerate(c))


def _derivative(poly: list) -> list:
    return [c * (len(poly) - 1 - k) for k, c in enumerate(poly[:-1])]


def _pseudo_remainder(a: list, b: list) -> list:
    """A multiple of a mod b by a nonzero constant, leading zeros stripped (highest first)."""
    lead = b[0]
    while len(a) >= len(b):
        c = a[0]
        a = [lead * x for x in a[1:]]
        for k in range(len(b) - 1):
            a[k] -= c * b[k + 1]
        while a and a[0] == 0:
            a.pop(0)
    return a


def _square_free_part(f: list) -> list:
    """f / gcd(f, f') as a primitive integer polynomial, by a primitive remainder sequence.

    Coefficients are listed highest first; the gcd and the result are fixed up
    to sign only, which changes no root.
    """
    a, b = _primitive(f), _primitive(_derivative(f))
    common = [1]
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            common = b
            break
        a, b = b, _primitive(r)
    # common is primitive and divides f, so by Gauss's lemma the quotient is integral
    quotient, rest = [], list(f)
    while len(rest) >= len(common):
        q = rest[0] // common[0]
        quotient.append(q)
        rest = [x - q * y for x, y in zip(rest[1:], common[1:] + [0] * len(rest))]
    return _primitive(quotient)


# gcd(c, c') = 1 mod this prime proves a monic c square-free without the
# remainder sequence over the integers. A prime this large seldom divides the
# discriminant of a square-free c, and then the sequence runs anyway; below
# 2^30, residues are one-digit Python ints.
SQUARE_FREE_PRIME = 1_073_741_789


def _square_free_mod(f: list, p: int) -> bool:
    """Whether gcd(f, f') is constant mod p, which proves the monic f square-free.

    A repeated factor h^2 over Z, h monic and not constant, stays one mod p.
    """
    a, b = [x % p for x in f], [x % p for x in _derivative(f)]
    # f' mod p loses its leading terms where p divides their exponents
    while b and not b[0]:
        b.pop(0)
    while b:
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            q = a[0] * inv % p
            a = [(x - q * y) % p for x, y in zip(a[1:], b[1:] + [0] * len(a))]
            while a and a[0] == 0:
                a.pop(0)
        a, b = b, a
    return len(a) == 1 and not b


def _next_prime(p: int) -> int:
    p += 1
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _eval_mod(poly: list, x: int, m: int) -> int:
    value = 0
    for c in poly:
        value = (value * x + c) % m
    return value


def _root_candidates(g: list) -> list:
    """Every integer root of g, square-free and monic up to sign, and maybe more.

    At the smallest prime p at which g is square-free, one not dividing
    disc(g), each integer root r of g is a simple root mod p, which Newton's
    iteration lifts uniquely to a root mod p^(2^k) >= 2^(bits + 1), where
    |r| < 2^bits by Fujiwara's bound; the symmetric residue of that lift is r.
    g'(x)^-1 is inverted once mod p and lifted alongside the root.
    """
    p = 2
    while not _square_free_mod(g, p):
        p = _next_prime(p)
    g_mod_p, derivative = [c % p for c in g], _derivative(g)
    roots = [x for x in range(p) if _eval_mod(g_mod_p, x, p) == 0]
    # Fujiwara: |r| <= 2 max |g_i|^(1/i) over the coefficients g_i, i places
    # after the leading one, which is 1 up to sign; each |g_i|^(1/i) is below
    # 2^ceil(bitlen(g_i) / i), whatever g(0) is
    bits = 1 + max(-(-c.bit_length() // i) for i, c in enumerate(g[1:], 1))
    candidates = []
    for x in roots:
        m = p
        while m.bit_length() <= bits + 1:
            # y = g'(x)^-1 mod m, lifted by Newton's iteration for an inverse
            # from the one inversion mod p; a step mod m^2 needs y mod m only
            slope = _eval_mod(derivative, x, m)
            y = pow(slope, -1, p) if m == p else y * (2 - slope * y) % m
            m *= m
            x = (x - _eval_mod(g, x, m) * y) % m
        candidates.append(x - m if 2 * x > m else x)
    return candidates


def _integer_roots(c: list) -> list:
    """All integer roots (root, multiplicity) of a monic integer polynomial c.

    The candidates come from p-adic lifting of the roots of the square-free
    part modulo a small prime; each one, and its multiplicity, is confirmed by
    exact synthetic division. Raises NonSplittingCharPoly when a nontrivial
    factor remains after every integer root has been divided out.
    """
    work = list(c)
    roots = []
    zero_mult = 0
    while len(work) > 1 and work[-1] == 0:
        work.pop()
        zero_mult += 1
    if zero_mult:
        roots.append((0, zero_mult))
    if len(work) > 1:
        square_free = work if _square_free_mod(work, SQUARE_FREE_PRIME) else _square_free_part(work)
        for cand in _root_candidates(square_free):
            mult = 0
            while len(work) > 1:
                quotient = [work[0]]
                for x in work[1:-1]:
                    quotient.append(x + cand * quotient[-1])
                if work[-1] + cand * quotient[-1] != 0:
                    break
                work = quotient
                mult += 1
            if mult:
                roots.append((cand, mult))
        if len(work) > 1:
            raise NonSplittingCharPoly(
                "the characteristic polynomial has an irrational or complex root "
                f"(residual factor of degree {len(work) - 1}); supply the Jordan block "
                "data directly (eigenvalue -> [size, multiplicity] pairs) to analyze "
                "this operator"
            )
    return roots


def rational_eigenvalues(t: Matrix) -> list:
    """Eigenvalues with algebraic multiplicities, when all of them are rational."""
    c, d = _integer_charpoly(t)
    roots = sorted(((Fraction(r, d), m) for r, m in _integer_roots(c)),
                   key=lambda pair: eigenvalue_sort_key(pair[0]))
    assert sum(m for _, m in roots) == t.rows
    return roots


# -- Jordan type and basis ----------------------------------------------


def _kernel_chains(t: Matrix):
    """Per rational eigenvalue, in canonical order: (eig, blocks, N, kernels).

    N is T - eig and ``kernels[k]`` a basis of the kernel of N^k, for k = 0
    up to the largest block size, the first k where dim ker N^k reaches the
    algebraic multiplicity.
    """
    d = t._den
    for eig, alg_mult in rational_eigenvalues(t):
        # with T = A/d and eig = p/q, N = (qA - pd I) / (qd)
        p, q = eig.numerator, eig.denominator
        nilpotent = Matrix._reduced(
            [[q * x - p * d if i == j else q * x for j, x in enumerate(row)]
             for i, row in enumerate(t._grid)],
            q * d,
        )
        rows, pivots = nilpotent._integer_rref()
        kernels, columns = [[], _kernel_vectors(rows, pivots, t.rows)], list(zip(*nilpotent._grid))
        while len(kernels[-1]) < alg_mult:
            product = [[sum(map(mul, row, column)) for column in columns] for row in rows[:len(pivots)]]
            rows, pivots = Matrix._reduced(product, 1)._integer_rref()
            kernels.append(_kernel_vectors(rows, pivots, t.rows))
        dims = [len(basis) for basis in kernels] + [alg_mult]
        blocks = []
        for size in range(1, len(kernels)):
            count = 2 * dims[size] - dims[size - 1] - dims[size + 1]
            if count:
                blocks.append((size, count))
        yield eig, blocks, nilpotent, kernels


def jordan_type(t: Matrix) -> JordanType:
    """Block structure read off the kernel dimensions of powers of T - lambda."""
    return JordanType.of({eig: blocks for eig, blocks, _, _ in _kernel_chains(t)})


def jordan_matrix(jt: JordanType) -> Matrix:
    """The canonical block matrix of a type with rational eigenvalues."""
    n = jt.dimension
    rows = [[Fraction(0)] * n for _ in range(n)]
    for slot in chain_slots(jt):
        if not isinstance(slot.eigenvalue, Fraction):
            raise TypeError(
                f"symbolic eigenvalue label {slot.eigenvalue!r} has no matrix realization"
            )
        for k in range(slot.size):
            rows[slot.offset + k][slot.offset + k] = slot.eigenvalue
        for k in range(slot.size - 1):
            rows[slot.offset + k + 1][slot.offset + k] = Fraction(1)
    return Matrix(rows)


@dataclass(frozen=True)
class JordanBasis:
    """Explicit chain basis of a matrix: P^-1 T P is the canonical block matrix."""

    matrix: Matrix
    jordan_type: JordanType
    transform: Matrix          # P, each chain's columns from its chain_slots offset
    inverse_transform: Matrix  # P^-1
    plan: ChainPlan            # chain_plan(jordan_type), built once for classification

    @property
    def dimension(self) -> int:
        return self.matrix.rows


def jordan_basis(t: Matrix) -> JordanBasis:
    data = {}
    columns = []
    for eig, blocks, nilpotent, kernels in _kernel_chains(t):
        data[eig] = blocks
        mult = dict(blocks)
        chains = []  # [v, Nv, ..., N^{s-1} v] per chain, smallest size first
        for size in range(len(kernels) - 1, 0, -1):
            forced = kernels[size - 1] + [c[len(c) - size] for c in chains]
            _, pivots = Matrix.from_columns(forced + kernels[size])._integer_rref()
            tops = [kernels[size][c - len(forced)] for c in pivots if c >= len(forced)]
            if len(tops) != mult.get(size, 0):
                raise RuntimeError("Jordan chain construction failed; this is a bug")
            found = [[top] for top in tops]
            for chain in found:
                for _ in range(size - 1):
                    chain.append(nilpotent @ chain[-1])
            chains = found + chains
        columns += [vec for chain in chains for vec in chain]
    jt = JordanType.of(data)
    p = Matrix.from_columns(columns)
    p_inv = p.inverse()
    if t @ p != p @ jordan_matrix(jt):
        raise RuntimeError("Jordan basis reconstruction check failed; this is a bug")
    return JordanBasis(t, jt, p, p_inv, chain_plan(jt))


def coords_in_jordan_basis(basis: JordanBasis, v: Matrix) -> Matrix:
    """Coordinates of v in the chain basis, i.e. P^-1 v."""
    _check_vector(basis.dimension, v)
    return basis.inverse_transform @ v


def _check_vector(n: int, v: Matrix):
    """Refuse anything but an n x 1 matrix."""
    if v.rows != n or v.cols != 1:
        raise ShapeError(f"vector must be {n}x1, got {v.rows}x{v.cols}")
