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
operations; a step whose new row left of the diagonal, or new column
above it, is zero multiplies by x - a_kk alone, so a triangular grid takes
no product. Its roots are d times the eigenvalues, and by Gauss's lemma
each rational root is an integer root of the square-free part g of c, which
is monic: c / gcd(c, c'), the gcd taken modulo a large prime or a power of
one and accepted once it divides c and c' exactly. The roots are
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
over grid_bits(n) bits. Building a Matrix has no cap: J may hold longer entries.

Both the type and the basis come from one elimination record per
eigenvalue: the row reductions of N, N^2, ... for N = T - lambda, made once
and stopped where dim ker N^k = n - rank N^k reaches the algebraic
multiplicity, which happens exactly at the largest block size. No power of
N is formed: as rowspace(N^k) = rowspace(N^{k-1}) N, the reduction for N^k
is that of R N, R the nonzero rows left by the reduction for N^{k-1}, and
the reduced form depends only on the row space. The type is read off the
ranks alone: with d_k = dim ker N^k, the number of blocks of size exactly i
is 2 d_i - d_{i-1} - d_{i+1}. Only `jordan_basis` builds kernel bases from
the reductions, one per power. N is written on the integer grid of T = A/d:
N = (A - rI) / d, r = lambda d the integer root of c.

Chain construction walks block sizes from largest to smallest. At size s the
vectors already forced into ker N^s are a basis of ker N^{s-1} together with
the depth s - 1 tails N^{j-s} w of the chains of sizes j > s found earlier,
read off those chains. The forced vectors and then the kernel basis of N^s
are the columns of one integer row reduction over the d_s free coordinates
of ker N^s, which fix a vector of ker N^s; the chain generators are the
kernel columns among its pivot columns, since a column is a pivot exactly
when it lies outside the span of the columns before it. Each chain (v, Nv,
..., N^{s-1}v) is built once, as integer columns, as soon as v is found.
The count of generators must match the block multiplicities, and the result
is verified outright: P, assembled once, must satisfy T P == P J, checked
against `jordan_matrix`, and computing P^-1 certifies that P is invertible, so
P^-1 T P == J. P^-1 comes from Q, the integer columns before they are put
over one denominator: P = Q diag(1/d_j), so P^-1 is Q^-1 with row j times
d_j, and the elimination runs on Q's short integers, not on P's over the
lcm. P is the only record of the chains: the chain at ``chain_slots(jt)[i]``
is the run of P's columns from its offset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple, Union

from .linalg import (Matrix, NotANumber, ShapeError, _count_text, _echo, _integer_rref, _kernel_vectors, _lowest_terms,
                     as_ratio)

Eigenvalue = Union[Fraction, str]

class NonSplittingCharPoly(ValueError):
    """The characteristic polynomial has an irrational or complex root."""


class CapExceeded(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "lattice elements"):
        super().__init__(f"refusing to enumerate {_count_text(count)} {what} (cap {_count_text(cap)})")
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
            return Fraction(*as_ratio(eig))
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
            if not isinstance(eig, (Fraction, str)):
                raise TypeError(f"eigenvalue {_echo(eig)} must be a Fraction or a symbolic label; use JordanType.of")
            if isinstance(eig, str) and _normalize_eigenvalue(eig) != eig:
                raise ValueError(f"eigenvalue {_echo(eig)} is not in canonical form; use JordanType.of")
            if not blocks:
                raise ValueError(f"eigenvalue {eig!r} has no blocks")
            for size, mult in blocks:
                _check_block(eig, size, mult)
            sizes = [size for size, _ in blocks]
            if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
                raise ValueError(f"block sizes for eigenvalue {eig!r} must strictly increase")

    # read only to walk chain coordinates, after a shape or cap check: a type
    # past every cap can have offsets too many to build
    @cached_property
    def plan(self) -> ChainPlan:
        """The one chain layout, built on first read and kept outside ``==``, ``hash`` and ``repr``."""
        sizes, mults, offsets = [], [], []
        offset = 0
        for _, blocks in self.eigen_blocks:
            size_row, mult_row = zip(*blocks)
            sizes.append(size_row)
            mults.append(mult_row)
            columns = []
            for size, mult in blocks:
                columns.append(tuple(range(offset, offset + size * mult, size)))
                offset += size * mult
            offsets.append(tuple(columns))
        return ChainPlan(tuple(sizes), tuple(mults), tuple(offsets))

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


class ChainPlan(NamedTuple):
    """A type's chains grouped for a scan, one entry per eigenvalue in canonical order (:attr:`JordanType.plan`).

    ``sizes`` holds each eigenvalue's distinct block sizes (so ``sizes`` is
    ``lattice.column_sizes(jt)``), ``mults`` their multiplicities, and
    ``offsets`` per size the first chain coordinate of each of its chains.
    """

    sizes: tuple
    mults: tuple
    offsets: tuple


def chain_slots(jt: JordanType) -> tuple:
    """Chains of a type in canonical order, with their coordinate offsets, read off :attr:`JordanType.plan`."""
    return tuple(ChainSlot(eig, size, index, offset)
                 for (eig, _), sizes, columns in zip(jt.eigen_blocks, jt.plan.sizes, jt.plan.offsets)
                 for size, chains in zip(sizes, columns) for index, offset in enumerate(chains, 1))


# -- characteristic polynomial and rational roots -----------------------


# Largest matrix dimension accepted. Kernel chains cost about n^4 integer
# operations: at n = 128 with 5-bit entries, analyze takes about 13 s and
# classify about 14 s. Long blocks cost more, each power of T - lambda
# taking one more reduction: three eigenvalues with one block of 20 each
# (n = 60) take about 2.6 s for analyze, blocks of 30 (n = 90) about 13.5 s
# (README, the caps list).
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

    T is stored as an integer grid A over d, the lcm of its entry
    denominators, so dT is A. By Berkowitz's recurrence, with
    A_k = [[M, C], [R, a]] the leading k x k block of A, p_k is the
    lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RMC, ..., -RM^{k-2}C) applied to p_{k-1}. When R or C is
    zero, so is every RM^jC, and the step is p_k = (x - a) p_{k-1}: a
    triangular grid takes no product.
    """
    if not t.is_square():
        raise ShapeError(f"characteristic polynomial needs a square matrix, got {t.rows}x{t.cols}")
    a, d = t._grid, t._den
    longest, bits = grid_bits(t.rows), max(max(map(int.bit_length, row)) for row in ((d,), *a))
    if bits > longest:
        raise CapExceeded(bits, longest, what=f"bits in an integer of the grid of a {t.rows}-row matrix")
    poly = [1]
    for k, row in enumerate(a):
        r, column = row[:k], [a[i][k] for i in range(k)]
        toeplitz = [1, -row[k]]
        if any(r) and any(column):
            toeplitz.append(-sum(map(mul, r, column)))
            for _ in range(k - 1):  # M^k C would go unread
                column = [sum(map(mul, a[i], column)) for i in range(k)]
                toeplitz.append(-sum(map(mul, r, column)))
        # the Toeplitz matrix adds toeplitz[m] times the last p, shifted down m places
        poly, shifted = poly + [0], poly
        for m, c in enumerate(toeplitz[1:], 1):
            poly[m:] = [x + c * y for x, y in zip(poly[m:], shifted)]
    return poly, d


def characteristic_polynomial(t: Matrix) -> tuple:
    """Monic characteristic polynomial det(xI - T), coefficients highest first."""
    c, d = _integer_charpoly(t)
    return tuple(Fraction(x, d ** k) for k, x in enumerate(c))


def _derivative(poly: list) -> list:
    return [c * (len(poly) - 1 - k) for k, c in enumerate(poly[:-1])]


# Miller-Rabin with these witnesses is exact below _WITNESS_BOUND (the least
# strong pseudoprime to all of them is 3317044064679887385961981).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin to every base in _WITNESSES: exact below _WITNESS_BOUND."""
    if p <= _WITNESSES[-1]:  # the witnesses are the primes up to 41
        return p in _WITNESSES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^r, d odd
    d = (p - 1) >> r
    return all(pow(a, d, p) == 1 or p - 1 in (pow(a, d << i, p) for i in range(r)) for a in _WITNESSES)


def _gcd_mod(f: list, m: int):
    """The monic gcd of f and f' mod m by Euclid's algorithm, or None if a leading coefficient is no unit."""
    a, b = [x % m for x in f], [x % m for x in _derivative(f)]
    # f' mod m loses its leading terms where m divides their exponents
    while b and not b[0]:
        b.pop(0)
    while b:
        if gcd(b[0], m) > 1:  # never for a prime m
            return None
        inv = pow(b[0], -1, m)
        while len(a) >= len(b):
            q = a[0] * inv % m
            a = [(x - q * y) % m for x, y in zip(a[1:], b[1:])] + a[len(b):]
            while a and not a[0]:
                a.pop(0)
        a, b = b, a
    inv = pow(a[0], -1, m)  # f is monic, and every later a was a b
    return [x * inv % m for x in a]


def _monic_quotient(f: list, h: list):
    """f / h over Z for a monic h, highest first, or None when h does not divide f."""
    k, rest = max(len(f) - len(h) + 1, 0), list(f)
    for i in range(k):
        for j, y in enumerate(h[1:], i + 1):
            rest[j] -= rest[i] * y
    return None if any(rest[k:]) else rest[:k]


# The first modulus of the square-free part: a gcd of 1 mod this prime proves
# c square-free at once. Below 2^30, residues are one-digit Python ints.
SQUARE_FREE_PRIME = 1_073_741_789


def _square_free_part(f: list) -> list:
    """f / G, G = gcd(f, f') over Z, for a monic integer f; coefficients highest first.

    For the primes q from SQUARE_FREE_PRIME on, m is q and then q^k, the first
    power past twice Mignotte's bound 2^deg ||f||_2 on a factor's coefficients.
    h, the gcd mod m in symmetric residues, is accepted once it divides f and
    f' over Z, and then h = G: G is monic, as f is, and divides every
    combination of f and f' mod m, so deg h >= deg G; and h | f, h | f' give
    h | G. Unless q divides a numerator or denominator of a leading
    coefficient of Euclid over Q, Euclid mod q^k follows it, h = G mod q^k,
    and the residues read G back. So only finitely many q fail, and the input
    bounds the walk, as it bounds that of :func:`_root_candidates`.
    """
    bound = (isqrt(sum(x * x for x in f)) + 1) << len(f)
    # SQUARE_FREE_PRIME is prime: Miller-Rabin on it would cost more than the gcd
    for q in itertools.chain([SQUARE_FREE_PRIME], filter(_is_prime, itertools.count(SQUARE_FREE_PRIME + 1))):
        power = next(x for x in itertools.accumulate(itertools.repeat(q), mul) if x > bound)
        for m in dict.fromkeys((q, power)):
            h = _gcd_mod(f, m)
            if h is None:
                break
            h = [x - m if 2 * x > m else x for x in h]
            part = _monic_quotient(f, h)
            if part is not None and _monic_quotient(_derivative(f), h) is not None:
                return part


def _eval_mod(poly: list, x: int, m: int) -> int:
    value = 0
    for c in poly:
        value = (value * x + c) % m
    return value


def _root_candidates(g: list) -> list:
    """Every integer root of g, square-free and monic, and maybe more.

    At the smallest prime p at which g is square-free, one not dividing
    disc(g), each integer root r of g is a simple root mod p, which Newton's
    iteration lifts uniquely to a root mod p^(2^k) >= 2^(bits + 1), where
    |r| < 2^bits by Fujiwara's bound; the symmetric residue of that lift is r.
    g'(x)^-1 is inverted once mod p and lifted alongside the root.
    """
    p = next(p for p in filter(_is_prime, itertools.count(2)) if len(_gcd_mod(g, p)) == 1)
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

    The candidates, 0 among them when c(0) = 0, come from p-adic lifting of
    the roots of the square-free part modulo a small prime; each one, and
    its multiplicity, is confirmed by exact synthetic division. Raises
    NonSplittingCharPoly when a nontrivial factor remains after every
    integer root has been divided out.
    """
    work, roots = list(c), []
    for cand in _root_candidates(_square_free_part(work)):
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
    """Per rational eigenvalue, in canonical order: (eig, blocks, grid, reductions).

    N = T - eig is the integer grid over T's denominator, and
    ``reductions[k - 1]`` the (rows, pivots) :func:`_integer_rref` returns
    for a matrix with the row space of N^k, for k = 1 up to the largest
    block size, the first k where dim ker N^k = n - len(pivots) reaches the
    algebraic multiplicity.
    """
    n, d = t.rows, t._den
    for eig, alg_mult in rational_eigenvalues(t):
        # with T = A/d, r = eig d is an integer root of det(xI - A) and N = (A - rI)/d
        r = eig.numerator * (d // eig.denominator)
        grid = [[x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(t._grid)]
        reductions, columns = [_integer_rref(grid)], list(zip(*grid))
        while n - len(reductions[-1][1]) < alg_mult:
            rows, pivots = reductions[-1]
            reductions.append(_integer_rref([[sum(map(mul, row, column)) for column in columns]
                                             for row in rows[:len(pivots)]]))
        dims = [0] + [n - len(pivots) for _, pivots in reductions] + [alg_mult]
        blocks = []
        for size in range(1, len(reductions) + 1):
            count = 2 * dims[size] - dims[size - 1] - dims[size + 1]
            if count:
                blocks.append((size, count))
        yield eig, blocks, grid, reductions


def jordan_type(t: Matrix) -> JordanType:
    """Block structure read off the ranks of the powers of T - lambda."""
    return JordanType.of({eig: blocks for eig, blocks, _, _ in _kernel_chains(t)})


def _jordan_rows(jt: JordanType, diagonal: dict, below: int) -> list:
    """The rows of J: ``diagonal[eig]`` on the diagonal, ``below`` under it within each chain."""
    n = jt.dimension
    rows = [[0] * n for _ in range(n)]
    for slot in chain_slots(jt):
        for k in range(slot.offset, slot.offset + slot.size):
            rows[k][k] = diagonal[slot.eigenvalue]
            if k > slot.offset:
                rows[k][k - 1] = below
    return rows


def jordan_matrix(jt: JordanType) -> Matrix:
    """The canonical block matrix of a type with rational eigenvalues, as a grid over their lcm denominator."""
    for eig, _ in jt.eigen_blocks:
        if not isinstance(eig, Fraction):
            raise TypeError(f"symbolic eigenvalue label {eig!r} has no matrix realization")
    den = lcm(*(eig.denominator for eig, _ in jt.eigen_blocks))
    scaled = {eig: eig.numerator * (den // eig.denominator) for eig, _ in jt.eigen_blocks}
    return Matrix._reduced(_jordan_rows(jt, scaled, den), den)


@dataclass(frozen=True)
class JordanBasis:
    """Explicit chain basis of a matrix: P^-1 T P is the canonical block matrix."""

    matrix: Matrix
    jordan_type: JordanType
    transform: Matrix          # P, each chain's columns from its offset in jordan_type.plan
    inverse_transform: Matrix  # P^-1

    @property
    def dimension(self) -> int:
        return self.matrix.rows


def jordan_basis(t: Matrix) -> JordanBasis:
    """P and P^-1 from the (integers, denominator) columns of :func:`_kernel_vectors`; P is assembled once,
    and P^-1 is read off the inverse of the integer columns, which has denominator 1."""
    n, data, columns = t.rows, {}, []
    for eig, blocks, grid, reductions in _kernel_chains(t):
        data[eig] = blocks
        kernels = [[]] + [_kernel_vectors(rows, pivots, n) for rows, pivots in reductions]
        chains = []  # [v, Nv, ..., N^{s-1} v] per chain, smallest size first
        for size in range(len(kernels) - 1, 0, -1):
            forced = kernels[size - 1] + [c[len(c) - size] for c in chains]
            # every column lies in ker N^size, where the free coordinates fix a vector;
            # a column scaled by its denominator is a pivot column exactly when it was one
            free = sorted(set(range(n)) - set(reductions[size - 1][1]))
            _, pivots = _integer_rref([[values[i] for values, _ in forced + kernels[size]] for i in free])
            tops = [kernels[size][c - len(forced)] for c in pivots if c >= len(forced)]
            if len(tops) != dict(blocks).get(size, 0):
                raise RuntimeError("Jordan chain construction failed; this is a bug")
            found = [[top] for top in tops]
            for chain in found:
                for _ in range(size - 1):
                    values, den = chain[-1]
                    chain.append(_lowest_terms([sum(map(mul, row, values)) for row in grid], t._den * den))
            chains = found + chains
        columns += [vec for chain in chains for vec in chain]
    jt = JordanType.of(data)
    den = lcm(*(d for _, d in columns))
    p = Matrix._reduced(list(zip(*[[x * (den // d) for x in values] for values, d in columns])), den)
    # P = Q diag(1/d_j) for Q the integer columns, so P^-1 is Q^-1 with row j times d_j
    q_inv = Matrix._reduced(list(zip(*[values for values, _ in columns])), 1).inverse()
    p_inv = Matrix._reduced([[d * x for x in row] for row, (_, d) in zip(q_inv._grid, columns)], q_inv._den)
    if t @ p != p @ jordan_matrix(jt):
        raise RuntimeError("Jordan basis reconstruction check failed; this is a bug")
    return JordanBasis(t, jt, p, p_inv)


def _check_vector(n: int, v: Matrix):
    """Refuse anything but an n x 1 matrix."""
    if not isinstance(v, Matrix):
        raise TypeError(f"vector must be an n x 1 Matrix with n = {n}, got {_echo(v)}")
    if v.rows != n or v.cols != 1:
        raise ShapeError(f"vector must be {n}x1, got {v.rows}x{v.cols}")
