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

The eigenvalues come from the characteristic polynomial, computed in O(n^3)
by reducing T to upper Hessenberg form with elimination similarities and
expanding the Hessenberg determinant by its minor recurrence. Its rational
roots are found without factoring any coefficient. The square-free part g
of the polynomial, cleared to integers, is taken modulo the smallest prime p
that does not divide its leading coefficient and at which every root of g
mod p is simple. Every rational root a/b of g reduces to a root mod p; the
roots mod p are found by evaluation, lifted by Newton's (Hensel's) iteration
to a modulus above 2 B^2, where B = max(|lc(g)|, |g(0)|) bounds |a| and b,
and recovered by rational reconstruction (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 5 and 15). A candidate is accepted, with its
multiplicity, only by exact synthetic division of the polynomial; a factor
left over means an irrational or complex root.

Both the type and the basis come from one kernel chain per eigenvalue: the
powers N^k and the kernel bases of ker N ⊂ ker N^2 ⊂ ..., built once and
stopped where dim ker N^k reaches the algebraic multiplicity, which happens
exactly at the largest block size. With d_k = dim ker N^k, the number of
blocks of size exactly i is 2 d_i - d_{i-1} - d_{i+1}.

Chain construction walks block sizes from largest to smallest. At size s the
vectors already forced into ker N^s are a basis of ker N^{s-1} together with
the depth s - 1 tails N^{j-s} w of the chains of sizes j > s found earlier;
new chain generators are taken from the kernel basis of N^s, in its
deterministic order, whenever they extend the span of those forced vectors.
The count of generators found this way must match the block multiplicities,
and the result is verified outright: the assembled change of basis P must
satisfy T P == P J for the canonical block matrix J of the type, and
computing P^-1 certifies that P is invertible, so P^-1 T P == J. P J is
read off the chains in O(n^2): its column for p_j is lambda p_j + p_{j+1}
inside a chain and lambda p_j at the chain's end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .linalg import Matrix, ShapeError, _integer_vector, _primitive

Eigenvalue = Union[Fraction, str]

class NonSplittingCharPoly(ValueError):
    """The characteristic polynomial has an irrational or complex root."""


def eigenvalue_sort_key(eig: Eigenvalue) -> tuple:
    """Canonical eigenvalue order: rationals by (numerator, denominator), then labels."""
    if isinstance(eig, Fraction):
        return (0, eig.numerator, eig.denominator)
    return (1, str(eig))


def _normalize_eigenvalue(eig) -> Eigenvalue:
    if isinstance(eig, Fraction):
        return eig
    if isinstance(eig, bool) or isinstance(eig, float):
        raise TypeError(f"eigenvalue {eig!r} must be an int, Fraction or symbolic label")
    if isinstance(eig, int):
        return Fraction(eig)
    if isinstance(eig, str):
        label = eig.strip()
        if not label:
            raise ValueError("symbolic eigenvalue label must be nonempty")
        return label
    raise TypeError(f"eigenvalue {eig!r} must be an int, Fraction or symbolic label")


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
            sizes = [size for size, _ in blocks]
            if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
                raise ValueError(f"block sizes for eigenvalue {eig!r} must strictly increase")
            for size, mult in blocks:
                if size < 1 or mult < 1:
                    raise ValueError(f"block ({size}, {mult}) for {eig!r}: size and multiplicity must be >= 1")

    @classmethod
    def of(cls, blocks_by_eigenvalue) -> "JordanType":
        """Canonicalize arbitrary block data.

        Accepts a mapping or an iterable of (eigenvalue, blocks) pairs, where
        blocks is an iterable of (size, multiplicity). Repeated sizes merge by
        summing multiplicities; repeated eigenvalue keys merge their blocks.
        """
        if isinstance(blocks_by_eigenvalue, Mapping):
            items: Iterable = blocks_by_eigenvalue.items()
        else:
            items = blocks_by_eigenvalue
        merged: dict = {}
        for eig, blocks in items:
            eig = _normalize_eigenvalue(eig)
            per_size = merged.setdefault(eig, {})
            for size, mult in blocks:
                per_size[int(size)] = per_size.get(int(size), 0) + int(mult)
        canonical = tuple(
            (eig, tuple(sorted(per_size.items())))
            for eig, per_size in sorted(merged.items(), key=lambda kv: eigenvalue_sort_key(kv[0]))
        )
        return cls(canonical)

    @property
    def dimension(self) -> int:
        return sum(size * mult for _, blocks in self.eigen_blocks for size, mult in blocks)

    def is_rational(self) -> bool:
        return all(isinstance(eig, Fraction) for eig, _ in self.eigen_blocks)


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


# -- characteristic polynomial and rational roots -----------------------


def characteristic_polynomial(t: Matrix) -> tuple:
    """Monic characteristic polynomial det(xI - T), coefficients highest first.

    T is reduced to upper Hessenberg form H by elimination similarities, and
    the characteristic polynomials p_m of the leading m x m blocks of H
    follow from the minor recurrence (Cohen, Alg. 2.2.9)
    p_m = (x - h_mm) p_{m-1} - sum_i h_{m-i,m} h_{m,m-1} ... h_{m-i+1,m-i} p_{m-i-1}.
    """
    if not t.is_square():
        raise ShapeError(f"characteristic polynomial needs a square matrix, got {t.rows}x{t.cols}")
    n = t.rows
    h = [list(t.row(i)) for i in range(n)]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = 1 / h[m][m - 1]
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv
            if u == 0:
                continue
            h[i][m - 1:] = [a - u * b for a, b in zip(h[i][m - 1:], h[m][m - 1:])]
            for row in h:
                row[m] += u * row[i]
    # polys[k] is p_k, coefficients lowest first
    polys = [[Fraction(1)]]
    for m in range(n):
        p = [Fraction(0)] + polys[m]
        for k, c in enumerate(polys[m]):
            p[k] -= h[m][m] * c
        sub = Fraction(1)
        for i in range(1, m + 1):
            sub *= h[m - i + 1][m - i]
            if sub == 0:
                break
            factor = sub * h[m - i][m]
            for k, c in enumerate(polys[m - i]):
                p[k] -= factor * c
        polys.append(p)
    return tuple(reversed(polys[n]))


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


def _rational_reconstruction(r: int, m: int, bound: int):
    """The a/b with |a|, b <= bound and a = b r mod m, or None; needs m > 2 bound^2."""
    r0, r1, t0, t1 = m, r % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _root_candidates(g: list) -> list:
    """Every rational root of the square-free primitive integer polynomial g, and maybe more.

    At the smallest prime p not dividing lc(g) at which every root of g mod p
    is simple, each rational root a/b of g reduces to a root mod p (b | lc(g)
    is prime to p), which Newton's iteration lifts uniquely to a root mod
    p^(2^k) > 2 B^2, B = max(|lc(g)|, |g(0)|). Since |a| <= |g(0)| and
    b <= |lc(g)|, rational reconstruction recovers a/b from it.
    """
    derivative = _derivative(g)
    p = 2
    while True:
        if g[0] % p:
            roots = [x for x in range(p) if _eval_mod(g, x, p) == 0]
            if all(_eval_mod(derivative, x, p) for x in roots):
                break
        p = _next_prime(p)
    bound = max(abs(g[0]), abs(g[-1]))
    candidates = []
    for x in roots:
        m = p
        while m <= 2 * bound * bound:
            m *= m
            x = (x - _eval_mod(g, x, m) * pow(_eval_mod(derivative, x, m), -1, m)) % m
        cand = _rational_reconstruction(x, m, bound)
        if cand is not None:
            candidates.append(cand)
    return candidates


def _rational_roots(coeffs: Sequence[Fraction]) -> list:
    """All rational roots (root, multiplicity) of a monic polynomial.

    The candidates come from p-adic lifting of the roots of the square-free
    part modulo a small prime; each one, and its multiplicity, is confirmed by
    exact synthetic division. Raises NonSplittingCharPoly when a nontrivial
    factor remains after every rational root has been divided out.
    """
    work = list(coeffs)
    roots = []
    zero_mult = 0
    while len(work) > 1 and work[-1] == 0:
        work.pop()
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(work) > 1:
        for cand in _root_candidates(_square_free_part(_integer_vector(work)[0])):
            mult = 0
            while len(work) > 1:
                quotient = [work[0]]
                for c in work[1:-1]:
                    quotient.append(c + cand * quotient[-1])
                remainder = work[-1] + cand * quotient[-1]
                if remainder != 0:
                    break
                work = quotient
                mult += 1
            if mult:
                roots.append((cand, mult))
            if len(work) == 1:
                break
        if len(work) > 1:
            raise NonSplittingCharPoly(
                "the characteristic polynomial has an irrational or complex root "
                f"(residual factor of degree {len(work) - 1}); supply the Jordan block "
                "data directly (eigenvalue -> [size, multiplicity] pairs) to analyze "
                "this operator"
            )
    return sorted(roots, key=lambda pair: eigenvalue_sort_key(pair[0]))


def rational_eigenvalues(t: Matrix) -> list:
    """Eigenvalues with algebraic multiplicities, when all of them are rational."""
    roots = _rational_roots(characteristic_polynomial(t))
    assert sum(m for _, m in roots) == t.rows
    return roots


# -- Jordan type and basis ----------------------------------------------


def _kernel_chains(t: Matrix):
    """Per rational eigenvalue, in canonical order: (eig, blocks, powers, kernels).

    ``powers[k]`` is N^k for N = T - eig and ``kernels[k]`` a basis of its
    kernel, for k = 0 up to the largest block size, the first k where
    dim ker N^k reaches the algebraic multiplicity.
    """
    ident = Matrix.identity(t.rows)
    for eig, alg_mult in rational_eigenvalues(t):
        nilpotent = Matrix(
            [[x - eig if i == j else x for j, x in enumerate(t.row(i))] for i in range(t.rows)]
        )
        powers, kernels = [ident], [[]]
        while len(kernels[-1]) < alg_mult:
            powers.append(nilpotent @ powers[-1])
            kernels.append(powers[-1].kernel_basis())
        dims = [len(basis) for basis in kernels] + [alg_mult]
        blocks = []
        for size in range(1, len(kernels)):
            count = 2 * dims[size] - dims[size - 1] - dims[size + 1]
            if count:
                blocks.append((size, count))
        yield eig, blocks, powers, kernels


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


class JordanChain(NamedTuple):
    eigenvalue: Eigenvalue
    size: int
    index: int
    vectors: tuple  # (v, Nv, ..., N^{size-1} v) as n x 1 matrices


@dataclass(frozen=True)
class JordanBasis:
    """Explicit chain basis of a matrix: P^-1 T P is the canonical block matrix."""

    matrix: Matrix
    jordan_type: JordanType
    chains: tuple
    transform: Matrix          # P, chain vectors as columns in canonical order
    inverse_transform: Matrix  # P^-1

    @property
    def dimension(self) -> int:
        return self.matrix.rows


class _SpanTracker:
    """Incremental membership test for the span of a growing vector set."""

    def __init__(self):
        self._rows = {}

    def add(self, vec: Matrix) -> bool:
        """Reduce vec against the stored echelon rows; True if it enlarges the span."""
        row = [vec[i, 0] for i in range(vec.rows)]
        for j in range(len(row)):
            if row[j] == 0:
                continue
            if j in self._rows:
                f = row[j]
                row = [a - f * b for a, b in zip(row, self._rows[j])]
            else:
                inv = 1 / row[j]
                self._rows[j] = [x * inv for x in row]
                return True
        return False


def jordan_basis(t: Matrix) -> JordanBasis:
    data = {}
    all_chains = []
    for eig, blocks, powers, kernels in _kernel_chains(t):
        data[eig] = blocks
        mult = dict(blocks)
        tops = []  # (size, generator), found from the largest size down
        for size in range(len(kernels) - 1, 0, -1):
            tracker = _SpanTracker()
            for vec in kernels[size - 1]:
                tracker.add(vec)
            for bigger, top in tops:
                tracker.add(powers[bigger - size] @ top)
            needed = mult.get(size, 0)
            found = 0
            for cand in kernels[size]:
                if found == needed:
                    break
                if tracker.add(cand):
                    tops.append((size, cand))
                    found += 1
            if found != needed:
                raise RuntimeError("Jordan chain construction failed; this is a bug")
        counters: dict = {}
        for size, top in sorted(tops, key=lambda st: st[0]):
            counters[size] = counters.get(size, 0) + 1
            vectors = tuple(powers[k] @ top for k in range(size))
            all_chains.append(JordanChain(eig, size, counters[size], vectors))
    jt = JordanType.of(data)
    columns = [vec for chain in all_chains for vec in chain.vectors]
    p = Matrix.from_columns(columns)
    p_inv = p.inverse()
    # column j of P J is lambda p_j + p_{j+1} inside a chain and lambda p_j at its end
    p_times_j = []
    for chain in all_chains:
        for k, vec in enumerate(chain.vectors):
            column = vec.scaled(chain.eigenvalue)
            p_times_j.append(column + chain.vectors[k + 1] if k + 1 < chain.size else column)
    if t @ p != Matrix.from_columns(p_times_j):
        raise RuntimeError("Jordan basis reconstruction check failed; this is a bug")
    return JordanBasis(t, jt, tuple(all_chains), p, p_inv)


def coords_in_jordan_basis(basis: JordanBasis, v: Matrix) -> Matrix:
    """Coordinates of v in the chain basis, i.e. P^-1 v."""
    if v.rows != basis.dimension or v.cols != 1:
        raise ShapeError(
            f"vector must be {basis.dimension}x1, got {v.rows}x{v.cols}"
        )
    return basis.inverse_transform @ v
