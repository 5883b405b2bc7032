"""Orbit counts and the dimension-graded generating function.

Nothing here enumerates the lattice: the total count is a product of
(1 + Delta_k) over all eigenvalues and positions (``orbit_count``, defined in
``lattice`` next to the enumeration it caps), and the polynomial whose x^n
coefficient counts orbits of dimension n is a product of sparse factors
sum_{i=0..Delta_k} x^{i * M_k}, where M_k are the tail sums of the block
multiplicities. The total depends only on the increments; the refined count
depends on the multiplicities too.
"""

from __future__ import annotations

from .jordan import JordanType
from .lattice import DEFAULT_ENUMERATION_CAP, CapExceeded
from .lattice import IncrementSequence, increments_from_type, orbit_count  # noqa: F401 (re-exported)


class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    Coefficients are indexed by degree; trailing zeros are trimmed, the zero
    polynomial is the empty tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficient {c!r} must be a non-negative integer")
        self.coefficients = tuple(coeffs)

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coefficients or not other.coefficients:
            return IntPolynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc


def _sparse_factor(delta: int, weight: int) -> IntPolynomial:
    """1 + x^weight + x^{2 weight} + ... + x^{delta * weight}."""
    coeffs = [0] * (delta * weight + 1)
    for i in range(delta + 1):
        coeffs[i * weight] = 1
    return IntPolynomial(coeffs)


def gen_function_eigenvalue(inc: IncrementSequence) -> IntPolynomial:
    poly = IntPolynomial.one()
    for delta, tail in zip(inc.deltas, inc.tail_sums):
        poly = poly * _sparse_factor(delta, tail)
    return poly


def gen_function(jt: JordanType) -> IntPolynomial:
    """x^n coefficient = number of orbits whose dimension is n; dense, so capped by dimension."""
    if jt.dimension > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(jt.dimension, DEFAULT_ENUMERATION_CAP, what="generating-function degrees")
    poly = IntPolynomial.one()
    for inc in increments_from_type(jt):
        poly = poly * gen_function_eigenvalue(inc)
    return poly

