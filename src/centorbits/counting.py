"""The dimension-graded generating function of the orbits.

Nothing here enumerates the lattice. The polynomial whose x^n coefficient
counts orbits of dimension n is a product of sparse factors
sum_{i=0..Delta_k} x^{i * M_k}, one per eigenvalue and distinct block size,
with the (Delta_k, M_k) pairs read from ``lattice.column_steps``: Delta_k is
the step between consecutive distinct sizes and M_k the number of blocks of
size >= s_k. The total count (``lattice.orbit_count``, the value at x = 1)
depends only on the size steps; the refined count depends on the
multiplicities too.
"""

from __future__ import annotations

from .jordan import JordanType
from .lattice import DEFAULT_ENUMERATION_CAP, CapExceeded, column_steps

# Most coefficient additions gen_function may make; 10**7 take about 1 s on a
# 2-core Xeon with Python 3.11 (README, the caps list).
GEN_FUNCTION_ADDITION_CAP = 10**7


def gen_function(jt: JordanType) -> tuple:
    """Coefficients, lowest degree first: entry n counts the orbits of dimension n.

    The list is dense, with one entry per degree up to the space dimension,
    so the dimension is capped; so are the additions, since each factor adds
    the product so far Delta_k + 1 times and many sizes add up to far more.
    """
    if jt.dimension > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(jt.dimension, DEFAULT_ENUMERATION_CAP, what="generating-function degrees")
    factors = [pair for column in column_steps(jt) for pair in column]
    additions, degree = 0, 0
    for step, tail in factors:
        additions += (step + 1) * (degree + 1)
        degree += step * tail
    if additions > GEN_FUNCTION_ADDITION_CAP:
        raise CapExceeded(additions, GEN_FUNCTION_ADDITION_CAP, what="generating-function additions")
    coeffs = [1]
    for step, tail in factors:
        out = [0] * (len(coeffs) + step * tail)
        for shift in range(0, step * tail + 1, tail):
            for i, c in enumerate(coeffs, shift):
                out[i] += c
        coeffs = out
    return tuple(coeffs)
