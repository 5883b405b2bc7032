"""The dimension-graded generating function of the orbits.

Nothing here enumerates the lattice. The total count is a product of
(1 + Delta_k) over all eigenvalues and positions (``orbit_count``, defined in
``lattice`` next to the enumeration it caps). The polynomial whose x^n
coefficient counts orbits of dimension n is a product of sparse factors
sum_{i=0..Delta_k} x^{i * M_k}, one per eigenvalue and distinct block size,
read straight from ``JordanType.eigen_blocks``: Delta_k is the step between
consecutive distinct sizes and M_k the tail sum of the block multiplicities.
The total depends only on the size steps; the refined count depends on the
multiplicities too.
"""

from __future__ import annotations

import itertools

from .jordan import JordanType
from .lattice import DEFAULT_ENUMERATION_CAP, CapExceeded, _steps, column_sizes


def _tail_sums(blocks) -> tuple:
    """M_k = m_k + m_{k+1} + ... for the (size, multiplicity) pairs of one eigenvalue."""
    return tuple(itertools.accumulate(mult for _, mult in reversed(blocks)))[::-1]


def gen_function(jt: JordanType) -> tuple:
    """Coefficients, lowest degree first: entry n counts the orbits of dimension n.

    The list is dense, with one entry per degree up to the space dimension,
    so the dimension is capped.
    """
    if jt.dimension > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(jt.dimension, DEFAULT_ENUMERATION_CAP, what="generating-function degrees")
    coeffs = [1]
    for (_, blocks), sizes in zip(jt.eigen_blocks, column_sizes(jt)):
        for step, tail in zip(_steps(sizes), _tail_sums(blocks)):
            out = [0] * (len(coeffs) + step * tail)
            for shift in range(0, step * tail + 1, tail):
                for i, c in enumerate(coeffs, shift):
                    out[i] += c
            coeffs = out
    return tuple(coeffs)
