"""Orbit membership of concrete vectors, representatives, and dimensions.

A vector's orbit is read off from its chain coordinates in two passes. Each
chain contributes a raw height: the flag depth of the component along that
chain (size minus the lowest shift exponent carrying a nonzero coefficient).
Per eigenvalue, the raw column height h_k is the max over chains of the k-th
size. Closing under the commuting action then forces

* left to right, H_k = max(h_k, H_{k-1}): whatever a column reaches at some
  height, every larger column reaches at the same height;
* right to left, H_k = max(H_k, H_{k+1} - (s_{k+1} - s_k)): whatever a
  column reaches, every smaller column reaches at the depth measured from
  the top.

The resulting heights are those of a valid label. The span of the
centralizer basis applied to the vector (the closure subspace) is the
coordinate subspace holding the top H_k positions of every chain in column
k; its dimension is sum_k m_k * H_k with m_k the number of blocks of size
s_k. Tests validate the two-pass rule against that span directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .jordan import JordanBasis, JordanType, chain_slots, coords_in_jordan_basis
from .lattice import OrbitLabel, column_sizes, leq, top
from .linalg import Matrix, ShapeError


@dataclass(frozen=True)
class OrbitReport:
    """Where one vector's orbit sits: label and dimension."""

    label: OrbitLabel
    orbit_dimension: int  # also the closure's: every orbit is dense in its closure


def orbit_dimension(jt: JordanType, label: OrbitLabel) -> int:
    """sum over eigenvalues and sizes of m_k * H_k (multiplicity times height)."""
    _validate_label(jt, label)
    return sum(
        mult * h
        for (_, blocks), heights in zip(jt.eigen_blocks, label.heights)
        for (_, mult), h in zip(blocks, heights)
    )


def _validate_label(jt: JordanType, label: OrbitLabel):
    if label.sizes != column_sizes(jt):
        raise ValueError(f"label bounds {label.limits} do not belong to this type ({top(jt).limits})")


def classify_chain_coordinates(jt: JordanType, coords: Matrix) -> OrbitReport:
    """Classify a vector given directly in chain coordinates."""
    n = jt.dimension
    if coords.rows != n or coords.cols != 1:
        raise ShapeError(f"vector must be {n}x1, got {coords.rows}x{coords.cols}")
    # x / den is zero exactly when the integer x is
    nonzero = [x != 0 for (x,) in coords._grid]
    raw = []
    offset = 0
    for _, blocks in jt.eigen_blocks:  # the chains in chain_slots order
        heights = []
        for size, mult in blocks:
            height = 0
            for _ in range(mult):
                chain = nonzero[offset:offset + size]
                if True in chain:
                    height = max(height, size - chain.index(True))
                offset += size
            heights.append(height)
        raw.append(heights)
    sizes = column_sizes(jt)
    for h, s in zip(raw, sizes):
        for k in range(1, len(h)):
            h[k] = max(h[k], h[k - 1])
        for k in range(len(h) - 2, -1, -1):
            h[k] = max(h[k], h[k + 1] - (s[k + 1] - s[k]))
    label = OrbitLabel(tuple(map(tuple, raw)), sizes)
    return OrbitReport(label, orbit_dimension(jt, label))


def classify_vector(basis: JordanBasis, v: Matrix) -> OrbitReport:
    """Classify a vector given in the original coordinates of the matrix."""
    return classify_chain_coordinates(basis.jordan_type, coords_in_jordan_basis(basis, v))


def representative(jt: JordanType, label: OrbitLabel) -> Matrix:
    """A canonical 0/1 vector (in chain coordinates) whose orbit has this label.

    For each column with height H_k > 0, put a 1 at shift size - H_k in the
    first chain of that column; classify_chain_coordinates round-trips to the
    label exactly.
    """
    _validate_label(jt, label)
    coords = [0] * jt.dimension
    heights = itertools.chain.from_iterable(label.heights)
    for slot in chain_slots(jt):
        if slot.index == 1 and (h := next(heights)):
            coords[slot.offset + slot.size - h] = 1
    return Matrix.column(coords)


def invariant_positions(jt: JordanType, label: OrbitLabel) -> tuple:
    """Chain coordinates spanning the orbit closure: the top H_k shifts of every chain.

    One walk over the slots, H_k read at each column's first: positions ascend.
    """
    _validate_label(jt, label)
    heights = itertools.chain.from_iterable(label.heights)
    positions = []
    for slot in chain_slots(jt):
        if slot.index == 1:
            h = next(heights)
        positions.extend(range(slot.offset + slot.size - h, slot.offset + slot.size))
    return tuple(positions)


def comparability(a: OrbitLabel, b: OrbitLabel) -> str:
    """Relate two labels: '=', '<', '>' or 'incomparable'."""
    if a == b:
        return "="
    if leq(a, b):
        return "<"
    if leq(b, a):
        return ">"
    return "incomparable"


def same_solution_class(basis: JordanBasis, v1: Matrix, v2: Matrix):
    """Whether two initial conditions are equivalent, with both orbit reports."""
    r1 = classify_vector(basis, v1)
    r2 = classify_vector(basis, v2)
    return r1.label == r2.label, r1, r2
