"""Orbit membership of concrete vectors, representatives, and dimensions.

A vector's orbit is read off from its chain coordinates. Each chain
contributes a raw height: the flag depth of the component along that chain
(size minus the lowest shift exponent carrying a nonzero coefficient). Per
eigenvalue, the raw column height h_k is the max over chains of the k-th
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

Classification is one scan over the chains of a :class:`ChainPlan`, smallest
size first within each eigenvalue, that reads each coordinate only while it
can still matter: a column starts at the height of the one before (the
left-to-right pass), each chain is read in shift order only over the shifts
that would raise the column, and stops at its first nonzero coordinate. A
vector in the original coordinates is never transformed whole: coordinate i
of P^-1 v is the integer dot product of row i of P^-1's grid with v's grid,
taken when the scan reaches it, so one classification costs at most one dot
product per coordinate scanned. The right-to-left pass and the sum m_k * H_k
follow per eigenvalue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .jordan import ChainPlan, JordanBasis, JordanType, _check_vector, chain_plan, chain_slots
from .lattice import OrbitLabel, column_sizes, leq, top
from .linalg import Matrix


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


def _scan(plan: ChainPlan, coordinate) -> OrbitReport:
    """The one pass over the chains; ``coordinate(i)`` is an integer, zero exactly when coordinate i is."""
    heights, dimension = [], 0
    for sizes, mults, offsets in zip(*plan):
        column, h = [], 0
        for size, chains in zip(sizes, offsets):
            # h starts at the height of the column before: the left-to-right pass
            for offset in chains:
                # only a nonzero at shift j < size - h raises the column, to size - j
                for i in range(offset, offset + size - h):
                    if coordinate(i):
                        h = size - (i - offset)
                        break
            column.append(h)
        for k in range(len(column) - 2, -1, -1):
            column[k] = max(column[k], column[k + 1] - (sizes[k + 1] - sizes[k]))
        heights.append(tuple(column))
        dimension += sum(map(mul, mults, column))
    return OrbitReport(OrbitLabel(tuple(heights), plan.sizes), dimension)


def classify_chain_coordinates(jt: JordanType, coords: Matrix) -> OrbitReport:
    """Classify a vector given directly in chain coordinates."""
    _check_vector(jt.dimension, coords)
    # x / den is zero exactly when the integer x is
    return _scan(chain_plan(jt), [x for (x,) in coords._grid].__getitem__)


def classify_vector(basis: JordanBasis, v: Matrix) -> OrbitReport:
    """Classify a vector given in the original coordinates of the matrix, reading P^-1 v row by row."""
    _check_vector(basis.dimension, v)
    rows, grid = basis.inverse_transform._grid, [x for (x,) in v._grid]
    return _scan(basis.plan, lambda i: sum(map(mul, rows[i], grid)))


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
