"""Orbit membership of concrete vectors, representatives, and dimensions.

A vector's orbit is read off from its chain coordinates in two passes. Each
chain contributes a raw height: the flag depth of the component along that
chain (size minus the lowest shift exponent carrying a nonzero coefficient).
Per eigenvalue, the raw column height h_k is the max over chains of the k-th
size. Closing under the commuting action then forces

* left to right, H_k = max(h_k, H_{k-1}): whatever a column reaches at some
  height, every larger column reaches at the same height;
* right to left, H_k = max(H_k, H_{k+1} - Delta_{k+1}): whatever a column
  reaches, every smaller column reaches at the depth measured from the top.

The resulting heights are the partial sums of a valid label. The span of
the centralizer basis applied to the vector (the closure subspace) is the
coordinate subspace holding the top H_k positions of every chain in column
k; its dimension equals sum_k delta_k * M_k with M_k the multiplicity tail
sums. Tests validate the two-pass rule against that span directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jordan import JordanBasis, JordanType, chain_slots, coords_in_jordan_basis
from .lattice import OrbitLabel, increments_from_type, label_for, label_limits, leq
from .linalg import Matrix, ShapeError


@dataclass(frozen=True)
class OrbitReport:
    """Where one vector's orbit sits: label, dimension, per-eigenvalue heights."""

    label: OrbitLabel
    orbit_dimension: int
    heights: tuple

    @property
    def closure_dimension(self) -> int:
        """Equal to orbit_dimension: orbits are dense in their closure."""
        return self.orbit_dimension

    def is_bottom(self) -> bool:
        return self.label.is_bottom()

    def is_top(self) -> bool:
        return self.label.is_top()


def orbit_dimension(jt: JordanType, label: OrbitLabel) -> int:
    """sum over eigenvalues and positions of delta_k * M_k (tail-sum form)."""
    total = 0
    for inc, group in zip(_validate_label(jt, label), label.deltas):
        total += sum(d * m for d, m in zip(group, inc.tail_sums))
    return total


def _validate_label(jt: JordanType, label: OrbitLabel) -> tuple:
    """The type's increment sequences, once the label's bounds match them."""
    incs = increments_from_type(jt)
    expected = label_limits(incs)
    if label.limits != expected:
        raise ValueError(f"label bounds {label.limits} do not belong to this type ({expected})")
    return incs


def _report_for_heights(jt: JordanType, heights) -> OrbitReport:
    incs = increments_from_type(jt)
    deltas = []
    dim = 0
    for inc, hs in zip(incs, heights):
        group = []
        prev = 0
        for h, tail in zip(hs, inc.tail_sums):
            group.append(h - prev)
            dim += (h - prev) * tail
            prev = h
        deltas.append(tuple(group))
    label = label_for(jt, deltas)
    return OrbitReport(label, dim, tuple(tuple(h) for h in heights))


def classify_chain_coordinates(jt: JordanType, coords: Matrix) -> OrbitReport:
    """Classify a vector given directly in chain coordinates."""
    n = jt.dimension
    if coords.rows != n or coords.cols != 1:
        raise ShapeError(f"vector must be {n}x1, got {coords.rows}x{coords.cols}")
    incs = increments_from_type(jt)
    raw = {inc.eigenvalue: [0] * len(inc.sizes) for inc in incs}
    column_of = {
        (inc.eigenvalue, size): k
        for inc in incs
        for k, size in enumerate(inc.sizes)
    }
    for slot in chain_slots(jt):
        entries = [coords[slot.offset + t, 0] for t in range(slot.size)]
        nonzero = [t for t, c in enumerate(entries) if c != 0]
        height = slot.size - nonzero[0] if nonzero else 0
        k = column_of[(slot.eigenvalue, slot.size)]
        raw[slot.eigenvalue][k] = max(raw[slot.eigenvalue][k], height)
    heights = []
    for inc in incs:
        h = raw[inc.eigenvalue]
        for k in range(1, len(h)):
            h[k] = max(h[k], h[k - 1])
        for k in range(len(h) - 2, -1, -1):
            h[k] = max(h[k], h[k + 1] - inc.deltas[k + 1])
        heights.append(tuple(h))
    return _report_for_heights(jt, heights)


def classify_vector(basis: JordanBasis, v: Matrix) -> OrbitReport:
    """Classify a vector given in the original coordinates of the matrix."""
    return classify_chain_coordinates(basis.jordan_type, coords_in_jordan_basis(basis, v))


def representative(jt: JordanType, label: OrbitLabel) -> Matrix:
    """A canonical 0/1 vector (in chain coordinates) whose orbit has this label.

    For each column with height H_k > 0, put a 1 at shift size - H_k in the
    first chain of that column; classify_chain_coordinates round-trips to the
    label exactly.
    """
    incs = _validate_label(jt, label)
    n = jt.dimension
    coords = [0] * n
    first_chain = {
        (slot.eigenvalue, slot.size): slot
        for slot in chain_slots(jt)
        if slot.index == 1
    }
    for inc, heights in zip(incs, label.heights()):
        for size, h in zip(inc.sizes, heights):
            if h > 0:
                slot = first_chain[(inc.eigenvalue, size)]
                coords[slot.offset + size - h] = 1
    return Matrix.column(coords)


def invariant_positions(jt: JordanType, label: OrbitLabel) -> tuple:
    """Chain coordinates spanning the orbit closure: top H_k shifts of every chain."""
    height_of = {}
    for inc, heights in zip(_validate_label(jt, label), label.heights()):
        for size, h in zip(inc.sizes, heights):
            height_of[(inc.eigenvalue, size)] = h
    positions = []
    for slot in chain_slots(jt):
        h = height_of[(slot.eigenvalue, slot.size)]
        positions.extend(range(slot.offset + slot.size - h, slot.offset + slot.size))
    return tuple(sorted(positions))


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
