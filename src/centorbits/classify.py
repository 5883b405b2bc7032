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

Classification is one scan over the chains of :attr:`JordanType.plan`, smallest
size first within each eigenvalue, over one integer z whose bit fields of a
fixed width W stand for the chain coordinates: field i is zero exactly when
coordinate i is. A column starts at the height h of the one before (the
left-to-right pass), and only a nonzero at a shift j < size - h raises it, so
each chain is read with one shift and one mask, y = (z >> W offset) &
(2^(W (size - h)) - 1), and its lowest set bit gives j = bit // W and the new
height size - j. Chain coordinates given directly are read as one-bit fields.
A vector in the original coordinates is never decoded: P^-1 v is one packed
product, :func:`linalg._apply`, memoized per P^-1 as its columns packed at a
width that keeps every biased dot product in its own field, and z is that
product XOR its bias, zero in field i exactly when coordinate i of P^-1 v
is. The right-to-left pass and the sum m_k * H_k follow per eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .jordan import ChainPlan, JordanBasis, JordanType, _check_vector
from .lattice import OrbitLabel, column_sizes, leq, top
from .linalg import Matrix, _apply


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


def _columns(jt: JordanType, label: OrbitLabel) -> list:
    """(H_k, s_k, the offsets of the chains of size s_k) per column of a label of jt, in offset order."""
    _validate_label(jt, label)
    return [column for row in zip(label.heights, jt.plan.sizes, jt.plan.offsets) for column in zip(*row)]


def _scan(plan: ChainPlan, z: int, width: int) -> OrbitReport:
    """The one pass over the chains; field i of ``z`` (``width`` bits) is zero exactly when coordinate i is."""
    heights, dimension = [], 0
    for sizes, mults, offsets in zip(*plan):
        column, h = [], 0
        for size, chains in zip(sizes, offsets):
            # h starts at the height of the column before: the left-to-right pass
            for offset in chains:
                # only a nonzero at shift j < size - h raises the column, to size - j
                y = (z >> width * offset) & ((1 << width * (size - h)) - 1)
                if y:
                    h = size - ((y & -y).bit_length() - 1) // width
            column.append(h)
        for k in range(len(column) - 2, -1, -1):
            column[k] = max(column[k], column[k + 1] - (sizes[k + 1] - sizes[k]))
        heights.append(tuple(column))
        dimension += sum(map(mul, mults, column))
    return OrbitReport(OrbitLabel._scanned(tuple(heights), plan.sizes), dimension)


def classify_chain_coordinates(jt: JordanType, coords: Matrix) -> OrbitReport:
    """Classify a vector given directly in chain coordinates."""
    _check_vector(jt.dimension, coords)
    # x / den is zero exactly when the integer x is: bit i of the one-bit fields
    return _scan(jt.plan, sum(1 << i for i, (x,) in enumerate(coords._grid) if x), 1)


def classify_vector(basis: JordanBasis, v: Matrix) -> OrbitReport:
    """Classify a vector given in the original coordinates of the matrix, from the packed product P^-1 v."""
    _check_vector(basis.dimension, v)
    fields, width, bias = _apply(basis.inverse_transform, [x for (x,) in v._grid])
    # a field of fields ^ bias is zero exactly when its dot product is
    return _scan(basis.jordan_type.plan, fields ^ bias, width)


def representative(jt: JordanType, label: OrbitLabel) -> Matrix:
    """A canonical 0/1 vector (in chain coordinates) whose orbit has this label.

    For each column with height H_k > 0, put a 1 at shift size - H_k in the
    first chain of that column; classify_chain_coordinates round-trips to the
    label exactly.
    """
    columns = _columns(jt, label)
    coords = [0] * jt.dimension
    for h, size, chains in columns:
        if h:
            coords[chains[0] + size - h] = 1
    return Matrix.column(coords)


def invariant_positions(jt: JordanType, label: OrbitLabel) -> tuple:
    """Chain coordinates spanning the orbit closure: the top H_k shifts of every chain.

    One walk over the chains of :attr:`JordanType.plan`, in offset order: positions ascend.
    """
    positions = []
    for h, size, chains in _columns(jt, label):
        for offset in chains:
            positions.extend(range(offset + size - h, offset + size))
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
