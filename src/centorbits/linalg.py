"""Exact dense linear algebra over the rational numbers.

Every entry is a ``fractions.Fraction``, so all results are exact: no
rounding, no overflow, no precision loss anywhere in this module. Vectors
are represented as n x 1 matrices to keep a single arithmetic path.

Row reduction pivots on the first nonzero entry of each column (exact
arithmetic needs no numerical pivot selection), which makes ranks, reduced
forms and kernel bases fully deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


def as_fraction(value: Scalar) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int and strings such as ``"7"`` or ``"-3/4"``.
    Floats and bools are rejected outright; exactness is the whole point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"inexact or boolean entry {value!r}; use int, Fraction or a 'p/q' string"
        )
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class Matrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_data: Iterable[Sequence[Scalar]]):
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows_data)
        if not data or not data[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ShapeError("all rows must have the same length")
        self.rows = len(data)
        self.cols = len(data[0])
        self._data = data

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, values: Iterable[Scalar]) -> "Matrix":
        """Build an n x 1 matrix (the vector representation used throughout)."""
        return cls([[v] for v in values])

    @classmethod
    def from_columns(cls, columns: Sequence["Matrix"]) -> "Matrix":
        if not columns:
            raise ShapeError("from_columns needs at least one column")
        height = columns[0].rows
        if any(c.rows != height or c.cols != 1 for c in columns):
            raise ShapeError("from_columns expects n x 1 matrices of equal height")
        return cls([[c._data[i][0] for c in columns] for i in range(height)])

    # -- element access ------------------------------------------------

    def __getitem__(self, key: tuple) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    # -- structural ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix([[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ShapeError(f"trace needs a square matrix, got {self.rows}x{self.cols}")
        return sum((self._data[i][i] for i in range(self.rows)), Fraction(0))

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeError(
                f"cannot augment {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        return Matrix([ra + rb for ra, rb in zip(self._data, other._data)])

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(
                f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}"
            )
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)])

    def scaled(self, c: Scalar) -> "Matrix":
        c = as_fraction(c)
        return Matrix([[c * x for x in row] for row in self._data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = list(zip(*other._data))
        return Matrix(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
             for row in self._data]
        )

    def pow(self, k: int) -> "Matrix":
        """Exact k-th power; k = 0 gives the identity."""
        if not self.is_square():
            raise ShapeError(f"matrix power needs a square matrix, got {self.rows}x{self.cols}")
        if k < 0:
            raise ValueError("negative powers are not supported; use inverse() explicitly")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row echelon form and the tuple of pivot columns."""
        m = [list(row) for row in self._data]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for r in range(pr, self.rows):
                if m[r][pc] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = 1 / m[pr][pc]
            m[pr] = [x * inv for x in m[pr]]
            for r in range(self.rows):
                if r != pr and m[r][pc] != 0:
                    f = m[r][pc]
                    m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Matrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Basis of the right kernel as n x 1 matrices.

        One vector per free column, free columns in increasing order, so the
        result is reproducible: rank + len(kernel) == cols always holds.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            coords = [Fraction(0)] * self.cols
            coords[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                coords[pc] = -reduced[r, free]
            basis.append(Matrix.column(coords))
        return basis

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        reduced, pivots = self.augment(Matrix.identity(n)).rref()
        if len(pivots) < n or tuple(pivots[:n]) != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([row[n:] for row in reduced._data])
