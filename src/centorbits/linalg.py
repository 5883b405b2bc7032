"""Exact dense linear algebra over the rational numbers.

Every entry is a ``fractions.Fraction``, so all results are exact: no
rounding, no overflow, no precision loss anywhere in this module. Vectors
are represented as n x 1 matrices to keep a single arithmetic path.

The inner loops run on Python integers, not on fractions. A product writes
each row of the left factor and each column of the right one as an integer
vector over the lcm of its denominators, so every output entry is one
integer dot product over one integer denominator. Elimination scales each
row to integers and eliminates fraction-free: the target row is multiplied
by the pivot before the pivot row is subtracted, and each updated row is
divided by its content (the gcd of its entries) to keep the integers short.
Scaling a row by a nonzero number changes neither its span nor the span of
the rows, and the reduced row echelon form of a matrix depends only on that
row space, so the reduced form built from the integer rows at the end is
the one exact rational Gauss-Jordan elimination gives: ranks, kernel bases
and inverses are unchanged.

Row reduction pivots on the first nonzero entry of each column (exact
arithmetic needs no numerical pivot selection), which makes ranks, reduced
forms and kernel bases fully deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class ExponentNotation(ValueError):
    """A number string written with an exponent, such as ``"1e5"``."""


# A decimal mantissa with at least one digit, then an exponent: the strings
# Fraction would read by computing 10**exponent, however large
_EXPONENT_FORM = re.compile(r"\s*[-+]?(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")


def as_fraction(value: Scalar) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int and strings such as ``"7"`` or ``"-3/4"``.
    Floats and bools are rejected outright; exactness is the whole point.
    Exponent strings such as ``"1e5"`` raise :class:`ExponentNotation`: nine
    characters like ``"1e9999999"`` would stand for a ten-million-digit
    integer, which no digit limit on integer strings catches.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(
            f"inexact or boolean entry {value!r}; use int, Fraction or a 'p/q' string"
        )
    if isinstance(value, str) and _EXPONENT_FORM.fullmatch(value):
        raise ExponentNotation(f"exponent notation {value!r} is not accepted; write an integer or 'p/q'")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _primitive(row: list) -> list:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_vector(values: Sequence[Fraction]) -> tuple[list, int]:
    """(integers, d) with values[i] == integers[i] / d, d the lcm of the denominators."""
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


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

    def is_square(self) -> bool:
        return self.rows == self.cols

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
        cols = [_integer_vector(col) for col in zip(*other._data)]
        out = []
        for row in self._data:
            ints, denom = _integer_vector(row)
            out.append(
                [Fraction(sum(map(mul, ints, col)), denom * col_denom) for col, col_denom in cols]
            )
        return Matrix(out)

    # -- elimination ---------------------------------------------------

    def _integer_rref(self) -> tuple[list, tuple]:
        """Integer rows whose scaled form is the reduced row echelon form, and the pivots.

        Row i < rank divided by its entry in pivot column ``pivots[i]`` is
        row i of the reduced form; the rows below are zero.
        """
        m = [_primitive(_integer_vector(row)[0]) for row in self._data]
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
            prow = m[pr]
            p = prow[pc]
            for r in range(self.rows):
                f = m[r][pc]
                if r != pr and f != 0:
                    m[r] = _primitive([p * a - f * b for a, b in zip(m[r], prow)])
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return m, tuple(pivots)

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row echelon form and the tuple of pivot columns."""
        m, pivots = self._integer_rref()
        reduced = [[Fraction(x, m[i][pc]) for x in m[i]] for i, pc in enumerate(pivots)]
        reduced += [[0] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(reduced), pivots

    def rank(self) -> int:
        return len(self._integer_rref()[1])

    def kernel_basis(self) -> list:
        """Basis of the right kernel as n x 1 matrices.

        One vector per free column, free columns in increasing order, so the
        result is reproducible: rank + len(kernel) == cols always holds.
        """
        m, pivots = self._integer_rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            coords = [Fraction(0)] * self.cols
            coords[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                coords[pc] = Fraction(-m[r][free], m[r][pc])
            basis.append(Matrix.column(coords))
        return basis

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n = self.rows
        m, pivots = self.augment(Matrix.identity(n))._integer_rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Matrix([[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(m[:n])])
