"""Exact dense linear algebra over the rational numbers.

A matrix is stored as a grid of Python integers over one positive common
denominator, kept in lowest terms: the gcd of the denominator and every
entry is 1. That form is unique, so equality and hashing compare integers,
and all results are exact: no rounding, no overflow, no precision loss
anywhere in this module. Vectors are represented as n x 1 matrices to keep a
single arithmetic path. Only reading an entry (``m[i, j]``, ``row``) or
printing builds ``fractions.Fraction`` values.

Every operation runs on the integers. A product is the integer product of
the grids over the product of the denominators; sums, stacked columns and
scalings rescale to the lcm of the denominators. Elimination reads the
integer rows as they are and eliminates fraction-free: the target row is
multiplied by the pivot before the pivot row is subtracted, and each updated
row is divided by its content (the gcd of its entries) to keep the integers
short. Scaling a row by a nonzero number changes neither its span nor the
span of the rows, and the reduced row echelon form of a matrix depends only
on that row space, so the reduced form read off the integer rows at the end,
row i over its pivot, is the one exact rational Gauss-Jordan elimination
gives: ranks, kernel bases and inverses are unchanged. Kernel vectors and
inverses are written over the lcm of the pivots they divide by.

Row reduction pivots on the first nonzero entry of each column (exact
arithmetic needs no numerical pivot selection), which makes ranks, reduced
forms and kernel bases fully deterministic.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, str]


class ShapeError(ValueError):
    """Matrix dimensions do not fit the requested operation."""


class NotANumber(ValueError):
    """A string that is no number, and in none of the forms :class:`RefusedForm` names."""


class RefusedForm(ValueError):
    """A number string in a refused form: an exponent (``"1e5"``), or a form Python versions disagree on."""


class TooManyDigits(ValueError):
    """A number string with an integer over Python's limit on digits in int conversion."""


# The one number grammar: a sign, digits with an optional '/digits' or
# '.digits' part, whitespace around the whole. It is fractions.Fraction's on
# Python 3.10 less the exponent, and every later version reads it alike.
_NUMBER = re.compile(r"\s*[-+]?(?=\.?\d)\d*(/\d+|\.\d*)?\s*")
# A decimal mantissa with at least one digit, then an exponent: the strings
# Fraction would read by computing 10**exponent, however large
_EXPONENT_FORM = re.compile(r"\s*[-+]?(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")
# The grammar with '_' between digits (read from Python 3.11 on) and
# whitespace around '/' (from 3.12 on)
_VERSION_FORM = re.compile(r"\s*[-+]?(?=\.?\d)(\d+(_\d+)*)?(\s*/\s*\d+(_\d+)*|\.(\d+(_\d+)*)?)?\s*")


def _echo(value) -> str:
    """A bounded repr for an error line: a long string shows a prefix and its length."""
    if not isinstance(value, str):
        return reprlib.repr(value)
    return repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"


def as_fraction(value: Scalar) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts Fraction, int, and strings in one grammar that every supported
    Python reads alike: a sign, then digits with an optional ``/digits`` or
    ``.digits`` part, with whitespace around the whole (``"-3/4"``). Refused:

    - a float or bool (inexact), or any other type: TypeError;
    - an exponent, since ``"1e9999999"`` stands for ten million digits, ``_``
      between digits (read from Python 3.11 on) or whitespace around ``/``
      (from 3.12 on): :class:`RefusedForm`;
    - an integer of more digits than ``sys.get_int_max_str_digits()``: :class:`TooManyDigits`;
    - a zero denominator: ValueError;
    - any other string: :class:`NotANumber`.
    """
    if isinstance(value, (bool, float)):
        raise TypeError(f"inexact or boolean entry {value!r}; use int, Fraction or a 'p/q' string")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {_echo(value)} as a rational number")
    if _NUMBER.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {_echo(value)}") from None
        except ValueError:  # the grammar leaves only the digit limit to fail on
            raise TooManyDigits(
                f"{_echo(value)} has an integer of more than {sys.get_int_max_str_digits()} digits, "
                "the limit on integer strings"
            ) from None
    if _EXPONENT_FORM.fullmatch(value):
        raise RefusedForm(f"exponent notation {_echo(value)} is not accepted; write an integer or 'p/q'")
    if _VERSION_FORM.fullmatch(value):
        raise RefusedForm(
            f"{_echo(value)} has '_' between digits or whitespace around '/', which Python "
            "versions read differently; write an integer or 'p/q'"
        )
    raise NotANumber(f"{_echo(value)} is not a number; write an integer or 'p/q'")


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class Matrix:
    """Immutable dense rational matrix.

    Entry (i, j) is ``_grid[i][j] / _den``: ``_grid`` is a tuple of integer
    row tuples and ``_den`` one positive denominator, in lowest terms (the
    gcd of ``_den`` and every entry is 1). That form is unique, so ``==`` and
    ``hash`` compare integers. ``m[i, j]`` and ``row(i)`` read entries back
    as ``Fraction``s.
    """

    __slots__ = ("rows", "cols", "_grid", "_den")

    def __init__(self, rows_data: Iterable[Sequence[Scalar]]):
        data = [[(x if type(x) in (int, Fraction) else as_fraction(x)).as_integer_ratio() for x in row]
                for row in rows_data]
        if not data or not data[0]:
            raise ShapeError("a matrix needs at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ShapeError("all rows must have the same length")
        # entries in lowest terms over the lcm of their denominators need no
        # further reduction: for each prime power p^e exactly dividing the lcm,
        # an entry with denominator divisible by p^e keeps a numerator prime to p
        den = lcm(*{d for row in data for _, d in row})
        self.rows = len(data)
        self.cols = len(data[0])
        self._grid = tuple([tuple([x * (den // d) for x, d in row]) for row in data])
        self._den = den

    @classmethod
    def _reduced(cls, grid: Sequence[Sequence[int]], den: int) -> "Matrix":
        """The matrix grid / den, for integer rows of equal length and den > 0, in lowest terms."""
        g = den
        for row in grid:
            if g == 1:
                break
            g = gcd(g, *row)
        m = object.__new__(cls)
        m.rows, m.cols = len(grid), len(grid[0])
        m._grid = tuple([tuple([x // g for x in row]) for row in grid]) if g > 1 else tuple(map(tuple, grid))
        m._den = den // g
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

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
        den = lcm(*(c._den for c in columns))
        return cls._reduced(list(zip(*[[x * (den // c._den) for (x,) in c._grid] for c in columns])), den)

    # -- element access ------------------------------------------------

    def __getitem__(self, key: tuple) -> Fraction:
        i, j = key
        return Fraction(self._grid[i][j], self._den)

    def row(self, i: int) -> tuple:
        return tuple(Fraction(x, self._den) for x in self._grid[i])

    # -- structural ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and self._den == other._den and self._grid == other._grid

    def __hash__(self) -> int:
        return hash((self._den, self._grid))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(Fraction(x, self._den)) for x in row) for row in self._grid)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, over the lcm of the denominators."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            a, b = f"{self.rows}x{self.cols}", f"{other.rows}x{other.cols}"
            raise ShapeError(f"cannot add {a} and {b}" if sign > 0 else f"cannot subtract {b} from {a}")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        return Matrix._reduced(
            [[a * fa + b * fb for a, b in zip(ra, rb)] for ra, rb in zip(self._grid, other._grid)],
            den,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def scaled(self, c: Scalar) -> "Matrix":
        c = as_fraction(c)
        num = c.numerator
        return Matrix._reduced([[num * x for x in row] for row in self._grid], self._den * c.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = list(zip(*other._grid))
        return Matrix._reduced(
            [[sum(map(mul, row, col)) for col in cols] for row in self._grid],
            self._den * other._den,
        )

    # -- elimination ---------------------------------------------------

    def _integer_rref(self) -> tuple[list, tuple]:
        """Integer rows whose scaled form is the reduced row echelon form, and the pivots.

        Row i < rank divided by its entry in pivot column ``pivots[i]`` is
        row i of the reduced form; the rows below are zero. Every row is
        primitive (its entries have gcd 1) or zero.
        """
        m = [_primitive(row) for row in self._grid]
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
        den = lcm(*(m[i][pc] for i, pc in enumerate(pivots)))
        reduced = [[x * (den // m[i][pc]) for x in m[i]] for i, pc in enumerate(pivots)]
        reduced += [[0] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix._reduced(reduced, den), pivots

    def rank(self) -> int:
        return len(self._integer_rref()[1])

    def kernel_basis(self) -> list:
        """Basis of the right kernel as n x 1 matrices.

        One vector per free column, free columns in increasing order, so the
        result is reproducible: rank + len(kernel) == cols always holds.
        The vector of a free column has 1 there and, at each pivot column,
        minus the reduced form's entry in the free column, written over the
        lcm of the pivots.
        """
        return _kernel_vectors(*self._integer_rref(), self.cols)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ShapeError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n, d = self.rows, self._den
        # T = A/d, so [A | dI] row-reduces to [I | T^-1]
        grid = [[*row, *(d * (i == j) for j in range(n))] for i, row in enumerate(self._grid)]
        m, pivots = Matrix._reduced(grid, 1)._integer_rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        den = lcm(*(row[i] for i, row in enumerate(m[:n])))
        return Matrix._reduced([[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(m[:n])], den)


def _kernel_vectors(m: list, pivots: tuple, cols: int) -> list:
    """The kernel basis read off the integer rows and pivots :meth:`Matrix._integer_rref` returns."""
    den = lcm(*(m[r][pc] for r, pc in enumerate(pivots)))
    scales = [den // m[r][pc] for r, pc in enumerate(pivots)]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        coords = [[0] for _ in range(cols)]
        coords[free] = [den]
        for r, pc in enumerate(pivots):
            coords[pc] = [-m[r][free] * scales[r]]
        basis.append(Matrix._reduced(coords, den))
    return basis
