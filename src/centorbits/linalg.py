"""Exact dense linear algebra over the rational numbers.

A matrix is stored as a grid of Python integers over one positive common
denominator, kept in lowest terms: the gcd of the denominator and every
entry is 1. That form is unique, so equality and hashing compare integers,
and all results are exact: no rounding, no overflow, no precision loss
anywhere in this module. Vectors are n x 1 matrices, and inside the package
also (integers, denominator) columns in lowest terms. Only reading an entry
(``m[i, j]``, ``row``) or printing builds ``fractions.Fraction`` values.

Every operation runs on the integers. A product is the integer product of
the grids over the product of the denominators; by a column it is one packed
product, :func:`_apply`, whose bit fields are the dot products of the rows.
Sums rescale to the lcm of the denominators. Elimination,
:func:`_integer_rref`, runs fraction-free on integer rows: the target row
is multiplied by the pivot before the pivot row is subtracted, and each
updated row is divided by its content (the gcd of its entries) to keep the
integers short. Scaling a row by a nonzero number changes neither its span
nor the span of the rows, and the reduced row echelon form depends only on
the row space, so the reduced form read off the integer rows, row i over
its pivot, is the one exact rational Gauss-Jordan elimination gives:
ranks, kernel bases and inverses are unchanged. Kernel vectors are written over
the lcm of the pivots; an inverse first divides each column by its content.

Row reduction pivots on the first nonzero entry of each column (exact
arithmetic needs no numerical pivot selection), which makes ranks, reduced
forms and kernel bases fully deterministic.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from itertools import chain
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
# Its groups are the sign, the integer digits, the denominator and the decimals.
_NUMBER = re.compile(r"\s*([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?\s*")
# A decimal mantissa with at least one digit, then an exponent: the strings
# Fraction would read by computing 10**exponent, however large
_EXPONENT_FORM = re.compile(r"\s*[-+]?(\d[\d_]*(\.[\d_]*)?|\.\d[\d_]*)[eE][-+]?\d[\d_]*\s*")
# The grammar with '_' between digits (read from Python 3.11 on) and
# whitespace around '/' (from 3.12 on)
_VERSION_FORM = re.compile(r"\s*[-+]?(?=\.?\d)(\d+(_\d+)*)?(\s*/\s*\d+(_\d+)*|\.(\d+(_\d+)*)?)?\s*")


def _count_text(count) -> str:
    """count as str() writes it; an int of more digits than str() writes (sys.get_int_max_str_digits())
    as "at least 2^k", 2^k its highest power of two, read off its bit length."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


def _entry_text(x: int, den: int) -> str:
    """str(Fraction(x, den)), but a numerator or denominator str() refuses is written by _count_text, after the sign."""
    q = Fraction(x, den)
    text = ("-" if q < 0 else "") + _count_text(abs(q.numerator))
    return text if q.denominator == 1 else f"{text}/{_count_text(q.denominator)}"


def _echo(value) -> str:
    """A bounded repr for an error line: a long string shows a prefix and its length."""
    if not isinstance(value, str):
        return reprlib.repr(value)
    return repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"


def as_ratio(value: Scalar) -> tuple:
    """``value`` as (numerator, denominator), in lowest terms with denominator > 0.

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
        return value.as_integer_ratio()
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {_echo(value)} as a rational number")
    if number := _NUMBER.fullmatch(value):
        sign, digits, den, decimals = number.groups("")
        try:  # the grammar leaves only the digit limit to fail on
            scale = 10 ** len(decimals)
            num, den = int(digits or "0") * scale + int(decimals or "0"), int(den or scale)
        except ValueError:
            raise TooManyDigits(f"{_echo(value)} has an integer of more than {sys.get_int_max_str_digits()} "
                                "digits, the limit on integer strings") from None
        if not den:
            raise ValueError(f"zero denominator in {_echo(value)}")
        g = gcd(num, den)
        return (-num if sign == "-" else num) // g, den // g
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
    as ``Fraction``s. ``_packed`` memoizes the columns packed for
    :func:`_apply`; it takes no part in ``==``, ``hash`` or ``repr``, and a
    pickle or copy rebuilds the matrix from its grid without it.
    """

    __slots__ = ("rows", "cols", "_grid", "_den", "_packed")

    def __init__(self, rows_data: Iterable[Sequence[Scalar]]):
        data = [[as_ratio(x) for x in row] for row in rows_data]
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
        self._packed = None

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
        m._packed = None
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, values: Iterable[Scalar]) -> "Matrix":
        """Build an n x 1 matrix (the vector representation used throughout)."""
        return cls([[v] for v in values])

    @classmethod
    def _column(cls, values: Sequence[int], den: int) -> "Matrix":
        """The n x 1 matrix values / den, for integers already in lowest terms over den > 0."""
        # beside _reduced, as its gcd pass is already done: paid by classify_stream, one column product per vector
        m = object.__new__(cls)
        m.rows, m.cols, m._grid, m._den, m._packed = len(values), 1, tuple([(x,) for x in values]), den, None
        return m

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

    def __reduce__(self):
        return Matrix._reduced, (self._grid, self._den)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(_entry_text(x, self._den) for x in row) for row in self._grid)
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
        num, den = as_ratio(c)
        return Matrix._reduced([[num * x for x in row] for row in self._grid], self._den * den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, in lowest terms; by a column, the fields of one :func:`_apply` and one gcd."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        den = self._den * other._den
        # by a column, packed: paid by classify_stream, whose U v and P^-1 v reuse one packing per matrix
        if other.cols == 1:
            fields, width, _ = _apply(self, [x for (x,) in other._grid])
            mask, half = (1 << width) - 1, 1 << (width - 1)
            values = [((fields >> s) & mask) - half for s in range(0, width * self.rows, width)]
            return Matrix._column(*_lowest_terms(values, den))
        # by a wider right factor, plain: paid by jordan_basis's T P on triangular 250-bit grids, one use per matrix
        cols = list(zip(*other._grid))
        return Matrix._reduced([[sum(map(mul, row, col)) for col in cols] for row in self._grid], den)

    # -- elimination ---------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row echelon form and the tuple of pivot columns."""
        m, pivots = _integer_rref(self._grid)
        den = lcm(*(m[i][pc] for i, pc in enumerate(pivots)))
        reduced = [[x * (den // m[i][pc]) for x in m[i]] for i, pc in enumerate(pivots)]
        reduced += [[0] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix._reduced(reduced, den), pivots

    def inverse(self) -> "Matrix":
        """T^-1 in lowest terms; ShapeError if T is not square, ValueError("matrix is singular") if T is singular.

        Row j of (A/d)^-1 is d / c_j times row j of B^-1, B being A with column j over its content c_j (1 if 0)."""
        if not self.is_square():
            raise ShapeError(f"only square matrices invert, got {self.rows}x{self.cols}")
        n, d = self.rows, self._den
        # eliminating on B keeps the integers short where a wide common d makes A's columns long multiples of
        # short ones, as in jordan_basis's P; a zero column keeps content 1 and leaves B singular
        contents = [gcd(*column) or 1 for column in zip(*self._grid)]
        m, pivots = _integer_rref([[*(x // c for x, c in zip(row, contents)), *(int(i == j) for j in range(n))]
                                   for i, row in enumerate(self._grid)])
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        # row i is e m[i][n:] over f m[i][i], for e / f = d / c_i in lowest terms, taken before any row is scaled
        scales = [(d // g, c // g * m[i][i]) for i, c in enumerate(contents) for g in (gcd(d, c),)]
        den = lcm(*(q for _, q in scales))
        return Matrix._reduced([[x * (e * (den // q)) for x in row[n:]] for (e, q), row in zip(scales, m)], den)


def _integer_rref(rows: Iterable[Sequence[int]]) -> tuple[list, tuple]:
    """Integer rows whose scaled form is the reduced row echelon form of ``rows``, and the pivots.

    Row i < rank divided by its entry in pivot column ``pivots[i]`` is row
    i of the reduced form; the rows below are zero. Every row is primitive
    (its entries have gcd 1) or zero. ``rows`` is read, never changed.
    """
    m = [_primitive(row) for row in rows]
    height = len(m)
    pivots = []
    pr = 0
    for pc in range(len(m[0])):
        pivot_row = None
        for r in range(pr, height):
            if m[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        prow = m[pr]
        p = prow[pc]
        for r in range(height):
            f = m[r][pc]
            if r != pr and f != 0:
                m[r] = _primitive([p * a - f * b for a, b in zip(m[r], prow)])
        pivots.append(pc)
        pr += 1
        if pr == height:
            break
    return m, tuple(pivots)


def _apply(m: Matrix, values: Sequence[int]) -> tuple:
    """The integer product of m's grid by the column ``values``, packed: (x + bias, width, bias).

    Field i of x + bias, bits [width * i, width * (i + 1)), holds row i's dot
    product d_i plus 2^(width - 1); bias has that one bit set in every field.
    With a the bit length of m's largest |entry| and v that of the largest
    |value|, |d_i| <= cols (2^a - 1)(2^v - 1) < 2^(a + v + cols.bit_length()),
    so a width of a + v + cols.bit_length() + 1 bits keeps every biased field
    in [1, 2^width): no field borrows from or carries into the next. Column j
    packed is sum_i entry(i, j) 2^(width i), so x = sum_j values[j] * column j,
    one small-by-big multiply per column. The packing is memoized in
    ``m._packed`` at the width of the call that made it; a wider call packs
    anew and replaces it, and the memo is read once and never changed in place,
    so threads sharing m each use a packing wide enough for their own call.
    """
    memo = m._packed
    a = memo[0] if memo else max(map(abs, chain.from_iterable(m._grid))).bit_length()
    width = a + max(map(abs, values)).bit_length() + m.cols.bit_length() + 1
    if memo is None or memo[1] < width:
        columns = []
        for column in zip(*m._grid):
            packed = 0
            for x in reversed(column):  # Horner, last row first
                packed = (packed << width) + x
            columns.append(packed)
        bias = ((1 << width * m.rows) - 1) // ((1 << width) - 1) << (width - 1)
        # threads may race to store; each call uses its own local, so a lost race costs a later repack
        memo = m._packed = (a, width, tuple(columns), bias)
    _, width, columns, bias = memo
    return sum(map(mul, values, columns)) + bias, width, bias


def _lowest_terms(values: list, den: int) -> tuple:
    """The column values / den, for den > 0, as (integers, denominator) in lowest terms."""
    g = gcd(den, *values)
    return ([x // g for x in values], den // g) if g > 1 else (values, den)


def _kernel_vectors(m: list, pivots: tuple, cols: int) -> list:
    """A right kernel basis from :func:`_integer_rref`'s rows and pivots, as (integers, denominator) columns.

    The vector of each free column, in increasing order, has 1 there and, at each pivot column, minus the reduced
    form's entry in the free column, over the lcm of the pivots, then in lowest terms: rank + len(kernel) == cols."""
    den = lcm(*(m[r][pc] for r, pc in enumerate(pivots)))
    scales = [den // m[r][pc] for r, pc in enumerate(pivots)]
    basis = []
    for free in sorted(set(range(cols)) - set(pivots)):
        values = [0] * cols
        values[free] = den
        for r, pc in enumerate(pivots):
            values[pc] = -m[r][free] * scales[r]
        basis.append(_lowest_terms(values, den))
    return basis
