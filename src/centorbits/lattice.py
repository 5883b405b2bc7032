"""The finite lattice of orbit labels.

An eigenvalue with distinct block sizes s_1 < ... < s_r contributes one
column height H_k per size: the number of flag steps the orbit closure
occupies in the blocks of size s_k. A label holds the heights and the sizes
of every eigenvalue, and the heights are valid when 0 <= H_k - H_{k-1} <=
s_k - s_{k-1} (with H_0 = s_0 = 0): they never fall and never climb faster
than the sizes. The increments delta_k = H_k - H_{k-1} are the printed
digits of a label; each ranges over 0..Delta_k, where the increment sequence
Delta is the smallest size followed by the successive differences of the
sizes, so the whole lattice is the product over eigenvalues and positions of
the chains {0, ..., Delta_k}, ordered by componentwise comparison of heights.

Meet and join are the pointwise min and max of heights, and the label set is
closed under both: if G = max(H, H') with H, H' heights of valid labels,
then at position k, assuming G_k = H_k (else swap the roles), we get
G_k - G_{k-1} <= H_k - H_{k-1} <= Delta_k because G_{k-1} >= H_{k-1}; the max
of nondecreasing sequences is nondecreasing, so 0 <= G_k - G_{k-1} as well,
and the min case is symmetric. Since the order is componentwise on heights,
pointwise max and min are the least upper and greatest lower bounds. The
dual label has heights s_k - H_k.

Covers and enumeration are written in digits, against the bounds Delta
computed once per eigenvalue: a cover H -> H + e_k moves a unit from
delta_{k+1} to delta_k, or adds 1 to the last digit (:func:`_raised`), so
each label lists its own upper covers and no two labels are compared;
heights are running sums of digits and sort alike. Enumeration is guarded
by a size cap; :func:`orbit_count` has none.

Every count reads the (Delta_k, M_k) pairs of :func:`column_steps`, M_k the
number of blocks of size >= s_k. As the lattice is a product over
eigenvalues, :func:`column_tables` holds one row per digit tuple of each
eigenvalue, read from those pairs alone: its name, its share sum delta_k M_k
(= sum m_k H_k) of the orbit dimension and its upper covers' names.
:func:`lattice_text` writes the JSON or DOT text one name prefix (the rows of
all but the last eigenvalue) at a time, with no :class:`OrbitLabel`. The
prefixes are the itertools.product of the earlier tables, which is label
order, and a cover swaps one eigenvalue's digits in the lower name. The text
is streamed, but every table is held whole, so memory follows the largest
table (and the length of one prefix), not the label count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .jordan import CapExceeded, JordanType
from .linalg import _echo

DEFAULT_ENUMERATION_CAP = 1_000_000


class MismatchedLabels(ValueError):
    """Two labels belong to different lattices."""


def _steps(values) -> tuple:
    """Successive differences v_k - v_{k-1}, with v_0 = 0."""
    return tuple(b - a for a, b in zip((0,) + values, values))


def column_sizes(jt: JordanType) -> tuple:
    """The distinct block sizes of every eigenvalue: the sizes of its labels."""
    return tuple(tuple(size for size, _ in blocks) for _, blocks in jt.eigen_blocks)


def column_steps(jt: JordanType) -> tuple:
    """Per eigenvalue, per distinct size s_k: (Delta_k, M_k), M_k = m_k + m_{k+1} + ..."""
    return tuple(
        tuple(zip(_steps(sizes), tuple(itertools.accumulate(m for _, m in reversed(blocks)))[::-1]))
        for sizes, (_, blocks) in zip(column_sizes(jt), jt.eigen_blocks)
    )


@dataclass(frozen=True)
class OrbitLabel:
    """One orbit, named by its per-eigenvalue column heights.

    ``heights`` and ``sizes`` are parallel tuples of tuples, one group per
    eigenvalue in canonical order: ``sizes`` holds the distinct block sizes
    (at least one), so the label is self-validating. ``deltas`` (the
    increments of the heights, the printed digits) and ``limits`` (their
    bounds, the increments of the sizes) are derived.
    """

    heights: tuple
    sizes: tuple

    def __post_init__(self):
        if type(self.heights) is not tuple or type(self.sizes) is not tuple:
            raise TypeError(f"heights {_echo(self.heights)} and sizes {_echo(self.sizes)} must be tuples")
        if not self.sizes or len(self.heights) != len(self.sizes):
            raise ValueError("deltas and limits must have one group per eigenvalue, and at least one group")
        for group, sizes in zip(self.heights, self.sizes):
            if type(group) is not tuple or type(sizes) is not tuple:
                raise TypeError(f"height group {_echo(group)} and size group {_echo(sizes)} must be tuples")
            if not sizes:
                raise ValueError("an eigenvalue needs at least one block size")
            if len(group) != len(sizes):
                raise ValueError(f"delta group {_steps(group)} does not match bounds {_steps(sizes)}")
            h0 = s0 = 0
            for h, s in zip(group, sizes):
                if type(h) is not int:  # a bool is no height
                    raise TypeError(f"height {_echo(h)} must be an int")
                if type(s) is not int:  # nor a size
                    raise TypeError(f"size {_echo(s)} must be an int")
                if s <= s0:
                    raise ValueError(f"sizes {_echo(sizes)} must be >= 1 and strictly increase")
                if not 0 <= h - h0 <= s - s0:
                    raise ValueError(f"delta {h - h0} outside 0..{s - s0}")
                h0, s0 = h, s

    @classmethod
    def _scanned(cls, heights: tuple, sizes: tuple) -> "OrbitLabel":
        """The label of heights that are valid for sizes by construction, as a classification scan builds
        them: the checks of ``__post_init__`` are skipped."""
        label = object.__new__(cls)
        object.__setattr__(label, "heights", heights)
        object.__setattr__(label, "sizes", sizes)
        return label

    @property
    def deltas(self) -> tuple:
        return tuple(_steps(group) for group in self.heights)

    @property
    def limits(self) -> tuple:
        return tuple(_steps(sizes) for sizes in self.sizes)

    def is_bottom(self) -> bool:
        return not any(h for group in self.heights for h in group)

    def is_top(self) -> bool:
        return self.heights == self.sizes


def label_for(jt: JordanType, deltas) -> OrbitLabel:
    """Validate raw per-eigenvalue delta sequences against a type."""
    heights = tuple(tuple(itertools.accumulate(group)) for group in deltas)
    return OrbitLabel(heights, column_sizes(jt))


def bottom(jt: JordanType) -> OrbitLabel:
    sizes = column_sizes(jt)
    return OrbitLabel(tuple((0,) * len(group) for group in sizes), sizes)


def top(jt: JordanType) -> OrbitLabel:
    sizes = column_sizes(jt)
    return OrbitLabel(sizes, sizes)


def _check_same(a: OrbitLabel, b: OrbitLabel):
    if a.sizes != b.sizes:
        raise MismatchedLabels(f"labels live in different lattices: {a.limits} vs {b.limits}")


def leq(a: OrbitLabel, b: OrbitLabel) -> bool:
    """a <= b iff every height of a is <= the matching height of b."""
    _check_same(a, b)
    return all(x <= y for ga, gb in zip(a.heights, b.heights) for x, y in zip(ga, gb))


def _pointwise(pick, a: OrbitLabel, b: OrbitLabel) -> OrbitLabel:
    _check_same(a, b)
    return OrbitLabel(tuple(tuple(map(pick, ga, gb)) for ga, gb in zip(a.heights, b.heights)), a.sizes)


def join(a: OrbitLabel, b: OrbitLabel) -> OrbitLabel:
    return _pointwise(max, a, b)


def meet(a: OrbitLabel, b: OrbitLabel) -> OrbitLabel:
    return _pointwise(min, a, b)


def dual(a: OrbitLabel) -> OrbitLabel:
    """Order-reversing involution: heights reflect to sizes minus heights."""
    return OrbitLabel(
        tuple(tuple(s - h for s, h in zip(sizes, group)) for group, sizes in zip(a.heights, a.sizes)),
        a.sizes,
    )


def upper_covers(a: OrbitLabel) -> list:
    """Every label covering a, in lexicographic order: the valid steps H -> H + e_k.

    A step at a later eigenvalue gives the smaller label, so eigenvalues are
    walked from last to first, each through :func:`_raised`.
    """
    deltas, limits = a.deltas, a.limits
    return [
        OrbitLabel(a.heights[:g] + (tuple(itertools.accumulate(upper)),) + a.heights[g + 1:], a.sizes)
        for g in reversed(range(len(deltas)))
        for upper in _raised(deltas[g], limits[g])
    ]


def _raised(digits: tuple, bounds: tuple) -> list:
    """One eigenvalue's digit tuples one step above digits, raised position last to first.

    Raising H_k adds 1 to delta_k and, unless k is last, takes 1 from delta_{k+1}, so it is
    valid when delta_k < Delta_k and delta_{k+1} > 0. A step at an earlier position gives the
    larger label, hence the order.
    """
    padded = digits + (1,)  # the last position takes from a delta_{k+1} that is dropped
    return [(digits[:k] + (digits[k] + 1, padded[k + 1] - 1) + digits[k + 2:])[:len(digits)]
            for k in reversed(range(len(digits))) if digits[k] < bounds[k] and padded[k + 1]]


def _separator(bounds: tuple) -> str:
    """What joins one eigenvalue's digits in a name: nothing, or a comma if a bound exceeds 9."""
    return "" if max(bounds) <= 9 else ","


def label_name(label: OrbitLabel) -> str:
    """Per-eigenvalue digit strings joined by '|'; commas when a bound exceeds 9."""
    return "|".join(_separator(bounds).join(map(str, group)) for group, bounds in zip(label.deltas, label.limits))


def orbit_count(jt: JordanType) -> int:
    """Total number of orbits, the product of (1 + Delta_k) over everything."""
    return math.prod(step + 1 for column in column_steps(jt) for step, _ in column)


def _digit_rows(bounds: tuple):
    """Every valid digit tuple of one eigenvalue, in lexicographic order (of digits and of heights)."""
    return itertools.product(*[range(bound + 1) for bound in bounds])


def _check_cap(steps: tuple, cap: int):  # steps: those of column_steps, counted as orbit_count does
    total = math.prod(step + 1 for column in steps for step, _ in column)
    if total > cap:
        raise CapExceeded(total, cap)


def enumerate_labels(jt: JordanType) -> list:
    """All labels in lexicographic order of their flattened heights (equally, deltas)."""
    _check_cap(column_steps(jt), DEFAULT_ENUMERATION_CAP)
    sizes = column_sizes(jt)
    columns = [[tuple(itertools.accumulate(digits)) for digits in _digit_rows(_steps(group))] for group in sizes]
    return [OrbitLabel(heights, sizes) for heights in itertools.product(*columns)]


def hasse_covers(jt: JordanType) -> list:
    """All covering pairs (lower, upper), in lexicographic order of the pair.

    The labels come in lexicographic order and so do the upper covers of
    each, so the flat list needs no sorting. Tests pin the pairs against the
    definition by exhaustive search for intermediates.
    """
    return [(lower, upper) for lower in enumerate_labels(jt) for upper in upper_covers(lower)]


def column_tables(jt: JordanType, cap: int) -> list:
    """Per eigenvalue, a row (name, share, upper covers' names) per digit tuple delta, from :func:`column_steps`.

    A name joins digits by :func:`_separator`; the share of the orbit dimension is sum delta_k * M_k =
    sum m_k * H_k. Rows and covers are in lexicographic order; the cap is checked before any is built.
    """
    steps = column_steps(jt)
    _check_cap(steps, cap)
    tables = []
    for column in steps:
        bounds, tails = zip(*column)
        join = _separator(bounds).join
        tables.append([
            (join(map(str, digits)), sum(map(int.__mul__, digits, tails)),
             [join(map(str, upper)) for upper in _raised(digits, bounds)])
            for digits in _digit_rows(bounds)
        ])
    return tables


_BLOCK = 512  # labels per block of written text; a longer table of the last eigenvalue is split


def _prefixes(tables: list):
    """(prefix, dimension, levels) per combination of rows, one row per table, in label order.

    The combinations are those of itertools.product, which yields one empty combination for no
    tables. A prefix is the rows' digits, each followed by '|'; levels holds one (partial prefix
    before the row, row) pair per table, built anew for each combination.
    """
    for rows in itertools.product(*tables):
        name, dim, levels = "", 0, []
        for row in rows:
            levels.append((name, row))
            name += row[0] + "|"
            dim += row[1]
        yield name, dim, levels


def _blocks(tables: list, derive, piece, sep: str):
    """The piece(*prefix, run) texts, sep-joined in non-empty blocks of up to _BLOCK labels, each later one led by sep.

    Prefixes span all eigenvalues but the last; a run is derive of up to _BLOCK of the last one's rows,
    kept if one run holds them all, else derived anew per prefix, so what is kept beside the whole tables stays bounded.
    """
    *earlier, last = tables
    kept = [derive(last)] if len(last) <= _BLOCK else None
    texts = (piece(*prefix, run) for prefix in _prefixes(earlier)
             for run in kept or map(derive, (last[i:i + _BLOCK] for i in range(0, len(last), _BLOCK))))
    lead = ""
    while group := list(itertools.islice(texts, max(1, _BLOCK // len(last)))):
        if block := sep.join(group):
            yield lead
            yield block
            lead = sep


# Per format: (head, node pieces, separator, middle, cover pieces, tail), a
# line being a + name + b + dimension or upper name + c, reproducing
# json.dumps(indent=2) of {"nodes": [...], "covers": [...]} and the DOT lines.
_TEXT = {
    "json": ('{\n  "nodes": [\n', ('    [\n      "', '",\n      ', '\n    ]'), ",\n",
             '\n  ],\n  "covers": [\n', ('    [\n      "', '",\n      "', '"\n    ]'), "\n  ]\n}\n"),
    "dot": ("digraph orbit_lattice {\n  rankdir=BT;\n", ('  "', '" [dim=', '];'), "\n",
            "\n", ('  "', '" -> "', '";'), "\n}\n"),
}


def lattice_text(jt: JordanType, fmt: str, cap: int):
    """The fmt ("json" or "dot") text of every label and its orbit dimension in :func:`enumerate_labels` order,
    then of every cover in :func:`hasse_covers` order, as :func:`_blocks`; the cap is checked before the first text."""
    tables = column_tables(jt, cap)
    head, (a, b, c), sep, middle, (x, y, z), tail = _TEXT[fmt]

    def node(prefix, dim, _, run):  # run: the rows' digits + b and their shares
        return a + prefix + (c + sep + a + prefix).join(map(str.__add__, run[0], map(str, map(dim.__add__, run[1])))) + c

    # per label, one join over its last row's upper digits, then one over the prefix's swapped prefixes:
    # one earlier row's digits replaced by an upper cover's, last eigenvalue first as in upper_covers
    def cover(prefix, _, levels, run):
        swapped = [name + up + prefix[len(name) + len(row[0]):] for name, row in reversed(levels) for up in row[2]]
        start = x + prefix
        lines = []
        for named, closed, uppers in run:
            lead = start + named
            if uppers:
                lines.append(lead + prefix + (sep + lead + prefix).join(uppers))
            if swapped:
                lines.append(lead + (closed + sep + lead).join(swapped) + closed)
        return sep.join(lines)

    yield head
    yield from _blocks(tables, lambda run: ([row[0] + b for row in run], [row[1] for row in run]), node, sep)
    yield middle
    yield from _blocks(tables, lambda run: [(digits + y, digits + z, [up + z for up in ups]) for digits, _, ups in run],
                       cover, sep)
    yield tail
