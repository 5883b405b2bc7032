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

Every cover is a single step H -> H + e_k, so each label lists its own upper
covers and the Hasse diagram needs no comparison between labels. Labels
carry their sizes, so duality, validity and covers need no extra context.
Enumeration is guarded by a size cap; the count (:func:`orbit_count`) never
enumerates and has no cap.

Label sizes come from ``JordanType.eigen_blocks`` through :func:`column_sizes`
only, and ``_steps`` turns them into the bounds Delta; the generating
function and the ``analyze`` report read the same two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .jordan import JordanType

DEFAULT_ENUMERATION_CAP = 1_000_000


class CapExceeded(RuntimeError):
    """An enumeration would produce more elements than the configured cap."""

    def __init__(self, count: int, cap: int, what: str = "lattice elements"):
        super().__init__(f"refusing to enumerate {count} {what} (cap {cap})")
        self.count = count
        self.cap = cap


class MismatchedLabels(ValueError):
    """Two labels belong to different lattices."""


def _steps(values) -> tuple:
    """Successive differences v_k - v_{k-1}, with v_0 = 0."""
    return tuple(b - a for a, b in zip((0,) + values, values))


def column_sizes(jt: JordanType) -> tuple:
    """The distinct block sizes of every eigenvalue: the sizes of its labels."""
    return tuple(tuple(size for size, _ in blocks) for _, blocks in jt.eigen_blocks)


@dataclass(frozen=True)
class OrbitLabel:
    """One orbit, named by its per-eigenvalue column heights.

    ``heights`` and ``sizes`` are parallel tuples of tuples, one group per
    eigenvalue in canonical order: ``sizes`` holds the distinct block sizes,
    so the label is self-validating. ``deltas`` (the increments of the
    heights, the printed digits) and ``limits`` (their bounds, the increments
    of the sizes) are derived.
    """

    heights: tuple
    sizes: tuple

    def __post_init__(self):
        if len(self.heights) != len(self.sizes):
            raise ValueError("deltas and limits must have one group per eigenvalue")
        for group, sizes in zip(self.heights, self.sizes):
            if len(group) != len(sizes):
                raise ValueError(f"delta group {_steps(group)} does not match bounds {_steps(sizes)}")
            h0 = s0 = 0
            for h, s in zip(group, sizes):
                if not isinstance(h, int) or not 0 <= h - h0 <= s - s0:
                    raise ValueError(f"delta {h - h0} outside 0..{s - s0}")
                h0, s0 = h, s

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

    Height k may rise while it stays below both H_{k-1} + s_k - s_{k-1} and
    the next height H_{k+1} (the size s_k when k is last). A step at an
    earlier position gives the larger label, so positions are walked from
    last to first.
    """
    covers = []
    for g in reversed(range(len(a.heights))):
        group, sizes = a.heights[g], a.sizes[g]
        for k in reversed(range(len(group))):
            h0, s0 = (group[k - 1], sizes[k - 1]) if k else (0, 0)
            ceiling = group[k + 1] if k + 1 < len(group) else sizes[k]
            if group[k] < min(h0 + sizes[k] - s0, ceiling):
                raised = group[:k] + (group[k] + 1,) + group[k + 1:]
                covers.append(OrbitLabel(a.heights[:g] + (raised,) + a.heights[g + 1:], a.sizes))
    return covers


def orbit_count(jt: JordanType) -> int:
    """Total number of orbits, the product of (1 + Delta_k) over everything."""
    total = 1
    for sizes in column_sizes(jt):
        for step in _steps(sizes):
            total *= step + 1
    return total


def _column_heights(sizes: tuple) -> list:
    """Every valid height tuple of one eigenvalue, in lexicographic order."""
    rows = [(0,)]
    for s0, s in zip((0,) + sizes, sizes):
        rows = [row + (h,) for row in rows for h in range(row[-1], row[-1] + s - s0 + 1)]
    return [row[1:] for row in rows]


def enumerate_labels(jt: JordanType, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """All labels in lexicographic order of their flattened heights (equally, deltas)."""
    total = orbit_count(jt)
    if total > cap:
        raise CapExceeded(total, cap)
    sizes = column_sizes(jt)
    return [OrbitLabel(heights, sizes) for heights in itertools.product(*map(_column_heights, sizes))]


def hasse_covers(jt: JordanType, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """All covering pairs (lower, upper), in lexicographic order of the pair.

    The labels come in lexicographic order and so do the upper covers of
    each, so the flat list needs no sorting. Tests pin the pairs against the
    definition by exhaustive search for intermediates.
    """
    return [(lower, upper) for lower in enumerate_labels(jt, cap) for upper in upper_covers(lower)]
