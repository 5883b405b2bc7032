"""The finite lattice of orbit labels.

Each eigenvalue contributes an increment sequence Delta: the smallest block
size, then the successive differences of the distinct block sizes. An orbit
label assigns to each eigenvalue a delta sequence with 0 <= delta_k <=
Delta_k; its partial sums H_k are the column heights, the number of flag
steps the orbit closure occupies in the blocks of the k-th size. One label
is below another exactly when every partial sum is, so the whole lattice is
the product over eigenvalues and positions of the chains {0, ..., Delta_k},
ordered by componentwise comparison of height vectors.

Meet and join are the pointwise min and max of height vectors, and the label
set is closed under both: if G = max(H, H') with H, H' heights of valid
labels, then at position k, assuming G_k = H_k (else swap the roles), we get
G_k - G_{k-1} <= H_k - H_{k-1} <= Delta_k because G_{k-1} >= H_{k-1}; the max
of nondecreasing sequences is nondecreasing, so 0 <= G_k - G_{k-1} as well,
and the min case is symmetric. Since the order is componentwise on heights,
pointwise max and min are the least upper and greatest lower bounds.

Every cover is a single step H -> H + e_k in height coordinates, so each
label lists its own upper covers and the Hasse diagram needs no comparison
between labels. Labels store their bounds, so duality, validity and covers
need no extra context. Enumeration is guarded by a size cap; the count
(:func:`orbit_count`) never enumerates and has no cap.
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


@dataclass(frozen=True)
class IncrementSequence:
    """Per-eigenvalue combinatorial data: sizes, increments, multiplicities, tail sums."""

    eigenvalue: object
    sizes: tuple
    deltas: tuple
    multiplicities: tuple
    tail_sums: tuple

    @classmethod
    def from_blocks(cls, eigenvalue, blocks) -> "IncrementSequence":
        sizes = tuple(size for size, _ in blocks)
        mults = tuple(mult for _, mult in blocks)
        deltas = tuple(
            sizes[k] if k == 0 else sizes[k] - sizes[k - 1] for k in range(len(sizes))
        )
        tails = tuple(sum(mults[k:]) for k in range(len(mults)))
        return cls(eigenvalue, sizes, deltas, mults, tails)


def increments_from_type(jt: JordanType) -> tuple:
    return tuple(
        IncrementSequence.from_blocks(eig, blocks) for eig, blocks in jt.eigen_blocks
    )


def label_limits(jt: JordanType) -> tuple:
    return tuple(inc.deltas for inc in increments_from_type(jt))


def _partial_sums(deltas) -> tuple:
    out = []
    acc = 0
    for d in deltas:
        acc += d
        out.append(acc)
    return tuple(out)


def _differences(heights) -> tuple:
    out = []
    prev = 0
    for h in heights:
        out.append(h - prev)
        prev = h
    return tuple(out)


@dataclass(frozen=True)
class OrbitLabel:
    """One orbit, named by its per-eigenvalue delta sequences.

    ``deltas`` and ``limits`` are parallel tuples of tuples, one group per
    eigenvalue in canonical order; ``limits`` holds the increment bounds, so
    the label is self-validating.
    """

    deltas: tuple
    limits: tuple

    def __post_init__(self):
        if len(self.deltas) != len(self.limits):
            raise ValueError("deltas and limits must have one group per eigenvalue")
        for group, bounds in zip(self.deltas, self.limits):
            if len(group) != len(bounds):
                raise ValueError(f"delta group {group} does not match bounds {bounds}")
            for d, bound in zip(group, bounds):
                if not isinstance(d, int) or not 0 <= d <= bound:
                    raise ValueError(f"delta {d} outside 0..{bound}")

    def heights(self) -> tuple:
        return tuple(_partial_sums(group) for group in self.deltas)

    def is_bottom(self) -> bool:
        return all(d == 0 for group in self.deltas for d in group)

    def is_top(self) -> bool:
        return self.deltas == self.limits


def label_for(jt: JordanType, deltas) -> OrbitLabel:
    """Validate raw per-eigenvalue delta sequences against a type."""
    return OrbitLabel(tuple(tuple(group) for group in deltas), label_limits(jt))


def bottom(jt: JordanType) -> OrbitLabel:
    limits = label_limits(jt)
    return OrbitLabel(tuple(tuple(0 for _ in g) for g in limits), limits)


def top(jt: JordanType) -> OrbitLabel:
    limits = label_limits(jt)
    return OrbitLabel(limits, limits)


def _check_same(a: OrbitLabel, b: OrbitLabel):
    if a.limits != b.limits:
        raise MismatchedLabels(f"labels live in different lattices: {a.limits} vs {b.limits}")


def leq(a: OrbitLabel, b: OrbitLabel) -> bool:
    """a <= b iff every partial sum of a is <= the matching partial sum of b."""
    _check_same(a, b)
    for ga, gb in zip(a.deltas, b.deltas):
        sa = 0
        sb = 0
        for da, db in zip(ga, gb):
            sa += da
            sb += db
            if sa > sb:
                return False
    return True


def join(a: OrbitLabel, b: OrbitLabel) -> OrbitLabel:
    _check_same(a, b)
    groups = []
    for ga, gb in zip(a.deltas, b.deltas):
        ha = _partial_sums(ga)
        hb = _partial_sums(gb)
        groups.append(_differences(tuple(max(x, y) for x, y in zip(ha, hb))))
    return OrbitLabel(tuple(groups), a.limits)


def meet(a: OrbitLabel, b: OrbitLabel) -> OrbitLabel:
    _check_same(a, b)
    groups = []
    for ga, gb in zip(a.deltas, b.deltas):
        ha = _partial_sums(ga)
        hb = _partial_sums(gb)
        groups.append(_differences(tuple(min(x, y) for x, y in zip(ha, hb))))
    return OrbitLabel(tuple(groups), a.limits)


def dual(a: OrbitLabel) -> OrbitLabel:
    """Order-reversing involution: heights reflect to sizes minus heights."""
    groups = []
    for deltas, bounds in zip(a.deltas, a.limits):
        sizes = _partial_sums(bounds)
        heights = _partial_sums(deltas)
        groups.append(_differences(tuple(s - h for s, h in zip(sizes, heights))))
    return OrbitLabel(tuple(groups), a.limits)


def upper_covers(a: OrbitLabel) -> list:
    """Every label covering a, in lexicographic order: the valid steps H -> H + e_k.

    Raising height k adds 1 to delta_k and, when k is not last in its group,
    takes 1 from delta_{k+1}, so the step is valid when delta_k < Delta_k
    and, for such k, delta_{k+1} > 0. A step at an earlier position gives
    the larger label, so positions are walked from last to first.
    """
    covers = []
    for g in reversed(range(len(a.deltas))):
        group, bounds = a.deltas[g], a.limits[g]
        for k in reversed(range(len(group))):
            raised = list(group)
            raised[k] += 1
            if k + 1 < len(group):
                raised[k + 1] -= 1
            if raised[k] <= bounds[k] and min(raised) >= 0:
                covers.append(OrbitLabel(a.deltas[:g] + (tuple(raised),) + a.deltas[g + 1:], a.limits))
    return covers


def orbit_count(jt: JordanType) -> int:
    """Total number of orbits, the product of (1 + Delta_k) over everything."""
    total = 1
    for bounds in label_limits(jt):
        for d in bounds:
            total *= d + 1
    return total


def enumerate_labels(jt: JordanType, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """All labels in lexicographic order of their flattened delta sequences."""
    total = orbit_count(jt)
    if total > cap:
        raise CapExceeded(total, cap)
    limits = label_limits(jt)
    flat_bounds = [d for bounds in limits for d in bounds]
    group_lengths = [len(bounds) for bounds in limits]
    labels = []
    for combo in itertools.product(*(range(d + 1) for d in flat_bounds)):
        groups = []
        pos = 0
        for length in group_lengths:
            groups.append(combo[pos:pos + length])
            pos += length
        labels.append(OrbitLabel(tuple(groups), limits))
    return labels


def hasse_covers(jt: JordanType, cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """All covering pairs (lower, upper), in lexicographic order of the pair.

    The labels come in lexicographic order and so do the upper covers of
    each, so the flat list needs no sorting. Tests pin the pairs against the
    definition by exhaustive search for intermediates.
    """
    return [(lower, upper) for lower in enumerate_labels(jt, cap) for upper in upper_covers(lower)]
