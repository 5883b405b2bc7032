"""Explicit basis of the algebra of operators commuting with a fixed matrix.

In chain coordinates, a commuting operator decomposes into maps between
chains of the same eigenvalue. For a source chain of size i and a target
chain of size i', the commuting maps between them are spanned by "shift"
operators indexed by an exponent t: send the source generator v to N^t w,
where w generates the target chain and N = T - lambda, and extend along the
chains (N^a v goes to N^{t+a} w, dropping off the end of the target chain).
Annihilation forces t >= i' - i, so t ranges over max(0, i'-i) .. i'-1 and
each ordered chain pair contributes min(i, i') basis operators. Chains of
distinct eigenvalues admit no nonzero commuting maps at all.

A basis operator is kept as its (source, target, shift) tag alone; its 0/1
matrix in chain coordinates is ``shift_operator_rows``. Only a sampled
combination is conjugated by the chain basis into the original coordinates,
once per sample, so that it acts directly on raw input vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .jordan import ChainSlot, JordanBasis, JordanType, chain_slots
from .linalg import Matrix


class CentralizerOperator(NamedTuple):
    """One shift operator, in chain coordinates: source generator to N^shift target."""

    source: ChainSlot
    target: ChainSlot
    shift: int


@dataclass(frozen=True)
class CentralizerBasis:
    basis: JordanBasis
    operators: tuple  # CentralizerOperator tags, in shift_tags order


def shift_tags(jt: JordanType) -> tuple:
    """All shift operators of the type, ordered by source, target, shift."""
    slots = chain_slots(jt)
    tags = []
    for src in slots:
        for tgt in slots:
            if src.eigenvalue != tgt.eigenvalue:
                continue
            for t in range(max(0, tgt.size - src.size), tgt.size):
                tags.append(CentralizerOperator(src, tgt, t))
    return tuple(tags)


def shift_operator_rows(n: int, source: ChainSlot, target: ChainSlot, shift: int) -> tuple:
    """The 0/1 matrix of one shift operator in chain coordinates, as row tuples."""
    rows = [[0] * n for _ in range(n)]
    for a in range(source.size):
        if shift + a < target.size:
            rows[target.offset + shift + a][source.offset + a] = 1
    return tuple(tuple(r) for r in rows)


def centralizer_basis(basis: JordanBasis) -> CentralizerBasis:
    return CentralizerBasis(basis, shift_tags(basis.jordan_type))


def centralizer_dimension(jt: JordanType) -> int:
    """Sum of min(i, i') * m_i * m_i' over same-eigenvalue size pairs."""
    total = 0
    for _, blocks in jt.eigen_blocks:
        for i, mi in blocks:
            for j, mj in blocks:
                total += min(i, j) * mi * mj
    return total


def sample_invertible(cb: CentralizerBasis, rng_seed: int) -> Matrix:
    """A random invertible integer combination of the basis operators.

    Coefficients are drawn uniformly from [-9, 9]; the coefficient of each
    diagonal shift-0 operator (these sum to the identity) is forced nonzero.
    Generic combinations are invertible, so a handful of retries suffices;
    the draw sequence is fully determined by the seed. The combination is
    summed and tested for invertibility in chain coordinates, and only the
    accepted one is conjugated into the original coordinates.
    """
    rng = random.Random(rng_seed)
    n = cb.basis.dimension
    for _ in range(64):
        acc = [[0] * n for _ in range(n)]
        for op in cb.operators:
            c = rng.randint(-9, 9)
            if op.source == op.target and op.shift == 0:
                while c == 0:
                    c = rng.randint(-9, 9)
            if c:
                rows = shift_operator_rows(n, *op)
                acc = [[a + c * x for a, x in zip(ra, rx)] for ra, rx in zip(acc, rows)]
        chain_form = Matrix(acc)
        if chain_form.rank() == n:
            return cb.basis.transform @ chain_form @ cb.basis.inverse_transform
    raise RuntimeError("no invertible combination found in 64 attempts; this is a bug")
