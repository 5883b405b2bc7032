"""Seeded benchmark inputs with planted answers.

Every input is built from a Jordan type chosen here (the planted type). A
matrix input is T = S J S^-1, where J is the canonical block matrix of the
planted type and S is a product of integer transvections, so S^-1 is integer
too and T has small entries. A vector input is S g r, where r is a 0/1
vector whose orbit label is planted and g is a random unipotent element of
the centralizer of J, built here from the shift operators. g and S carry the
orbit of r to an orbit of T with the same label, so the label of S g r is
known whatever chain basis the program picks.

Nothing in this module imports centorbits: the facts the benchmark checks
(types, labels, counts, generating functions, cover counts) are computed
from the planted data alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

SMALL_INTS = (-7, -5, -3, -2, 2, 3, 5, 7)
FRACTIONS = tuple(Fraction(a, b) for a, b in ((1, 2), (-3, 2), (5, 2), (1, 3), (-2, 3), (4, 3)))
# 4- and 5-digit primes: rational-root search must divide them out of the
# constant term of the characteristic polynomial.
PRIMES = (1009, 2003, 4001, 6007, 8009, 10007, 20011, 40009, 60013, 80021)


# -- planted Jordan types --------------------------------------------------


def eig_key(eig):
    """Canonical eigenvalue order of the program's output format."""
    if isinstance(eig, Fraction):
        return (0, eig.numerator, eig.denominator)
    return (1, str(eig))


def make_type(pairs):
    """Planted type: ((eigenvalue, ((size, mult), ...)), ...) in canonical order."""
    return tuple(
        (eig, tuple(sorted(blocks)))
        for eig, blocks in sorted(pairs, key=lambda p: eig_key(p[0]))
    )


def dimension(jt) -> int:
    return sum(size * mult for _, blocks in jt for size, mult in blocks)


def increments(blocks) -> tuple:
    sizes = [s for s, _ in blocks]
    return tuple(s if k == 0 else s - sizes[k - 1] for k, s in enumerate(sizes))


def tail_sums(blocks) -> tuple:
    mults = [m for _, m in blocks]
    return tuple(sum(mults[k:]) for k in range(len(mults)))


def orbit_count(jt) -> int:
    total = 1
    for _, blocks in jt:
        for d in increments(blocks):
            total *= d + 1
    return total


def gen_function(jt) -> list:
    """Coefficients of prod over (Delta, M) of 1 + x^M + ... + x^(Delta M)."""
    poly = [1]
    for _, blocks in jt:
        for d, m in zip(increments(blocks), tail_sums(blocks)):
            out = [0] * (len(poly) + d * m)
            for i, c in enumerate(poly):
                for k in range(d + 1):
                    out[i + k * m] += c
            poly = out
    return poly


def centralizer_dimension(jt) -> int:
    return sum(
        min(i, j) * mi * mj
        for _, blocks in jt
        for i, mi in blocks
        for j, mj in blocks
    )


def _valid_heights(deltas):
    """All height vectors H with 0 <= H_k - H_(k-1) <= Delta_k."""
    out = [()]
    for d in deltas:
        out = [h + ((h[-1] if h else 0) + step,) for h in out for step in range(d + 1)]
    return out


def _heights_valid(h, deltas) -> bool:
    prev = 0
    for x, d in zip(h, deltas):
        if not 0 <= x - prev <= d:
            return False
        prev = x
    return True


def cover_count(jt) -> int:
    """#{(H, i) : H and H + e_i are both labels}, counted in height coordinates."""
    groups = [increments(blocks) for _, blocks in jt]
    sizes = [orbit_count(((None, blocks),)) for _, blocks in jt]
    total = 0
    for g, deltas in enumerate(groups):
        ups = 0
        for h in _valid_heights(deltas):
            for i in range(len(h)):
                bumped = h[:i] + (h[i] + 1,) + h[i + 1:]
                ups += _heights_valid(bumped, deltas)
        others = 1
        for k, size in enumerate(sizes):
            if k != g:
                others *= size
        total += ups * others
    return total


def label_name(jt, deltas) -> str:
    """The CLI's label string for per-eigenvalue delta groups."""
    groups = []
    for (_, blocks), group in zip(jt, deltas):
        sep = "" if all(b <= 9 for b in increments(blocks)) else ","
        groups.append(sep.join(str(d) for d in group))
    return "|".join(groups)


def label_dimension(jt, deltas) -> int:
    return sum(
        d * m
        for (_, blocks), group in zip(jt, deltas)
        for d, m in zip(group, tail_sums(blocks))
    )


def random_label(rng, jt) -> tuple:
    return tuple(tuple(rng.randint(0, d) for d in increments(blocks)) for _, blocks in jt)


def jordan_doc(jt) -> dict:
    return {
        "jordan": [
            {"eigenvalue": str(eig), "blocks": [list(b) for b in blocks]}
            for eig, blocks in jt
        ]
    }


# -- chains of the canonical block matrix ----------------------------------


def chains(jt) -> list:
    """(eigenvalue, size, offset) per chain: eigenvalue, then size, then index."""
    out = []
    offset = 0
    for eig, blocks in jt:
        for size, mult in blocks:
            for _ in range(mult):
                out.append((eig, size, offset))
                offset += size
    return out


def canonical_matrix(jt) -> list:
    """J with eigenvalues on the diagonal and 1s on the subdiagonal."""
    n = dimension(jt)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for eig, size, off in chains(jt):
        for k in range(size):
            rows[off + k][off + k] = Fraction(eig)
        for k in range(size - 1):
            rows[off + k + 1][off + k] = Fraction(1)
    return rows


def representative(jt, deltas) -> list:
    """0/1 chain coordinates with the given label: one 1 per nonzero column height."""
    coords = [0] * dimension(jt)
    first = {}
    for eig, size, off in chains(jt):
        first.setdefault((eig, size), off)
    for (eig, blocks), group in zip(jt, deltas):
        height = 0
        for (size, _), d in zip(blocks, group):
            height += d
            if height:
                coords[first[(eig, size)] + size - height] = 1
    return coords


def unipotent_centralizer_element(rng, jt) -> list:
    """I plus a random combination of the shift operators in the radical.

    A shift operator sends the generator of a source chain to N^t of the
    generator of a target chain of the same eigenvalue, with
    t >= target size - source size. Leaving out the t = 0 maps between
    chains of one size leaves a nilpotent part, so the sum is invertible.
    """
    n = dimension(jt)
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    cs = chains(jt)
    for s_eig, s_size, s_off in cs:
        for t_eig, t_size, t_off in cs:
            if s_eig != t_eig:
                continue
            for t in range(max(0, t_size - s_size), t_size):
                if t == 0 and s_size == t_size:
                    continue
                c = rng.choice((-1, 0, 0, 1))
                if not c:
                    continue
                for a in range(s_size):
                    if t + a < t_size:
                        g[t_off + t + a][s_off + a] += c
    return g


# -- conjugation -----------------------------------------------------------


def transvections(rng, n, count):
    """(i, j, c): add c times row j to row i; their product S is unimodular."""
    out = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        out.append((i, j, rng.choice((-1, 1))))
    return out


def conjugate(jmat, ops) -> list:
    """S J S^-1 for S = E_1 E_2 ... E_k, each E adding c * row j to row i.

    S A = E_1 (... (E_k A)) and A S^-1 = ((A E_k^-1) ...) E_1^-1; the inverse
    of adding c * row j to row i, applied on the right, subtracts c * column i
    from column j.
    """
    a = [list(r) for r in jmat]
    n = len(a)
    for i, j, c in reversed(ops):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for i, j, c in reversed(ops):
        for r in range(n):
            a[r][j] -= c * a[r][i]
    return a


def apply_s(ops, vec) -> list:
    v = list(vec)
    for i, j, c in reversed(ops):
        v[i] += c * v[j]
    return v


def conjugator_size(ops, n) -> int:
    """Largest absolute entry of S and of S^-1."""
    big = 0
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        big = max(big, max(abs(x) for x in apply_s(ops, unit)))
        for i, k, c in ops:  # S^-1 = E_k^-1 ... E_1^-1
            unit[i] -= c * unit[k]
        big = max(big, max(abs(x) for x in unit))
    return big


def bit_size(m) -> int:
    return sum(
        abs(x.numerator).bit_length() + x.denominator.bit_length() for row in m for x in row
    )


def matvec(m, v) -> list:
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def entry_text(x) -> object:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else str(x)


# -- planted matrices ------------------------------------------------------


class PlantedMatrix:
    """A matrix T = S J S^-1 with planted vectors and their labels."""

    def __init__(self, rng, jt, vectors):
        self.jt = jt
        self.n = dimension(jt)
        jmat = canonical_matrix(jt)
        # S is drawn within a narrow entry band, and of seven such draws the
        # one with the median total entry size of T is kept, so every seed
        # gives matrices of comparable size and cost.
        drawn = []
        for _ in range(2000):
            ops = transvections(rng, self.n, 2 * self.n)
            if 2 <= conjugator_size(ops, self.n) <= 4:
                t = conjugate(jmat, ops)
                drawn.append((bit_size(t), len(drawn), ops, t))
                if len(drawn) == 7:
                    break
        else:
            raise RuntimeError("no conjugator within the entry band")
        _, _, ops, t = sorted(drawn)[3]
        self.ops = ops
        self.matrix = t
        self.doc = {"matrix": [[entry_text(x) for x in row] for row in self.matrix]}
        self.vectors = self.plant_vectors(rng, vectors)

    def plant_vectors(self, rng, count) -> list:
        """(vector, planted label) pairs: S g r with r of a random label."""
        out = []
        for _ in range(count):
            deltas = random_label(rng, self.jt)
            g = unipotent_centralizer_element(rng, self.jt)
            out.append((apply_s(self.ops, matvec(g, representative(self.jt, deltas))), deltas))
        return out


def pick_eigenvalues(rng, kinds) -> list:
    """Distinct eigenvalues, one per kind: 'int', 'frac', 'prime' or 'zero'."""
    out = []
    for kind in kinds:
        pool = {"int": SMALL_INTS, "frac": FRACTIONS, "prime": PRIMES, "zero": (0,)}[kind]
        choices = [Fraction(x) for x in pool if Fraction(x) not in out]
        out.append(rng.choice(choices))
    return out


def digest(obj) -> str:
    """Short sha256 of a JSON rendering of generated inputs."""
    text = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rng_for(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")
