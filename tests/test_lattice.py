import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centorbits.jordan import JordanType
from centorbits.lattice import (
    CapExceeded,
    MismatchedLabels,
    OrbitLabel,
    bottom,
    dual,
    enumerate_labels,
    hasse_covers,
    join,
    label_for,
    leq,
    meet,
    orbit_count,
    top,
)

from conftest import corpus_types

T135 = JordanType.of({0: [(1, 1), (3, 1), (5, 1)]})


def lab(jt, *groups):
    return label_for(jt, groups)


def brute_force_covers(labels):
    """Cover pairs straight from the definition: a < b with nothing in between."""
    pairs = []
    for a in labels:
        for b in labels:
            if a == b or not leq(a, b):
                continue
            if any(c != a and c != b and leq(a, c) and leq(c, b) for c in labels):
                continue
            pairs.append((a, b))
    return pairs


def test_limits_are_the_size_steps():
    assert top(T135).limits == ((1, 2, 2),)
    assert top(JordanType.of({0: [(6, 1)]})).limits == ((6,),)
    assert top(JordanType.of({0: [(2, 1), (3, 1), (7, 1)]})).limits == ((2, 1, 4),)


def test_label_validation():
    with pytest.raises(ValueError):
        lab(T135, (2, 0, 0))
    with pytest.raises(ValueError):
        lab(T135, (0, 0))
    lab(T135, (1, 2, 2))  # top is fine


def test_leq_examples():
    bot = bottom(T135)
    for label in enumerate_labels(T135):
        assert leq(bot, label)
    a, b = lab(T135, (0, 2, 2)), lab(T135, (1, 0, 0))
    assert not leq(a, b) and not leq(b, a)
    assert leq(lab(T135, (1, 1, 1)), lab(T135, (1, 2, 1)))


def test_leq_rejects_labels_from_other_types():
    with pytest.raises(MismatchedLabels):
        leq(bottom(T135), bottom(JordanType.of({0: [(3, 1)]})))


def test_meet_join_frozen_examples():
    a, b = lab(T135, (0, 2, 2)), lab(T135, (1, 0, 0))
    assert join(a, b) == lab(T135, (1, 1, 2))
    assert meet(a, b) == lab(T135, (0, 1, 0))
    x = lab(T135, (1, 0, 2))
    assert join(x, bottom(T135)) == x
    assert meet(x, top(T135)) == x


def test_meet_join_against_exhaustive_bound_search():
    labels = enumerate_labels(T135)
    for a in labels[::3]:
        for b in labels[::2]:
            uppers = [c for c in labels if leq(a, c) and leq(b, c)]
            least_upper = [c for c in uppers if all(leq(c, d) for d in uppers)]
            assert least_upper == [join(a, b)]
            lowers = [c for c in labels if leq(c, a) and leq(c, b)]
            greatest_lower = [c for c in lowers if all(leq(d, c) for d in lowers)]
            assert greatest_lower == [meet(a, b)]


def test_enumerate_counts_and_order():
    labels = enumerate_labels(T135)
    assert len(labels) == 18
    assert labels == sorted(labels, key=lambda l: l.deltas)
    for n in range(1, 6):
        chain = enumerate_labels(JordanType.of({0: [(n, 1)]}))
        assert len(chain) == n + 1
        for a, b in zip(chain, chain[1:]):
            assert leq(a, b)
    boolean = enumerate_labels(JordanType.of({1: [(1, 1)], 2: [(1, 1)]}))
    assert len(boolean) == 4


def test_count_law_over_corpus():
    for jt in corpus_types():
        assert len(enumerate_labels(jt)) == orbit_count(jt)


def test_enumeration_cap():
    big = JordanType.of({0: [(10**6, 1)]})
    with pytest.raises(CapExceeded) as err:
        enumerate_labels(big)
    assert err.value.count == 10**6 + 1
    assert err.value.cap == 10**6


def test_hasse_cover_examples():
    covers = set(hasse_covers(T135))
    assert (lab(T135, (0, 0, 0)), lab(T135, (0, 0, 1))) in covers
    assert (lab(T135, (1, 2, 1)), lab(T135, (1, 2, 2))) in covers
    assert (lab(T135, (1, 1, 2)), lab(T135, (1, 2, 1))) in covers
    for n in range(1, 6):
        assert len(hasse_covers(JordanType.of({0: [(n, 1)]}))) == n


# digits past 9, and a cover that moves a unit between positions: 0,1 -> 1,0
WIDE_STEP = JordanType.of({0: [(1, 1), (12, 1)]})


def test_hasse_covers_match_brute_force():
    def pair_order(pair):
        return pair[0].deltas, pair[1].deltas

    assert (lab(WIDE_STEP, (0, 1)), lab(WIDE_STEP, (1, 0))) in hasse_covers(WIDE_STEP)
    for jt in [JordanType.of({0: [(1, 2), (2, 1)], 1: [(2, 2)]}), WIDE_STEP] + corpus_types():
        labels = enumerate_labels(jt)
        covers = hasse_covers(jt)
        assert covers == sorted(covers, key=pair_order)
        assert covers == sorted(brute_force_covers(labels), key=pair_order)


def test_dual_examples():
    assert dual(bottom(T135)) == top(T135)
    assert dual(top(T135)) == bottom(T135)
    labels = enumerate_labels(T135)
    for a in labels:
        assert dual(dual(a)) == a
        # defining via reflected heights agrees with componentwise complement
        assert dual(a).deltas == tuple(
            tuple(bound - d for d, bound in zip(group, bounds))
            for group, bounds in zip(a.deltas, a.limits)
        )
    for a in labels:
        for b in labels:
            if leq(a, b):
                assert leq(dual(b), dual(a))


def test_lattice_laws_exhaustive_on_flagship_lattice():
    labels = enumerate_labels(T135)
    for a in labels:
        assert meet(a, a) == a and join(a, a) == a
        for b in labels:
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert join(a, meet(a, b)) == a
            assert meet(a, join(a, b)) == a
            assert leq(a, b) == (meet(a, b) == a)
    for a in labels[::2]:
        for b in labels:
            for c in labels:
                assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
                assert join(meet(a, b), c) == meet(join(a, c), join(b, c))


def test_heights_stay_between_zero_and_sizes():
    for jt in corpus_types()[:6]:
        for label in enumerate_labels(jt):
            for (_, blocks), heights in zip(jt.eigen_blocks, label.heights):
                for h, (size, _) in zip(heights, blocks):
                    assert 0 <= h <= size


@st.composite
def type_and_labels(draw):
    num = draw(st.integers(1, 2))
    blocks = {}
    for e in range(num):
        count = draw(st.integers(1, 3))
        sizes = sorted(draw(st.sets(st.integers(1, 6), min_size=count, max_size=count)))
        blocks[e] = [(s, draw(st.integers(1, 2))) for s in sizes]
    jt = JordanType.of(blocks)
    limits = top(jt).limits

    def draw_label():
        return label_for(jt, [[draw(st.integers(0, b)) for b in bounds] for bounds in limits])

    return draw_label(), draw_label(), draw_label()


@given(type_and_labels())
@settings(deadline=None, max_examples=60)
def test_lattice_laws_random(triple):
    a, b, c = triple
    assert leq(meet(a, b), a) and leq(a, join(a, b))
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert dual(dual(a)) == a
    if leq(a, b) and leq(b, c):
        assert leq(a, c)
    if leq(a, b) and leq(b, a):
        assert a == b


def test_label_needs_one_group_per_eigenvalue():
    with pytest.raises(ValueError, match="deltas and limits must have one group per eigenvalue"):
        OrbitLabel(((0,),), ((1,), (1,)))


@pytest.mark.parametrize("heights, sizes, error, message", [
    ([[1, 2]], [[2, 3]], TypeError, "heights [[1, 2]] and sizes [[2, 3]] must be tuples"),
    (([1, 2],), ((2, 3),), TypeError, "height group [1, 2] and size group (2, 3) must be tuples"),
    (((1, 2),), ([2, 3],), TypeError, "height group (1, 2) and size group [2, 3] must be tuples"),
    (((0,),), ((0,),), ValueError, "sizes (0,) must be >= 1 and strictly increase"),
    (((1, 1),), ((2, 2),), ValueError, "sizes (2, 2) must be >= 1 and strictly increase"),
    (((1,),), ((1.5,),), TypeError, "size 1.5 must be an int"),
    (((1,),), ((True,),), TypeError, "size True must be an int"),
    ((), (), ValueError, "deltas and limits must have one group per eigenvalue, and at least one group"),
    (((),), ((),), ValueError, "an eigenvalue needs at least one block size"),
], ids=["lists", "list-heights", "list-sizes", "size-0", "repeated-size", "float-size", "bool-size",
        "no-eigenvalue", "no-size"])
def test_a_label_no_jordan_type_can_have_is_refused(heights, sizes, error, message):
    with pytest.raises(error, match=re.escape(message)):
        OrbitLabel(heights, sizes)


@pytest.mark.parametrize("height", ["1", 1.0, True], ids=repr)
def test_a_height_that_is_no_int_is_refused_by_type(height):
    # a str has no difference to check, and 1.0 and True compare as ints: each is refused by its type
    with pytest.raises(TypeError, match=re.escape(f"height {height!r} must be an int")):
        OrbitLabel(((height,),), ((1,),))
