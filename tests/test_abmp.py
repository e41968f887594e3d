"""Partitioning and mixed-precision allocation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskquant.abmp import BitAllocation, allocate, partition


def test_partition_counts():
    assert len(partition(256, 256, 128).ranges) == 2
    ragged = partition(64, 130, 128)
    assert ragged.ranges == ((0, 128), (128, 130))
    assert ragged.widths() == (128, 2)
    assert ragged.ragged_indices() == (1,)
    single = partition(64, 64, 128)
    assert single.ranges == ((0, 64),)
    assert single.ragged_indices() == (0,)


def test_partition_exact_cover():
    part = partition(8, 1000, 96)
    assert part.ranges[0][0] == 0
    assert part.ranges[-1][1] == 1000
    for (_, end), (start, _) in zip(part.ranges, part.ranges[1:]):
        assert end == start


def test_partition_validation():
    with pytest.raises(ValueError):
        partition(0, 4, 2)
    with pytest.raises(ValueError):
        partition(4, 4, 0)


def test_allocate_default_ratio_five_percent():
    alloc = allocate(np.arange(40, dtype=float), 0.05)
    assert alloc.reallocated == 2
    hist = alloc.histogram()
    assert hist == {1: 2, 2: 36, 3: 2}
    assert sum(alloc.orders) == 2 * 40


def test_allocate_small_group_count_floors_to_zero():
    alloc = allocate(np.arange(10, dtype=float), 0.05)
    assert alloc.reallocated == 0
    assert alloc.orders == (2,) * 10


def test_allocate_floor_is_exact():
    # 0.29 * 100 is 28.999... in binary floating point; the spec's floor is 29
    alloc = allocate(np.ones(100), 0.29)
    assert alloc.reallocated == 29
    assert sum(alloc.orders) == 2 * 100


def test_allocate_tie_break_by_index():
    alloc = allocate(np.ones(40), 0.05)
    assert alloc.orders[0] == 3 and alloc.orders[1] == 3
    assert alloc.orders[38] == 1 and alloc.orders[39] == 1
    assert all(b == 2 for b in alloc.orders[2:38])


def test_allocate_respects_scores():
    scores = np.array([5.0, 40.0, 1.0, 12.0, 9.0, 3.0, 30.0, 7.0, 2.0, 8.0,
                       6.0, 11.0, 4.0, 10.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0])
    alloc = allocate(scores, 0.10)  # k = 2
    three = {i for i, b in enumerate(alloc.orders) if b == 3}
    one = {i for i, b in enumerate(alloc.orders) if b == 1}
    assert three == {1, 6}  # the two largest scores
    assert one == {2, 8}    # the two smallest
    assert max(scores[i] for i in one) <= min(scores[i] for i in three)


def test_allocate_locked_groups_stay_at_two():
    scores = np.array([100.0, 1.0, 50.0, 2.0, 60.0, 70.0, 80.0, 90.0, 3.0, 4.0,
                       5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 40.0])
    alloc = allocate(scores, 0.05, locked={20})
    assert alloc.orders[20] == 2
    assert alloc.reallocated == 1  # floor(0.05 * 20 eligible)
    eligible_orders = alloc.orders[:20]
    assert sum(eligible_orders) == 2 * 20


def test_allocate_validation():
    with pytest.raises(ValueError):
        allocate([], 0.05)
    with pytest.raises(ValueError):
        allocate([1.0, -2.0], 0.05)
    with pytest.raises(ValueError):
        allocate([1.0, np.inf], 0.05)
    with pytest.raises(ValueError):
        allocate([1.0, 2.0], 0.6)


@given(
    n=st.integers(min_value=1, max_value=200),
    ratio=st.sampled_from([0.0, 0.05, 0.10, 0.15, 0.25, 0.5]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_allocate_budget_property(n, ratio, seed):
    scores = np.random.default_rng(seed).uniform(0.0, 10.0, n)
    alloc = allocate(scores, ratio)
    k = int(ratio * n)
    hist = alloc.histogram()
    assert hist[3] == hist[1] == k == alloc.reallocated
    assert sum(alloc.orders) == 2 * n


def test_allocate_permutation_equivariance():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0.0, 5.0, 60)
    perm = rng.permutation(60)
    base = allocate(scores, 0.10)
    permuted = allocate(scores[perm], 0.10)
    # distinct scores, so the assignment follows the permutation exactly
    assert tuple(np.asarray(base.orders)[perm]) == permuted.orders


def test_ratio_zero_uniform():
    alloc = allocate(np.arange(100, dtype=float), 0.0)
    assert alloc.orders == (2,) * 100
    assert isinstance(alloc, BitAllocation)
