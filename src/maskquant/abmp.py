"""Blockwise mixed-precision assignment over column groups.

Each layer's columns are tiled into fixed-width groups. Given a score per
group, the top-k are promoted to 3 binary terms and the bottom-k demoted to
1, with k = floor(ratio * eligible groups), so the mean order over eligible
groups stays exactly 2. A ragged tail group (narrower than the group width)
can be locked to order 2 so the budget arithmetic stays exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def floor_fraction(ratio: float, n: int) -> int:
    """floor(ratio * n), exact for the decimal that `ratio` prints as.

    Binary floating point would give int(0.29 * 100) == 28.
    """
    return int(Fraction(str(float(ratio))) * n)


@dataclass(frozen=True)
class GroupPartition:
    rows: int
    cols: int
    group_width: int
    ranges: tuple[tuple[int, int], ...]  # disjoint, ordered, covering [0, cols)

    def widths(self) -> tuple[int, ...]:
        return tuple(end - start for start, end in self.ranges)

    def ragged_indices(self) -> tuple[int, ...]:
        """Indices of groups narrower than the nominal width (at most the last)."""
        return tuple(
            i for i, w in enumerate(self.widths()) if w != self.group_width
        )


def partition(rows: int, cols: int, group_width: int = 128) -> GroupPartition:
    """Tile columns into ceil(cols / group_width) contiguous groups."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if group_width < 1:
        raise ValueError("group_width must be positive")
    ranges = tuple(
        (start, min(start + group_width, cols)) for start in range(0, cols, group_width)
    )
    return GroupPartition(rows=rows, cols=cols, group_width=group_width, ranges=ranges)


@dataclass(frozen=True)
class BitAllocation:
    orders: tuple[int, ...]  # one of {1, 2, 3} per group
    reallocated: int         # k: groups promoted to 3 (= groups demoted to 1)

    def histogram(self) -> dict[int, int]:
        return {b: self.orders.count(b) for b in (1, 2, 3)}


def allocate(scores, ratio: float, locked=()) -> BitAllocation:
    """Assign orders from scores.

    Groups are ranked by score descending, ties broken by ascending index;
    the top k get order 3 and the bottom k order 1, k = floor(ratio * number
    of unlocked groups). Locked groups always keep order 2 and do not count
    toward k.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a nonempty 1-D sequence")
    if not np.isfinite(scores).all() or (scores < 0).any():
        raise ValueError("scores must be finite and non-negative")
    if not 0.0 <= ratio <= 0.5:
        raise ValueError("ratio must be in [0, 0.5]")
    locked = frozenset(locked)
    eligible = [i for i in range(scores.size) if i not in locked]
    k = floor_fraction(ratio, len(eligible))
    ranked = sorted(eligible, key=lambda i: (-scores[i], i))
    orders = [2] * scores.size
    for i in ranked[:k]:
        orders[i] = 3
    for i in ranked[len(ranked) - k :]:
        orders[i] = 1
    return BitAllocation(orders=tuple(orders), reallocated=k)
