"""Partition combinatorics and the finite weight grids W_n.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  The canonical index order used
for coefficient vectors everywhere in this package is reverse-lexicographic:
for weight 4 that is (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Partition = tuple[int, ...]

#: Canonical order of the partitions of 4 (reverse-lexicographic).
PARTITIONS_4: tuple[Partition, ...] = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k in reverse-lexicographic order.

    Raises ``ValueError`` for negative k.  ``len(partitions_of(k))`` is the
    partition number pi(k).
    """
    if k < 0:
        raise ValueError("partitions of a negative integer do not exist")

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(k, k))


GridPoint = tuple[Fraction, ...]


def w_grid(n: int, d: int) -> list[GridPoint]:
    """The grid W_n: d-tuples of nonnegative multiples of 1/n summing to 1.

    Zero coordinates are included.  For d = 2 there are exactly n+1 points.
    """
    if n < 1 or d < 1:
        raise ValueError("w_grid requires n >= 1 and d >= 1")

    def gen(slots: int, remaining: int):
        if slots == 1:
            yield (Fraction(remaining, n),)
            return
        for j in range(remaining + 1):
            for rest in gen(slots - 1, remaining - j):
                yield (Fraction(j, n),) + rest

    return list(gen(d, n))
