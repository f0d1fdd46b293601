"""Fenwick trees over plain lists (Fenwick, SP&E 24(3), 1994).

A tree for counts c_0 .. c_{m-1} is a list of length m + 1 whose slot 0 is
unused; element k lives at slot k + 1.  Point update, prefix sum and
order-statistic select each take O(log m) steps.  lehmer_encode counts on
one; _blist._BList and inverse._Gaps find their buckets on one, and _Gaps
sums the profile counts of the buckets before one on another.
"""

from __future__ import annotations

from collections.abc import Iterable


def build(values: Iterable[int]) -> list[int]:
    """A tree holding the given counts, built in linear time."""
    tree = [0, *values]
    size = len(tree)
    for i in range(1, size):
        j = i + (i & -i)
        if j < size:
            tree[j] += tree[i]
    return tree


def add(tree: list[int], k: int, delta: int) -> None:
    """c_k += delta."""
    k += 1
    size = len(tree)
    while k < size:
        tree[k] += delta
        k += k & -k


def prefix(tree: list[int], k: int) -> int:
    """c_0 + ... + c_{k-1}."""
    total = 0
    while k:
        total += tree[k]
        k &= k - 1
    return total


def select(tree: list[int], rank: int) -> tuple[int, int]:
    """The k with c_0 + ... + c_{k-1} <= rank < c_0 + ... + c_k, and
    rank - (c_0 + ... + c_{k-1}).

    For bucket lengths these are the bucket holding position `rank` and
    the position within it.  The counts must be nonnegative and sum past
    rank.
    """
    size = len(tree)
    pos = 0
    bit = 1 << (size - 1).bit_length() - 1
    while bit:
        nxt = pos + bit
        if nxt < size and tree[nxt] <= rank:
            pos = nxt
            rank -= tree[nxt]
        bit >>= 1
    return pos, rank
