"""Decoding a subexcedant sequence back to its permutation.

The encoder in permcode.slices needs the permutation to know the interval
endpoints, but the *shape* of a slice survives in its code: which labels
exist, in what order, and how many values the profile gaps between them
cover.  That shape is enough to recover the Lehmer code of the decoded
permutation, entry by entry.

Concretely, a segment chain mirrors a slice and its interleaved profile as
one alternating top-to-bottom list of segments:

    [profile?] slice profile slice profile ... slice

where the leading profile segment exists exactly while the maximum value n
has been consumed already, and the final slice segment is the one holding
0.  Slice segments carry their labels; profile segments carry how many
values they cover.  Interval endpoints are not representable here: a SPLIT
divides an interval at a value the decoder has not determined yet, so only
labels and coverage counts are maintained (their sums grow by one per
step, hitting i after step i).

Step i of the decode locates the slice segment labeled s_i.  Every value
inside a profile segment above it is larger than p_i and sits to its left,
so the number of such values is exactly the Lehmer entry L(p)_i.  The
chain is then rewritten by the case classification of the code
(permcode.slices.code_cases) and relabeled exactly like the encoder
relabels intervals.  After n steps the collected Lehmer entries decode to
the permutation.

slice_decode runs these steps on a leaner state: the sorted list of live
labels (permcode._blist.container), where the slice index of s_i is its
rank and the label rule is the encoder's, and the profile counts alone,
one per slice (_Gaps).  A step costs O(log n) plus C-level work on a
bucket of fewer than 2 * _LOAD entries.  The explicit chain, which replays
the decode in Θ(n²) and checks it against the slices and profiles of the
result, lives with the test oracles (tests/oracles.py).
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _blist
from . import _fenwick as fenwick
from .core import Word, check_subexcedant
from .lehmer import _lehmer_decode
from .slices import SHRINK_BOTTOM, SHRINK_TOP, SPLIT, _code_cases, relabel

__all__ = ["slice_decode"]

# A bucket of _Gaps splits in half when it reaches 2 * _LOAD counts.
_LOAD = 1000


class _Gaps:
    """The profile counts of the segment chain, one per slice segment.

    gaps[v] is the number of values covered by the profile segment directly
    above slice v; gaps[0] is the top profile, 0 while there is none.  The
    counts live in buckets with per-bucket sums.  Once there is more than
    one bucket, Fenwick trees over the bucket lengths and sums find the
    bucket of a position and the sum before it in O(log n).
    """

    def __init__(self) -> None:
        self._lists = [[0]]
        self._sums = [0]
        self._lens_tree: list[int] | None = None
        self._sums_tree: list[int] | None = None

    def top(self) -> int:
        return self._lists[0][0]

    def step(self, case: int, v: int, entry: int) -> int:
        """Values covered above slice v; then the `case` rewrite there.

        The chain rewrite of the module docstring, with its assertions,
        for code entry `entry` located at slice v.
        """
        lists = self._lists
        if self._lens_tree is None:
            b, j = 0, v
        else:
            b, j = fenwick.select(self._lens_tree, v)
        bucket = lists[b]
        if 2 * j < len(bucket):
            above = sum(bucket[: j + 1])
        else:
            above = self._sums[b] - sum(bucket[j + 1 :])
        if b:
            above += fenwick.prefix(self._sums_tree, b)
        if case == SPLIT:
            bucket.insert(j + 1, 1)
            self._resized(b, 1, 1)
            return above
        if case & SHRINK_TOP:
            # the consumed value tops its interval; it is n exactly when
            # slice v is the chain's top, which happens exactly on label 0
            assert (v == 0 and bucket[0] == 0) == (entry == 0), (v, entry)
            if case == SHRINK_TOP:
                bucket[j] += 1
                self._resized(b, 0, 1)
                return above
        # SHRINK_BOTTOM and REMOVE: the freed minimum adjoins the profile
        # below, which exists: slice v held a value above 0, so it is not
        # the last slice
        nb, nj = (b, j + 1) if j + 1 < len(bucket) else (b + 1, 0)
        assert nb < len(lists), (v, entry)
        if case == SHRINK_BOTTOM:
            lists[nb][nj] += 1
            self._resized(nb, 0, 1)
        else:
            below = lists[nb].pop(nj)
            bucket[j] += 1 + below
            self._resized(b, 0, 1 + below)
            self._resized(nb, -1, -below)
        return above

    def _resized(self, b: int, length: int, total: int) -> None:
        """Bucket b changed by `length` counts summing to `total`."""
        self._sums[b] += total
        bucket = self._lists[b]
        if bucket and len(bucket) < 2 * _LOAD:
            if self._lens_tree is not None:
                fenwick.add(self._lens_tree, b, length)
                fenwick.add(self._sums_tree, b, total)
            return
        if bucket:  # split in half
            half = bucket[_LOAD:]
            del bucket[_LOAD:]
            self._lists.insert(b + 1, half)
            self._sums.insert(b + 1, sum(half))
            self._sums[b] -= self._sums[b + 1]
        else:
            del self._lists[b], self._sums[b]
        if len(self._lists) == 1:
            self._lens_tree = self._sums_tree = None
        else:
            self._lens_tree = fenwick.build(map(len, self._lists))
            self._sums_tree = fenwick.build(self._sums)


def slice_decode(seq: Sequence[int]) -> Word:
    """Inverse of permcode.slices.slice_encode.

    Runs on the shape of the chain alone (see the module docstring): the
    rank of each code entry among the live labels is its slice index, and
    _Gaps gives the profile counts above it.

    >>> slice_decode((0, 1, 1, 0, 2, 3, 6, 3))
    (6, 2, 5, 8, 7, 3, 1, 4)
    >>> slice_decode((0, 0, 0, 0))
    (1, 2, 3, 4)
    >>> slice_decode((0, 1, 2, 3))
    (4, 3, 2, 1)
    """
    word = tuple(seq)
    check_subexcedant(word)
    return _decode(word)


def _decode(word: Word) -> Word:
    """slice_decode of a word already known to be subexcedant."""
    cases = _code_cases(word)
    n = len(word)
    live = _blist.container([0], n)
    rank = _blist.ranker(live)
    gaps = _Gaps()
    # from step last_zero + 2 on no 0 remains in the code, i.e. the value
    # n is consumed already and the chain starts with a profile segment
    last_zero = n - 1 - word[::-1].index(0)
    code = []
    for i, entry in enumerate(word):
        v = rank(live, entry)
        # entry is a live label; the last one is i, so v is in range
        assert live[v] == entry, (word, i)
        assert (i > last_zero) == (gaps.top() > 0), (word, i)
        code.append(gaps.step(cases[i], v, entry))
        relabel(live, cases[i], v, i + 1)
    return _lehmer_decode(tuple(code))
