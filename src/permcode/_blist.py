"""A positional list of ints in buckets, for the codec kernels on long words.

The layout is that of sortedcontainers' SortedList (Jenks,
https://grantjenks.com/docs/sortedcontainers/implementation.html), cut
down to what the kernels call: the entries live in a list of buckets, a
Fenwick tree over the bucket lengths finds the bucket of a position, and
the bucket maxima find the bucket of a value while the entries are sorted.
An insertion, deletion or lookup then costs O(log n) plus a C-level move
of at most 2 * _LOAD pointers, where a plain list moves O(n) of them.

Below 2 * _LOAD entries no bucket would ever split, so container() hands
the kernels a plain list, whose C methods are faster; the kernels are
written once against the operations both types share, plus ranker().
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable

from . import _fenwick as fenwick

# Buckets are built with _LOAD entries and split in half at 2 * _LOAD.  On
# words of 10^5 and 10^6 loads of 2000 and 4000 timed alike and 8000
# encoded 17% slower; the larger load keeps the plain lists, which are
# faster there, up to n = 8000.
_LOAD = 4000


def container(values: Iterable[int], n: int) -> list[int] | _BList:
    """The values in a list for a kernel on words of length n: a plain
    list when no list of at most n entries outgrows one bucket, else a
    _BList."""
    return list(values) if n < 2 * _LOAD else _BList(values)


def ranker(seq: list[int] | _BList) -> Callable:
    """rank(seq, x), the number of entries of the sorted seq below x."""
    return bisect_left if type(seq) is list else _BList.rank


class _BList:
    """A list of ints in buckets of fewer than 2 * _LOAD entries.

    _lists holds the buckets, never empty except as the only one; _maxes
    their last entries, which are their maxima while the entries are
    sorted; _index a Fenwick tree of their lengths; _len the length.  The
    kernels mostly look a position up twice in a row, to rank or read it
    and then change it, so the last position found through the index is
    kept as _hint = (position, bucket, position in it) until an insertion
    or deletion moves it.
    """

    __slots__ = ("_lists", "_maxes", "_index", "_len", "_hint")

    def __init__(self, values: Iterable[int]) -> None:
        values = list(values)
        self._lists = [
            values[k : k + _LOAD] for k in range(0, len(values), _LOAD)
        ] or [[]]
        self._maxes = [bucket[-1] for bucket in self._lists if bucket]
        self._index = fenwick.build(map(len, self._lists))
        self._len = len(values)
        self._hint = (-1, 0, 0)

    def __len__(self) -> int:
        return self._len

    def _locate(self, i: int) -> tuple[int, int]:
        """(bucket, position in it) of list position i, as list indexes."""
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("_BList index out of range")
        lists = self._lists
        if i < len(lists[0]):
            return 0, i
        last = self._len - len(lists[-1])
        if i >= last:
            return len(lists) - 1, i - last
        hint = self._hint
        if hint[0] == i:
            return hint[1], hint[2]
        b, j = fenwick.select(self._index, i)
        self._hint = (i, b, j)
        return b, j

    def __getitem__(self, i: int) -> int:
        b, j = self._locate(i)
        return self._lists[b][j]

    def __setitem__(self, i: int, x: int) -> None:
        b, j = self._locate(i)
        bucket = self._lists[b]
        bucket[j] = x
        self._maxes[b] = bucket[-1]

    def __delitem__(self, i: int) -> None:
        self.pop(i)

    def pop(self, i: int = -1) -> int:
        b, j = self._locate(i)
        lists = self._lists
        bucket = lists[b]
        x = bucket.pop(j)
        self._len -= 1
        self._hint = (-1, 0, 0)
        if bucket:
            self._maxes[b] = bucket[-1]
            fenwick.add(self._index, b, -1)
            return x
        del self._maxes[b]
        if len(lists) > 1:
            del lists[b]
        self._index = fenwick.build(map(len, lists))
        return x

    def insert(self, i: int, x: int) -> None:
        """Insert x before position i, for 0 <= i <= len."""
        if i == self._len:
            b = len(self._lists) - 1
            bucket = self._lists[b]
            bucket.append(x)
            if len(bucket) == 1:
                self._maxes.append(x)
            else:
                self._maxes[b] = x
        else:
            b, j = self._locate(i)
            bucket = self._lists[b]
            bucket.insert(j, x)
        self._len += 1
        self._hint = (-1, 0, 0)
        if len(bucket) < 2 * _LOAD:
            fenwick.add(self._index, b, 1)
            return
        half = bucket[_LOAD:]
        del bucket[_LOAD:]
        self._lists.insert(b + 1, half)
        self._maxes.insert(b, bucket[-1])
        self._index = fenwick.build(map(len, self._lists))

    def append(self, x: int) -> None:
        self.insert(self._len, x)

    def copy(self) -> _BList:
        other = _BList.__new__(_BList)
        other._lists = [bucket[:] for bucket in self._lists]
        other._maxes = self._maxes[:]
        other._index = self._index[:]
        other._len = self._len
        other._hint = self._hint
        return other

    def rank(self, x: int) -> int:
        """The number of entries below x; the entries must be sorted."""
        b = bisect_left(self._maxes, x)
        if b == len(self._maxes):
            return self._len
        j = bisect_left(self._lists[b], x)
        if not b:
            return j
        i = fenwick.prefix(self._index, b) + j
        self._hint = (i, b, j)
        return i
