"""Lehmer code of a permutation and its inverse.

The Lehmer code sends a permutation p of 1..n to the subexcedant sequence
whose j-th entry counts the inversions ending at j:

    L(p)_j = #{i < j : p_i > p_j}.

It is a classical bijection onto the subexcedant sequences.  Encoding
counts the smaller values seen so far on a Fenwick tree; decoding pops
values right to left from the sorted list of values not used yet, a
bucketed one on long words (permcode._blist).  Both take O(n log n).
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _blist
from . import _fenwick as fenwick
from .core import Word, check_permutation, check_subexcedant, last_value_set

__all__ = ["lehmer_encode", "lehmer_decode", "dumont_stat"]


def lehmer_encode(perm: Sequence[int]) -> Word:
    """Inversion-count code of a permutation.

    >>> lehmer_encode((6, 2, 5, 8, 7, 3, 1, 4))
    (0, 1, 1, 0, 1, 4, 6, 4)
    >>> lehmer_encode((1, 2, 3))
    (0, 0, 0)
    """
    word = tuple(perm)
    check_permutation(word)
    return _lehmer_encode(word)


def _lehmer_encode(word: Word) -> Word:
    """lehmer_encode of a word already known to be a permutation."""
    # seen values, at their own index: L(p)_j = j - #{seen values < p_j}
    seen = [0] * (len(word) + 2)
    out = []
    for j, x in enumerate(word):
        out.append(j - fenwick.prefix(seen, x))
        fenwick.add(seen, x, 1)
    return tuple(out)


def lehmer_decode(seq: Sequence[int]) -> Word:
    """Inverse of lehmer_encode.

    Processing j = n down to 1, p_j is the (j - s_j)-th smallest value not
    used yet: s_j of the remaining values must exceed p_j to sit to its
    left as inversions.

    >>> lehmer_decode((0, 1, 1, 0, 1, 4, 6, 4))
    (6, 2, 5, 8, 7, 3, 1, 4)
    >>> lehmer_decode((0, 1, 2))
    (3, 2, 1)
    """
    word = tuple(seq)
    check_subexcedant(word)
    return _lehmer_decode(word)


def _lehmer_decode(word: Word) -> Word:
    """lehmer_decode of a word already known to be subexcedant."""
    n = len(word)
    free = _blist.container(range(1, n + 1), n)
    out = [0] * n
    for j in range(n, 0, -1):
        out[j - 1] = free.pop(j - word[j - 1] - 1)
    return tuple(out)


def dumont_stat(perm: Sequence[int]) -> int:
    """Number of distinct nonzero entries of the Lehmer code.

    >>> dumont_stat((6, 2, 5, 8, 7, 3, 1, 4))
    3
    """
    code = lehmer_encode(perm)
    return len(last_value_set(code))
