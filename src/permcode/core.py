"""Words, validation, and set-valued statistics.

Two kinds of words appear throughout the package, both written in one-line
notation over nonnegative integers:

* a *permutation* of length n: each value 1..n exactly once, e.g. 62587314;
* a *subexcedant sequence* of length n: 0 <= s_i <= i - 1 for every i
  (so s_1 is forced to 0), e.g. 01102363.

There are exactly n! subexcedant sequences of length n, which is what makes
them usable as codes for permutations.

All positions reported by the statistics below are 1-based, matching the
way the words are written.  Internally a word is a plain tuple of ints and
index arithmetic is 0-based; the translation happens only here.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

__all__ = [
    "InvalidWordError",
    "UsageError",
    "parse_word",
    "format_word",
    "format_positions",
    "check_permutation",
    "check_subexcedant",
    "descent_set",
    "ascent_set",
    "lrmax_set",
    "lrmin_set",
    "rlmax_set",
    "rlmin_set",
    "inverse_descent_set",
    "zero_set",
    "saturated_set",
    "last_value_set",
    "invert",
    "perm_stats",
    "seq_stats",
]

Word = tuple[int, ...]
# Five position sets in a fixed order.  For a permutation p the order is
# (Des, Ides, LrM, Lrm, RlM)(p); for a subexcedant sequence s it is
# (Asc, Row, Pos0, Max, Rlm)(s).  The whole point of the slice code is that
# these two tuples agree when s encodes p.
StatTuple = tuple[Word, Word, Word, Word, Word]


class InvalidWordError(ValueError):
    """Raised when an input word violates its format.

    ``position`` is the 1-based index of the offending entry when one can
    be singled out, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class UsageError(ValueError):
    """Raised when a size, cap or worker count is out of range."""


_WORD = re.compile(r"\s*-?[0-9]+(?:\s+-?[0-9]+)*\s*")
_INTEGER = re.compile(r"-?[0-9]+")


def parse_word(text: str) -> Word:
    """Parse a whitespace-separated word of integers.

    Entries are written with ASCII digits and an optional minus sign,
    nothing else: no plus sign, underscores or other scripts' digits.

    >>> parse_word("6 2 5 8 7 3 1 4")
    (6, 2, 5, 8, 7, 3, 1, 4)
    """
    tokens = text.split()
    if _WORD.fullmatch(text):
        return tuple(map(int, tokens))
    if not tokens:
        raise InvalidWordError("empty word")
    pos, tok = next(
        (pos, tok)
        for pos, tok in enumerate(tokens, start=1)
        if not _INTEGER.fullmatch(tok)
    )
    raise InvalidWordError(
        f"entry {pos}: {tok!r} is not an integer", position=pos
    )


def format_word(word: Sequence[int]) -> str:
    """Inverse of parse_word: ``format_word((3, 1, 2)) == '3 1 2'``."""
    return " ".join(map(str, word))


def format_positions(positions: Iterable[int]) -> str:
    """Render a position set in its canonical text form.

    >>> format_positions((1, 4, 5, 6))
    '{1 4 5 6}'
    >>> format_positions(())
    '{}'
    """
    return "{" + " ".join(map(str, positions)) + "}"


def check_permutation(word: Sequence[int]) -> None:
    """Raise InvalidWordError unless word is a permutation of 1..n."""
    n = len(word)
    if n == 0:
        raise InvalidWordError("empty word")
    seen = [False] * n
    for pos, v in enumerate(word, start=1):
        if not 1 <= v <= n:
            raise InvalidWordError(
                f"entry {pos}: value {v} out of range 1..{n}", position=pos
            )
        if seen[v - 1]:
            raise InvalidWordError(
                f"entry {pos}: value {v} repeated", position=pos
            )
        seen[v - 1] = True


def check_subexcedant(word: Sequence[int]) -> None:
    """Raise InvalidWordError unless 0 <= word[i] <= i for every 0-based i."""
    if len(word) == 0:
        raise InvalidWordError("empty word")
    for pos, v in enumerate(word, start=1):
        if not 0 <= v <= pos - 1:
            raise InvalidWordError(
                f"entry {pos}: value {v} out of range 0..{pos - 1}",
                position=pos,
            )


def _require_nonempty(word: Sequence[int]) -> None:
    if len(word) == 0:
        raise InvalidWordError("empty word")


def descent_set(word: Sequence[int]) -> Word:
    """Positions i < n with word_i > word_{i+1} (strict).

    >>> descent_set((6, 2, 5, 8, 7, 3, 1, 4))
    (1, 4, 5, 6)
    """
    _require_nonempty(word)
    return tuple(
        i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1]
    )


def ascent_set(word: Sequence[int]) -> Word:
    """Positions i < n with word_i < word_{i+1} (strict).

    >>> ascent_set((0, 1, 1, 0, 2, 3, 6, 3))
    (1, 4, 5, 6)
    """
    _require_nonempty(word)
    return tuple(
        i + 1 for i in range(len(word) - 1) if word[i] < word[i + 1]
    )


def lrmax_set(word: Sequence[int]) -> Word:
    """Positions of left-to-right maxima: word_j < word_i for all j < i.

    Position 1 always qualifies; ties never do.

    >>> lrmax_set((6, 2, 5, 8, 7, 3, 1, 4))
    (1, 4)
    """
    _require_nonempty(word)
    out = []
    best = None
    for i, v in enumerate(word, start=1):
        if best is None or v > best:
            out.append(i)
            best = v
    return tuple(out)


def lrmin_set(word: Sequence[int]) -> Word:
    """Positions of left-to-right minima: word_j > word_i for all j < i.

    >>> lrmin_set((6, 2, 5, 8, 7, 3, 1, 4))
    (1, 2, 7)
    """
    _require_nonempty(word)
    out = []
    best = None
    for i, v in enumerate(word, start=1):
        if best is None or v < best:
            out.append(i)
            best = v
    return tuple(out)


def rlmax_set(word: Sequence[int]) -> Word:
    """Positions of right-to-left maxima: word_j < word_i for all j > i.

    >>> rlmax_set((6, 2, 5, 8, 7, 3, 1, 4))
    (4, 5, 8)
    """
    _require_nonempty(word)
    out = []
    best = None
    for i in range(len(word), 0, -1):
        v = word[i - 1]
        if best is None or v > best:
            out.append(i)
            best = v
    return tuple(reversed(out))


def rlmin_set(word: Sequence[int]) -> Word:
    """Positions of right-to-left minima: word_j > word_i for all j > i.

    >>> rlmin_set((0, 1, 1, 0, 2, 3, 6, 3))
    (4, 5, 8)
    """
    _require_nonempty(word)
    out = []
    best = None
    for i in range(len(word), 0, -1):
        v = word[i - 1]
        if best is None or v < best:
            out.append(i)
            best = v
    return tuple(reversed(out))


def inverse_descent_set(perm: Sequence[int]) -> Word:
    """Positions i > 1 whose value's successor occurs further left.

    For a permutation p this is {i : p_i + 1 occurs left of p_i}; the value
    n never contributes.  The positions are exactly where descents of the
    inverse permutation land after sorting, so the cardinality equals
    des(p^-1), though as a set it differs from Des(p^-1) in general.

    >>> inverse_descent_set((6, 2, 5, 8, 7, 3, 1, 4))
    (3, 5, 7, 8)
    >>> inverse_descent_set((3, 2, 1))
    (2, 3)
    """
    _require_nonempty(word := tuple(perm))
    n = len(word)
    place = {v: i for i, v in enumerate(word, start=1)}
    return tuple(
        i
        for i in range(2, n + 1)
        if word[i - 1] + 1 <= n and place[word[i - 1] + 1] < i
    )


def zero_set(seq: Sequence[int]) -> Word:
    """Positions of zero entries.

    >>> zero_set((0, 1, 1, 0, 2, 3, 6, 3))
    (1, 4)
    """
    _require_nonempty(seq)
    return tuple(i for i, v in enumerate(seq, start=1) if v == 0)


def saturated_set(seq: Sequence[int]) -> Word:
    """Positions where the entry reaches its subexcedant bound i - 1.

    Position 1 always qualifies since s_1 = 0.

    >>> saturated_set((0, 1, 1, 0, 2, 3, 6, 3))
    (1, 2, 7)
    """
    _require_nonempty(seq)
    return tuple(i for i, v in enumerate(seq, start=1) if v == i - 1)


def last_value_set(seq: Sequence[int]) -> Word:
    """Last occurrence of each distinct nonzero value.

    The cardinality is the number of distinct nonzero entries; position 1
    never qualifies since s_1 = 0.

    >>> last_value_set((0, 1, 1, 0, 2, 3, 6, 3))
    (3, 5, 7, 8)
    """
    _require_nonempty(seq)
    last: dict[int, int] = {}
    for i, v in enumerate(seq, start=1):
        if v != 0:
            last[v] = i
    return tuple(sorted(last.values()))


def invert(perm: Sequence[int]) -> Word:
    """Inverse permutation: invert(p)[p_i - 1] = i.

    >>> invert((6, 2, 5, 8, 7, 3, 1, 4))
    (7, 2, 6, 8, 3, 1, 5, 4)
    >>> invert((1, 2, 3))
    (1, 2, 3)
    """
    word = tuple(perm)
    check_permutation(word)
    out = [0] * len(word)
    for i, v in enumerate(word, start=1):
        out[v - 1] = i
    return tuple(out)


def perm_stats(perm: Sequence[int]) -> StatTuple:
    """The five statistics of a permutation: (Des, Ides, LrM, Lrm, RlM)."""
    word = tuple(perm)
    return (
        descent_set(word),
        inverse_descent_set(word),
        lrmax_set(word),
        lrmin_set(word),
        rlmax_set(word),
    )


def seq_stats(seq: Sequence[int]) -> StatTuple:
    """The five statistics of a subexcedant sequence: (Asc, Row, Pos0, Max, Rlm)."""
    word = tuple(seq)
    return (
        ascent_set(word),
        last_value_set(word),
        zero_set(word),
        saturated_set(word),
        rlmin_set(word),
    )
