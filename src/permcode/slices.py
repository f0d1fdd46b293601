"""Slices of a permutation and the code read off their labels.

Scanning a permutation p of 1..n left to right, keep track of the values
not yet seen, together with 0, as a list of maximal integer intervals in
decreasing order.  Each interval carries an integer label; the starting
state is the single interval [0, n] labeled 0.  Step i locates the
interval containing p_i and rewrites the list according to where p_i sits
in it:

* strictly inside (SPLIT): the interval breaks in two; every old label
  survives and the new bottom part of the list gets label i;
* at the top (SHRINK_TOP): the interval loses its maximum; its label dies;
* at the bottom (SHRINK_BOTTOM): the interval loses its minimum; the label
  of the last interval dies;
* the whole interval (REMOVE): the interval disappears; both its label and
  the last label die.

Surviving labels are reassigned to the new interval list in order, then
label i is appended, so after step i the labels increase along the list
and the last one is i.  The state after step i is the i-th *slice*.

The *slice code* of p is the sequence whose i-th entry is the label of the
interval containing p_i just before step i acts.  It is subexcedant, and
it is a bijection onto the subexcedant sequences (inverted in
permcode.inverse) that transports five set-valued statistics at once; see
permcode.core.perm_stats and seq_stats.

Each case is reproducible from p alone, and also from the code alone;
slice_cases and code_cases compute the same classification by those two
routes.  The complement picture of a slice is the i-th *profile*: the
maximal intervals covering the values seen so far, also kept in
decreasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple
from collections.abc import Sequence

from . import _blist
from .core import Word, check_permutation, check_subexcedant

__all__ = [
    "SPLIT",
    "SHRINK_TOP",
    "SHRINK_BOTTOM",
    "REMOVE",
    "LabeledInterval",
    "Slice",
    "Profile",
    "slice_cases",
    "code_cases",
    "slices",
    "profiles",
    "slice_encode",
]

# The four rewrite cases, in the order value-inside, value-at-top,
# value-at-bottom, value-is-everything.  The numeric values matter: both
# classifications below compute them arithmetically.
SPLIT, SHRINK_TOP, SHRINK_BOTTOM, REMOVE = 0, 1, 2, 3


class LabeledInterval(NamedTuple):
    lo: int
    hi: int
    label: int


@dataclass(frozen=True)
class Slice:
    """Interval state after `step` values have been consumed."""

    step: int
    intervals: tuple[LabeledInterval, ...]

    def labels(self) -> tuple[int, ...]:
        return tuple(iv.label for iv in self.intervals)


@dataclass(frozen=True)
class Profile:
    """Maximal intervals covering the first `step` values, decreasing."""

    step: int
    intervals: tuple[tuple[int, int], ...]


def slice_cases(perm: Sequence[int]) -> tuple[int, ...]:
    """Classify each position of a permutation by its rewrite case.

    Position i is tested against two neighbours of its value:

    * successor seen later: p_i = n fails, else p_i + 1 must sit right of i;
    * predecessor seen later: p_i = 1 passes outright (think of a final 0
      appended to p), else p_i - 1 must sit right of i.

    The case is [successor not later] + 2 * [predecessor not later], which
    lands in {SPLIT, SHRINK_TOP, SHRINK_BOTTOM, REMOVE}.

    >>> slice_cases((6, 2, 5, 8, 7, 3, 1, 4))
    (0, 0, 1, 1, 3, 2, 1, 3)
    >>> slice_cases((1,))
    (1,)
    """
    word = tuple(perm)
    check_permutation(word)
    return _slice_cases(word)


def _slice_cases(word: Word) -> Word:
    """slice_cases of a word already known to be a permutation."""
    n = len(word)
    place = {v: i for i, v in enumerate(word)}
    out = []
    for i, v in enumerate(word):
        succ_later = v < n and place[v + 1] > i
        pred_later = v == 1 or place[v - 1] > i
        out.append((not succ_later) + 2 * (not pred_later))
    return tuple(out)


def code_cases(seq: Sequence[int]) -> tuple[int, ...]:
    """The same classification read off the slice code alone.

    Position i of a subexcedant sequence s is tested against:

    * s_i occurring again in the strict suffix s_{i+1}..s_n;
    * the symbol i - 1 occurring anywhere in s.

    The case is [no later occurrence] + 2 * [symbol i - 1 absent].

    >>> code_cases((0, 1, 1, 0, 2, 3, 6, 3))
    (0, 0, 1, 1, 3, 2, 1, 3)
    >>> code_cases((0,))
    (1,)
    """
    word = tuple(seq)
    check_subexcedant(word)
    return _code_cases(word)


def _code_cases(word: Word) -> Word:
    """code_cases of a word already known to be subexcedant."""
    n = len(word)
    present = set(word)
    out = [0] * n
    later: set[int] = set()
    for i in range(n - 1, -1, -1):
        out[i] = (word[i] not in later) + 2 * (i not in present)
        later.add(word[i])
    return tuple(out)


def _locate(intervals: Sequence[LabeledInterval], value: int) -> int:
    """Index of the interval containing value; they are decreasing."""
    for idx, (lo, hi, _) in enumerate(intervals):
        if lo <= value <= hi:
            return idx
    raise AssertionError(f"value {value} lies in no interval: {intervals}")


def relabel(labels: list[int], case: int, v: int, step: int) -> None:
    """The labels after a step-`step` rewrite at list position v, in place.

    On SHRINK_TOP and REMOVE the label at v dies; on SHRINK_BOTTOM and
    REMOVE the last label, never the one at v, dies; then label step is
    born.  The encoder, the decoder and _advance all relabel through here.
    """
    if case & SHRINK_TOP:
        del labels[v]
    if case & SHRINK_BOTTOM:
        labels[-1] = step
    else:
        labels.append(step)


def _advance(
    intervals: Sequence[LabeledInterval], v: int, value: int, step: int
) -> tuple[list[LabeledInterval], int]:
    """Apply the step-`step` rewrite at interval v; return (state, case)."""
    lo, hi, _ = intervals[v]
    spans = [(iv.lo, iv.hi) for iv in intervals]
    if lo < value < hi:
        case = SPLIT
        spans[v : v + 1] = [(value + 1, hi), (lo, value - 1)]
    elif lo < value == hi:
        case = SHRINK_TOP
        spans[v] = (lo, value - 1)
    elif lo == value < hi:
        case = SHRINK_BOTTOM
        spans[v] = (value + 1, hi)
    else:
        case = REMOVE
        del spans[v]
    labels = [iv.label for iv in intervals]
    relabel(labels, case, v, step)
    state = [
        LabeledInterval(a, b, lab) for (a, b), lab in zip(spans, labels)
    ]
    return state, case


def _encode_start(n: int) -> tuple[bytearray, list[int], list[int], int]:
    """The encoder's state before step 1: the consumed values (n + 1 counts
    as one), the negated interval bottoms and the live labels, both in
    interval order (see permcode._blist.container), and the number of
    intervals."""
    seen = bytearray(n + 2)
    seen[n + 1] = 1
    # the interval [0, n] with label 0
    return seen, _blist.container([0], n), _blist.container([0], n), 1


def _encode_step(seen, bottoms, live, count: int, step: int, x: int) -> tuple[int, int]:
    """Encoder step `step` on the value x: (label, new count), the state
    updated in place; the last step (step = n) only reads it.

    The intervals are known by their bottoms, kept negated so that they
    increase along the interval list: the index v of the interval holding
    x is the number of bottoms above x, which indexes its label too.
    Whether x tops or bottoms its interval is whether x + 1 or x - 1 has
    been seen.
    """
    v = _blist.ranker(bottoms)(bottoms, -x)
    label = live[v]
    if step == len(seen) - 2:
        return label, count
    seen[x] = 1
    # [x tops its interval] + 2 * [x bottoms it]
    case = seen[x + 1] + 2 * seen[x - 1]
    if not case & SHRINK_TOP:  # x + 1 becomes a bottom
        if case & SHRINK_BOTTOM:  # in place of x
            bottoms[v] = -x - 1
        else:  # above the old bottom
            bottoms.insert(v, -x - 1)
            count += 1
    elif case & SHRINK_BOTTOM:  # the interval was {x}
        del bottoms[v]
        count -= 1
    relabel(live, case, v, step)
    return label, count


def _slice_encode(word: Word) -> Word:
    """slice_encode of a word already known to be a permutation."""
    seen, bottoms, live, count = _encode_start(len(word))
    out = []
    for step, x in enumerate(word, start=1):
        label, count = _encode_step(seen, bottoms, live, count, step, x)
        out.append(label)
    return tuple(out)


def slice_encode(perm: Sequence[int]) -> Word:
    """The slice code of a permutation, in O(n log n) (see _encode_step).

    >>> slice_encode((6, 2, 5, 8, 7, 3, 1, 4))
    (0, 1, 1, 0, 2, 3, 6, 3)
    >>> slice_encode((1, 2, 3, 4))
    (0, 0, 0, 0)
    >>> slice_encode((4, 3, 2, 1))
    (0, 1, 2, 3)
    """
    word = tuple(perm)
    check_permutation(word)
    return _slice_encode(word)


def slices(perm: Sequence[int]) -> list[Slice]:
    """All slices of a permutation, from step 0 through step n - 1."""
    word = tuple(perm)
    check_permutation(word)
    state = [LabeledInterval(0, len(word), 0)]
    out = [Slice(0, tuple(state))]
    for step, value in enumerate(word[:-1], start=1):
        state, _ = _advance(state, _locate(state, value), value, step)
        out.append(Slice(step, tuple(state)))
    return out


def profiles(perm: Sequence[int]) -> list[Profile]:
    """Profiles of a permutation for steps 1 through n - 1.

    The i-th profile covers {p_1, ..., p_i}; its intervals interleave the
    gaps between the i-th slice's intervals.

    >>> [p.intervals for p in profiles((3, 1, 2))]
    [((3, 3),), ((3, 3), (1, 1))]
    """
    word = tuple(perm)
    check_permutation(word)
    n = len(word)
    seen = [False] * (n + 2)
    out = []
    for step in range(1, n):
        seen[word[step - 1]] = True
        runs = []
        v = n
        while v >= 1:
            if seen[v]:
                top = v
                while seen[v]:
                    v -= 1
                runs.append((v + 1, top))
            else:
                v -= 1
        out.append(Profile(step, tuple(runs)))
    return out
