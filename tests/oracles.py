"""Independent reference implementations used only by the tests.

Everything here follows the raw quantifier form of each definition, with
no shared code or shortcuts from the package (the package uses running
extrema, last-occurrence maps, and incremental interval bookkeeping).
Slow on purpose; the tests keep n small.
"""

from itertools import permutations


def descents(w):
    return tuple(
        i for i in range(1, len(w)) if w[i - 1] > w[i]
    )


def ascents(w):
    return tuple(
        i for i in range(1, len(w)) if w[i - 1] < w[i]
    )


def lr_maxima(w):
    return tuple(
        i
        for i in range(1, len(w) + 1)
        if all(w[j - 1] < w[i - 1] for j in range(1, i))
    )


def lr_minima(w):
    return tuple(
        i
        for i in range(1, len(w) + 1)
        if all(w[j - 1] > w[i - 1] for j in range(1, i))
    )


def rl_maxima(w):
    n = len(w)
    return tuple(
        i
        for i in range(1, n + 1)
        if all(w[j - 1] < w[i - 1] for j in range(i + 1, n + 1))
    )


def rl_minima(w):
    n = len(w)
    return tuple(
        i
        for i in range(1, n + 1)
        if all(w[j - 1] > w[i - 1] for j in range(i + 1, n + 1))
    )


def inverse_descents(p):
    # i > 1 such that the value p_i + 1 sits somewhere in p_1 .. p_{i-1}
    return tuple(
        i
        for i in range(2, len(p) + 1)
        if (p[i - 1] + 1) in p[: i - 1]
    )


def zeros(s):
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == 0)


def saturated(s):
    return tuple(i for i in range(1, len(s) + 1) if s[i - 1] == i - 1)


def row(s):
    # positions whose nonzero value never occurs again to the right
    return tuple(
        i
        for i in range(1, len(s) + 1)
        if s[i - 1] != 0 and s[i - 1] not in s[i:]
    )


def lehmer(p):
    return tuple(
        sum(1 for i in range(j) if p[i] > p[j]) for j in range(len(p))
    )


def eulerian_numbers(n):
    """Row n of the Eulerian triangle, by the standard recurrence."""
    rows = [1]
    for m in range(2, n + 1):
        rows = [
            (k + 1) * (rows[k] if k < len(rows) else 0)
            + (m - k) * (rows[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return rows


def preimages(code, encode):
    """All permutations that a given encoder maps to `code`."""
    n = len(code)
    return [
        p for p in permutations(range(1, n + 1)) if encode(p) == code
    ]


# ---------------------------------------------------------------------------
# The quadratic codecs the package shipped before its Fenwick-tree rewrite,
# copied verbatim (only renamed) as references for the fast ones: the
# interval walk of the slice encoder, the SegmentChain loop of the slice
# decoder, and the pairwise Lehmer encoder; and the list.pop Lehmer decoder
# the package shipped before its bucketed lists, which the SegmentChain loop
# now calls in place of the package's.

from typing import NamedTuple  # noqa: E402

from permcode import (  # noqa: E402
    REMOVE,
    SHRINK_BOTTOM,
    SHRINK_TOP,
    SPLIT,
    SegmentChain,
    check_permutation,
    check_subexcedant,
    code_cases,
)


class LabeledInterval(NamedTuple):
    lo: int
    hi: int
    label: int


def _locate(intervals, value):
    """Index of the interval containing value; they are decreasing."""
    for idx, (lo, hi, _) in enumerate(intervals):
        if lo <= value <= hi:
            return idx
    raise AssertionError(f"value {value} lies in no interval: {intervals}")


def _shift_labels(labels, case, v, step):
    """Surviving labels after a step-`step` rewrite at list position v."""
    kept = list(labels)
    if case == SPLIT:
        pass
    elif case == SHRINK_TOP:
        del kept[v]
    elif case == SHRINK_BOTTOM:
        del kept[-1]
    else:
        del kept[v]
        del kept[-1]
    kept.append(step)
    return kept


def _advance(intervals, v, value, step):
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
    labels = _shift_labels([iv.label for iv in intervals], case, v, step)
    state = [
        LabeledInterval(a, b, lab) for (a, b), lab in zip(spans, labels)
    ]
    return state, case


def slice_encode_walk(perm):
    """The slice code by the explicit interval walk, Θ(n²)."""
    word = tuple(perm)
    check_permutation(word)
    n = len(word)
    state = [LabeledInterval(0, n, 0)]
    out = []
    for step, value in enumerate(word, start=1):
        v = _locate(state, value)
        out.append(state[v].label)
        if step < n:
            state, _ = _advance(state, v, value, step)
    return tuple(out)


def slice_decode_chain(seq):
    """The slice decoder driven by a SegmentChain, Θ(n²)."""
    word = tuple(seq)
    check_subexcedant(word)
    n = len(word)
    cases = code_cases(word)
    chain = SegmentChain()
    code = []
    # suffix_top[i]: no 0 in word[i:], i.e. the value n is consumed already
    # and the chain must start with a profile segment
    suffix_top = [False] * n
    zero_free = True
    for i in range(n - 1, -1, -1):
        zero_free = zero_free and word[i] != 0
        suffix_top[i] = zero_free
    for i in range(n):
        step = i + 1
        pos = chain.locate(word[i])
        assert suffix_top[i] == chain.top_is_profile, (word, i)
        code.append(chain.covered_above(pos))
        chain.apply(cases[i], word[i], pos, step)
    return lehmer_decode_pop(tuple(code))


def lehmer_decode_pop(seq):
    """Inverse of the Lehmer code by popping from a plain list, Θ(n²)."""
    word = tuple(seq)
    check_subexcedant(word)
    n = len(word)
    free = list(range(1, n + 1))
    out = [0] * n
    for j in range(n, 0, -1):
        out[j - 1] = free.pop(j - word[j - 1] - 1)
    return tuple(out)


def lehmer_encode_pairwise(perm):
    """Inversion-count code by pairwise comparison, Θ(n²)."""
    word = tuple(perm)
    check_permutation(word)
    return tuple(
        sum(1 for i in range(j) if word[i] > word[j])
        for j in range(len(word))
    )


# ---------------------------------------------------------------------------
# Ranks of subexcedant sequences in counting order (the package's sweeps no
# longer need them).

from math import factorial  # noqa: E402


def seq_rank(seq):
    """Position of a subexcedant sequence in counting order, in 0..n!-1.

    The rightmost entry varies fastest, so entry i carries weight n!/i!.
    """
    n = len(seq)
    return sum(
        v * (factorial(n) // factorial(i))
        for i, v in enumerate(seq, start=1)
    )


def seq_unrank(rank, n):
    """Inverse of seq_rank for length n."""
    return tuple(
        (rank // (factorial(n) // factorial(i))) % i for i in range(1, n + 1)
    )
