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
# now calls in place of the package's.  SegmentChain is the segment chain of
# permcode.inverse's docstring, spelled out; it relabels with _shift_labels,
# so neither quadratic slice codec shares label code with the package.
# check_decode and check_slices replay the decoder and the slices with
# their invariants checked at every step.

from typing import NamedTuple  # noqa: E402

from permcode import (  # noqa: E402
    REMOVE,
    SHRINK_BOTTOM,
    SHRINK_TOP,
    SPLIT,
    check_permutation,
    check_subexcedant,
    code_cases,
    profiles,
    slice_decode,
    slices,
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


_SLICE, _PROFILE = 0, 1


class SegmentChain:
    """Alternating slice/profile segments, top (largest values) first.

    Internally one list of [kind, payload] pairs: a slice segment stores
    its label, a profile segment the number of values it covers.
    """

    def __init__(self):
        self._segs = [[_SLICE, 0]]  # one slice, label 0

    @property
    def top_is_profile(self):
        return self._segs[0][0] == _PROFILE

    def slice_labels(self):
        return tuple(s[1] for s in self._segs if s[0] == _SLICE)

    def profile_cards(self):
        return tuple(s[1] for s in self._segs if s[0] == _PROFILE)

    def locate(self, label):
        """Chain position of the slice segment with the given label."""
        for pos, seg in enumerate(self._segs):
            if seg[0] == _SLICE and seg[1] == label:
                return pos
        raise AssertionError(f"no slice segment labeled {label}")

    def covered_above(self, pos):
        """Values covered by profile segments above chain position pos."""
        return sum(
            seg[1] for seg in self._segs[:pos] if seg[0] == _PROFILE
        )

    def apply(self, case, entry, pos, step):
        """Rewrite for step `step`, consuming code entry `entry` at pos."""
        segs = self._segs
        labels = [s[1] for s in segs if s[0] == _SLICE]
        v = sum(1 for s in segs[:pos] if s[0] == _SLICE)
        if case in (SHRINK_TOP, REMOVE):
            # the consumed value tops its interval; it is n exactly when
            # the located segment is the chain's top, which happens
            # exactly on label 0
            assert (pos == 0) == (entry == 0), (segs, entry)
        if case == SPLIT:
            segs[pos : pos + 1] = [[_SLICE, 0], [_PROFILE, 1], [_SLICE, 0]]
        elif case == SHRINK_TOP:
            if pos == 0:
                segs.insert(0, [_PROFILE, 1])
            else:
                assert segs[pos - 1][0] == _PROFILE, segs
                segs[pos - 1][1] += 1
        elif case == SHRINK_BOTTOM:
            # the freed minimum adjoins the profile below, which exists:
            # the located interval held a value above 0, so it is not the
            # chain's last segment
            assert segs[pos + 1][0] == _PROFILE, segs
            segs[pos + 1][1] += 1
        else:
            assert segs[pos + 1][0] == _PROFILE, segs
            below = segs[pos + 1]
            if pos == 0:
                below[1] += 1
                del segs[0]
            else:
                segs[pos - 1][1] += 1 + below[1]
                del segs[pos : pos + 2]
        labels = _shift_labels(labels, case, v, step)
        slots = [s for s in segs if s[0] == _SLICE]
        assert len(slots) == len(labels), (segs, labels)
        for seg, lab in zip(slots, labels):
            seg[1] = lab

    def check(self, step):
        """Structural invariants after `step` rewrites."""
        segs = self._segs
        kinds = [s[0] for s in segs]
        assert all(
            a != b for a, b in zip(kinds, kinds[1:])
        ), "segments must alternate"
        assert segs[-1][0] == _SLICE, "chain must end in a slice segment"
        labels = self.slice_labels()
        assert all(a < b for a, b in zip(labels, labels[1:])), labels
        assert labels[-1] == step, (labels, step)
        assert sum(self.profile_cards()) == step, segs


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


def check_decode(seq):
    """slice_decode(seq), after replaying it on a SegmentChain: the chain
    is checked after every step, the values it covers above each located
    slice against the Lehmer code of the result, and its labels and
    coverage counts against the slices and profiles of the result."""
    word = tuple(seq)
    perm = slice_decode(word)
    n = len(word)
    cases, code = code_cases(word), lehmer(perm)
    chain = SegmentChain()
    history = []
    for i in range(n):
        step = i + 1
        pos = chain.locate(word[i])
        assert chain.top_is_profile == (0 not in word[i:]), (word, i)
        assert chain.covered_above(pos) == code[i], (word, i)
        chain.apply(cases[i], word[i], pos, step)
        chain.check(step)
        if step < n:
            history.append((chain.slice_labels(), chain.profile_cards()))
    for (labels, cards), sl, pr in zip(history, slices(perm)[1:], profiles(perm)):
        assert labels == sl.labels(), (perm, sl.step)
        assert cards == tuple(hi - lo + 1 for lo, hi in pr.intervals), (
            perm,
            pr.step,
        )
    return perm


def check_slices(perm):
    """slices(perm), after checking each slice: decreasing disjoint
    intervals covering exactly the unseen values plus 0, strictly
    increasing labels in 0..step with the last equal to step, 0 in the
    last interval, and the entries of [p_{i+1}, n] *not* covered by the
    i-th slice counting the inversions ending at position i + 1."""
    word = tuple(perm)
    n = len(word)
    code = lehmer(word)
    out = slices(word)
    for sl in out:
        ivs = sl.intervals
        assert all(lo <= hi for lo, hi, _ in ivs), sl
        # decreasing and disjoint with gaps
        assert all(ivs[j].lo > ivs[j + 1].hi + 1 for j in range(len(ivs) - 1)), sl
        covered = {x for lo, hi, _ in ivs for x in range(lo, hi + 1)}
        assert covered == set(word[sl.step :]) | {0}, sl
        labels = sl.labels()
        assert labels[-1] == sl.step and ivs[-1].lo <= 0 <= ivs[-1].hi, sl
        assert all(0 <= a < b for a, b in zip(labels, labels[1:])), sl
        if sl.step < n:
            nxt = word[sl.step]
            above = sum(
                max(0, min(hi, n) - max(lo, nxt) + 1) for lo, hi, _ in ivs
            )
            assert (n - nxt + 1) - above == code[sl.step], sl
    return out


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


# ---------------------------------------------------------------------------
# Closed forms for the double Eulerian distribution A_n(s, t), the sum of
# s^des(p) t^ides(p) over S_n (see Petersen, "Two-sided Eulerian numbers via
# balls in boxes", Math. Mag. 86 (2013); Lin, Electron. J. Combin. 23(3)
# (2016) P3.15).

from math import comb  # noqa: E402


def carlitz_roselle_scoville(n):
    """The coefficients of s^(d+1) t^(e+1) A_n(s, t), keyed (d, e), from

        sum_{i,j >= 0} C(ij + n - 1, n) s^i t^j
            = s t A_n(s, t) / ((1 - s)^(n+1) (1 - t)^(n+1)),

    by multiplying the left side out with the denominator, coefficient by
    coefficient up to degree n + 1 in each variable.  A coefficient of
    degree 0 or n + 1 is not a (d, e) key of any permutation; it is kept
    under its key, so a table with zeros there is the only match.
    """
    def sign_comb(k):
        return (-1) ** k * comb(n + 1, k)

    out = {}
    for i in range(n + 2):
        for j in range(n + 2):
            c = sum(
                sign_comb(k) * sign_comb(m) * comb((i - k) * (j - m) + n - 1, n)
                for k in range(i + 1)
                for m in range(j + 1)
            )
            if c:
                out[i - 1, j - 1] = c
    return out


def gamma_coefficients(table, n):
    """Gessel's gamma-coefficients of A_n(s, t) = sum table[d, e] s^d t^e:
    the gamma[i, j], i + 2j <= n - 1, with

        A_n(s, t) = sum gamma[i, j] (st)^j (s + t)^i (1 + st)^(n-1-i-2j),

    or None if there are none.  Each basis term's lowest monomial, by total
    degree and then by the exponent of s, is s^(i+j) t^j, and every other
    monomial of it comes later in that order; so peeling off the remainder's
    lowest monomial finds the gammas one at a time.
    """
    rest = {key: c for key, c in table.items() if c}
    gamma = {}
    while rest:
        a, b = min(rest, key=lambda key: (key[0] + key[1], -key[0]))
        i, j = a - b, b
        if i < 0 or i + 2 * j > n - 1:
            return None
        c = gamma[i, j] = rest[a, b]
        r = n - 1 - i - 2 * j
        for k in range(i + 1):
            for m in range(r + 1):
                key = (j + k + m, j + i - k + m)
                rest[key] = rest.get(key, 0) - c * comb(i, k) * comb(r, m)
                if not rest[key]:
                    del rest[key]
    return gamma
