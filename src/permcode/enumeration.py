"""Exhaustive generators, distribution tables, and whole-domain verifiers.

Everything here sweeps complete domains: all n! permutations of 1..n in
lexicographic order, or all n! subexcedant sequences of length n in
mixed-radix counting order.  A cap guards against accidental factorial
blowups; pass a larger cap explicitly to go past it.

The verifiers check, over the full domain for one n:

* verify_five_tuples: the slice code transports (Des, Ides, LrM, Lrm, RlM)
  of the permutation to (Asc, Row, Pos0, Max, Rlm) of the code, pointwise;
* verify_bijection: the slice code hits every subexcedant sequence exactly
  once and both round trips are identities;
* verify_asc_row_exchange: s -> slice_encode(invert(slice_decode(s)))
  swaps (Asc, Row) to (Row, Asc) pointwise, so the two joint tables agree;
* verify_eulerian_marginals: des, ides (over permutations), asc, row (over
  sequences) and the distinct-nonzero-Lehmer-entry statistic all share one
  distribution, the Eulerian numbers.

With jobs > 1 a verifier splits its sweep into contiguous blocks
(permutations by first entry, sequences by a prefix of early entries),
runs them in worker processes (no more than jobs, blocks or CPUs), and
merges the per-block partial results pointwise; merging is associative
and commutative, so any partition of the domain yields the same report.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import factorial

from .core import (
    UsageError,
    Word,
    ascent_set,
    descent_set,
    inverse_descent_set,
    invert,
    last_value_set,
    perm_stats,
    seq_stats,
)
from .inverse import slice_decode
from .lehmer import dumont_stat
from .slices import slice_encode

__all__ = [
    "DEFAULT_CAP",
    "DistTable",
    "Report",
    "iter_perms",
    "iter_subexcedant",
    "double_eulerian",
    "verify_five_tuples",
    "verify_bijection",
    "verify_asc_row_exchange",
    "verify_eulerian_marginals",
]

DEFAULT_CAP = 10


def _check_args(n: int, cap: int, jobs: int = 1) -> None:
    if n < 1:
        raise UsageError(f"n must be at least 1, got {n}")
    if n > cap:
        raise UsageError(
            f"n = {n} exceeds the cap of {cap}; raise the cap explicitly "
            f"if you really want all n! cases"
        )
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")


def iter_perms(n: int, cap: int = DEFAULT_CAP) -> Iterator[Word]:
    """All permutations of 1..n in lexicographic order.

    >>> list(iter_perms(3))[:3]
    [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    """
    _check_args(n, cap)
    return itertools.permutations(range(1, n + 1))


def iter_subexcedant(n: int, cap: int = DEFAULT_CAP) -> Iterator[Word]:
    """All subexcedant sequences of length n in mixed-radix counting order.

    >>> list(iter_subexcedant(3))
    [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    _check_args(n, cap)
    return itertools.product(*(range(i) for i in range(1, n + 1)))


def seq_rank(seq: Word) -> int:
    """Position of a subexcedant sequence in counting order, in 0..n!-1.

    The rightmost entry varies fastest, so entry i carries weight n!/i!.
    """
    n = len(seq)
    return sum(
        v * (factorial(n) // factorial(i))
        for i, v in enumerate(seq, start=1)
    )


def seq_unrank(rank: int, n: int) -> Word:
    """Inverse of seq_rank for length n."""
    return tuple(
        (rank // (factorial(n) // factorial(i))) % i for i in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# distribution tables


@dataclass
class DistTable:
    """Counts of a (pair of) statistic(s) over one full domain.

    Keys are tuples; for integer-pair tables like (des, ides) they are
    (d, e) pairs, for set-pair tables they are pairs of position tuples.
    """

    n: int
    counts: dict = field(default_factory=dict)

    def add(self, key) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "DistTable") -> "DistTable":
        """Pointwise sum; the block-merge operation for partitioned runs."""
        if other.n != self.n:
            raise ValueError("cannot merge tables for different n")
        merged = dict(self.counts)
        for key, cnt in other.counts.items():
            merged[key] = merged.get(key, 0) + cnt
        return DistTable(self.n, merged)

    def as_matrix(self) -> list[list[int]]:
        """Dense n x n matrix for integer-pair keys, indexed [d][e]."""
        grid = [[0] * self.n for _ in range(self.n)]
        for (d, e), cnt in self.counts.items():
            grid[d][e] = cnt
        return grid

    def polynomial(self) -> str:
        """Generating polynomial with the display shift (d, e) -> (d+1, e+1).

        >>> DistTable(3, {(0, 0): 1, (1, 1): 4, (2, 2): 1}).polynomial()
        'u*v + 4*u^2*v^2 + u^3*v^3'
        """
        terms = []
        for (d, e), cnt in sorted(self.counts.items()):
            coeff = "" if cnt == 1 else f"{cnt}*"
            u = "u" if d == 0 else f"u^{d + 1}"
            v = "v" if e == 0 else f"v^{e + 1}"
            terms.append(f"{coeff}{u}*{v}")
        return " + ".join(terms) if terms else "0"


def double_eulerian(n: int, side: str = "perms", cap: int = DEFAULT_CAP) -> DistTable:
    """Joint distribution table: (des, ides) over permutations, or
    (asc, row) over subexcedant sequences.  The two tables coincide.

    >>> double_eulerian(3).counts == {(0, 0): 1, (1, 1): 4, (2, 2): 1}
    True
    >>> double_eulerian(3, side="seqs").counts == double_eulerian(3).counts
    True
    """
    table = DistTable(n)
    if side == "perms":
        for p in iter_perms(n, cap):
            table.add((len(descent_set(p)), len(inverse_descent_set(p))))
    elif side == "seqs":
        for s in iter_subexcedant(n, cap):
            table.add((len(ascent_set(s)), len(last_value_set(s))))
    else:
        raise ValueError(f"side must be 'perms' or 'seqs', got {side!r}")
    return table


# ---------------------------------------------------------------------------
# partitioned sweeps

# A block is None (the whole stream) or a tuple: the first entry of the
# permutations in the block, or the fixed prefix of entries 2..k of the
# sequences in the block.  Blocks are contiguous runs of the lexicographic
# (resp. counting) order, and together they partition the domain.


def _perm_blocks(n: int, jobs: int) -> list:
    if jobs <= 1 or n < 2:
        return [None]
    return [(first,) for first in range(1, n + 1)]


def _iter_perm_block(n: int, block) -> Iterator[Word]:
    if block is None:
        return itertools.permutations(range(1, n + 1))
    first = block[0]
    rest = [v for v in range(1, n + 1) if v != first]
    return ((first, *tail) for tail in itertools.permutations(rest))


def _seq_blocks(n: int, jobs: int) -> list:
    if jobs <= 1 or n < 2:
        return [None]
    width = 2
    while factorial(width) < 2 * jobs and width < min(n, 5):
        width += 1
    return list(itertools.product(*(range(i) for i in range(2, width + 1))))


def _iter_seq_block(n: int, block) -> Iterator[Word]:
    if block is None:
        return itertools.product(*(range(i) for i in range(1, n + 1)))
    width = len(block) + 1
    tails = itertools.product(*(range(i) for i in range(width + 1, n + 1)))
    return ((0, *block, *tail) for tail in tails)


def _run_blocks(worker, n: int, blocks: list, jobs: int) -> list:
    # a pool starts all its workers at once: never more than there are
    # blocks to run or CPUs to run them on
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(n, block) for block in blocks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, itertools.repeat(n), blocks))


# ---------------------------------------------------------------------------
# verifiers


@dataclass
class Report:
    """Outcome of one whole-domain check."""

    n: int
    check: str
    passed: bool
    cases: int
    counterexample: dict | None = None
    table: dict | None = None

    def json_dict(self) -> dict:
        out = {"n": self.n, "check": self.check, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.table is not None:
            out["table"] = self.table
        return out

    def text(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict} check={self.check} n={self.n} cases={self.cases}"
        if self.counterexample is not None:
            line += f"\n  counterexample: {self.counterexample}"
        return line


def _stats_payload(stats) -> list[list[int]]:
    return [list(part) for part in stats]


def _five_tuple_block(n: int, block) -> tuple[int, dict | None]:
    cases = 0
    for p in _iter_perm_block(n, block):
        cases += 1
        code = slice_encode(p)
        left, right = perm_stats(p), seq_stats(code)
        if left != right:
            return cases, {
                "perm": list(p),
                "code": list(code),
                "perm_stats": _stats_payload(left),
                "code_stats": _stats_payload(right),
            }
    return cases, None


def verify_five_tuples(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """Pointwise transport of the five statistics, over all of S_n."""
    _check_args(n, cap, jobs)
    results = _run_blocks(_five_tuple_block, n, _perm_blocks(n, jobs), jobs)
    cases = sum(c for c, _ in results)
    fail = next((f for _, f in results if f is not None), None)
    return Report(n, "2", fail is None, cases, counterexample=fail)


def _bijection_perm_block(n: int, block) -> tuple[int, bytes, dict | None]:
    size = factorial(n)
    hits = bytearray((size + 7) // 8)
    cases = 0
    for p in _iter_perm_block(n, block):
        cases += 1
        code = slice_encode(p)
        r = seq_rank(code)
        if hits[r >> 3] & (1 << (r & 7)):
            return cases, bytes(hits), {
                "code": list(code),
                "perm": list(p),
                "reason": "code already produced by an earlier permutation",
            }
        hits[r >> 3] |= 1 << (r & 7)
        back = slice_decode(code)
        if back != p:
            return cases, bytes(hits), {
                "perm": list(p),
                "code": list(code),
                "decoded": list(back),
                "reason": "decode(encode(p)) differs from p",
            }
    return cases, bytes(hits), None


def _bijection_seq_block(n: int, block) -> tuple[int, dict | None]:
    cases = 0
    for s in _iter_seq_block(n, block):
        cases += 1
        back = slice_encode(slice_decode(s))
        if back != s:
            return cases, {
                "code": list(s),
                "reencoded": list(back),
                "reason": "encode(decode(s)) differs from s",
            }
    return cases, None


def verify_bijection(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """Distinct full image plus both round-trip identities."""
    _check_args(n, cap, jobs)
    size = factorial(n)
    perm_results = _run_blocks(
        _bijection_perm_block, n, _perm_blocks(n, jobs), jobs
    )
    cases = sum(c for c, _, _ in perm_results)
    fail = next((f for _, _, f in perm_results if f is not None), None)
    if fail is None:
        image = 0
        for _, hits, _ in perm_results:
            block_image = int.from_bytes(hits, "little")
            overlap = image & block_image
            if overlap:
                dup = seq_unrank((overlap & -overlap).bit_length() - 1, n)
                fail = {
                    "code": list(dup),
                    "reason": "code produced in two different blocks",
                }
                break
            image |= block_image
        if fail is None and image.bit_count() != size:
            missed = next(
                r for r in range(size) if not (image >> r) & 1
            )
            fail = {
                "code": list(seq_unrank(missed, n)),
                "reason": "subexcedant sequence never produced",
            }
    if fail is None:
        seq_results = _run_blocks(
            _bijection_seq_block, n, _seq_blocks(n, jobs), jobs
        )
        cases += sum(c for c, _ in seq_results)
        fail = next((f for _, f in seq_results if f is not None), None)
    return Report(n, "bijection", fail is None, cases, counterexample=fail)


def _exchange_block(n: int, block) -> tuple[int, dict, dict, dict | None]:
    forward: dict = {}
    swapped: dict = {}
    cases = 0
    for s in _iter_seq_block(n, block):
        cases += 1
        asc_s, row_s = len(ascent_set(s)), len(last_value_set(s))
        forward[(asc_s, row_s)] = forward.get((asc_s, row_s), 0) + 1
        swapped[(row_s, asc_s)] = swapped.get((row_s, asc_s), 0) + 1
        t = slice_encode(invert(slice_decode(s)))
        if (len(last_value_set(t)), len(ascent_set(t))) != (asc_s, row_s):
            return cases, forward, swapped, {
                "code": list(s),
                "witness": list(t),
                "asc": asc_s,
                "row": row_s,
                "witness_asc": len(ascent_set(t)),
                "witness_row": len(last_value_set(t)),
            }
    return cases, forward, swapped, None


def verify_asc_row_exchange(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """(asc, row) and (row, asc) are equidistributed over the sequences.

    The witness map s -> encode(invert(decode(s))) carries (asc, row) of s
    to (row, asc) of the image pointwise.  The exchange is a statement
    about the cardinality statistics: the set-valued pair cannot exchange,
    since ascents live in 1..n-1 while row positions live in 2..n.
    """
    _check_args(n, cap, jobs)
    results = _run_blocks(_exchange_block, n, _seq_blocks(n, jobs), jobs)
    cases = sum(c for c, _, _, _ in results)
    fail = next((f for _, _, _, f in results if f is not None), None)
    if fail is None:
        forward = DistTable(n)
        swapped = DistTable(n)
        for _, fwd, swp, _ in results:
            forward = forward.merge(DistTable(n, fwd))
            swapped = swapped.merge(DistTable(n, swp))
        if forward.counts != swapped.counts:
            keys = set(forward.counts) | set(swapped.counts)
            key = next(
                k
                for k in sorted(keys)
                if forward.counts.get(k, 0) != swapped.counts.get(k, 0)
            )
            fail = {
                "key": list(key),
                "forward": forward.counts.get(key, 0),
                "swapped": swapped.counts.get(key, 0),
                "reason": "joint tables differ",
            }
    return Report(n, "corollary2", fail is None, cases, counterexample=fail)


def _marginal_perm_block(n: int, block) -> tuple[int, Counter, Counter, Counter]:
    des: Counter = Counter()
    ides: Counter = Counter()
    dumont: Counter = Counter()
    cases = 0
    for p in _iter_perm_block(n, block):
        cases += 1
        des[len(descent_set(p))] += 1
        ides[len(inverse_descent_set(p))] += 1
        dumont[dumont_stat(p)] += 1
    return cases, des, ides, dumont


def _marginal_seq_block(n: int, block) -> tuple[int, Counter, Counter]:
    asc: Counter = Counter()
    row: Counter = Counter()
    cases = 0
    for s in _iter_seq_block(n, block):
        cases += 1
        asc[len(ascent_set(s))] += 1
        row[len(last_value_set(s))] += 1
    return cases, asc, row


def verify_eulerian_marginals(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """des, ides, dumont (over permutations) and asc, row (over sequences)
    all share one distribution."""
    _check_args(n, cap, jobs)
    perm_results = _run_blocks(
        _marginal_perm_block, n, _perm_blocks(n, jobs), jobs
    )
    seq_results = _run_blocks(
        _marginal_seq_block, n, _seq_blocks(n, jobs), jobs
    )
    cases = sum(c for c, *_ in perm_results) + sum(
        c for c, *_ in seq_results
    )
    marginals = {
        "des": Counter(),
        "ides": Counter(),
        "dumont": Counter(),
        "asc": Counter(),
        "row": Counter(),
    }
    for _, des, ides, dumont in perm_results:
        marginals["des"] += des
        marginals["ides"] += ides
        marginals["dumont"] += dumont
    for _, asc, row in seq_results:
        marginals["asc"] += asc
        marginals["row"] += row
    reference = marginals["des"]
    fail = None
    for name, counter in marginals.items():
        if counter != reference:
            value = next(
                v
                for v in sorted(set(reference) | set(counter))
                if counter.get(v, 0) != reference.get(v, 0)
            )
            fail = {
                "stat": name,
                "value": value,
                "count": counter.get(value, 0),
                "expected": reference.get(value, 0),
            }
            break
    table = {str(k): reference[k] for k in sorted(reference)}
    return Report(
        n, "eulerian", fail is None, cases, counterexample=fail, table=table
    )
