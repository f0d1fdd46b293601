"""Exhaustive generators, distribution tables, and whole-domain verifiers.

Everything here sweeps complete domains: all n! permutations of 1..n in
lexicographic order, or all n! subexcedant sequences of length n in
mixed-radix counting order.  A cap guards against accidental factorial
blowups; pass a larger cap explicitly to go past it.

The verifiers walk the prefixes of S_n depth first, one slice encoder step
per prefix, with the encoder step and decoder kernel that slice_encode and
slice_decode run, so they certify the shipped codec:

* verify_five_tuples: the slice code transports (Des, Ides, LrM, Lrm, RlM)
  of the permutation to (Asc, Row, Pos0, Max, Rlm) of the code, pointwise;
* verify_bijection: every code is subexcedant and decodes back to its
  permutation, which makes the code a bijection onto the sequences;
* verify_asc_row_exchange: s -> slice_encode(invert(slice_decode(s)))
  swaps (Asc, Row) to (Row, Asc) pointwise, so the two joint tables agree;
* verify_eulerian_marginals: des, ides, the distinct-nonzero-Lehmer-entry
  statistic (over permutations), asc and row (over sequences, by dynamic
  programs) all share one distribution, the Eulerian numbers.

With jobs > 1 the blocks of the walk, one per first entry, run in worker
processes (no more than jobs, blocks or CPUs).  Reports do not depend on
jobs: a counterexample is the first failing permutation in lexicographic
order and cases its position (the domain size on PASS); an exception
raised while checking a permutation fails it with repr() of the error.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from math import factorial

from . import inverse as _inverse
from . import slices as _slices
from .core import (
    InvalidWordError,
    UsageError,
    Word,
    ascent_set,
    check_subexcedant,
    descent_set,
    inverse_descent_set,
    invert,
    last_value_set,
    perm_stats,
    seq_stats,
)
from .lehmer import dumont_stat

__all__ = [
    "DEFAULT_CAP",
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


# ---------------------------------------------------------------------------
# the joint distribution


def double_eulerian(n: int, side: str = "perms", cap: int = DEFAULT_CAP) -> Counter:
    """Joint distribution: counts of (des, ides) over permutations, or of
    (asc, row) over subexcedant sequences.  The two coincide.

    >>> double_eulerian(3) == Counter({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    True
    >>> double_eulerian(3, side="seqs") == double_eulerian(3)
    True
    """
    if side == "perms":
        return Counter(
            (len(descent_set(p)), len(inverse_descent_set(p)))
            for p in iter_perms(n, cap)
        )
    if side == "seqs":
        return Counter(
            (len(ascent_set(s)), len(last_value_set(s)))
            for s in iter_subexcedant(n, cap)
        )
    raise ValueError(f"side must be 'perms' or 'seqs', got {side!r}")


# ---------------------------------------------------------------------------
# the walk over S_n, in blocks


def _nth_perm(n: int, rank: int) -> Word:
    """The permutation of lexicographic rank `rank`; failures only."""
    return next(itertools.islice(iter_perms(n, cap=n), rank, None))


def _failed(n: int, block: Word, passed: int, fail: dict | Exception) -> tuple:
    """The result of a block whose first `passed` permutations passed."""
    rank = (block[0] - 1) * factorial(n - 1) + passed if block else passed
    if isinstance(fail, Exception):
        fail = {"perm": list(_nth_perm(n, rank)), "error": repr(fail)}
    return rank + 1, fail, None


def _walk(n: int, block: Word, leaf: Callable, payload=None) -> tuple:
    """Call leaf(p, slice code of p) for the permutations p of a block in
    lexicographic order until one returns a counterexample; return the
    block's result.  Each prefix costs one encoder step on a copy of its
    parent's state.  A step raises for every extension of its prefix, so
    the first one not yet passed has failed, as when leaf raises."""
    encode_step = _slices._encode_step
    perm = [0] * n
    code = [0] * n
    passed = 0

    def descend(depth, free, seen, bottoms, live, count):
        nonlocal passed
        step = depth + 1
        if step == n:
            x = perm[depth] = free[0]
            code[depth] = encode_step(seen, bottoms, live, count, step, x)[0]
            fail = leaf(tuple(perm), tuple(code))
            passed += fail is None
            return fail
        for j, x in enumerate(free):
            s, b, v = bytearray(seen), bottoms.copy(), live.copy()
            perm[depth] = x
            code[depth], c = encode_step(s, b, v, count, step, x)
            fail = descend(step, free[:j] + free[j + 1 :], s, b, v, c)
            if fail is not None:
                return fail
        return None

    try:
        seen, bottoms, live, count = _slices._encode_start(n)
        for step, x in enumerate(block, start=1):
            perm[step - 1] = x
            code[step - 1], count = encode_step(seen, bottoms, live, count, step, x)
        free = [v for v in range(1, n + 1) if v not in block]
        fail = descend(len(block), free, seen, bottoms, live, count)
    except Exception as exc:  # a bug in the checked code is a failure
        fail = exc
    return (passed, None, payload) if fail is None else _failed(n, block, passed, fail)


def _sweep(worker, n: int, jobs: int, merge=None) -> tuple[int, dict | None]:
    """(cases, counterexample) of worker(n, block) run on each block of S_n
    in order until one fails; passing blocks' payloads go to merge.  A block
    is the first entry shared by a run of the lexicographic order (() when
    n = 1), for serial runs too.  A worker returns (cases, counterexample,
    payload), cases being the block's size or the failure's position."""
    blocks = [()] if n < 2 else [(first,) for first in range(1, n + 1)]
    # a pool starts all its workers at once: never more than there are
    # blocks to run or CPUs to run them on
    workers = min(jobs, len(blocks), os.cpu_count() or 1)
    total = 0
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if workers > 1 else map
        for cases, fail, payload in run(worker, itertools.repeat(n), blocks):
            if fail is not None:
                return cases, fail
            total += cases
            if merge is not None:
                merge(payload)
    return total, None


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


def _five_tuple_failure(p: Word, code: Word) -> dict | None:
    left, right = perm_stats(p), seq_stats(code)
    if left == right:
        return None
    return {
        "perm": list(p),
        "code": list(code),
        "perm_stats": [list(part) for part in left],
        "code_stats": [list(part) for part in right],
    }


def verify_five_tuples(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """Pointwise transport of the five statistics, over all of S_n.

    Counterexample keys: perm, code, perm_stats, code_stats; or perm,
    error when checking the permutation raised.
    """
    _check_args(n, cap, jobs)
    cases, fail = _sweep(partial(_walk, leaf=_five_tuple_failure), n, jobs)
    return Report(n, "2", fail is None, cases, counterexample=fail)


def _decode_failure(p: Word, code: Word) -> dict | None:
    """The bijection's obligation: the code of p is subexcedant and
    decodes back to p."""
    try:
        check_subexcedant(code)
    except InvalidWordError as exc:
        reason = f"encode(p) is not subexcedant: {exc}"
        return {"perm": list(p), "code": list(code), "reason": reason}
    back = _inverse._decode(code)
    if back == p:
        return None
    return {
        "perm": list(p),
        "code": list(code),
        "decoded": list(back),
        "reason": "decode(encode(p)) differs from p",
    }


def verify_bijection(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """The slice code is a bijection from S_n onto the subexcedant sequences.

    Each code is subexcedant and decodes back to its permutation, so the
    encoder is injective, hence onto the n! sequences, and the decoder is
    its inverse.  On PASS cases counts both domains, 2 n!.  Counterexample
    keys: perm, code, reason (and decoded, if it differs), or perm, error.
    """
    _check_args(n, cap, jobs)
    cases, fail = _sweep(partial(_walk, leaf=_decode_failure), n, jobs)
    cases *= 1 if fail else 2
    return Report(n, "bijection", fail is None, cases, counterexample=fail)


# (asc, row) of a code packs into the byte 1 + 16 asc + row (both are below
# 16 for any n one can sweep); _SWAP maps it to the byte of (row, asc)
_SWAP = bytes([0] + [1 + 16 * (k % 16) + k // 16 for k in range(255)])


def _exchange_block(n: int, block: Word) -> tuple:
    packed = bytearray()

    def leaf(p: Word, code: Word) -> dict | None:
        fail = _decode_failure(p, code)
        if fail is None:
            packed.append(1 + 16 * len(ascent_set(code)) + len(last_value_set(code)))
        return fail

    return _walk(n, block, leaf, packed)


def _inverse_ranks(n: int) -> Iterator[int]:
    """rank(p^-1) for the permutations p of S_n in lexicographic order,
    as sum_k L(p)_k (n - p_k)! (L the Lehmer code) down the prefix tree."""
    weight = [factorial(n - x) for x in range(n + 1)]

    def descend(free, base):
        if len(free) == 1:
            yield base + (n - free[0]) * weight[free[0]]
            return
        for j, x in enumerate(free):
            # L(p)_k: the values above x, less those above x still free
            lehmer = n - x - (len(free) - 1 - j)
            yield from descend(free[:j] + free[j + 1 :], base + lehmer * weight[x])

    return descend(list(range(1, n + 1)), 0)


def _exchange_failure(n: int, packed: bytearray) -> tuple[int, dict | None]:
    for rank, inverse_rank in enumerate(_inverse_ranks(n)):
        if packed[inverse_rank] != _SWAP[packed[rank]]:
            p = _nth_perm(n, rank)
            s, t = _slices.slice_encode(p), _slices.slice_encode(invert(p))
            return rank + 1, {
                "code": list(s),
                "witness": list(t),
                "asc": len(ascent_set(s)),
                "row": len(last_value_set(s)),
                "witness_asc": len(ascent_set(t)),
                "witness_row": len(last_value_set(t)),
            }
    return len(packed), None


def verify_asc_row_exchange(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """(asc, row) and (row, asc) are equidistributed over the sequences.

    The witness map s -> encode(invert(decode(s))) carries (asc, row) of s
    to (row, asc) of the image pointwise.  The exchange is a statement
    about the cardinality statistics: the set-valued pair cannot exchange,
    since ascents live in 1..n-1 while row positions live in 2..n.

    Each p first meets verify_bijection's obligation, which makes
    encode(p^-1) the witness of encode(p); (asc, row) of each code is kept
    at the rank of p for one pass comparing p with p^-1.  As p -> p^-1
    permutes S_n, the pointwise swap makes the (asc, row) and (row, asc)
    tables equal.  Counterexample keys: verify_bijection's; or code,
    witness, asc, row, witness_asc, witness_row.
    """
    _check_args(n, cap, jobs)
    packed = bytearray()
    cases, fail = _sweep(_exchange_block, n, jobs, packed.extend)
    if fail is None:
        cases, fail = _exchange_failure(n, packed)
    return Report(n, "corollary2", fail is None, cases, counterexample=fail)


def _marginal_block(n: int, block: Word) -> tuple:
    """Counts of (statistic, value) over a block, des, ides and dumont."""
    counts: Counter = Counter()
    passed = 0
    rest = [v for v in range(1, n + 1) if v not in block]
    try:
        for tail in itertools.permutations(rest):
            p = (*block, *tail)
            counts["des", len(descent_set(p))] += 1
            counts["ides", len(inverse_descent_set(p))] += 1
            counts["dumont", dumont_stat(p)] += 1
            passed += 1
    except Exception as exc:  # a bug in the checked code is a failure
        return _failed(n, block, passed, exc)
    return passed, None, counts


def _seq_marginals(n: int) -> tuple[Counter, Counter]:
    """asc and row over the subexcedant sequences of length n, by DPs over
    (last entry, ascents) and k, the distinct nonzero entries so far."""
    ascs, rows = Counter({(0, 0): 1}), Counter({0: 1})
    for i in range(2, n + 1):  # entry i is one of 0..i-1
        next_ascs, next_rows = Counter(), Counter()
        for (last, asc), count in ascs.items():
            for v in range(i):
                next_ascs[v, asc + (v > last)] += count
        for k, count in rows.items():
            next_rows[k] += (1 + k) * count  # 0 or one of the k
            next_rows[k + 1] += (i - 1 - k) * count  # another of 1..i-1
        ascs, rows = next_ascs, next_rows
    asc: Counter = Counter()
    for (_, a), count in ascs.items():
        asc[a] += count
    return asc, +rows  # without the zero counts


def verify_eulerian_marginals(n: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> Report:
    """des, ides, dumont (over permutations) and asc, row (over sequences)
    all share one distribution.

    cases counts both domains, 2 n!.  Counterexample keys: stat, value,
    count, expected; or perm, error when checking a permutation raised.
    """
    _check_args(n, cap, jobs)
    counts: Counter = Counter()
    cases, fail = _sweep(_marginal_block, n, jobs, counts.update)
    if fail is not None:
        return Report(n, "eulerian", False, cases, counterexample=fail)
    marginals = {
        name: Counter({v: c for (stat, v), c in counts.items() if stat == name})
        for name in ("des", "ides", "dumont")
    }
    marginals["asc"], marginals["row"] = _seq_marginals(n)
    reference = marginals["des"]
    for name, counter in marginals.items():
        wrong = sorted(v for v in {*reference, *counter} if counter[v] != reference[v])
        if wrong:
            value = wrong[0]
            fail = {
                "stat": name,
                "value": value,
                "count": counter[value],
                "expected": reference[value],
            }
            break
    table = {str(k): reference[k] for k in sorted(reference)}
    return Report(
        n, "eulerian", fail is None, 2 * cases, counterexample=fail, table=table
    )
