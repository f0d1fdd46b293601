"""Generators, distribution tables, verifiers, and the block contract."""

import itertools
from collections import Counter
from math import factorial

import pytest

import oracles
from permcode import (
    UsageError,
    double_eulerian,
    iter_perms,
    iter_subexcedant,
    verify_asc_row_exchange,
    verify_bijection,
    verify_eulerian_marginals,
    verify_five_tuples,
)
from permcode import ascent_set, enumeration, last_value_set, slice_encode
from permcode.cli import _matrix, _polynomial
from permcode.enumeration import _seq_marginals, _walk
from oracles import seq_rank, seq_unrank


def test_iter_perms_lexicographic():
    got = list(iter_perms(3))
    assert got == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert got == sorted(got)


def test_iter_subexcedant_counting_order():
    got = list(iter_subexcedant(3))
    assert got == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]
    assert got == sorted(got)


def test_counts_match_factorial():
    for n in range(1, 7):
        assert len(list(iter_perms(n))) == factorial(n)
        assert len(list(iter_subexcedant(n))) == factorial(n)


def test_cap_guard():
    with pytest.raises(ValueError):
        next(iter_perms(11))
    with pytest.raises(ValueError):
        next(iter_subexcedant(12))
    with pytest.raises(ValueError):
        iter_perms(0)
    # explicit override opens the gate
    assert next(iter(iter_perms(11, cap=11))) == tuple(range(1, 12))


def test_seq_rank_unrank():
    for n in range(1, 6):
        for rank, s in enumerate(iter_subexcedant(n)):
            assert seq_rank(s) == rank
            assert seq_unrank(rank, n) == s


def test_dist_table_total():
    table = double_eulerian(3, side="seqs")
    assert table == Counter({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    assert sum(table.values()) == 6


def test_dist_table_matrix_and_polynomial():
    table = double_eulerian(3)
    assert table == Counter({(0, 0): 1, (1, 1): 4, (2, 2): 1})
    assert _matrix(table, 3) == [[1, 0, 0], [0, 4, 0], [0, 0, 1]]
    assert _polynomial(table) == "u*v + 4*u^2*v^2 + u^3*v^3"
    assert _polynomial(double_eulerian(1)) == "u*v"


def test_double_eulerian_sides_agree():
    for n in range(1, 7):
        perms_side = double_eulerian(n, side="perms")
        seqs_side = double_eulerian(n, side="seqs")
        assert perms_side == seqs_side
        assert sum(perms_side.values()) == factorial(n)


def test_double_eulerian_transpose_symmetric():
    for n in range(1, 7):
        counts = double_eulerian(n)
        assert counts == {(e, d): c for (d, e), c in counts.items()}


def test_double_eulerian_matches_carlitz_roselle_scoville():
    # both sides of the table, and the Eulerian report's table, which holds
    # the row sums A_n(s, 1)
    for n in range(1, 9):
        crs = oracles.carlitz_roselle_scoville(n)
        assert double_eulerian(n, side="perms") == crs
        assert double_eulerian(n, side="seqs") == crs
        rows = Counter()
        for (d, _), count in crs.items():
            rows[d] += count
        table = verify_eulerian_marginals(n).table
        assert table == {str(d): count for d, count in sorted(rows.items())}


def test_double_eulerian_is_gamma_positive():
    for n in range(1, 9):
        gamma = oracles.gamma_coefficients(double_eulerian(n), n)
        assert gamma is not None, n
        assert all(isinstance(g, int) and g >= 0 for g in gamma.values()), n
    assert oracles.gamma_coefficients({(0, 0): 1, (1, 1): 4, (2, 2): 1}, 3) == {
        (0, 0): 1,
        (0, 1): 2,
    }
    # the (des, ides) table of S_3 less one identity is not palindromic
    assert oracles.gamma_coefficients({(1, 1): 4, (2, 2): 1}, 3) is None


def test_double_eulerian_rejects_bad_side():
    with pytest.raises(ValueError):
        double_eulerian(3, side="words")


def test_verifiers_pass_small():
    for n in range(1, 7):
        for verifier in (
            verify_five_tuples,
            verify_bijection,
            verify_asc_row_exchange,
            verify_eulerian_marginals,
        ):
            report = verifier(n)
            assert report.passed, report.text()
            assert report.counterexample is None


def test_eulerian_marginals_match_classical_numbers():
    for n in range(1, 7):
        report = verify_eulerian_marginals(n)
        expected = oracles.eulerian_numbers(n)
        assert report.table == {
            str(k): v for k, v in enumerate(expected) if v
        }


def test_report_json_schema():
    report = verify_five_tuples(3)
    payload = report.json_dict()
    assert payload == {"n": 3, "check": "2", "pass": True}
    report = verify_eulerian_marginals(3)
    payload = report.json_dict()
    assert set(payload) == {"n", "check", "pass", "table"}
    assert payload["table"] == {"0": 1, "1": 4, "2": 1}


def test_blocks_partition_streams():
    # the walk's blocks, one per first entry, run in order, visit S_n in
    # lexicographic order, each permutation with its slice code
    for n in range(1, 6):
        seen = []
        blocks = [()] if n == 1 else [(first,) for first in range(1, n + 1)]
        for block in blocks:
            cases, fail, _ = _walk(n, block, lambda p, c: seen.append((p, c)))
            assert fail is None and cases == factorial(n) // len(blocks)
        assert [p for p, _ in seen] == list(iter_perms(n))
        assert all(code == slice_encode(p) for p, code in seen)


def test_marginal_dps_match_enumeration():
    for n in range(1, 9):
        seqs = list(iter_subexcedant(n))
        asc, row = _seq_marginals(n)
        assert asc == Counter(len(ascent_set(s)) for s in seqs)
        assert row == Counter(len(last_value_set(s)) for s in seqs)
        assert 0 not in asc.values() and 0 not in row.values()


def test_parallel_jobs_match_single_threaded():
    for verifier in (
        verify_five_tuples,
        verify_bijection,
        verify_asc_row_exchange,
        verify_eulerian_marginals,
    ):
        single = verifier(5, jobs=1)
        parallel = verifier(5, jobs=2)
        assert parallel.passed == single.passed
        assert parallel.cases == single.cases
        assert parallel.table == single.table


def test_verifier_reports_name_their_check():
    assert verify_five_tuples(2).check == "2"
    assert verify_bijection(2).check == "bijection"
    assert verify_asc_row_exchange(2).check == "corollary2"
    assert verify_eulerian_marginals(2).check == "eulerian"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "jobs, cpus, n, workers",
    [
        (64, 2, 5, [2]),  # clamped to the CPUs
        (64, 8, 3, [3]),  # clamped to the 3 blocks
        (2, 8, 5, [2]),
        (4, None, 5, []),  # CPU count unknown: one worker, no pool
        (1, 8, 5, []),
    ],
)
def test_pool_size_is_clamped(monkeypatch, jobs, cpus, n, workers):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: cpus)
    report = verify_eulerian_marginals(n, jobs=jobs)
    assert report.passed and report.cases == 2 * factorial(n)
    assert RecordingPool.sizes == workers


def test_jobs_below_one_rejected():
    for verifier in (
        verify_five_tuples,
        verify_bijection,
        verify_asc_row_exchange,
        verify_eulerian_marginals,
    ):
        for jobs in (0, -1):
            with pytest.raises(UsageError, match="jobs"):
                verifier(3, jobs=jobs)


def test_usage_errors_are_value_errors():
    with pytest.raises(UsageError):
        iter_perms(0)
    with pytest.raises(UsageError):
        verify_five_tuples(11)
    assert issubclass(UsageError, ValueError)
