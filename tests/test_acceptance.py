"""Acceptance suite: the ten whole-artifact criteria.

Each criterion is one test; run `pytest tests/test_acceptance.py -v` for a
pass/fail line per criterion, or `python3 tests/test_acceptance.py` for
the same list without pytest.  The exhaustive criteria sweep every n up to
8 (46,233 permutations and as many subexcedant sequences).
"""

import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import oracles
from permcode import (
    code_cases,
    double_eulerian,
    inverse_descent_set,
    iter_perms,
    last_value_set,
    lehmer_encode,
    perm_stats,
    seq_stats,
    slice_cases,
    slice_encode,
    verify_asc_row_exchange,
    verify_bijection,
    verify_eulerian_marginals,
    verify_five_tuples,
)

PERM = (6, 2, 5, 8, 7, 3, 1, 4)
CODE = (0, 1, 1, 0, 2, 3, 6, 3)
CASES = (0, 0, 1, 1, 3, 2, 1, 3)
LEHMER = (0, 1, 1, 0, 1, 4, 6, 4)
GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_trace.txt"
MAX_N = 8


def test_criterion_01_golden_forward():
    assert slice_encode(PERM) == CODE
    assert slice_cases(PERM) == CASES
    assert lehmer_encode(PERM) == LEHMER
    # steady-state cost of the three encodings stays under a millisecond
    best = min(
        _timed(lambda: (slice_encode(PERM), slice_cases(PERM), lehmer_encode(PERM)))
        for _ in range(5)
    )
    assert best < 1e-3, f"golden encodings took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_golden_trace():
    proc = subprocess.run(
        [sys.executable, "-m", "permcode.cli", "trace", "6 2 5 8 7 3 1 4"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TRACE.read_bytes()


def test_criterion_03_golden_statistics():
    left, right = perm_stats(PERM), seq_stats(CODE)
    assert left == right
    assert left == (
        (1, 4, 5, 6),
        (3, 5, 7, 8),
        (1, 4),
        (1, 2, 7),
        (4, 5, 8),
    )
    # the Lehmer code does not transport the inverse-descent set
    assert last_value_set(lehmer_encode(PERM)) == (5, 7, 8)
    assert last_value_set(lehmer_encode(PERM)) != inverse_descent_set(PERM)


def test_criterion_04_bijectivity():
    start = time.perf_counter()
    perm_cases = 0
    for n in range(1, MAX_N + 1):
        report = verify_bijection(n)
        assert report.passed, report.text()
        perm_cases += report.cases // 2  # the report sweeps both domains
    elapsed = time.perf_counter() - start
    assert perm_cases == 46233
    assert elapsed < 30, f"bijectivity sweep took {elapsed:.1f} s"


def test_criterion_05_five_tuple_transport():
    for n in range(1, MAX_N + 1):
        report = verify_five_tuples(n)
        assert report.passed, report.text()
        assert report.counterexample is None
        assert report.cases == factorial(n)


def test_criterion_06_joint_tables_agree():
    for n in range(1, MAX_N + 1):
        perms_side = double_eulerian(n, side="perms")
        seqs_side = double_eulerian(n, side="seqs")
        assert perms_side == seqs_side
        assert sum(perms_side.values()) == factorial(n)
    assert double_eulerian(3) == {(0, 0): 1, (1, 1): 4, (2, 2): 1}


def test_criterion_07_asc_row_exchange():
    for n in range(1, MAX_N + 1):
        report = verify_asc_row_exchange(n)
        assert report.passed, report.text()


def test_criterion_08_eulerian_marginals():
    for n in range(1, MAX_N + 1):
        report = verify_eulerian_marginals(n)
        assert report.passed, report.text()
    assert verify_eulerian_marginals(3).table == {"0": 1, "1": 4, "2": 1}


def test_criterion_09_cases_cross_definition():
    for n in range(1, MAX_N + 1):
        for p in iter_perms(n):
            assert slice_cases(p) == code_cases(slice_encode(p)), p


def test_criterion_10_slice_invariants():
    for n in range(1, MAX_N + 1):
        for p in iter_perms(n):
            oracles.check_slices(p)


_CRITERIA = [
    ("01 golden forward", test_criterion_01_golden_forward),
    ("02 golden trace", test_criterion_02_golden_trace),
    ("03 golden statistics", test_criterion_03_golden_statistics),
    ("04 bijectivity n<=8", test_criterion_04_bijectivity),
    ("05 five-tuple transport n<=8", test_criterion_05_five_tuple_transport),
    ("06 joint tables n<=8", test_criterion_06_joint_tables_agree),
    ("07 asc/row exchange n<=8", test_criterion_07_asc_row_exchange),
    ("08 Eulerian marginals n<=8", test_criterion_08_eulerian_marginals),
    ("09 case cross-definition n<=8", test_criterion_09_cases_cross_definition),
    ("10 slice invariants n<=8", test_criterion_10_slice_invariants),
]


if __name__ == "__main__":
    failed = False
    for name, fn in _CRITERIA:
        try:
            fn()
        except AssertionError as exc:
            failed = True
            print(f"criterion {name}: FAIL  {exc}")
        else:
            print(f"criterion {name}: PASS")
    sys.exit(1 if failed else 0)
