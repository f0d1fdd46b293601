"""Slice dynamics, the case classification, and the slice encoder."""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from permcode import (
    InvalidWordError,
    REMOVE,
    SHRINK_BOTTOM,
    SHRINK_TOP,
    SPLIT,
    code_cases,
    lrmax_set,
    lrmin_set,
    profiles,
    slice_cases,
    slice_encode,
    slices,
)

PERM = (6, 2, 5, 8, 7, 3, 1, 4)

# Hand-derived from the interval dynamics, one permutation at a time.
S3_CODES = {
    (1, 2, 3): (0, 0, 0),
    (1, 3, 2): (0, 0, 1),
    (2, 1, 3): (0, 1, 0),
    (2, 3, 1): (0, 0, 2),
    (3, 1, 2): (0, 1, 1),
    (3, 2, 1): (0, 1, 2),
}

S3_CASES = {
    (1, 2, 3): (SPLIT, SHRINK_BOTTOM, REMOVE),
    (1, 3, 2): (SPLIT, SHRINK_TOP, REMOVE),
    (2, 1, 3): (SPLIT, SHRINK_TOP, REMOVE),
    (2, 3, 1): (SPLIT, REMOVE, SHRINK_TOP),
    (3, 1, 2): (SHRINK_TOP, SPLIT, REMOVE),
    (3, 2, 1): (SHRINK_TOP, SHRINK_TOP, SHRINK_TOP),
}


def test_s3_codes_frozen():
    for p, code in S3_CODES.items():
        assert slice_encode(p) == code, p


def test_s3_cases_frozen():
    for p, cases in S3_CASES.items():
        assert slice_cases(p) == cases, p
        assert code_cases(S3_CODES[p]) == cases, p


def test_golden_code_and_cases():
    assert slice_encode(PERM) == (0, 1, 1, 0, 2, 3, 6, 3)
    assert slice_cases(PERM) == (0, 0, 1, 1, 3, 2, 1, 3)
    assert code_cases((0, 1, 1, 0, 2, 3, 6, 3)) == (0, 0, 1, 1, 3, 2, 1, 3)


def test_golden_slice_trace():
    trace = [
        [(sl.lo, sl.hi, sl.label) for sl in s.intervals]
        for s in oracles.check_slices(PERM)
    ]
    assert trace == [
        [(0, 8, 0)],
        [(7, 8, 0), (0, 5, 1)],
        [(7, 8, 0), (3, 5, 1), (0, 1, 2)],
        [(7, 8, 0), (3, 4, 2), (0, 1, 3)],
        [(7, 7, 2), (3, 4, 3), (0, 1, 4)],
        [(3, 4, 3), (0, 1, 5)],
        [(4, 4, 3), (0, 1, 6)],
        [(4, 4, 3), (0, 0, 7)],
    ]


def test_golden_profiles():
    trace = [list(p.intervals) for p in profiles(PERM)]
    assert trace == [
        [(6, 6)],
        [(6, 6), (2, 2)],
        [(5, 6), (2, 2)],
        [(8, 8), (5, 6), (2, 2)],
        [(5, 8), (2, 2)],
        [(5, 8), (2, 3)],
        [(5, 8), (1, 3)],
    ]


def test_identity_and_reversal_codes():
    for n in range(1, 9):
        identity = tuple(range(1, n + 1))
        assert slice_encode(identity) == (0,) * n
        assert slice_encode(identity[::-1]) == tuple(range(n))


def test_single_letter():
    assert slice_encode((1,)) == (0,)
    assert slice_cases((1,)) == (SHRINK_TOP,)
    assert code_cases((0,)) == (SHRINK_TOP,)


def test_boundary_cases_of_classification():
    # the last entry always lacks a later successor; value 1 keeps its
    # virtual predecessor to the right, every other last value does not
    for p in itertools.permutations(range(1, 6)):
        cases = slice_cases(p)
        assert cases[-1] == (SHRINK_TOP if p[-1] == 1 else REMOVE)
        assert cases[0] == (SHRINK_TOP if p[0] == 5 else SPLIT)


def test_cases_agree_via_both_routes_exhaustively():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert slice_cases(p) == code_cases(slice_encode(p)), p


def test_code_marks_extrema():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            code = slice_encode(p)
            assert tuple(
                i for i, c in enumerate(code, 1) if c == 0
            ) == lrmax_set(p)
            assert tuple(
                i for i, c in enumerate(code, 1) if c == i - 1
            ) == lrmin_set(p)


def test_slice_invariants_exhaustively():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert len(oracles.check_slices(p)) == n


def test_profiles_complement_slices():
    for n in range(2, 7):
        for p in itertools.permutations(range(1, n + 1)):
            profile_trace = profiles(p)
            for sl, pr in zip(slices(p)[1:], profile_trace):
                slice_vals = {
                    x
                    for lo, hi, _ in sl.intervals
                    for x in range(lo, hi + 1)
                }
                profile_vals = {
                    x for lo, hi in pr.intervals for x in range(lo, hi + 1)
                }
                assert len(profile_vals) == pr.step
                assert slice_vals | profile_vals == set(range(n + 1))
                assert not slice_vals & profile_vals


@given(st.permutations(range(1, 21)))
def test_code_is_subexcedant(p):
    p = tuple(p)
    code = slice_encode(p)
    assert all(0 <= c <= i for i, c in enumerate(code))


@given(st.permutations(range(1, 15)))
def test_case_transport(p):
    p = tuple(p)
    assert slice_cases(p) == code_cases(slice_encode(p))


def test_rejects_non_permutation():
    with pytest.raises(InvalidWordError):
        slice_encode((0, 1, 2))
    with pytest.raises(InvalidWordError):
        slices((2, 2, 1))
    with pytest.raises(InvalidWordError):
        code_cases((0, 3, 1))
