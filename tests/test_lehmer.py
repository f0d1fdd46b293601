"""Lehmer code round trips and the distinct-nonzero-entry statistic."""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from permcode import (
    InvalidWordError,
    check_subexcedant,
    dumont_stat,
    iter_perms,
    lehmer_decode,
    lehmer_encode,
    perm_stats,
    seq_stats,
)


def test_golden_code():
    assert lehmer_encode((6, 2, 5, 8, 7, 3, 1, 4)) == (0, 1, 1, 0, 1, 4, 6, 4)
    assert lehmer_decode((0, 1, 1, 0, 1, 4, 6, 4)) == (6, 2, 5, 8, 7, 3, 1, 4)


def test_identity_and_reversal():
    assert lehmer_encode((1, 2, 3, 4)) == (0, 0, 0, 0)
    assert lehmer_encode((4, 3, 2, 1)) == (0, 1, 2, 3)
    assert lehmer_decode((0, 0, 0)) == (1, 2, 3)
    assert lehmer_decode((0, 1, 2)) == (3, 2, 1)


def test_matches_oracle_and_roundtrips_exhaustively():
    for n in range(1, 7):
        seen = set()
        for p in itertools.permutations(range(1, n + 1)):
            code = lehmer_encode(p)
            assert code == oracles.lehmer(p)
            check_subexcedant(code)
            assert lehmer_decode(code) == p
            seen.add(code)
        assert len(seen) == len(list(itertools.permutations(range(n))))


@given(st.permutations(range(1, 15)))
def test_roundtrip(p):
    p = tuple(p)
    assert lehmer_decode(lehmer_encode(p)) == p


@given(st.permutations(range(1, 12)))
def test_total_counts_inversions(p):
    p = tuple(p)
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(p)), 2)
        if p[i] > p[j]
    )
    assert sum(lehmer_encode(p)) == inversions


def test_transports_all_but_ides_exhaustively():
    # (Des, LrM, Lrm, RlM) of p are (Asc, Pos0, Max, Rlm) of its Lehmer
    # code for every p; Ides and Row first differ at n = 4
    mismatches = []
    for n in range(1, 9):
        differ = 0
        for p in iter_perms(n):
            left, right = perm_stats(p), seq_stats(lehmer_encode(p))
            assert left[0] == right[0] and left[2:] == right[2:], p
            differ += left[1] != right[1]
        mismatches.append(differ)
    assert mismatches == [0, 0, 0, 2, 25, 250, 2420, 24073]


def test_dumont_golden():
    assert dumont_stat((6, 2, 5, 8, 7, 3, 1, 4)) == 3


@given(st.permutations(range(1, 10)))
def test_dumont_counts_distinct_nonzero(p):
    p = tuple(p)
    assert dumont_stat(p) == len(set(lehmer_encode(p)) - {0})


def test_invalid_inputs():
    with pytest.raises(InvalidWordError):
        lehmer_encode((1, 1, 2))
    with pytest.raises(InvalidWordError):
        lehmer_decode((0, 5, 0))
    with pytest.raises(InvalidWordError):
        lehmer_decode(())
