"""Decoding: the segment chain and the full inverse map."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from permcode import InvalidWordError, code_cases, slice_decode, slice_encode

PERM = (6, 2, 5, 8, 7, 3, 1, 4)
CODE = (0, 1, 1, 0, 2, 3, 6, 3)


def test_golden_decode():
    assert oracles.check_decode(CODE) == PERM


def test_identity_reversal_single():
    assert slice_decode((0, 0, 0, 0)) == (1, 2, 3, 4)
    assert slice_decode((0, 1, 2, 3)) == (4, 3, 2, 1)
    assert slice_decode((0,)) == (1,)


def test_s3_table_inverted():
    table = {
        (0, 0, 0): (1, 2, 3),
        (0, 0, 1): (1, 3, 2),
        (0, 1, 0): (2, 1, 3),
        (0, 0, 2): (2, 3, 1),
        (0, 1, 1): (3, 1, 2),
        (0, 1, 2): (3, 2, 1),
    }
    for code, perm in table.items():
        assert slice_decode(code) == perm


def test_chain_history_matches_golden_slices():
    # labels and coverage counts after each step, read off the paper pair
    # of traces for 62587314
    expected = [
        ((0, 1), (1,)),
        ((0, 1, 2), (1, 1)),
        ((0, 2, 3), (2, 1)),
        ((2, 3, 4), (1, 2, 1)),
        ((3, 5), (4, 1)),
        ((3, 6), (4, 2)),
        ((3, 7), (4, 3)),
    ]
    chain = oracles.SegmentChain()
    cases = code_cases(CODE)
    lehmer_entries = []
    for i, entry in enumerate(CODE):
        pos = chain.locate(entry)
        lehmer_entries.append(chain.covered_above(pos))
        chain.apply(cases[i], entry, pos, i + 1)
        chain.check(i + 1)
        if i + 1 < len(CODE):
            assert (chain.slice_labels(), chain.profile_cards()) == expected[i]
    assert tuple(lehmer_entries) == (0, 1, 1, 0, 1, 4, 6, 4)


def test_top_profile_appears_once_max_consumed():
    chain = oracles.SegmentChain()
    assert not chain.top_is_profile
    cases = code_cases(CODE)
    for i, entry in enumerate(CODE):
        chain.apply(cases[i], entry, chain.locate(entry), i + 1)
    # 8 was consumed at step 4; by the end only a profile can sit on top
    assert chain.top_is_profile


def test_roundtrip_exhaustive_with_full_checks():
    for n in range(1, 7):
        count = 0
        for p in itertools.permutations(range(1, n + 1)):
            code = slice_encode(p)
            assert oracles.check_decode(code) == p
            count += 1
        for s in itertools.product(*(range(i) for i in range(1, n + 1))):
            assert slice_encode(slice_decode(s)) == s
        assert count == len(
            list(itertools.product(*(range(i) for i in range(1, n + 1))))
        )


def test_decode_agrees_with_preimage_search():
    # the encoder itself arbitrates: each code has exactly one preimage,
    # and the decoder finds it
    for n in range(1, 6):
        for s in itertools.product(*(range(i) for i in range(1, n + 1))):
            assert oracles.preimages(s, slice_encode) == [slice_decode(s)]
    rng = random.Random(8)
    codes = [
        tuple(rng.randrange(i) for i in range(1, 7)) for _ in range(20)
    ]
    for s in codes:
        assert oracles.preimages(s, slice_encode) == [slice_decode(s)]


def test_roundtrip_check_helper():
    assert slice_decode(slice_encode(PERM)) == PERM
    assert all(
        slice_decode(slice_encode(p)) == p
        for p in itertools.permutations(range(1, 6))
    )


@given(st.permutations(range(1, 15)))
def test_roundtrip_random(p):
    p = tuple(p)
    assert oracles.check_decode(slice_encode(p)) == p


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))
    )
)
def test_seq_side_roundtrip_random(s):
    assert slice_encode(oracles.check_decode(s)) == s


def test_rejects_invalid_sequence():
    with pytest.raises(InvalidWordError):
        slice_decode((1, 0, 0))
    with pytest.raises(InvalidWordError):
        slice_decode(())
    with pytest.raises(InvalidWordError):
        slice_decode((0, 1, 5))
