"""The Fenwick-tree codecs against the quadratic ones kept in oracles.py."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from permcode import (
    REMOVE,
    SHRINK_BOTTOM,
    InvalidWordError,
    lehmer_decode,
    lehmer_encode,
    perm_stats,
    seq_stats,
    slice_decode,
    slice_encode,
)
from permcode import _fenwick as fenwick
from permcode import inverse


def all_codes(n):
    return itertools.product(*(range(i) for i in range(1, n + 1)))


def random_perm(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def random_code(rng, n):
    return tuple(rng.randrange(i) for i in range(1, n + 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_against_oracles(n):
    for p in itertools.permutations(range(1, n + 1)):
        assert slice_encode(p) == oracles.slice_encode_walk(p), p
        assert lehmer_encode(p) == oracles.lehmer_encode_pairwise(p), p
    for s in all_codes(n):
        assert slice_decode(s) == oracles.slice_decode_chain(s), s


@pytest.mark.parametrize("n, words", [(100, 20), (1000, 3), (3000, 1)])
def test_random_long_words_against_oracles(n, words):
    rng = random.Random(1606 + n)
    for _ in range(words):
        p = random_perm(rng, n)
        assert slice_encode(p) == oracles.slice_encode_walk(p)
        assert lehmer_encode(p) == oracles.lehmer_encode_pairwise(p)
        s = random_code(rng, n)
        assert slice_decode(s) == oracles.slice_decode_chain(s)


def test_transport_and_round_trips_at_ten_thousand():
    rng = random.Random(10_000)
    for _ in range(3):
        p = random_perm(rng, 10_000)
        code = slice_encode(p)
        assert perm_stats(p) == seq_stats(code)
        assert slice_decode(code) == p
        assert lehmer_decode(lehmer_encode(p)) == p


@given(st.permutations(range(1, 41)))
def test_encoders_against_oracles_hypothesis(p):
    p = tuple(p)
    assert slice_encode(p) == oracles.slice_encode_walk(p)
    assert lehmer_encode(p) == oracles.lehmer_encode_pairwise(p)


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))
    )
)
def test_decoder_against_oracle_hypothesis(s):
    assert slice_decode(s) == oracles.slice_decode_chain(s)


@pytest.mark.parametrize(
    "fast, slow, word",
    [
        (slice_encode, oracles.slice_encode_walk, (1, 1, 2)),
        (slice_encode, oracles.slice_encode_walk, (0, 1)),
        (slice_encode, oracles.slice_encode_walk, ()),
        (lehmer_encode, oracles.lehmer_encode_pairwise, (2, 3, 4)),
        (slice_decode, oracles.slice_decode_chain, (0, 1, 3)),
        (slice_decode, oracles.slice_decode_chain, (1,)),
        (slice_decode, oracles.slice_decode_chain, ()),
    ],
)
def test_same_input_errors_as_oracles(fast, slow, word):
    with pytest.raises(InvalidWordError) as got:
        fast(word)
    with pytest.raises(InvalidWordError) as want:
        slow(word)
    assert str(got.value) == str(want.value)
    assert got.value.position == want.value.position


@pytest.mark.parametrize("load", [1, 2])
def test_small_bucket_loads_against_oracle(monkeypatch, load):
    # With a tiny load the profile counts spread over many buckets, which
    # reaches the branches a real load meets only on words of thousands.
    monkeypatch.setattr(inverse, "_LOAD", load)
    reached = set()
    step = inverse._Gaps.step

    def checked_step(gaps, case, v, entry):
        count = len(gaps._lists)
        ends = set(itertools.accumulate(map(len, gaps._lists)))
        if case in (SHRINK_BOTTOM, REMOVE) and v + 1 in ends:
            reached.add("neighbour in the next bucket")
        above = step(gaps, case, v, entry)
        if len(gaps._lists) > count:
            reached.add("split")
        if len(gaps._lists) < count:
            reached.add("empty bucket dropped")
        assert all(0 < len(b) < 2 * load for b in gaps._lists)
        assert gaps._sums == [sum(b) for b in gaps._lists]
        if len(gaps._lists) == 1:
            assert gaps._lens_tree is None and gaps._sums_tree is None
        else:
            assert gaps._lens_tree == fenwick.build(map(len, gaps._lists))
            assert gaps._sums_tree == fenwick.build(gaps._sums)
        return above

    monkeypatch.setattr(inverse._Gaps, "step", checked_step)
    for n in range(1, 8):
        for s in all_codes(n):
            assert slice_decode(s) == oracles.slice_decode_chain(s), s
    rng = random.Random(load)
    for _ in range(3):
        s = random_code(rng, 300)  # about a hundred buckets
        assert slice_decode(s) == oracles.slice_decode_chain(s)
    assert reached == {
        "split",
        "neighbour in the next bucket",
        "empty bucket dropped",
    }


def test_fenwick_helpers_against_plain_sums():
    rng = random.Random(5)
    counts = [rng.randrange(3) for _ in range(37)]
    tree = fenwick.build(counts)
    for _ in range(200):
        k = rng.randrange(len(counts))
        delta = rng.choice((1, 2)) if counts[k] == 0 else rng.choice((-1, 1))
        counts[k] += delta
        fenwick.add(tree, k, delta)
        assert tree == fenwick.build(counts)
        for j in range(len(counts) + 1):
            assert fenwick.prefix(tree, j) == sum(counts[:j])
        for rank in range(sum(counts)):
            k = fenwick.select(tree, rank)
            assert sum(counts[:k]) <= rank < sum(counts[: k + 1])
