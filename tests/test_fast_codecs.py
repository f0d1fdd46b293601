"""The fast codecs against the quadratic ones kept in oracles.py, and the
bucketed list under them against a plain list."""

import bisect
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
    verify_bijection,
)
from permcode import _blist
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


def adversarial_perm(n):
    """n, n - 2, n - 4, ..., then the other parity upward: the first half
    splits an interval at every step, so n / 2 intervals are live at once
    and every later step works in the middle of the longest lists."""
    return (*range(n, 0, -2), *range(1 + n % 2, n, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_exhaustive_against_oracles(n):
    for p in itertools.permutations(range(1, n + 1)):
        assert slice_encode(p) == oracles.slice_encode_walk(p), p
        assert lehmer_encode(p) == oracles.lehmer_encode_pairwise(p), p
    for s in all_codes(n):
        assert slice_decode(s) == oracles.slice_decode_chain(s), s
        assert lehmer_decode(s) == oracles.lehmer_decode_pop(s), s


@pytest.mark.parametrize("n, words", [(100, 20), (1000, 3), (3000, 1)])
def test_random_long_words_against_oracles(n, words):
    rng = random.Random(1606 + n)
    for _ in range(words):
        p = random_perm(rng, n)
        assert slice_encode(p) == oracles.slice_encode_walk(p)
        assert lehmer_encode(p) == oracles.lehmer_encode_pairwise(p)
        s = random_code(rng, n)
        assert slice_decode(s) == oracles.slice_decode_chain(s)
        assert lehmer_decode(s) == oracles.lehmer_decode_pop(s)


def test_adversarial_word_against_oracles():
    p = adversarial_perm(3000)
    code = slice_encode(p)
    assert code == oracles.slice_encode_walk(p)
    assert slice_decode(code) == p == oracles.slice_decode_chain(code)
    lehmer = lehmer_encode(p)
    assert lehmer_decode(lehmer) == p == oracles.lehmer_decode_pop(lehmer)


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


def _check_blist(blist, ref, load):
    lists = blist._lists
    assert [x for bucket in lists for x in bucket] == ref
    assert len(blist) == len(ref)
    # through the lookups, which keep a hint from one to the next
    assert [blist[i] for i in range(len(ref))] == ref
    assert lists == [[]] or all(0 < len(bucket) < 2 * load for bucket in lists)
    assert blist._maxes == [bucket[-1] for bucket in lists if bucket]
    assert blist._index == fenwick.build(map(len, lists))


def _random_blist_op(rng, blist, ref, grow):
    """One random operation on both lists, keeping them sorted."""
    n = len(ref)
    op = rng.choice(["insert", "append"] if grow or not n else ["pop", "del"])
    if n and rng.random() < 0.5:
        op = rng.choice(["get", "set", "rank", "copy"])
    if op == "insert":
        i = rng.randint(0, n)
        lo = ref[i - 1] if i else (ref[0] - 3 if n else 0)
        x = rng.randint(lo, ref[i] if i < n else lo + 3)
        blist.insert(i, x)
        ref.insert(i, x)
    elif op == "append":
        x = (ref[-1] if n else 0) + rng.randrange(3)
        blist.append(x)
        ref.append(x)
    elif op == "pop":
        i = rng.randrange(-n, n)
        assert blist.pop(i) == ref.pop(i)
    elif op == "del":
        i = rng.randrange(-n, n)
        del blist[i], ref[i]
    elif op == "get":
        i = rng.randrange(-n, n)
        assert blist[i] == ref[i]
        for out in (n, -n - 1):
            with pytest.raises(IndexError):
                blist[out]
    elif op == "set":
        i = rng.randrange(n)
        lo = ref[i - 1] if i else ref[i] - 3
        x = rng.randint(lo, ref[i + 1] if i + 1 < n else ref[i] + 3)
        blist[i] = ref[i] = x
    elif op == "rank":
        x = rng.randint(ref[0] - 2, ref[-1] + 2)
        i = blist.rank(x)
        assert i == bisect.bisect_left(ref, x)
        if i < n:  # the kernels read the ranked position next
            assert blist[i] == ref[i]
    else:
        other = blist.copy()
        other.append(ref[-1])
        assert len(other) == n + 1 and other[-1] == ref[-1] == blist[-1]


@pytest.mark.parametrize("load", [1, 2, 3])
def test_bucketed_list_against_plain_list(monkeypatch, load):
    # Random operations that keep both lists sorted, in rounds that grow
    # the list to a few dozen buckets and shrink it back to empty.
    monkeypatch.setattr(_blist, "_LOAD", load)
    reached = set()
    select = fenwick.select

    def counted_select(tree, rank):
        reached.add("located through the index")
        return select(tree, rank)

    monkeypatch.setattr(fenwick, "select", counted_select)
    rng = random.Random(load)
    ref = [0, 0, 4]
    blist = _blist._BList(ref)
    _check_blist(blist, ref, load)
    for _ in range(3):
        for grow in (True, False):
            while len(ref) < 60 if grow else ref:
                count = len(blist._lists)
                _random_blist_op(rng, blist, ref, grow)
                if len(blist._lists) > count:
                    reached.add("split")
                if len(blist._lists) < count:
                    reached.add("empty bucket dropped")
                _check_blist(blist, ref, load)
    assert reached == {"split", "empty bucket dropped", "located through the index"}


@pytest.mark.parametrize("load", [1, 2])
def test_codecs_on_bucketed_lists_against_oracles(monkeypatch, load):
    # A tiny load hands every kernel a _BList from n = 2 * load on.
    monkeypatch.setattr(_blist, "_LOAD", load)
    assert type(_blist.container([0], 2 * load)) is _blist._BList
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            assert slice_encode(p) == oracles.slice_encode_walk(p), p
        for s in all_codes(n):
            assert slice_decode(s) == oracles.slice_decode_chain(s), s
            assert lehmer_decode(s) == oracles.lehmer_decode_pop(s), s
    assert verify_bijection(6).passed  # the walk copies its lists
    rng = random.Random(load)
    for p in (random_perm(rng, 300), random_perm(rng, 300), adversarial_perm(300)):
        code = slice_encode(p)
        assert code == oracles.slice_encode_walk(p)
        assert slice_decode(code) == p
        s = random_code(rng, 300)
        assert slice_decode(s) == oracles.slice_decode_chain(s)
        assert lehmer_decode(s) == oracles.lehmer_decode_pop(s)


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
            k, offset = fenwick.select(tree, rank)
            assert sum(counts[:k]) <= rank < sum(counts[: k + 1])
            assert offset == rank - sum(counts[:k])
