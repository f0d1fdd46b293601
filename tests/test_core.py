"""Statistics, validation, and word parsing."""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from permcode import (
    InvalidWordError,
    ascent_set,
    check_permutation,
    check_subexcedant,
    descent_set,
    format_positions,
    format_word,
    inverse_descent_set,
    invert,
    last_value_set,
    lrmax_set,
    lrmin_set,
    parse_word,
    perm_stats,
    rlmax_set,
    rlmin_set,
    saturated_set,
    seq_stats,
    zero_set,
)

PERM = (6, 2, 5, 8, 7, 3, 1, 4)
CODE = (0, 1, 1, 0, 2, 3, 6, 3)

perms = st.permutations(range(1, 9))
subexcedant = st.integers(1, 10).flatmap(
    lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))
)


class TestGoldenPair:
    """The worked example: p = 62587314 with code 01102363."""

    def test_perm_side(self):
        assert descent_set(PERM) == (1, 4, 5, 6)
        assert inverse_descent_set(PERM) == (3, 5, 7, 8)
        assert lrmax_set(PERM) == (1, 4)
        assert lrmin_set(PERM) == (1, 2, 7)
        assert rlmax_set(PERM) == (4, 5, 8)

    def test_seq_side(self):
        assert ascent_set(CODE) == (1, 4, 5, 6)
        assert last_value_set(CODE) == (3, 5, 7, 8)
        assert zero_set(CODE) == (1, 4)
        assert saturated_set(CODE) == (1, 2, 7)
        assert rlmin_set(CODE) == (4, 5, 8)

    def test_tuples_match(self):
        assert perm_stats(PERM) == seq_stats(CODE)

    def test_invert(self):
        assert invert(PERM) == (7, 2, 6, 8, 3, 1, 5, 4)


def test_inverse_descents_of_reversal():
    # every value except 3 sees its successor to the left
    assert inverse_descent_set((3, 2, 1)) == (2, 3)


def test_top_value_never_inverse_descent():
    for p in itertools.permutations(range(1, 6)):
        assert p.index(5) + 1 not in inverse_descent_set(p)


def test_stats_match_oracles_exhaustively():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert descent_set(p) == oracles.descents(p)
            assert ascent_set(p) == oracles.ascents(p)
            assert lrmax_set(p) == oracles.lr_maxima(p)
            assert lrmin_set(p) == oracles.lr_minima(p)
            assert rlmax_set(p) == oracles.rl_maxima(p)
            assert rlmin_set(p) == oracles.rl_minima(p)
            assert inverse_descent_set(p) == oracles.inverse_descents(p)


def test_seq_stats_match_oracles_exhaustively():
    for n in range(1, 6):
        for s in itertools.product(*(range(i) for i in range(1, n + 1))):
            assert zero_set(s) == oracles.zeros(s)
            assert saturated_set(s) == oracles.saturated(s)
            assert last_value_set(s) == oracles.row(s)
            assert rlmin_set(s) == oracles.rl_minima(s)


@given(perms)
def test_descents_ascents_partition(p):
    p = tuple(p)
    des, asc = descent_set(p), ascent_set(p)
    assert set(des) | set(asc) == set(range(1, len(p)))
    assert not set(des) & set(asc)


@given(perms)
def test_extrema_contain_endpoints(p):
    p = tuple(p)
    n = len(p)
    assert 1 in lrmax_set(p) and 1 in lrmin_set(p)
    assert n in rlmax_set(p) and n in rlmin_set(p)


@given(perms)
def test_inverse_descent_count_is_descents_of_inverse(p):
    p = tuple(p)
    assert len(inverse_descent_set(p)) == len(descent_set(invert(p)))


@given(perms)
def test_invert_is_involution(p):
    p = tuple(p)
    assert invert(invert(p)) == p


@given(subexcedant)
def test_row_counts_distinct_nonzero(s):
    assert len(last_value_set(s)) == len(set(s) - {0})


@given(st.permutations(range(1, 13)))
def test_stat_positions_sorted_and_in_range(p):
    p = tuple(p)
    for part in perm_stats(p):
        assert list(part) == sorted(set(part))
        assert all(1 <= i <= len(p) for i in part)


def test_parse_format_roundtrip():
    assert parse_word("6 2 5 8 7 3 1 4") == PERM
    assert format_word(PERM) == "6 2 5 8 7 3 1 4"
    assert parse_word("  3   1 2 ") == (3, 1, 2)


def test_format_positions():
    assert format_positions((1, 4, 5, 6)) == "{1 4 5 6}"
    assert format_positions(()) == "{}"


def test_parse_rejects_non_integers():
    with pytest.raises(InvalidWordError) as exc:
        parse_word("1 2 x 4")
    assert exc.value.position == 3
    assert "entry 3" in str(exc.value)


@pytest.mark.parametrize(
    "text, position, token",
    [
        ("1_0 2", 1, "1_0"),  # int() reads underscores as separators
        ("3 \u0662 1", 2, "\u0662"),  # ARABIC-INDIC DIGIT TWO
        ("2 1 \uff13", 3, "\uff13"),  # FULLWIDTH DIGIT THREE
        ("+3 1 2", 1, "+3"),
        ("1 - 2", 2, "-"),
        ("1 --2", 2, "--2"),
        ("1 2.0", 2, "2.0"),
        ("0x1 2", 1, "0x1"),
    ],
)
def test_parse_accepts_only_ascii_integers(text, position, token):
    with pytest.raises(InvalidWordError) as exc:
        parse_word(text)
    assert exc.value.position == position
    assert str(exc.value) == f"entry {position}: {token!r} is not an integer"


def test_parse_keeps_signs_and_leading_zeros():
    assert parse_word("\t-1 007\n 0") == (-1, 7, 0)


def test_empty_inputs_rejected():
    for fn in (descent_set, ascent_set, lrmax_set, zero_set, last_value_set):
        with pytest.raises(InvalidWordError):
            fn(())
    with pytest.raises(InvalidWordError):
        parse_word("   ")


def test_check_permutation_names_position():
    with pytest.raises(InvalidWordError) as exc:
        check_permutation((1, 5, 2))
    assert exc.value.position == 2
    with pytest.raises(InvalidWordError) as exc:
        check_permutation((2, 1, 2))
    assert exc.value.position == 3
    check_permutation((2, 1, 3))


def test_check_subexcedant_names_position():
    with pytest.raises(InvalidWordError) as exc:
        check_subexcedant((0, 2, 1))
    assert exc.value.position == 2
    with pytest.raises(InvalidWordError) as exc:
        check_subexcedant((0, 1, -1))
    assert exc.value.position == 3
    check_subexcedant((0, 1, 2))
