"""Faults injected into the codec modules: the verifiers catch each one, and
their reports do not depend on jobs.

The modules come from sys.modules: on the package, permcode.slices is the
function slices, not the module.  Pool workers are forked, so they run
the patched code too.
"""

import sys

import pytest

from permcode import (
    SHRINK_TOP,
    InvalidWordError,
    cli,
    iter_perms,
    perm_stats,
    seq_stats,
    slice_decode,
    slice_encode,
    verify_asc_row_exchange,
    verify_bijection,
    verify_eulerian_marginals,
    verify_five_tuples,
)

slices_module = sys.modules["permcode.slices"]
inverse_module = sys.modules["permcode.inverse"]
lehmer_module = sys.modules["permcode.lehmer"]
enumeration_module = sys.modules["permcode.enumeration"]

VERIFIERS = {
    "2": verify_five_tuples,
    "bijection": verify_bijection,
    "corollary2": verify_asc_row_exchange,
    "eulerian": verify_eulerian_marginals,
}
ERROR_KEYS = {"perm", "error"}
BIJECTION_KEYS = [
    {"perm", "code", "reason"},
    {"perm", "code", "decoded", "reason"},
    ERROR_KEYS,
]
# every key set a verifier documents for its counterexample
DOCUMENTED_KEYS = {
    "2": [{"perm", "code", "perm_stats", "code_stats"}, ERROR_KEYS],
    "bijection": BIJECTION_KEYS,
    "corollary2": BIJECTION_KEYS
    + [{"code", "witness", "asc", "row", "witness_asc", "witness_row"}],
    "eulerian": [{"stat", "value", "count", "expected"}, ERROR_KEYS],
}


def flipped_case_bit(monkeypatch):
    """The encoder's relabel sees the SHRINK_TOP bit flipped at step 3."""
    relabel = slices_module.relabel

    def faulty(labels, case, v, step):
        relabel(labels, case ^ SHRINK_TOP if step == 3 else case, v, step)

    monkeypatch.setattr(slices_module, "relabel", faulty)


def non_injective_step(monkeypatch):
    """Every code gets 0 at position 2."""
    encode_step = slices_module._encode_step

    def faulty(seen, bottoms, live, count, step, x):
        label, count = encode_step(seen, bottoms, live, count, step, x)
        return (0 if step == 2 else label), count

    monkeypatch.setattr(slices_module, "_encode_step", faulty)


def lehmer_decoder(monkeypatch):
    """The slice decoder kernel replaced by the Lehmer one."""
    monkeypatch.setattr(inverse_module, "_decode", lehmer_module._lehmer_decode)


# fault -> the verifiers it must fail; the others must still pass
FAULTS = {
    "case-bit": (flipped_case_bit, {"2", "bijection", "corollary2"}),
    "non-injective": (non_injective_step, {"2", "bijection", "corollary2"}),
    "lehmer-decoder": (lehmer_decoder, {"bijection", "corollary2"}),
}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_fails_the_verifiers_it_affects(monkeypatch, fault, n):
    inject, affected = FAULTS[fault]
    inject(monkeypatch)
    for check, verifier in VERIFIERS.items():
        serial = verifier(n, jobs=1)
        parallel = verifier(n, jobs=2)
        assert serial == parallel, (fault, check)
        if check in affected:
            assert not serial.passed, (fault, check)
            assert set(serial.counterexample) in DOCUMENTED_KEYS[check]
        else:
            assert serial.passed, (fault, check, serial.text())


def first_failure(n, fails):
    """(1-based position, p) of the first p in S_n with fails(p)."""
    return next(
        (pos, p) for pos, p in enumerate(iter_perms(n), start=1) if fails(p)
    )


def five_tuples_fail(p):
    return perm_stats(p) != seq_stats(slice_encode(p))


def round_trip_fails(p):
    try:
        return slice_decode(slice_encode(p)) != p
    except (InvalidWordError, AssertionError, IndexError):
        return True


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_counterexample_is_first_failure_in_lexicographic_order(monkeypatch, fault):
    # the public codecs run the same patched kernels as the walk
    inject, affected = FAULTS[fault]
    inject(monkeypatch)
    n = 5
    for check, fails in (("2", five_tuples_fail), ("bijection", round_trip_fails)):
        if check not in affected:
            continue
        pos, p = first_failure(n, fails)
        for jobs in (1, 2):
            report = VERIFIERS[check](n, jobs=jobs)
            assert (report.cases, report.counterexample["perm"]) == (pos, list(p))


def test_non_injective_encoder_fails_the_round_trip(monkeypatch):
    # (2, 1, 3, 4) is the first permutation with a nonzero code entry at
    # position 2; forced to 0, its code repeats that of (1, 2, 3, 4)
    non_injective_step(monkeypatch)
    for jobs in (1, 2):
        report = verify_bijection(4, jobs=jobs)
        assert report.cases == 7
        assert report.counterexample == {
            "perm": [2, 1, 3, 4],
            "code": [0, 0, 0, 0],
            "decoded": [1, 2, 3, 4],
            "reason": "decode(encode(p)) differs from p",
        }


def test_code_out_of_range_fails_the_subexcedant_check(monkeypatch):
    encode_step = slices_module._encode_step

    def out_of_range(seen, bottoms, live, count, step, x):
        label, count = encode_step(seen, bottoms, live, count, step, x)
        return (label + 2 if step == 2 else label), count

    monkeypatch.setattr(slices_module, "_encode_step", out_of_range)
    for check in ("bijection", "corollary2"):
        for jobs in (1, 2):
            report = VERIFIERS[check](4, jobs=jobs)
            assert report.cases == 1
            assert report.counterexample == {
                "perm": [1, 2, 3, 4],
                "code": [0, 2, 0, 0],
                "reason": "encode(p) is not subexcedant: "
                "entry 2: value 2 out of range 0..1",
            }


def test_exception_in_a_block_is_a_fail_report(monkeypatch, capsys):
    encode_step = slices_module._encode_step

    def raising(seen, bottoms, live, count, step, x):
        if step == 2 and x == 3:
            raise RuntimeError("boom")
        return encode_step(seen, bottoms, live, count, step, x)

    monkeypatch.setattr(slices_module, "_encode_step", raising)
    for check in ("2", "bijection", "corollary2"):
        for jobs in (1, 2):
            report = VERIFIERS[check](4, jobs=jobs)
            assert not report.passed and report.cases == 3
            assert report.counterexample == {
                "perm": [1, 3, 2, 4],
                "error": "RuntimeError('boom')",
            }
    assert cli.main(["verify", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 3 and "RuntimeError('boom')" in out


def test_exception_in_the_marginals_is_a_fail_report(monkeypatch):
    def raising(p):
        if p == (2, 1, 3, 4):
            raise ValueError("bad")
        return len(set(p))

    monkeypatch.setattr(enumeration_module, "dumont_stat", raising)
    for jobs in (1, 2):
        report = verify_eulerian_marginals(4, jobs=jobs)
        assert not report.passed and report.cases == 7
        assert report.counterexample == {
            "perm": [2, 1, 3, 4],
            "error": "ValueError('bad')",
        }


def test_wrong_marginal_fails_the_eulerian_check(monkeypatch):
    seq_marginals = enumeration_module._seq_marginals

    def shifted(n):
        asc, row = seq_marginals(n)
        row[0] += 1
        return asc, row

    monkeypatch.setattr(enumeration_module, "_seq_marginals", shifted)
    report = verify_eulerian_marginals(5)
    assert not report.passed and report.cases == 240
    assert report.counterexample == {
        "stat": "row",
        "value": 0,
        "count": 2,
        "expected": 1,
    }


def test_corrupted_exchange_record_is_caught():
    # one wrong (asc, row) record breaks the pointwise exchange at the
    # first permutation whose own or inverse's record it is
    n = 4
    packed = bytearray()
    for block in [(first,) for first in range(1, n + 1)]:
        cases, fail, part = enumeration_module._exchange_block(n, block)
        assert fail is None
        packed += part
    assert enumeration_module._exchange_failure(n, packed) == (24, None)
    rank = 5  # (1, 4, 3, 2), an involution, so its record is its witness's
    packed[rank] ^= 0x10
    cases, fail = enumeration_module._exchange_failure(n, packed)
    assert cases == rank + 1 and fail["code"] == list(slice_encode((1, 4, 3, 2)))
