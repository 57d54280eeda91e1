import math
import random

import pytest

from macbits.bitlinalg import BitVec
from macbits.errors import UsageError
from macbits.ro_suite import (DIGEST_BYTES, MacAccumulator, expand,
                              hash_calls, mask, reset_hash_calls, ro_hash)


def test_ro_hash_deterministic():
    assert ro_hash("t", b"abc") == ro_hash("t", b"abc")
    assert len(ro_hash("t", b"abc")) == DIGEST_BYTES


def test_domain_tags_separate():
    rng = random.Random(0)
    for _ in range(10_000):
        x = rng.getrandbits(64).to_bytes(8, "little")
        assert ro_hash("EQ", x) != ro_hash("LAOT", x)


def test_tag_is_not_just_concatenated():
    # ("ab", "c") and ("a", "bc") must hash differently
    assert ro_hash("ab", b"c") != ro_hash("a", b"bc")


def test_avalanche_on_one_bit_flip():
    rng = random.Random(1)
    total = 0
    trials = 10_000
    for _ in range(trials):
        x = bytearray(rng.getrandbits(8) for _ in range(16))
        h0 = int.from_bytes(ro_hash("av", bytes(x)), "little")
        x[rng.randrange(16)] ^= 1 << rng.randrange(8)
        h1 = int.from_bytes(ro_hash("av", bytes(x)), "little")
        total += (h0 ^ h1).bit_count()
    mean = total / trials
    # 256-bit digests should differ in about half the positions
    sigma = math.sqrt(256 * 0.25 / trials)
    assert abs(mean - 128) <= 5 * sigma


def test_expand_deterministic_and_sized():
    assert expand(b"s", 100) == expand(b"s", 100)
    assert len(expand(b"s", 100)) == 100


def test_expand_prefix_property():
    big = expand(b"seed", 256)
    small = expand(b"seed", 64)
    assert small == BitVec.from_bits(big[i] for i in range(64))
    longest = expand(b"seed", 10_001).bits()
    for n in (1, 7, 255, 257, 10_001):
        assert expand(b"seed", n) == BitVec.from_bits(longest[:n])


def test_expand_pad_bits_are_zero():
    for n in (1, 7, 255, 257, 10_001):
        raw = expand(b"pad", n).to_bytes()
        assert len(raw) == (n + 7) // 8
        assert int.from_bytes(raw, "little") >> n == 0


def test_expand_counts_256_bit_blocks():
    for n in (0, 1, 255, 256, 257, 10_001):
        before = hash_calls("prg")
        expand(b"count", n)
        assert hash_calls("prg") - before == math.ceil(n / 256)


def test_expand_rejects_negative():
    with pytest.raises(UsageError):
        expand(b"s", -1)


def test_expand_bit_balance():
    ones = expand(b"balance", 1_000_000).popcount()
    sigma = math.sqrt(1_000_000 * 0.25)
    assert abs(ones - 500_000) <= 3 * sigma


def test_mask_involution():
    rng = random.Random(2)
    m = BitVec.random(333, rng)
    k = BitVec.random(128, rng)
    assert mask("t", k, mask("t", k, m)) == m


def test_mask_zero_message_is_pad():
    k = BitVec.random(128, random.Random(3))
    assert mask("t", k, BitVec.zeros(64)) == expand(ro_hash("t", k), 64)


def test_mask_distinct_keys_distinct_pads():
    rng = random.Random(4)
    m = BitVec.random(128, rng)
    for _ in range(10_000):
        k1, k2 = BitVec.random(64, rng), BitVec.random(64, rng)
        if k1 == k2:
            continue
        assert mask("t", k1, m) != mask("t", k2, m)


def test_accumulator_initial_state_zero():
    assert MacAccumulator().state == bytes(DIGEST_BYTES)
    assert MacAccumulator().count == 0


def test_accumulator_deterministic():
    rng = random.Random(5)
    macs = [BitVec.random(128, rng) for _ in range(20)]
    a = b = MacAccumulator()
    for m in macs:
        a, b = a.absorb(m), b.absorb(m)
    assert a == b
    assert a.count == 20


def test_accumulator_order_sensitive():
    rng = random.Random(6)
    m1, m2 = BitVec.random(128, rng), BitVec.random(128, rng)
    assert m1 != m2
    fwd = MacAccumulator().absorb(m1).absorb(m2)
    rev = MacAccumulator().absorb(m2).absorb(m1)
    assert fwd.state != rev.state


def test_accumulator_distinguishes_single_change():
    rng = random.Random(7)
    macs = [BitVec.random(64, rng) for _ in range(10)]
    a = MacAccumulator()
    for m in macs:
        a = a.absorb(m)
    macs[4] = macs[4] ^ BitVec(64, 1)
    b = MacAccumulator()
    for m in macs:
        b = b.absorb(m)
    assert a.state != b.state


def test_hash_call_counter():
    reset_hash_calls()
    ro_hash("cnt/a", b"")
    ro_hash("cnt/a", b"")
    ro_hash("cnt/b", b"")
    assert hash_calls("cnt/a") == 2
    assert hash_calls("cnt/") == 3
    reset_hash_calls()
    assert hash_calls() == 0
