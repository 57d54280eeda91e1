import math
import random
import tracemalloc

import numpy as np
import pytest

from helpers import (eval_two, oracle_store_pair, random_circuit, random_inputs, ref_pad,
                     ref_row_hash)
from macbits.bitlinalg import random_rows, unpack_bits
from macbits.errors import ProtocolAbort, UsageError
from macbits.ro_suite import (DIGEST_BYTES, MacAccumulator, check_flush, expand, hash_calls,
                              hash_rows, pad_rows, reset_hash_calls, ro_hash)


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
    assert len(expand(b"s", 100)) == 13


def test_expand_prefix_property():
    big = unpack_bits(expand(b"seed", 256), 256)
    assert np.array_equal(unpack_bits(expand(b"seed", 64), 64), big[:64])
    longest = unpack_bits(expand(b"seed", 10_001), 10_001)
    for n in (1, 7, 255, 257, 10_001):
        assert np.array_equal(unpack_bits(expand(b"seed", n), n), longest[:n])


def test_expand_pad_bits_are_zero():
    for n in (1, 7, 255, 257, 10_001):
        raw = expand(b"pad", n)
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
    ones = int.from_bytes(expand(b"balance", 1_000_000), "little").bit_count()
    sigma = math.sqrt(1_000_000 * 0.25)
    assert abs(ones - 500_000) <= 3 * sigma


def test_pad_rows_match_expand():
    # row k is SHAKE-128(tag-prefix || row k), one call per row under tag
    # and ceil(n/256) PRG blocks per row, for n on and off a byte boundary
    rows = random_rows(5, 128, random.Random(3))
    for n in (64, 333):
        before = hash_calls("t"), hash_calls("prg")
        pads = pad_rows("t", rows, n)
        assert (hash_calls("t") - before[0], hash_calls("prg") - before[1]) == (5, 5 * -(-n // 256))
        assert [p.tobytes() for p in pads] == [ref_pad("t", r, n) for r in rows]


@pytest.mark.parametrize("n,w,n_bits", [(3, 0, 20), (0, 5, 20), (3, 5, 0)],
                         ids=["zero-width-rows", "no-rows", "zero-bit-pads"])
def test_empty_inputs_hash_and_pad(n, w, n_bits):
    # every row is hashed once, even an empty one, and an empty batch is
    # an empty result
    rows = random_rows(n, 8 * w, random.Random(5)).reshape(n, w)
    before = hash_calls("t"), hash_calls("prg")
    pads = pad_rows("t", rows, n_bits)
    digests = hash_rows("t", rows)
    assert pads.shape == (n, (n_bits + 7) // 8)
    assert [p.tobytes() for p in pads] == [ref_pad("t", r, n_bits) for r in rows]
    assert digests.shape == (n, DIGEST_BYTES)
    assert [d.tobytes() for d in digests] == [ref_row_hash("t", r, DIGEST_BYTES) for r in rows]
    assert (hash_calls("t") - before[0], hash_calls("prg") - before[1]) == (
        2 * n, n * -(-n_bits // 256))


@pytest.mark.parametrize("nbytes", [1, 16, 32, 33, 64, 65])
def test_hash_rows_match_reference(nbytes):
    # BLAKE2b up to its 64-byte digest, SHAKE-128 past it: one call per row
    # under tag either way, and no PRG blocks; a chunk boundary falls
    # between rows, and a row slice that is not contiguous hashes as a copy
    rows = random_rows(3000, 8 * 21, random.Random(nbytes))
    before = hash_calls("t"), hash_calls("prg")
    digests = hash_rows("t", rows[:, 1:-4], nbytes)
    assert (hash_calls("t") - before[0], hash_calls("prg") - before[1]) == (3000, 0)
    assert digests.shape == (3000, nbytes)
    assert [d.tobytes() for d in digests] == [ref_row_hash("t", r, nbytes) for r in rows[:, 1:-4]]


@pytest.mark.parametrize("n,w", [(0, 5), (3, 0)], ids=["no-rows", "zero-width-rows"])
@pytest.mark.parametrize("nbytes", [1, 64, 65])
def test_hash_rows_of_empty_inputs(n, w, nbytes):
    rows = random_rows(n, 8 * w, random.Random(6)).reshape(n, w)
    digests = hash_rows("t", rows, nbytes)
    assert digests.shape == (n, nbytes)
    assert [d.tobytes() for d in digests] == [ref_row_hash("t", r, nbytes) for r in rows]


@pytest.mark.parametrize("nbytes", [0, -1])
def test_hash_rows_refuse_an_empty_digest(nbytes):
    with pytest.raises(UsageError):
        hash_rows("t", random_rows(2, 64, random.Random(7)), nbytes)


def test_pad_rows_fill_one_array():
    # the pads go straight into the result: no second copy of it is held
    rows = random_rows(48, 128, random.Random(4))
    n = 8 * 6000 + 5
    tracemalloc.start()
    try:
        pads = pad_rows("t", rows, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= pads.nbytes + 64 * 1024


def test_accumulator_initial_state_zero():
    assert MacAccumulator().state == bytes(DIGEST_BYTES)
    assert MacAccumulator.__slots__ == ("state",)


def test_accumulator_deterministic():
    macs = random_rows(20, 128, random.Random(5))
    a = b = MacAccumulator()
    for m in macs:
        a, b = a.absorb(m[None]), b.absorb(m[None])
    assert a.state == b.state != MacAccumulator().state


def test_accumulator_order_sensitive():
    m1, m2 = random_rows(2, 128, random.Random(6))[:, None]
    assert not np.array_equal(m1, m2)
    fwd = MacAccumulator().absorb(m1).absorb(m2)
    rev = MacAccumulator().absorb(m2).absorb(m1)
    assert fwd.state != rev.state


def test_accumulator_distinguishes_single_change():
    macs = random_rows(10, 64, random.Random(7)).copy()
    a = MacAccumulator()
    for m in macs:
        a = a.absorb(m[None])
    macs[4, 0] ^= 1
    b = MacAccumulator()
    for m in macs:
        b = b.absorb(m[None])
    assert a.state != b.state


def test_accumulator_round_is_order_sensitive():
    macs = random_rows(2, 128, random.Random(8))
    assert not np.array_equal(macs[0], macs[1])
    assert (MacAccumulator().absorb(macs).state
            != MacAccumulator().absorb(macs[::-1]).state)


def test_accumulator_round_distinguishes_single_bit():
    macs = random_rows(10, 64, random.Random(9)).copy()
    a = MacAccumulator().absorb(macs)
    macs[4, 2] ^= 1 << 1  # bit 17
    b = MacAccumulator().absorb(macs)
    assert a.state != b.state


def test_accumulator_empty_round_is_identity():
    acc = MacAccumulator().absorb(np.array([[5, 0]], np.uint8))
    before = hash_calls("acc/")
    same = acc.absorb(np.empty((0, 2), np.uint8))
    assert same.state == acc.state
    assert hash_calls("acc/") == before


def test_accumulator_round_costs_one_hash():
    rng = random.Random(10)
    for n in (1, 2, 50):
        macs = random_rows(n, 128, rng)
        before = hash_calls("acc/")
        MacAccumulator().absorb(macs)
        assert hash_calls("acc/") - before == 1


def test_accumulator_round_hashes_rows_as_one_buffer():
    """A round is H(state, count, the MACs' bytes in order), whether the rows
    come on their own or are the MAC part of a MAC||bit row array."""
    macs = random_rows(7, 128, random.Random(12))
    acc = MacAccumulator().absorb(macs)
    want = ro_hash("acc/round", bytes(DIGEST_BYTES), (7).to_bytes(8, "big"),
                   *(m.tobytes() for m in macs))
    assert acc.state == want
    bits = np.array([[b] for b in (1, 0, 1, 1, 0, 0, 1)], np.uint8)
    rows = np.concatenate((macs, bits), axis=1)
    assert MacAccumulator().absorb(rows[:, :-1]).state == acc.state


def test_accumulator_round_reads_a_strided_mac_half():
    """The MAC half of full rows (MAC, bit, key) is a strided view; a round
    given as one hashes the rows' bytes in order, as a contiguous copy."""
    kb = 16
    raw = random_rows(4 * 5, 8 * (2 * kb + 1), random.Random(13))
    full = raw.reshape(4, 5, 2 * kb + 1)
    macs = full[:, :, :kb].reshape(20, kb)
    assert np.shares_memory(macs, raw) and not macs.flags.c_contiguous
    acc = MacAccumulator().absorb(macs)
    want = ro_hash("acc/round", bytes(DIGEST_BYTES), (20).to_bytes(8, "big"),
                   *(m.tobytes() for m in macs))
    assert acc.state == want
    assert MacAccumulator().absorb(macs.copy()).state == acc.state
    assert acc.absorb(macs[:3]).state == MacAccumulator(want).absorb(macs[:3]).state


def test_accumulator_state_binds_the_rounds():
    """The same MACs absorbed as one round or as two give different states,
    because each round hashes its row count into the chain; so a flush of
    one refuses the other."""
    macs = random_rows(6, 128, random.Random(14))
    one = MacAccumulator().absorb(macs)
    two = MacAccumulator().absorb(macs[:2]).absorb(macs[2:])
    assert one.state != two.state
    check_flush(one.state, one)
    with pytest.raises(ProtocolAbort) as e:
        check_flush(two.state, one)
    assert e.value.phase == "flush"


def test_online_phase_absorbs_once_per_reveal_round():
    """Each party absorbs twice per AND level, its sent MACs and the MACs it
    expects of the peer, and nothing else before the flush."""
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        c = random_circuit(rng, 120)
        n_levels = sum(1 for ands, _ in c.row_schedule[1] if ands is not None)
        assert n_levels > 1
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        before = hash_calls("acc/")
        eval_two(c, sa, sb, xa, xb)
        # the counter is process-wide: both parties, two absorbs per level each
        assert hash_calls("acc/") - before == 4 * n_levels


def test_hash_call_counter():
    reset_hash_calls()
    ro_hash("cnt/a", b"")
    ro_hash("cnt/a", b"")
    ro_hash("cnt/b", b"")
    assert hash_calls("cnt/a") == 2
    assert hash_calls("cnt/") == 3
    reset_hash_calls()
    assert hash_calls() == 0
