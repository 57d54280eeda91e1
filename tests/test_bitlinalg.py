import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macbits.bitlinalg import (BitMatrix, BitVec, Pairing, mat_vec_mul,
                               mat_vec_mul_batch, pack_bits, pack_rows,
                               random_pairing, random_permutation,
                               transpose_bits, unpack_bits)
from macbits.errors import UsageError


def bv(s: str) -> BitVec:
    """Bit string literal, leftmost char is bit 0."""
    return BitVec.from_bits(int(c) for c in s)


# ---------------------------------------------------------------------------
# BitVec


def test_xor_identity_cases():
    assert bv("1010") ^ bv("0000") == bv("1010")
    assert bv("1010") ^ bv("1010") == bv("0000")
    assert bv("1100") ^ bv("1010") == bv("0110")


def test_xor_length_mismatch_rejected():
    with pytest.raises(UsageError):
        bv("101") ^ bv("1010")


def test_little_endian_byte_packing():
    # bit i of a byte is (byte >> i) & 1
    v = BitVec.from_bytes(8, bytes([0b00000001]))
    assert v[0] == 1 and v[7] == 0
    assert bv("10000000").to_bytes() == bytes([1])
    assert bv("00000001").to_bytes() == bytes([0x80])
    assert bv("100000001").to_bytes() == bytes([1, 1])


def test_trailing_pad_bits_zero():
    v = bv("101")
    assert v.to_bytes() == bytes([0b101])
    assert len(v.to_bytes()) == 1


def test_from_bytes_rejects_short_buffers():
    with pytest.raises(UsageError):
        BitVec.from_bytes(9, b"\x00")


def test_times_scaling():
    v = bv("1011")
    assert v.times(0) == BitVec.zeros(4)
    assert v.times(1) == v


def test_join_and_reader_round_trip():
    rng = random.Random(1)
    parts = [BitVec.random(n, rng) for n in (1, 7, 8, 13, 64)]
    joined = BitVec.join(parts)
    assert len(joined) == sum(len(p) for p in parts)
    packed = int.from_bytes(joined.to_bytes(), "little")
    pos = 0
    for p in parts:
        assert BitVec(len(p), packed >> pos) == p
        pos += len(p)


@given(st.integers(1, 300), st.integers(0, 2**64))
def test_xor_group_laws(n, seed):
    rng = random.Random(seed)
    a, b, c = (BitVec.random(n, rng) for _ in range(3))
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ a == BitVec.zeros(n)
    assert a ^ BitVec.zeros(n) == a
    assert a ^ b == b ^ a


@given(st.integers(1, 200), st.integers(0, 2**32))
def test_bytes_round_trip(n, seed):
    v = BitVec.random(n, random.Random(seed))
    assert BitVec.from_bytes(n, v.to_bytes()) == v


@given(st.integers(0, 300), st.integers(0, 2**32))
def test_bits_match_indexing(n, seed):
    v = BitVec.random(n, random.Random(seed))
    assert v.bits() == [v[i] for i in range(n)]
    assert BitVec.from_bits(v.bits()) == v


def test_popcount():
    assert bv("1101").popcount() == 3
    assert BitVec.zeros(100).popcount() == 0


# ---------------------------------------------------------------------------
# BitMatrix and products


def test_identity_matrix_product():
    assert mat_vec_mul(BitMatrix.identity(4), bv("1011")) == bv("1011")


def test_zero_matrix_product():
    assert mat_vec_mul(BitMatrix.zeros(2, 4), bv("1011")) == BitVec.zeros(2)


def test_hand_expanded_product():
    m = BitMatrix.from_rows([bv("110"), bv("011")])
    assert mat_vec_mul(m, bv("110")) == bv("01")


def test_matrix_bytes_round_trip():
    rng = random.Random(3)
    m = BitMatrix.random(5, 19, rng)
    assert BitMatrix.from_bytes(5, 19, m.to_bytes()) == m


def test_transpose_involution_matrix():
    m = BitMatrix.random(9, 17, random.Random(4))
    assert m.transpose().transpose() == m


@settings(max_examples=25)
@given(st.integers(0, 2**32))
def test_mat_vec_linearity(seed):
    rng = random.Random(seed)
    m = BitMatrix.random(32, 96, rng)
    u, v = BitVec.random(96, rng), BitVec.random(96, rng)
    assert mat_vec_mul(m, u ^ v) == mat_vec_mul(m, u) ^ mat_vec_mul(m, v)


def test_mat_vec_batch_matches_single():
    rng = random.Random(5)
    m = BitMatrix.random(8, 40, rng)
    vecs = [BitVec.random(40, rng) for _ in range(17)]
    assert mat_vec_mul_batch(m, vecs) == [mat_vec_mul(m, v) for v in vecs]


# ---------------------------------------------------------------------------
# transpose_bits


def tr(rows):
    """transpose_bits on BitVec rows, packed and back."""
    out = transpose_bits(pack_rows(rows), rows[0].n)
    return [BitVec.from_bytes(len(rows), r.tobytes()) for r in out]


def test_transpose_two_by_two():
    assert tr([bv("10"), bv("01")]) == [bv("10"), bv("01")]


def test_transpose_single_row():
    assert tr([bv("111")]) == [bv("1"), bv("1"), bv("1")]


def test_transpose_bits_involution():
    rng = random.Random(6)
    rows = [BitVec.random(128, rng) for _ in range(64)]
    assert tr(tr(rows)) == rows


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 256), st.integers(1, 256), st.integers(0, 2**32))
def test_transpose_bits_matches_index_loop(r, c, seed):
    rng = random.Random(seed)
    rows = [BitVec.random(c, rng) for _ in range(r)]
    packed = transpose_bits(pack_rows(rows), c, _block=64)
    cols = tr(rows)
    assert len(cols) == c
    # the pad bits past r in each output row stay zero
    assert np.array_equal(packed, pack_rows(cols))
    for j in range(c):
        for i in range(r):
            assert cols[j][i] == rows[i][j]


def test_bit_vector_packing_round_trip():
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 1]
    assert pack_bits(np.array(bits)) == bv("1011000111").to_bytes()
    assert unpack_bits(bv("1011000111").to_bytes(), 10).tolist() == bits


# ---------------------------------------------------------------------------
# pairings and permutations


def test_pairing_t2_forced():
    p = random_pairing(2, random.Random(0))
    assert p.partner(0) == 1 and p.partner(1) == 0
    assert p.smaller_indices() == [0]


def test_pairing_requires_even():
    with pytest.raises(UsageError):
        random_pairing(5, random.Random(0))


def test_pairing_validates_structure():
    with pytest.raises(UsageError):
        Pairing([0, 1, 3, 2])  # fixed points
    with pytest.raises(UsageError):
        Pairing([1, 0, 2, 2])  # not an involution


def test_pairing_involution_no_fixed_points():
    rng = random.Random(7)
    for t in (2, 4, 10, 64):
        p = random_pairing(t, rng)
        for i in range(t):
            assert p.partner(p.partner(i)) == i
            assert p.partner(i) != i
        assert len(p.smaller_indices()) == t // 2


def test_pairing_t4_uniform_over_three_matchings():
    # T=4 has exactly 3 perfect matchings
    rng = random.Random(8)
    counts = {}
    n = 30000
    for _ in range(n):
        p = random_pairing(4, rng)
        counts[tuple(p.part)] = counts.get(tuple(p.part), 0) + 1
    assert len(counts) == 3
    sigma = math.sqrt((1 / 3) * (2 / 3) * n)
    for c in counts.values():
        assert abs(c - n / 3) <= 3 * sigma


def test_permutation_n1_forced():
    assert random_permutation(1, random.Random(0)) == [0]


def test_permutation_is_bijection():
    rng = random.Random(9)
    for n in (2, 5, 33):
        perm = random_permutation(n, rng)
        assert sorted(perm) == list(range(n))


def test_permutation_n3_uniform():
    rng = random.Random(10)
    counts = {}
    n = 60000
    for _ in range(n):
        key = tuple(random_permutation(3, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) * n)
    for c in counts.values():
        assert abs(c - n / 6) <= 3 * sigma
