import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macbits import bitlinalg
from macbits.bitlinalg import (BitVec, mat_vec_mul, mat_vec_mul_batch,
                               pack_bits, random_pairing, random_permutation,
                               random_rows, transpose_bits, unpack_bits, unpack_rows)
from macbits.errors import ProtocolError, UsageError


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
# packed GF(2) products


def packed(bits) -> np.ndarray:
    """A 0/1 matrix as packed rows, bit j of row i in byte j // 8."""
    return np.packbits(np.asarray(bits, np.uint8), axis=1, bitorder="little")


def unpacked(rows, n) -> np.ndarray:
    return np.unpackbits(rows, axis=1, count=n, bitorder="little")


def ref_product(m_bits, col_bits) -> np.ndarray:
    """m @ (bit j of each column) for every j, on unpacked 0/1 arrays."""
    return (m_bits.astype(int) @ col_bits.astype(int)) % 2


def off_byte_sizes(hi):
    """Sizes that are not multiples of 8, so rows end in pad bits."""
    return st.integers(1, hi).filter(lambda n: n % 8)


def random_bits(rng, *shape) -> np.ndarray:
    return np.array([rng.getrandbits(1) for _ in range(math.prod(shape))],
                    np.uint8).reshape(shape)


def test_identity_matrix_product():
    assert mat_vec_mul(packed(np.eye(4)), bv("1011").to_bytes()) == bv("1011").to_bytes()


def test_zero_matrix_product():
    assert mat_vec_mul(packed(np.zeros((2, 4))), bv("1011").to_bytes()) == bytes(1)


def test_hand_expanded_product():
    m = packed([[1, 1, 0], [0, 1, 1]])
    assert mat_vec_mul(m, bv("110").to_bytes()) == bv("01").to_bytes()
    # the same rows applied to three one-bit columns
    assert mat_vec_mul_batch(m, packed([[1], [1], [0]])).tolist() == [[0], [1]]


def test_products_check_their_width():
    m = packed(np.zeros((4, 9)))
    with pytest.raises(UsageError):
        mat_vec_mul(m, bytes(1))
    with pytest.raises(UsageError):
        mat_vec_mul_batch(m, np.zeros((8, 3), np.uint8))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), off_byte_sizes(300), off_byte_sizes(200), st.integers(0, 2**32))
def test_mat_vec_linearity(rows, tau, ell, seed):
    rng = random.Random(seed)
    m = random_bits(rng, rows, tau)
    u, v = random_bits(rng, tau, ell), random_bits(rng, tau, ell)
    prod = {k: unpacked(mat_vec_mul_batch(packed(m), packed(x)), ell)
            for k, x in (("u", u), ("v", v), ("uv", u ^ v))}
    assert np.array_equal(prod["uv"], prod["u"] ^ prod["v"])
    assert np.array_equal(prod["u"], ref_product(m, u))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), off_byte_sizes(300), off_byte_sizes(200), st.integers(0, 2**32))
def test_mat_vec_batch_matches_single(rows, tau, ell, seed):
    # bit j of the batch product is the single product of bit j of each
    # column; both agree with the unpacked reference
    rng = random.Random(seed)
    m, cols = random_bits(rng, rows, tau), random_bits(rng, tau, ell)
    got = unpacked(mat_vec_mul_batch(packed(m), packed(cols)), ell)
    assert np.array_equal(got, ref_product(m, cols))
    for j in range(min(ell, 5)):
        single = mat_vec_mul(packed(m), pack_bits(cols[:, j]))
        assert np.array_equal(unpack_bits(single, rows), got[:, j])


def test_products_ignore_matrix_pad_bits():
    rng = random.Random(5)
    m, cols = random_bits(rng, 8, 13), random_bits(rng, 13, 40)
    noisy = packed(m)
    noisy[:, -1] |= 0xE0  # bits 13..15 of each row
    assert np.array_equal(mat_vec_mul_batch(noisy, packed(cols)),
                          mat_vec_mul_batch(packed(m), packed(cols)))
    assert mat_vec_mul(noisy, pack_bits(cols[:, 0])) == mat_vec_mul(packed(m),
                                                                    pack_bits(cols[:, 0]))


def test_random_rows_draw_as_bitvecs():
    rows = random_rows(3, 13, random.Random(6))
    rng = random.Random(6)
    assert [r.tobytes() for r in rows] == [BitVec.random(13, rng).to_bytes() for _ in range(3)]


@pytest.mark.parametrize("n", [32, 128, 256])
def test_random_rows_one_draw_matches_row_draws(n):
    # one getrandbits(count * n) draw when 32 divides n: the same rows, and
    # the generator ends in the same state
    drawn, ref = random.Random(n), random.Random(n)
    rows = random_rows(5, n, drawn)
    assert [r.tobytes() for r in rows] == [BitVec.random(n, ref).to_bytes() for _ in range(5)]
    assert drawn.getrandbits(32) == ref.getrandbits(32)


@pytest.mark.parametrize("n", [1, 5, 6, 7, 13, 939])
def test_mat_vec_batch_edge_widths_match_single(n):
    # n on and off the six-column table blocks and the byte boundary, with
    # the matrix pad bits set: each bit position is the single product
    rng = random.Random(n)
    m, cols = random_rows(9, n, rng).copy(), random_rows(n, 21, rng)
    if n % 8:
        m[:, -1] |= (0xFF << n % 8) & 0xFF
    got = unpacked(mat_vec_mul_batch(m, cols), 21)
    col_bits = unpacked(cols, 21)
    for j in range(21):
        single = mat_vec_mul(m, pack_bits(col_bits[:, j]))
        assert np.array_equal(unpack_bits(single, 9), got[:, j])


def chunk_bounds(w):
    """The kernel's column chunks of a w-byte row: equal, at most
    _FR_CHUNK bytes each."""
    size = -(-w // -(-w // bitlinalg._FR_CHUNK))
    return [(c0, min(w, c0 + size)) for c0 in range(0, w, size)]


def group_blocks(w):
    """Six-column blocks whose tables the kernel builds together at width w."""
    size = chunk_bounds(w)[0][1]
    return max(1, bitlinalg._FR_TABLES // (64 * size))


WIDE = [bitlinalg._FR_CHUNK + d for d in (-1, 0, 1)] + [2 * bitlinalg._FR_CHUNK + 3]


@pytest.mark.parametrize("w", WIDE)
@pytest.mark.parametrize("n", [1, 5, 6, 7, 939, "group-1", "group+1"])
def test_mat_vec_batch_chunk_edges_match_single(w, n):
    # every chunk's first and last byte, at n on each side of a table-group
    # boundary too, with the matrix pad bits set
    if isinstance(n, str):
        n = 6 * group_blocks(w) + (1 if n.endswith("+1") else -1)
    rng = np.random.default_rng(n * w)
    m = rng.integers(0, 256, (9, (n + 7) // 8), dtype=np.uint8)
    cols = rng.integers(0, 256, (n, w), dtype=np.uint8)
    if n % 8:
        m[:, -1] |= (0xFF << n % 8) & 0xFF
    got = mat_vec_mul_batch(m, cols)
    assert len(chunk_bounds(w)) == 1 + (w > bitlinalg._FR_CHUNK) + (w > 2 * bitlinalg._FR_CHUNK)
    for c0, c1 in chunk_bounds(w):
        for byte in (c0, c1 - 1):
            col_bits = unpacked(cols[:, byte, None], 8)
            got_bits = unpacked(got[:, byte, None], 8)
            for j in range(8):
                single = mat_vec_mul(m, pack_bits(col_bits[:, j]))
                assert np.array_equal(unpack_bits(single, 9), got_bits[:, j]), (byte, j)


def test_mat_vec_batch_memory_is_bounded():
    # aes128's amplification: beyond its 3.2 MiB output the kernel holds
    # the tables of one group, one chunk's picked rows and the padded last
    # block, not a padded copy of the columns
    rng = np.random.default_rng(9)
    n, w = 939, 26_116
    m = rng.integers(0, 256, (128, (n + 7) // 8), dtype=np.uint8)
    cols = rng.integers(0, 256, (n, w), dtype=np.uint8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = mat_vec_mul_batch(m, cols)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.nbytes == 128 * w
    assert peak <= out.nbytes + (4 << 20), peak


# ---------------------------------------------------------------------------
# transpose_bits


def tr(rows):
    """transpose_bits on BitVec rows, packed and back."""
    out = transpose_bits(np.array([list(r.to_bytes()) for r in rows], np.uint8), rows[0].n)
    return [BitVec.from_bytes(len(rows), r.tobytes()) for r in out]


def test_transpose_two_by_two():
    assert tr([bv("10"), bv("01")]) == [bv("10"), bv("01")]


def test_transpose_single_row():
    assert tr([bv("111")]) == [bv("1"), bv("1"), bv("1")]


def test_transpose_bits_involution():
    rng = random.Random(6)
    rows = [BitVec.random(128, rng) for _ in range(64)]
    assert tr(tr(rows)) == rows


def test_transpose_involution_matrix():
    # 9 x 17: neither side a multiple of 8, so both transposes have pad bits
    m = random_rows(9, 17, random.Random(4))
    assert np.array_equal(transpose_bits(transpose_bits(m, 17), 9), m)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 256), st.integers(1, 256), st.integers(0, 2**32))
def test_transpose_bits_matches_index_loop(r, c, seed):
    rng = random.Random(seed)
    bits = random_bits(rng, r, c)
    out = transpose_bits(packed(bits), c, _block=64)
    # the pad bits past r in each output row stay zero
    assert np.array_equal(out, packed(bits.T))
    got = unpacked(out, r)
    for j in range(c):
        for i in range(r):
            assert got[j, i] == bits[i, j]


@pytest.mark.parametrize("t", [1, 7, 9, 939])
@pytest.mark.parametrize("n", [1, 13, 77])
def test_transpose_bits_edge_sizes_match_index_loop(t, n):
    # t on and off the 8-row blocks, n off a byte boundary, in one column
    # block and in several
    bits = random_bits(random.Random(t * n), t, n)
    for block in (16, 8192):
        out = transpose_bits(packed(bits), n, _block=block)
        # the pad bits past t in each output row stay zero
        assert np.array_equal(out, packed(bits.T))
        got = unpacked(out, t)
        for j in range(n):
            for i in range(t):
                assert got[j, i] == bits[i, j]


def test_bit_vector_packing_round_trip():
    bits = [1, 0, 1, 1, 0, 0, 0, 1, 1, 1]
    assert pack_bits(np.array(bits)) == bv("1011000111").to_bytes()
    assert unpack_bits(bv("1011000111").to_bytes(), 10).tolist() == bits


def test_unpack_rows_round_trip():
    rows = random_rows(5, 21, random.Random(8))
    got = unpack_rows(rows.tobytes(), 5, 21)
    assert got.shape == (5, 3) and np.array_equal(got, rows)


def test_unpack_rows_of_no_rows():
    assert unpack_rows(b"", 0, 21).shape == (0, 3)


def test_unpack_rows_of_whole_bytes_take_any_byte():
    data = bytes(range(256))
    assert unpack_rows(data, 16, 128).tobytes() == data


@pytest.mark.parametrize("row", range(4))
def test_unpack_rows_refuses_a_set_pad_bit_in_any_row(row):
    # rows of 21 bits leave the top 3 bits of each row's third byte as pad
    for bit in range(5, 8):
        data = bytearray(b"\xff\xff\x1f" * 4)
        data[3 * row + 2] |= 1 << bit
        with pytest.raises(ProtocolError, match="pad bit"):
            unpack_rows(bytes(data), 4, 21)


# ---------------------------------------------------------------------------
# pairings and permutations


def test_pairing_t2_forced():
    p = random_pairing(2, random.Random(0))
    assert p.dtype == np.uint32 and p.tolist() == [1, 0]


def test_pairing_requires_even():
    with pytest.raises(UsageError):
        random_pairing(5, random.Random(0))


def test_pairing_pairs_off_a_shuffle():
    # partners are consecutive entries of a random_permutation, which is all
    # the rng is asked for
    for t in (2, 10, 64):
        rng, ref = random.Random(t), random.Random(t)
        p = random_pairing(t, rng)
        order = random_permutation(t, ref)
        want = [0] * t
        for k in range(0, t, 2):
            want[order[k]], want[order[k + 1]] = order[k + 1], order[k]
        assert p.tolist() == want
        assert rng.getstate() == ref.getstate()


def test_pairing_involution_no_fixed_points():
    rng = random.Random(7)
    for t in (2, 4, 10, 64):
        p = random_pairing(t, rng)
        for i in range(t):
            assert p[p[i]] == i
            assert p[i] != i


def test_pairing_t4_uniform_over_three_matchings():
    # T=4 has exactly 3 perfect matchings
    rng = random.Random(8)
    counts = {}
    n = 30000
    for _ in range(n):
        p = random_pairing(4, rng)
        counts[tuple(p.tolist())] = counts.get(tuple(p.tolist()), 0) + 1
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
