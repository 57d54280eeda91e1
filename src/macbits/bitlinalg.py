"""Packed bit vectors and GF(2) linear algebra.

Bit order convention, used for every serialized bit string in this package:
bit i of a byte is (byte >> i) & 1, i.e. little-endian within bytes, and bit
i of a vector lives in byte i // 8. Pad bits past the logical length are
always zero.

BitVec is an immutable bit string backed by a Python int, the public type
of circuit inputs and outputs. Bulk bit data lives in uint8 arrays of packed
rows in that same byte order: `mat_vec_mul_batch` multiplies a packed GF(2)
matrix into such rows and `transpose_bits` transposes them, without building
a BitVec per row. Bits and rows from the peer are read through
`unpack_bits` and `unpack_rows`, which refuse a set pad bit.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np

from .errors import ProtocolError, UsageError

# Four-Russians block width of `mat_vec_mul_batch`, and the weights that read
# a block's matrix bits as its table index; the widest column chunk it works
# on, and the bytes of tables it builds at once.
_FR_COLS = 6
_FR_CHUNK = 6 << 10
_FR_TABLES = 1 << 20
# Each thread's buffer for those tables, kept between calls so that their
# pages stay mapped: a fresh megabyte a call cost a few hundred page faults.
_FR_BUFFER = threading.local()
# The three masked swaps of an 8x8 bit-block transpose on uint64 words whose
# bit 8r + c is entry (r, c) of the block.
_SWAPS = tuple((np.uint64(s), np.uint64(m)) for s, m in
               ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


class BitVec:
    """Fixed-length immutable bit string."""

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int = 0):
        if n < 0:
            raise UsageError("negative BitVec length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", v & ((1 << n) - 1) if n else 0)

    def __setattr__(self, *_):
        raise AttributeError("BitVec is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitVec":
        return cls(n, 0)

    @classmethod
    def from_bytes(cls, n: int, data: bytes) -> "BitVec":
        if len(data) != (n + 7) // 8:
            raise UsageError(f"need {(n + 7) // 8} bytes for {n} bits, got {len(data)}")
        return cls(n, int.from_bytes(data, "little"))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVec":
        v = 0
        n = 0
        for b in bits:
            if b & 1:
                v |= 1 << n
            n += 1
        return cls(n, v)

    @classmethod
    def random(cls, n: int, rng) -> "BitVec":
        return cls(n, rng.getrandbits(n) if n else 0)

    @classmethod
    def join(cls, parts: Sequence["BitVec"]) -> "BitVec":
        # balanced pairwise merge: linear-ish in total size, unlike a left fold
        pend = [(p.n, p.v) for p in parts]
        if not pend:
            return cls(0, 0)
        while len(pend) > 1:
            merged = []
            for i in range(0, len(pend) - 1, 2):
                (n1, v1), (n2, v2) = pend[i], pend[i + 1]
                merged.append((n1 + n2, v1 | (v2 << n1)))
            if len(pend) % 2:
                merged.append(pend[-1])
            pend = merged
        n, v = pend[0]
        return cls(n, v)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise UsageError(f"bit index {i} out of range for length {self.n}")
        return (self.v >> i) & 1

    def bits(self) -> list:
        raw = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little").tolist()

    def to_bytes(self) -> bytes:
        return self.v.to_bytes((self.n + 7) // 8, "little")

    def popcount(self) -> int:
        return self.v.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVec) and self.n == other.n and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.n, self.v))

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitVec({''.join(str(b) for b in self.bits())})"
        return f"BitVec(n={self.n}, {self.to_bytes()[:8].hex()}...)"

    # -- algebra -----------------------------------------------------------

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise UsageError(f"xor length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.v ^ other.v)

    def __and__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise UsageError(f"and length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.v & other.v)

    def times(self, bit: int) -> "BitVec":
        """Scalar product bit * self over GF(2): self if bit else zeros."""
        return self if bit & 1 else BitVec(self.n, 0)


def random_rows(count: int, n: int, rng) -> np.ndarray:
    """count rows of rng.getrandbits(n), drawn in row order, as a (count,
    ceil(n/8)) uint8 array: each row holds the bytes of `BitVec.random(n,
    rng)`.

    When n is a multiple of 32 the rows come from one getrandbits(count * n)
    draw: the generator fills it with 32-bit words, least significant first,
    so the bytes and the generator's state afterwards are those of the
    row-by-row draws.
    """
    nb = (n + 7) // 8
    if n % 32 == 0:
        raw = rng.getrandbits(count * n).to_bytes(count * nb, "little")
    else:
        raw = b"".join(rng.getrandbits(n).to_bytes(nb, "little") for _ in range(count))
    return np.frombuffer(raw, np.uint8).reshape(count, nb)


def mat_vec_mul(m: np.ndarray, v) -> bytes:
    """m @ v over GF(2) for a packed (rows, ceil(n/8)) matrix and a packed
    n-bit vector whose pad bits are zero: output bit r is the parity of row r
    AND v, packed."""
    v = np.frombuffer(v, np.uint8)
    if m.shape[1] != len(v):
        raise UsageError(f"dim mismatch: matrix rows of {m.shape[1]} bytes, vector {len(v)}")
    return pack_bits(np.unpackbits(m & v, axis=1).sum(axis=1) & 1)


def mat_vec_mul_batch(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """m applied to n packed columns at every bit position: for a packed
    (rows, ceil(n/8)) matrix and an (n, w) uint8 array, output row r is the
    XOR of the columns i set in row r of m, so bit j of the output rows is
    m @ (bit j of each column).

    Four Russians, six columns at a time: a 64-entry table holds every XOR
    of one block of six columns, and bits 6b..6b+5 of each matrix row pick
    its entry for block b. Blocked by cache size: the columns are cut into
    equal chunks of at most _FR_CHUNK bytes, and within a chunk the tables
    of as many blocks as fit in _FR_TABLES bytes are built together, six
    XORs per group of blocks. So for kappa = 128 and n = 939 at 232-byte
    columns, 24 numpy calls build the tables of all 157 blocks, in four
    groups. The columns are read in place; only a last, partial block is
    copied, zero-padded to six. Matrix bits past n are ignored.
    """
    n, w = cols.shape
    if m.shape[1] != (n + 7) // 8:
        raise UsageError(f"dim mismatch: matrix rows of {m.shape[1]} bytes, {n} columns")
    full, rest = divmod(n, _FR_COLS)
    n_blocks = full + (rest > 0)
    bits = np.zeros((len(m), n_blocks * _FR_COLS), np.uint8)
    bits[:, :n] = np.unpackbits(m, axis=1, count=n, bitorder="little")
    blocked = bits.reshape(len(m), n_blocks, _FR_COLS)
    picks = blocked[:, :, 0].copy()
    for i in range(1, _FR_COLS):
        picks |= blocked[:, :, i] << i
    picks = picks.T.astype(np.intp)
    n_chunks = max(1, -(-w // _FR_CHUNK))
    chunk = max(1, -(-w // n_chunks))
    per = max(1, _FR_TABLES // ((1 << _FR_COLS) * chunk))
    blocks = cols[: _FR_COLS * full].reshape(full, _FR_COLS, w)
    groups = [(b, blocks[b : b + per]) for b in range(0, full, per)]
    if rest:
        tail = np.zeros((1, _FR_COLS, w), np.uint8)
        tail[0, :rest] = cols[_FR_COLS * full :]
        groups.append((full, tail))
    out = np.zeros((len(m), w), np.uint8)
    if not hasattr(_FR_BUFFER, "tables"):
        _FR_BUFFER.tables = np.empty(_FR_TABLES, np.uint8)
    shape = (min(per, n_blocks), 1 << _FR_COLS, chunk)
    tables = _FR_BUFFER.tables[: math.prod(shape)].reshape(shape)
    tables[:, 0] = 0  # entry 0 of every table is never written after this
    for c0 in range(0, w, chunk):
        dst = out[:, c0 : c0 + chunk]
        for b0, group in groups:
            t = tables[: len(group), :, : dst.shape[1]]
            part = group[:, :, None, c0 : c0 + chunk]
            for i in range(_FR_COLS):
                np.bitwise_xor(t[:, : 1 << i], part[:, i], out=t[:, 1 << i : 2 << i])
            for table, pick in zip(t, picks[b0 : b0 + len(group)]):
                dst ^= table[pick]
    return out


def pack_bits(bits: np.ndarray) -> bytes:
    """A vector of 0/1 values in this module's byte order, as BitVec.to_bytes."""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_rows(data, n: int, n_bits: int) -> np.ndarray:
    """data as n packed n_bits-bit rows, an (n, ceil(n_bits/8)) uint8 view; a
    set pad bit past n_bits in any row is a ProtocolError, so packed rows
    have one encoding."""
    rows = np.frombuffer(data, np.uint8).reshape(n, (n_bits + 7) // 8)
    if n_bits % 8 and (rows[:, -1] >> n_bits % 8).any():
        raise ProtocolError(f"a pad bit past bit {n_bits} of a row is set")
    return rows


def unpack_bits(data, n: int) -> np.ndarray:
    """The n packed bits of data as a uint8 vector of 0/1 values: one n-bit
    row, so a set pad bit past n is a ProtocolError."""
    return np.unpackbits(unpack_rows(data, 1, n)[0], count=n, bitorder="little")


def transpose_bits(rows: np.ndarray, n: int, _block: int = 8192) -> np.ndarray:
    """Transpose t packed n-bit rows, a (t, ceil(n/8)) uint8 array, into n
    packed t-bit rows: bit i of output row j is bit j of input row i.

    The 8x8 bit-block transpose: with t padded by zero rows to a multiple of
    8, each uint64 takes one byte from each of 8 consecutive rows, so it
    holds an 8x8 bit block; three masked swaps transpose every block at
    once, and byte c of a transposed block is the block's byte of output
    row 8j + c. Works in column blocks of _block bits (rounded down to whole
    bytes), which bound the temporaries at t * _block / 8 bytes each.
    """
    t, nb = len(rows), (n + 7) // 8
    tb = (t + 7) // 8
    if t % 8:
        rows = np.concatenate((rows, np.zeros((8 * tb - t, rows.shape[1]), np.uint8)))
    grouped = rows.reshape(tb, 8, rows.shape[1])
    out = np.empty((n, tb), dtype=np.uint8)
    step = max(1, _block // 8)
    for b0 in range(0, nb, step):
        b1 = min(nb, b0 + step)
        x = np.ascontiguousarray(grouped[:, :, b0:b1].transpose(0, 2, 1)).view(np.uint64)
        for s, mask in _SWAPS:
            y = (x ^ (x >> s)) & mask
            x ^= y
            x ^= y << s
        blocks = x.view(np.uint8).reshape(tb, b1 - b0, 8).transpose(1, 2, 0)
        j1 = min(n, 8 * b1)
        out[8 * b0 : j1] = blocks.reshape(8 * (b1 - b0), tb)[: j1 - 8 * b0]
    return out


def random_permutation(n: int, rng) -> np.ndarray:
    """Uniform permutation of range(n), as an int64 array, from one draw: a
    fresh 128-bit seed from rng keys numpy's generator, which shuffles."""
    return np.random.default_rng(rng.getrandbits(128)).permutation(n)


def random_pairing(t: int, rng) -> np.ndarray:
    """Uniform perfect matching on range(t), t even, as a uint32 array part
    with part[i] the partner of i: a fixed-point-free involution.

    A uniform shuffle paired off consecutively hits every matching with equal
    probability (each matching corresponds to the same number of orderings).
    """
    if t % 2:
        raise UsageError("pairing needs an even count")
    pairs = random_permutation(t, rng).astype(np.uint32).reshape(-1, 2)
    part = np.empty(t, np.uint32)
    part[pairs] = pairs[:, ::-1]
    return part
