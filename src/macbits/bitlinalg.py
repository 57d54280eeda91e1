"""Packed bit vectors and GF(2) linear algebra.

Bit order convention, used for every serialized bit string in this package:
bit i of a byte is (byte >> i) & 1, i.e. little-endian within bytes, and bit
i of a vector lives in byte i // 8. Pad bits past the logical length are
always zero.

BitVec is an immutable bit string backed by a Python int, the public type
of circuit inputs and outputs. Bulk bit data lives in uint8 arrays of packed
rows in that same byte order: `mat_vec_mul_batch` multiplies a packed GF(2)
matrix into such rows and `transpose_bits` transposes them, without building
a BitVec per row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError


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
    def ones(cls, n: int) -> "BitVec":
        return cls(n, (1 << n) - 1)

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
    rng)`."""
    nb = (n + 7) // 8
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

    Four Russians, eight columns at a time: a 256-entry table holds every
    XOR of one block of eight columns, and byte b of each matrix row picks
    its entry for block b. Matrix bits past n are ignored.
    """
    n, w = cols.shape
    if m.shape[1] != (n + 7) // 8:
        raise UsageError(f"dim mismatch: matrix rows of {m.shape[1]} bytes, {n} columns")
    if n % 8:
        m = m.copy()
        m[:, -1] &= (1 << n % 8) - 1
    out = np.zeros((len(m), w), np.uint8)
    table = np.zeros((256, w), np.uint8)
    for b in range(m.shape[1]):
        for i, col in enumerate(cols[8 * b : 8 * b + 8]):
            np.bitwise_xor(table[: 1 << i], col, out=table[1 << i : 2 << i])
        out ^= table[m[:, b]]
    return out


def pack_bits(bits: np.ndarray) -> bytes:
    """A vector of 0/1 values in this module's byte order, as BitVec.to_bytes."""
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    """The first n bits of data as a uint8 vector of 0/1 values."""
    return np.unpackbits(np.frombuffer(data, np.uint8), count=n, bitorder="little")


def transpose_bits(rows: np.ndarray, n: int, _block: int = 8192) -> np.ndarray:
    """Transpose t packed n-bit rows, a (t, ceil(n/8)) uint8 array, into n
    packed t-bit rows: bit i of output row j is bit j of input row i.

    Processes column blocks so the unpacked uint8 form never exceeds
    t * _block bytes.
    """
    t = len(rows)
    out = np.empty((n, (t + 7) // 8), dtype=np.uint8)
    for c0 in range(0, n, _block):
        c1 = min(n, c0 + _block)
        bits = np.unpackbits(rows[:, c0 // 8 : (c1 + 7) // 8], axis=1,
                             count=c1 - c0, bitorder="little")
        out[c0:c1] = np.packbits(bits.T, axis=1, bitorder="little")
    return out


class Pairing:
    """Fixed-point-free involution on {0..t-1}: a perfect matching."""

    __slots__ = ("part",)

    def __init__(self, part: Sequence[int]):
        t = len(part)
        if t % 2:
            raise UsageError("pairing needs an even domain")
        for i, j in enumerate(part):
            if not 0 <= j < t or j == i or part[j] != i:
                raise UsageError("not a fixed-point-free involution")
        object.__setattr__(self, "part", tuple(part))

    def __setattr__(self, *_):
        raise AttributeError("Pairing is immutable")

    def __len__(self):
        return len(self.part)

    def partner(self, i: int) -> int:
        return self.part[i]

    def smaller_indices(self) -> list:
        """The canonical representative i < partner(i) of each pair, ascending."""
        return [i for i, j in enumerate(self.part) if i < j]

    def __eq__(self, other):
        return isinstance(other, Pairing) and self.part == other.part

    def __hash__(self):
        return hash(self.part)


def random_permutation(n: int, rng) -> list:
    """Uniform permutation of range(n) by Fisher-Yates."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def random_pairing(t: int, rng) -> Pairing:
    """Uniform perfect matching on range(t); t must be even.

    A uniform shuffle paired off consecutively hits every matching with equal
    probability (each matching corresponds to the same number of orderings).
    """
    if t % 2:
        raise UsageError("pairing needs an even count")
    order = random_permutation(t, rng)
    part = [0] * t
    for k in range(0, t, 2):
        a, b = order[k], order[k + 1]
        part[a], part[b] = b, a
    return Pairing(part)

