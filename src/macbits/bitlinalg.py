"""Packed bit vectors and GF(2) linear algebra.

Bit order convention, used for every serialized bit string in this package:
bit i of a byte is (byte >> i) & 1, i.e. little-endian within bytes, and bit
i of a vector lives in byte i // 8. Pad bits past the logical length are
always zero.

BitVec is immutable and backed by a Python int, which makes XOR and equality
cheap; matrix products over many vectors XOR whole Python ints, and
transposes go through numpy on the packed byte form.
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


class BitMatrix:
    """Dense GF(2) matrix, rows stored as packed ints."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int, row_ints: Sequence[int]):
        if len(row_ints) != rows:
            raise UsageError("row count mismatch")
        mask = (1 << cols) - 1 if cols else 0
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_r", tuple(r & mask for r in row_ints))

    def __setattr__(self, *_):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def random(cls, rows: int, cols: int, rng) -> "BitMatrix":
        return cls(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec]) -> "BitMatrix":
        if not rows:
            return cls(0, 0, [])
        n = rows[0].n
        if any(r.n != n for r in rows):
            raise UsageError("ragged rows")
        return cls(len(rows), n, [r.v for r in rows])

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self._r[i])

    def bit(self, i: int, j: int) -> int:
        return (self._r[i] >> j) & 1

    def to_bytes(self) -> bytes:
        """Row-major, each row padded to whole bytes."""
        rb = (self.cols + 7) // 8
        return b"".join(r.to_bytes(rb, "little") for r in self._r)

    @classmethod
    def from_bytes(cls, rows: int, cols: int, data: bytes) -> "BitMatrix":
        rb = (cols + 7) // 8
        if len(data) != rows * rb:
            raise UsageError("matrix byte length mismatch")
        ints = [int.from_bytes(data[i * rb : (i + 1) * rb], "little") for i in range(rows)]
        return cls(rows, cols, ints)

    def transpose(self) -> "BitMatrix":
        cols = transpose_bits([self.row(i) for i in range(self.rows)])
        return BitMatrix.from_rows(cols) if cols else BitMatrix.zeros(self.cols, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._r == other._r
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._r))

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


def mat_vec_mul(m: BitMatrix, v: BitVec) -> BitVec:
    """m @ v over GF(2); output bit r is the parity of row_r AND v."""
    if m.cols != v.n:
        raise UsageError(f"dim mismatch: matrix cols {m.cols}, vector {v.n}")
    out = 0
    vv = v.v
    for i, r in enumerate(m._r):
        out |= ((r & vv).bit_count() & 1) << i
    return BitVec(m.rows, out)


def mat_mul_rows(m: BitMatrix, cols: Sequence[BitVec]) -> list:
    """m applied to a stack of equal-length column vectors: out[r] is the XOR
    of cols[i] over the bits i set in row r, so bit j of the outputs is
    m @ (bit j of each column)."""
    if len(cols) != m.cols:
        raise UsageError(f"dim mismatch: matrix cols {m.cols}, {len(cols)} vectors")
    n = cols[0].n if cols else 0
    if any(c.n != n for c in cols):
        raise UsageError("ragged columns")
    vs = [c.v for c in cols]
    out = []
    for r in m._r:
        acc = 0
        while r:
            low = r & -r
            acc ^= vs[low.bit_length() - 1]
            r ^= low
        out.append(BitVec(n, acc))
    return out


def mat_vec_mul_batch(m: BitMatrix, vecs: Sequence[BitVec]) -> list:
    """m @ v for many vectors; agrees bit-for-bit with mat_vec_mul."""
    # Off the product path; kept while the benchmark's spans still wrap it.
    return transpose_bits(mat_mul_rows(m, transpose_bits(vecs))) if vecs else []


def transpose_bits(rows: Sequence[BitVec], _block: int = 8192) -> list:
    """Transpose a list of equal-length BitVecs: out[j][i] == rows[i][j].

    Processes column blocks so the unpacked uint8 form never exceeds
    len(rows) * _block bytes.
    """
    if not rows:
        return []
    n = rows[0].n
    if any(r.n != n for r in rows):
        raise UsageError("ragged rows in transpose")
    t = len(rows)
    nbytes = (n + 7) // 8
    m = np.empty((t, nbytes), dtype=np.uint8)
    for i, r in enumerate(rows):
        m[i] = np.frombuffer(r.to_bytes(), dtype=np.uint8)
    out = []
    out_nb = (t + 7) // 8
    for c0 in range(0, n, _block):
        c1 = min(n, c0 + _block)
        b0, b1 = c0 // 8, (c1 + 7) // 8
        sub = np.unpackbits(m[:, b0:b1], axis=1, bitorder="little")
        cols = np.ascontiguousarray(sub[:, c0 - 8 * b0 : c1 - 8 * b0].T)
        packed = np.packbits(cols, axis=1, bitorder="little")
        blob = packed.tobytes()
        step = packed.shape[1]
        for k in range(c1 - c0):
            out.append(BitVec.from_bytes(t, blob[k * step : k * step + out_nb]))
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


class BitWriter:
    """Append-only bit stream; packs little-endian like BitVec.to_bytes."""

    def __init__(self):
        self._parts = []
        self.bit_len = 0

    def append(self, piece: BitVec):
        self._parts.append(piece)
        self.bit_len += piece.n

    def append_bit(self, b: int):
        self.append(BitVec(1, b))

    def getvalue(self) -> bytes:
        return BitVec.join(self._parts).to_bytes()


class BitReader:
    """Sequential reads from a packed bit stream produced by BitWriter."""

    def __init__(self, data: bytes, n_bits: int = None):
        self._data = data
        self.n_bits = 8 * len(data) if n_bits is None else n_bits
        if self.n_bits > 8 * len(data):
            raise UsageError("declared bit length exceeds the data")
        self.pos = 0

    def take(self, n: int) -> BitVec:
        if self.pos + n > self.n_bits:
            raise UsageError("bit stream exhausted")
        lo_byte = self.pos >> 3
        hi_byte = (self.pos + n + 7) >> 3
        chunk = int.from_bytes(self._data[lo_byte:hi_byte], "little")
        chunk >>= self.pos & 7
        self.pos += n
        return BitVec(n, chunk)

    def take_bit(self) -> int:
        return self.take(1).v
