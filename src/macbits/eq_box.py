"""Commit-then-open equality check between two parties.

Both sides reduce their value to d = H(n, value), a 32-byte digest bound to
the value's bit length (`value_digest`, or `ColumnDigest` for a value fed
in pieces), and pass the digest in. The committing side commits to its
digest with fresh randomness, receives the peer's digest, then opens. Both
sides learn whether the digests matched; on mismatch each side has, by then,
seen the other's H(value) - that leak is the contract. It is less than the
values themselves, which the calling protocols' cut-and-choose analyses
already allow to leak.

Both sides are protocol sides (see `transport.run_sides`). The commitment
digest is truncated to kappa bits so reduced-kappa test builds can measure
binding failure rates.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import UsageError
from .ro_suite import DIGEST_BYTES, ro_hash, ro_stream
from .transport import Channel, MsgType, Recv, Send


def _commitment(kappa: int, x, r: bytes) -> bytes:
    if kappa % 8 or not 8 <= kappa <= 256:
        raise UsageError("kappa must be a byte multiple in [8, 256]")
    return ro_hash("eq", x, r)[: kappa // 8]


def value_digest(n_bits: int, packed) -> bytes:
    """The digest the check compares, of an n_bits-bit value packed in bytes."""
    return ro_hash("eq/value", struct.pack(">I", n_bits), packed)


class ColumnDigest:
    """`value_digest` of count ell-bit columns, concatenated, fed as packed
    (k, ceil(ell/8)) uint8 rows a chunk at a time.

    Each column's bits follow the previous column's, as in one packed value
    of count*ell bits. When ell is a multiple of 8 the rows are hashed as
    they are; otherwise the chunk's bits are repacked after the bits still
    pending from the last partial byte, and the pad bits of each row are
    ignored. Counted as one hash.
    """

    def __init__(self, count: int, ell: int):
        self._h = ro_stream("eq/value", struct.pack(">I", count * ell))
        self._left = count
        self._ell = ell
        self._carry = np.empty(0, np.uint8)

    def update(self, rows: np.ndarray) -> None:
        if len(rows) > self._left:
            raise UsageError("more columns fed than the digest was sized for")
        self._left -= len(rows)
        if self._ell % 8 == 0:
            self._h.update(np.ascontiguousarray(rows))
            return
        bits = np.unpackbits(rows, axis=1, count=self._ell, bitorder="little")
        bits = np.concatenate((self._carry, bits.reshape(-1)))
        whole = len(bits) - len(bits) % 8
        self._h.update(np.packbits(bits[:whole], bitorder="little"))
        self._carry = bits[whole:]

    def digest(self) -> bytes:
        if self._left:
            raise UsageError(f"{self._left} columns of the value were never fed")
        self._h.update(np.packbits(self._carry, bitorder="little"))
        self._carry = self._carry[:0]
        return self._h.digest()


def eq_commit_side(ch: Channel, d: bytes, rng):
    """Run the committing role on digest d. Returns True iff the values
    matched."""
    r = rng.getrandbits(ch.kappa).to_bytes(ch.kappa // 8, "little")
    yield Send((MsgType.EQ_COMMIT, _commitment(ch.kappa, d, r)))
    (theirs,) = yield Recv((MsgType.EQ_VALUE, DIGEST_BYTES))
    yield Send((MsgType.EQ_OPEN, d + r))
    return d == theirs


def eq_respond_side(ch: Channel, e: bytes):
    """Run the responding role on digest e. Returns True iff the commitment
    opened correctly and the values matched."""
    (c,) = yield Recv((MsgType.EQ_COMMIT, ch.kappa // 8))
    yield Send((MsgType.EQ_VALUE, e))
    (opening,) = yield Recv((MsgType.EQ_OPEN, DIGEST_BYTES + ch.kappa // 8))
    d = bytes(opening[:DIGEST_BYTES])
    r = bytes(opening[DIGEST_BYTES:])
    return _commitment(ch.kappa, d, r) == c and d == e
