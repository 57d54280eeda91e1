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

from .bitlinalg import BitVec
from .errors import UsageError
from .ro_suite import DIGEST_BYTES, ro_hash, ro_stream
from .transport import Channel, MsgType, Recv, Send


def _commitment(kappa: int, x, r: BitVec) -> bytes:
    if kappa % 8 or not 8 <= kappa <= 256:
        raise UsageError("kappa must be a byte multiple in [8, 256]")
    return ro_hash("eq", x, r)[: kappa // 8]


def value_digest(n_bits: int, packed) -> bytes:
    """The digest the check compares, of an n_bits-bit value packed in bytes."""
    return ro_hash("eq/value", struct.pack(">I", n_bits), packed)


class ColumnDigest:
    """`value_digest` of the concatenation of BitVecs fed one at a time.

    Each piece's bits follow the previous piece's, as in one packed value of
    n_bits bits. When every piece so far has a whole number of bytes the
    piece's bytes are hashed as they are; otherwise the piece is shifted by
    the bits still pending from the last partial byte. Counted as one hash.
    """

    def __init__(self, n_bits: int):
        self._h = ro_stream("eq/value", struct.pack(">I", n_bits))
        self._left = n_bits
        self._carry = self._carry_bits = 0

    def update(self, v: BitVec) -> None:
        if v.n > self._left:
            raise UsageError("more bits fed than the digest was sized for")
        self._left -= v.n
        if not self._carry_bits:
            raw = v.to_bytes()
        else:
            total = self._carry_bits + v.n
            raw = (self._carry | v.v << self._carry_bits).to_bytes((total + 7) // 8, "little")
        self._carry_bits = (self._carry_bits + v.n) % 8
        if self._carry_bits:
            self._carry, raw = raw[-1], raw[:-1]
        self._h.update(raw)

    def digest(self) -> bytes:
        if self._left:
            raise UsageError(f"{self._left} bits of the value were never fed")
        if self._carry_bits:
            self._h.update(bytes([self._carry]))
            self._carry_bits = 0
        return self._h.digest()


def eq_commit_side(ch: Channel, d: bytes, rng):
    """Run the committing role on digest d. Returns True iff the values
    matched."""
    r = BitVec.random(ch.kappa, rng)
    yield Send((MsgType.EQ_COMMIT, _commitment(ch.kappa, d, r)))
    (theirs,) = yield Recv((MsgType.EQ_VALUE, DIGEST_BYTES))
    yield Send((MsgType.EQ_OPEN, d + r.to_bytes()))
    return d == theirs


def eq_respond_side(ch: Channel, e: bytes):
    """Run the responding role on digest e. Returns True iff the commitment
    opened correctly and the values matched."""
    (c,) = yield Recv((MsgType.EQ_COMMIT, ch.kappa // 8))
    yield Send((MsgType.EQ_VALUE, e))
    (opening,) = yield Recv((MsgType.EQ_OPEN, DIGEST_BYTES + ch.kappa // 8))
    d = bytes(opening[:DIGEST_BYTES])
    r = BitVec.from_bytes(ch.kappa, opening[DIGEST_BYTES:])
    return _commitment(ch.kappa, d, r) == c and d == e
