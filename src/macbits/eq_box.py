"""Commit-then-open equality check between two parties.

Both sides reduce their value to d = H(n, value), a 32-byte digest bound to
the value's bit length (`value_digest`, or `value_stream` for a value fed
in pieces), and pass the digest in. The committing side commits to its
digest with fresh randomness, receives the peer's digest, then opens. Both
sides learn whether the digests matched; on mismatch each side has, by then,
seen the other's H(value) - that leak is the contract. It is less than the
values themselves, which the calling protocols' cut-and-choose analyses
already allow to leak.

Both sides are protocol sides (see `transport.run_sides`) and take kappa
as an argument. The commitment digest is truncated to kappa bits so
reduced-kappa test builds can measure binding failure rates.
"""

from __future__ import annotations

import struct

from .errors import UsageError
from .ro_suite import DIGEST_BYTES, ro_hash, ro_stream
from .transport import MsgType, Recv, Send


def _commitment(kappa: int, x, r: bytes) -> bytes:
    if kappa % 8 or not 8 <= kappa <= 256:
        raise UsageError("kappa must be a byte multiple in [8, 256]")
    return ro_hash("eq", x, r)[: kappa // 8]


def value_stream(n_bits: int, *parts):
    """The counted `eq/value` hash of an n_bits-bit packed value, n_bits
    prefixed as 8 bytes big-endian, fed parts now and the rest with
    update(): a value may arrive a chunk at a time."""
    return ro_stream("eq/value", struct.pack(">Q", n_bits), *parts)


def value_digest(n_bits: int, packed) -> bytes:
    """The digest the check compares, of an n_bits-bit value packed in bytes."""
    return value_stream(n_bits, packed).digest()


def eq_commit_side(d: bytes, kappa: int, rng):
    """Run the committing role on digest d, with a kappa-bit commitment.
    Returns True iff the values matched."""
    r = rng.getrandbits(kappa).to_bytes(kappa // 8, "little")
    yield Send((MsgType.EQ_COMMIT, _commitment(kappa, d, r)))
    (theirs,) = yield Recv((MsgType.EQ_VALUE, DIGEST_BYTES))
    yield Send((MsgType.EQ_OPEN, d + r))
    return d == theirs


def eq_respond_side(e: bytes, kappa: int):
    """Run the responding role on digest e against a kappa-bit commitment.
    Returns True iff the commitment opened correctly and the values
    matched."""
    (c,) = yield Recv((MsgType.EQ_COMMIT, kappa // 8))
    yield Send((MsgType.EQ_VALUE, e))
    (opening,) = yield Recv((MsgType.EQ_OPEN, DIGEST_BYTES + kappa // 8))
    d = bytes(opening[:DIGEST_BYTES])
    r = bytes(opening[DIGEST_BYTES:])
    return _commitment(kappa, d, r) == c and d == e
