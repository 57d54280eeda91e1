"""Commit-then-open equality check between two parties.

Both sides reduce their value to d = H(n, value), a 32-byte digest bound to
the value's bit length. The committing side commits to its digest with fresh
randomness, receives the peer's digest, then opens. Both sides learn whether
the digests matched; on mismatch each side has, by then, seen the other's
H(value) - that leak is the contract. It is less than the values themselves,
which the calling protocols' cut-and-choose analyses already allow to leak.

The commitment digest is truncated to kappa bits so reduced-kappa test
builds can measure binding failure rates.
"""

from __future__ import annotations

import struct

from .bitlinalg import BitVec
from .errors import UsageError
from .ro_suite import DIGEST_BYTES, ro_hash
from .transport import Channel, MsgType


def _commitment(kappa: int, x, r: BitVec) -> bytes:
    if kappa % 8 or not 8 <= kappa <= 256:
        raise UsageError("kappa must be a byte multiple in [8, 256]")
    return ro_hash("eq", x, r)[: kappa // 8]


def _digest(v: BitVec) -> bytes:
    return ro_hash("eq/value", struct.pack(">I", v.n), v)


def eq_commit_side(ch: Channel, x: BitVec, rng) -> bool:
    """Run the committing role. Returns True iff the values matched."""
    d = _digest(x)
    r = BitVec.random(ch.kappa, rng)
    ch.send(MsgType.EQ_COMMIT, _commitment(ch.kappa, d, r))
    theirs = ch.recv(MsgType.EQ_VALUE, DIGEST_BYTES)
    ch.send(MsgType.EQ_OPEN, d + r.to_bytes())
    return d == theirs


def eq_respond_side(ch: Channel, y: BitVec) -> bool:
    """Run the responding role. Returns True iff the commitment opened
    correctly and the values matched."""
    c = ch.recv(MsgType.EQ_COMMIT, ch.kappa // 8)
    e = _digest(y)
    ch.send(MsgType.EQ_VALUE, e)
    opening = ch.recv(MsgType.EQ_OPEN, DIGEST_BYTES + ch.kappa // 8)
    d = opening[:DIGEST_BYTES]
    r = BitVec.from_bytes(ch.kappa, opening[DIGEST_BYTES:])
    return _commitment(ch.kappa, d, r) == c and d == e
