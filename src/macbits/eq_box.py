"""Commit-then-open equality check between two parties.

The committing side hashes its value with fresh randomness, sends the
commitment, receives the peer's value in the clear, then opens. Both sides
learn whether the values matched; on mismatch each side has, by then, seen
the other's value - that leak is part of the contract and is what the
calling protocols' cut-and-choose analyses account for.

The commitment digest is truncated to kappa bits so reduced-kappa test
builds can measure binding failure rates.
"""

from __future__ import annotations

import struct

from .bitlinalg import BitVec
from .errors import ProtocolError, UsageError
from .ro_suite import ro_hash
from .transport import Channel, MsgType


def _commitment(kappa: int, x: BitVec, r: BitVec) -> bytes:
    if kappa % 8 or not 8 <= kappa <= 256:
        raise UsageError("kappa must be a byte multiple in [8, 256]")
    return ro_hash("eq", x, r)[: kappa // 8]


def _pack_value(v: BitVec) -> bytes:
    return struct.pack(">I", v.n) + v.to_bytes()


def _value_bytes(n: int) -> int:
    return 4 + (n + 7) // 8


def _unpack_value(payload: bytes, expect_bits: int) -> BitVec:
    """Parse a packed value; `Channel.recv` has already checked the size."""
    (n,) = struct.unpack_from(">I", payload)
    if n != expect_bits:
        raise ProtocolError(f"equality value length {n}, expected {expect_bits}")
    return BitVec.from_bytes(n, payload[4 : _value_bytes(n)])


def eq_commit_side(ch: Channel, x: BitVec, rng) -> bool:
    """Run the committing role. Returns True iff the values matched."""
    r = BitVec.random(ch.kappa, rng)
    ch.send(MsgType.EQ_COMMIT, _commitment(ch.kappa, x, r))
    y = _unpack_value(ch.recv(MsgType.EQ_VALUE, _value_bytes(x.n)), x.n)
    ch.send(MsgType.EQ_OPEN, _pack_value(x) + r.to_bytes())
    return x == y


def eq_respond_side(ch: Channel, y: BitVec) -> bool:
    """Run the responding role. Returns True iff the commitment opened
    correctly and the values matched."""
    c = ch.recv(MsgType.EQ_COMMIT, ch.kappa // 8)
    ch.send(MsgType.EQ_VALUE, _pack_value(y))
    opening = ch.recv(MsgType.EQ_OPEN, _value_bytes(y.n) + ch.kappa // 8)
    x = _unpack_value(opening, y.n)
    r = BitVec.from_bytes(ch.kappa, opening[_value_bytes(y.n):])
    return _commitment(ch.kappa, x, r) == c and x == y
