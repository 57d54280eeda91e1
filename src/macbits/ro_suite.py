"""Domain-separated hashing, PRG expansion, masking, and MAC accumulators
with the digest exchange that checks them.

Hashing and commitment use SHA-256 and the PRG uses SHAKE-128, both keyed
by an explicit domain tag. The tag is prepended with a length prefix so
distinct (tag, input) pairs can never collide as byte streams. A
process-global counter records calls per tag; the cost-accounting tests
assert exact per-instance hash budgets from it.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import Counter
from dataclasses import dataclass

from .bitlinalg import BitVec
from .errors import ProtocolAbort, UsageError
from .transport import Channel, MsgType, Role

DIGEST_BYTES = 32
KAPPA_DEFAULT = 128
PSI_DEFAULT = 40

_PRG_PREFIX = len(b"prg").to_bytes(2, "big") + b"prg"

_counter_lock = threading.Lock()
_hash_calls: Counter = Counter()


def _as_bytes(x) -> bytes:
    if isinstance(x, BitVec):
        return x.to_bytes()
    if isinstance(x, (bytes, bytearray, memoryview)):
        return bytes(x)
    raise UsageError(f"cannot hash {type(x).__name__}")


def ro_hash(tag: str, *parts) -> bytes:
    """32-byte digest of the tagged concatenation of parts.

    Parts are raw-concatenated (callers fix field widths); only the tag gets a
    length prefix, which is enough to separate domains.
    """
    h = hashlib.sha256()
    t = tag.encode()
    h.update(len(t).to_bytes(2, "big"))
    h.update(t)
    for p in parts:
        h.update(_as_bytes(p))
    with _counter_lock:
        _hash_calls[tag] += 1
    return h.digest()


def hash_calls(prefix: str = "") -> int:
    """Total ro_hash invocations whose tag starts with prefix."""
    with _counter_lock:
        return sum(v for k, v in _hash_calls.items() if k.startswith(prefix))


def reset_hash_calls() -> None:
    with _counter_lock:
        _hash_calls.clear()


def expand(seed, out_bits: int) -> BitVec:
    """Deterministic PRG: SHAKE-128 of the length-prefixed "prg" tag and seed.

    Prefix property: expand(s, a) equals the first a bits of expand(s, b) for
    a <= b. Output is counted under the "prg" tag in 256-bit blocks.
    """
    if out_bits < 0:
        raise UsageError("negative expansion length")
    h = hashlib.shake_128(_PRG_PREFIX + _as_bytes(seed))
    with _counter_lock:
        _hash_calls["prg"] += -(-out_bits // 256)
    return BitVec(out_bits, int.from_bytes(h.digest((out_bits + 7) // 8), "little"))


def mask(tag: str, key_material, message: BitVec) -> BitVec:
    """One-time pad of message under expand(hash(tag, key_material)).

    Involutive: applying mask twice with the same key and tag returns the
    message, so the same call unmasks.
    """
    pad = expand(ro_hash(tag, key_material), message.n)
    return message ^ pad


@dataclass(frozen=True)
class MacAccumulator:
    """Chained digest of a sequence of revealed MACs.

    Both sides of a reveal feed what they believe the MAC is; equal inputs in
    equal order give equal states. Starts at the all-zero digest.
    """

    state: bytes = bytes(DIGEST_BYTES)
    count: int = 0

    def absorb(self, mac: BitVec) -> "MacAccumulator":
        leaf = ro_hash("acc/leaf", mac)
        return MacAccumulator(ro_hash("acc/chain", self.state, leaf), self.count + 1)

    def digest(self) -> bytes:
        return self.state


def flush_accumulators(ch: Channel, role: Role, sent: MacAccumulator,
                       expect: MacAccumulator) -> None:
    """Exchange deferred-MAC digests; my sent chain must equal what the peer
    expected of my reveals, and vice versa. Alice transmits first."""
    mine = struct.pack(">Q", sent.count) + sent.state
    if role is Role.ALICE:
        ch.send(MsgType.RT_ACC_FLUSH, mine)
        theirs = ch.recv(MsgType.RT_ACC_FLUSH)
    else:
        theirs = ch.recv(MsgType.RT_ACC_FLUSH)
        ch.send(MsgType.RT_ACC_FLUSH, mine)
    want = struct.pack(">Q", expect.count) + expect.state
    if theirs != want:
        raise ProtocolAbort("flush", "deferred check failed")
