"""Domain-separated hashing, PRG expansion, and MAC accumulators with the
digest exchange (a protocol side) that checks them.

Hashing and commitment use SHA-256; the PRG and the per-row pads of
`pad_rows` use SHAKE-128, one XOF call per seed or row. Every call is keyed
by an explicit domain tag, prepended with a length prefix so distinct (tag,
input) pairs can never collide as byte streams. A process-global counter
records calls per tag; the cost-accounting tests assert exact per-instance
hash budgets from it.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ProtocolAbort, UsageError
from .transport import MsgType, Swap

DIGEST_BYTES = 32
KAPPA_DEFAULT = 128
PSI_DEFAULT = 40


def _tag_prefix(tag: str) -> bytes:
    """The length-prefixed domain tag every hash and expansion starts with."""
    t = tag.encode()
    return len(t).to_bytes(2, "big") + t


_PRG_PREFIX = _tag_prefix("prg")
_PAD_CHUNK = 32 * 1024  # bytes of pads `pad_rows` joins per copy

_counter_lock = threading.Lock()
_hash_calls: Counter = Counter()


def _as_bytes(x) -> bytes:
    if isinstance(x, (bytes, bytearray, memoryview)):
        return bytes(x)
    if isinstance(x, np.ndarray):
        return x.tobytes()
    raise UsageError(f"cannot hash {type(x).__name__}")


def ro_hash(tag: str, *parts) -> bytes:
    """32-byte digest of the tagged concatenation of parts.

    Parts are raw-concatenated (callers fix field widths); only the tag gets a
    length prefix, which is enough to separate domains.
    """
    return ro_stream(tag, *parts).digest()


def ro_stream(tag: str, *parts):
    """A SHA-256 object fed the tag and parts as `ro_hash` feeds them, for
    callers that stream the rest; its digest() equals ro_hash(tag, parts,
    rest). Counted as one call."""
    h = hashlib.sha256(_tag_prefix(tag))
    for p in parts:
        h.update(_as_bytes(p))
    with _counter_lock:
        _hash_calls[tag] += 1
    return h


def hash_calls(prefix: str = "") -> int:
    """Total ro_hash invocations whose tag starts with prefix."""
    with _counter_lock:
        return sum(v for k, v in _hash_calls.items() if k.startswith(prefix))


def reset_hash_calls() -> None:
    with _counter_lock:
        _hash_calls.clear()


def expand(seed, out_bits: int) -> bytes:
    """Deterministic PRG: SHAKE-128 of the length-prefixed "prg" tag and seed,
    out_bits bits packed in ceil(out_bits/8) bytes with zero pad bits.

    Prefix property: expand(s, a) equals the first a bits of expand(s, b) for
    a <= b. Output is counted under the "prg" tag in 256-bit blocks.
    """
    if out_bits < 0:
        raise UsageError("negative expansion length")
    h = hashlib.shake_128(_PRG_PREFIX + _as_bytes(seed))
    with _counter_lock:
        _hash_calls["prg"] += -(-out_bits // 256)
    out = h.digest((out_bits + 7) // 8)
    if out_bits % 8:
        out = out[:-1] + bytes([out[-1] & (1 << out_bits % 8) - 1])
    return out


def hash_rows(tag: str, rows: np.ndarray) -> np.ndarray:
    """ro_hash(tag, row) for each row of a 2-D uint8 array, as an (n, 32)
    uint8 array; counted as one call per row."""
    n, w = rows.shape
    raw = np.ascontiguousarray(rows).tobytes()
    head = _tag_prefix(tag)
    sha = hashlib.sha256
    starts = range(0, n * w, w) if w else [0] * n  # an empty row is hashed too
    out = b"".join([sha(head + raw[i : i + w]).digest() for i in starts])
    with _counter_lock:
        _hash_calls[tag] += n
    return np.frombuffer(out, np.uint8).reshape(n, DIGEST_BYTES)


def pad_rows(tag: str, rows: np.ndarray, n_bits: int, out: np.ndarray = None) -> np.ndarray:
    """Per row, the packed n_bits-bit pad SHAKE-128(tag-prefix || row), as a
    (len(rows), ceil(n_bits/8)) uint8 array with zero pad bits, written into
    out if given (an array of that shape, such as a column slice of a wider
    one): one XOF call per row. The length-prefixed tag keeps the pads of
    distinct tags apart, and from `expand`'s output as long as tag is not
    "prg", which no caller uses. Counted as one call per row under tag, plus
    ceil(n_bits/256) "prg" blocks per row.

    The pads are joined about 32 KiB at a time and copied into the result,
    so no second copy of the whole result is ever held.
    """
    n, w = rows.shape
    nb = (n_bits + 7) // 8
    pads = np.empty((n, nb), np.uint8) if out is None else out
    raw = rows.tobytes()
    head = _tag_prefix(tag)
    shake = hashlib.shake_128
    starts = range(0, n * w, w) if w else [0] * n  # an empty row is padded too
    per_chunk = max(1, _PAD_CHUNK // max(nb, 1))
    for k0 in range(0, n, per_chunk):
        k1 = min(n, k0 + per_chunk)
        pads[k0:k1] = np.frombuffer(
            b"".join([shake(head + raw[i : i + w]).digest(nb) for i in starts[k0:k1]]),
            np.uint8).reshape(k1 - k0, nb)
    with _counter_lock:
        _hash_calls[tag] += n
        _hash_calls["prg"] += n * -(-n_bits // 256)
    if n_bits % 8:
        pads[:, -1] &= (1 << (n_bits % 8)) - 1
    return pads


@dataclass(frozen=True)
class MacAccumulator:
    """Chained digest of a sequence of revealed MACs.

    Both sides of a reveal feed what they believe the MACs are, one call per
    reveal round; equal rounds in equal order give equal states. Starts at
    the all-zero digest.
    """

    state: bytes = bytes(DIGEST_BYTES)
    count: int = 0

    def absorb(self, macs: np.ndarray) -> "MacAccumulator":
        """Chain one round, given as a uint8 array with one MAC per row, with
        a single hash over (state, MAC count, the rows as one buffer); an
        empty round leaves the accumulator unchanged."""
        n = len(macs)
        if not n:
            return self
        state = ro_hash("acc/round", self.state, struct.pack(">Q", n), macs)
        return MacAccumulator(state, self.count + n)

    def digest(self) -> bytes:
        return self.state


def flush_accumulators(sent: MacAccumulator, expect: MacAccumulator):
    """Exchange deferred-MAC digests, as a protocol side: my sent chain must
    equal what the peer expected of my reveals, and vice versa."""
    mine = struct.pack(">Q", sent.count) + sent.state
    (theirs,) = yield Swap([(MsgType.RT_ACC_FLUSH, mine)], [(MsgType.RT_ACC_FLUSH, len(mine))])
    if theirs != struct.pack(">Q", expect.count) + expect.state:
        raise ProtocolAbort("flush", "deferred check failed")
