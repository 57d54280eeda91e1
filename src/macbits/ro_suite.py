"""Domain-separated hashing, PRG expansion, and MAC accumulators with the
digest exchange (a protocol side) that checks them.

Hashes, commitments and digest streams use SHA-256. The per-row hashes of
`hash_rows` use BLAKE2b, whose digest can be up to 64 bytes long, and
SHAKE-128 for longer ones. The PRG and the long per-row pads of `pad_rows`
use SHAKE-128. Each seed or row costs one call. Every call is keyed by an
explicit domain tag, prepended with a length prefix so distinct (tag,
input) pairs can never collide as byte streams. A process-global counter
records calls per tag; the cost-accounting tests assert exact per-instance
hash budgets from it.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import Counter

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
_ROW_CHUNK = 32 * 1024  # bytes of prefixed rows, or of digests, per chunk
_BLAKE2B_MAX = 64  # the longest BLAKE2b digest, in bytes

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


def _digest_rows(tag: str, rows: np.ndarray, out: np.ndarray, digest) -> None:
    """Fill out, an (len(rows), nb) uint8 array, with digest(tag-prefix ||
    row) per row, where digest maps a list of byte strings to a list of
    nb-byte digests.

    A chunk of about 32 KiB of prefixed rows is built as one uint8 array and
    split into byte strings by one `V`-dtype tolist(), and the chunk's
    digests are joined and copied into out, so no second copy of the whole
    result is ever held.
    """
    n, w = rows.shape
    nb = out.shape[1]
    head = np.frombuffer(_tag_prefix(tag), np.uint8)
    width = head.size + w  # never 0, so an empty row is hashed too
    step = max(1, _ROW_CHUNK // max(width, nb))
    buf = np.empty((min(n, step), width), np.uint8)
    buf[:, : head.size] = head
    for k0 in range(0, n, step):
        part = buf[: min(step, n - k0)]
        part[:, head.size :] = rows[k0 : k0 + len(part)]
        digests = digest(part.view(f"V{width}").ravel().tolist())
        out[k0 : k0 + len(part)] = np.frombuffer(b"".join(digests), np.uint8).reshape(len(part), nb)


def _shake_digests(nb: int):
    """The `_digest_rows` digest of nb bytes of SHAKE-128 per string."""
    shake = hashlib.shake_128
    return lambda xs: [shake(x).digest(nb) for x in xs]


def hash_rows(tag: str, rows: np.ndarray, nbytes: int = DIGEST_BYTES) -> np.ndarray:
    """Per row of a 2-D uint8 array, an nbytes-byte digest of the
    length-prefixed tag and the row, as a (len(rows), nbytes) uint8 array:
    BLAKE2b with digest_size=nbytes up to its 64 bytes, SHAKE-128 past them.
    One call per row either way, counted under tag; no "prg" blocks."""
    if nbytes < 1:
        raise UsageError("a row hash needs at least one byte")
    if nbytes <= _BLAKE2B_MAX:
        blake = hashlib.blake2b
        digest = lambda xs: [blake(x, digest_size=nbytes).digest() for x in xs]
    else:
        digest = _shake_digests(nbytes)
    out = np.empty((len(rows), nbytes), np.uint8)
    _digest_rows(tag, rows, out, digest)
    with _counter_lock:
        _hash_calls[tag] += len(rows)
    return out


def pad_rows(tag: str, rows: np.ndarray, n_bits: int, out: np.ndarray = None) -> np.ndarray:
    """Per row, the packed n_bits-bit pad SHAKE-128(tag-prefix || row), as a
    (len(rows), ceil(n_bits/8)) uint8 array with zero pad bits, written into
    out if given (an array of that shape, such as a column slice of a wider
    one): one XOF call per row, for pads longer than `hash_rows` serves
    best. The length-prefixed tag keeps the pads of distinct tags apart, and
    from `expand`'s output as long as tag is not "prg", which no caller
    uses. Counted as one call per row under tag, plus ceil(n_bits/256)
    "prg" blocks per row.
    """
    n = len(rows)
    nb = (n_bits + 7) // 8
    pads = np.empty((n, nb), np.uint8) if out is None else out
    _digest_rows(tag, rows, pads, _shake_digests(nb))
    with _counter_lock:
        _hash_calls[tag] += n
        _hash_calls["prg"] += n * -(-n_bits // 256)
    if n_bits % 8:
        pads[:, -1] &= (1 << (n_bits % 8)) - 1
    return pads


_ACC_ROUND_HASH = hashlib.sha256(_tag_prefix("acc/round"))
_COUNT = struct.Struct(">Q")


class MacAccumulator:
    """Chained digest of a sequence of revealed MACs.

    Both sides of a reveal feed what they believe the MACs are, one call per
    reveal round; equal rounds in equal order from equal starting states
    give equal states. Each round's row count is hashed into the state, so
    the state alone binds how many MACs, in how many rounds, it absorbed.
    Starts at the given state, the all-zero digest by default.
    """

    __slots__ = ("state",)

    def __init__(self, state: bytes = bytes(DIGEST_BYTES)):
        self.state = state

    def absorb(self, macs: np.ndarray) -> "MacAccumulator":
        """Chain one round, given as a uint8 array with one MAC per row, with
        a single hash over (state, MAC count, the rows as one buffer); an
        empty round leaves the accumulator unchanged.

        The hash is `ro_hash("acc/round", state, count, rows)`, fed from a
        copy of one SHA-256 that has hashed the tag already, with the rows
        read in place when they are contiguous."""
        n = len(macs)
        if not n:
            return self
        h = _ACC_ROUND_HASH.copy()
        h.update(self.state)
        h.update(_COUNT.pack(n))
        h.update(macs if macs.flags.c_contiguous else np.ascontiguousarray(macs))
        with _counter_lock:
            _hash_calls["acc/round"] += 1
        return MacAccumulator(h.digest())


def check_flush(theirs, expect: MacAccumulator) -> None:
    """The peer's RT_ACC_FLUSH payload, its chain state, must equal what I
    expected of its reveals."""
    if theirs != expect.state:
        raise ProtocolAbort("flush", "deferred check failed")


def flush_accumulators(sent: MacAccumulator, expect: MacAccumulator):
    """Exchange deferred-MAC digests, as a protocol side: my sent chain must
    equal what the peer expected of my reveals, and vice versa."""
    (theirs,) = yield Swap([(MsgType.RT_ACC_FLUSH, sent.state)],
                           [(MsgType.RT_ACC_FLUSH, DIGEST_BYTES)])
    check_flush(theirs, expect)
