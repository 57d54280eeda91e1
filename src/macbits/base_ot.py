"""Seed oblivious transfers and their PRG length extension.

The engine consumes a small, fixed budget of seed OTs per session and
stretches them to long strings as correlated OTs, IKNP-style: each seed OT
transfers one of two fresh kappa-bit seeds (s0, s1). Branch 0 of the long
OT is never sent - it *is* the expansion of s0, which the sender keeps as
its key L. Only branch 1 crosses the wire, once, masked under the expansion
of s1, so a receiver holding s_c computes L xor c*offset.

Messages, seeds and the long strings are packed uint8 rows in
`bitlinalg`'s byte order: n instances of ell-bit strings are one
(n, ceil(ell/8)) array.

The long strings cross in batches along ell (`ot_batches`): equal,
byte-aligned slices of at most BATCH_BITS bits, one OT_MASKED1 frame each,
the last batch taking the rest. Batch k of an instance is the expansion of
its seed and k (`_batch_rows`), so the one set of seed OTs serves every
batch, and the receiver hands each batch on as it arrives
(`extend_ot_receive`'s consume), never holding the whole strings.

Every transfer here is a protocol side, a generator run by
`transport.run_sides`, so both owners' extensions can run side by side. A
side only ever plays the honest party: a cheating sender, which may put any
branch 1 it likes into the OT_MASKED1 frame, is a peer that rewrites that
frame on its way out (the tests do so with `helpers.rewrite_sends`).

The seed OTs come from a backend with `send(pairs)` and
`receive(choices, n_bits)` sides. The one backend, `DealerOt`, is a
deliberately insecure trusted-dealer stand-in for lab use: one endpoint
mints a seed and sends it to the peer in the clear, and both derive every
batch's transfer pads, both branches of every instance, from one `expand`
stream of it. It is correct as an OT (the honest receiver unmasks only its
chosen branch) and exercises the real framing, but offers no privacy
against a curious endpoint: the receiver derives the unchosen branch's pad
as easily as its own. A hardened base OT can replace it behind the same
interface.
"""

from __future__ import annotations

import numpy as np

from .bitlinalg import random_rows, unpack_rows
from .errors import UsageError
from .ro_suite import KAPPA_DEFAULT, expand, pad_rows
from .transport import MsgType, Recv, Send

SEED_BITS = KAPPA_DEFAULT
# The most bits of each long string that one OT_MASKED1 frame carries: it
# bounds the columns a party holds at once, and an aes128 deal's 208,928
# bits cross in four 12 MB frames, each large enough to be sent full-duplex.
BATCH_BITS = 1 << 16


class DealerOt:
    """Insecure shared-seed OT backend (test dealer).

    `setup` must run first, on both endpoints: the minting endpoint (which
    needs `rng`) sends the dealer seed, the other receives it. `send` and
    `receive` raise `UsageError` before that. Each sending direction
    derives its pads from the seed under its own label and with its own
    instance counter, one stream per batch. So the two directions may run
    side by side, and within one direction both sides must perform the same
    batch sequence.

    `setup`, `send` and `receive` are protocol sides (see
    `transport.run_sides`): the channel they run on is the driver's, so the
    backend holds none.
    """

    def __init__(self, rng=None):
        self._rng = rng
        self._seed = None
        self._minted = False
        # instances sent so far, keyed by "the sender minted the seed"
        self._ctr = {True: 0, False: 0}
        self.instances = 0

    def setup(self, mint: bool):
        """Agree on the dealer seed before either direction sends: the
        minting endpoint sends it, the other receives it."""
        if mint:
            if self._rng is None:
                raise UsageError("the minting endpoint needs an rng for the dealer seed")
            self._seed, self._minted = self._rng.getrandbits(128).to_bytes(16, "little"), True
            yield Send((MsgType.OT_SETUP, self._seed))
        else:
            (seed,) = yield Recv((MsgType.OT_SETUP, 16))
            self._seed = bytes(seed)

    def _pads(self, sender_minted: bool, n: int, nb: int) -> np.ndarray:
        """The nb-byte pads of both branches of the direction's next n
        instances, an (n, 2, nb) array: one `expand` stream of 16*n*nb bits
        keyed by seed || direction || the first instance's index (8 bytes,
        big-endian) || nb (8 bytes, big-endian). Advances the direction's
        counter."""
        if self._seed is None:
            raise UsageError("DealerOt.setup must run before send or receive")
        first = self._ctr[sender_minted]
        self._ctr[sender_minted] += n
        self.instances += n
        key = (self._seed + bytes([sender_minted]) + first.to_bytes(8, "big")
               + nb.to_bytes(8, "big"))
        return np.frombuffer(expand(key, 16 * n * nb), np.uint8).reshape(n, 2, nb)

    def send(self, pairs):
        """Transfer chosen message pairs, an (n, 2, w) uint8 array of n
        instances' two w-byte messages; the receiver learns one per choice
        bit."""
        n, _, nb = pairs.shape
        masked = pairs ^ self._pads(self._minted, n, nb)
        if n:
            yield Send((MsgType.OT_MASKED0, masked[:, 0].tobytes()),
                       (MsgType.OT_MASKED1, masked[:, 1].tobytes()))

    def receive(self, choices, n_bits: int):
        """Receive one n_bits-bit message per instance according to the choice
        bits, as an (n, ceil(n_bits/8)) uint8 array. The frames' rows are
        whole bytes, as `send` masks every byte of its messages."""
        nb = (n_bits + 7) // 8
        c = np.asarray(choices, np.uint8) & 1
        n = len(c)
        pads = self._pads(not self._minted, n, nb)[np.arange(n), c]
        if not n:
            return pads
        got = yield Recv((MsgType.OT_MASKED0, nb * n), (MsgType.OT_MASKED1, nb * n))
        frames = np.stack([unpack_rows(f, n, 8 * nb) for f in got])
        return frames[c, np.arange(n)] ^ pads


def ot_batches(n_bits: int) -> list:
    """The batches an n_bits-bit extension crosses in, as (first bit, bits)
    pairs: about n_bits / BATCH_BITS slices of at most BATCH_BITS bits (a
    multiple of 8), all of one whole-byte width but the last, which takes
    what is left; one empty batch if n_bits is 0."""
    n = max(1, -(-n_bits // BATCH_BITS))
    width = 8 * max(1, -(-n_bits // (8 * n)))
    return [(b0, min(width, n_bits - b0)) for b0 in range(0, n_bits, width)] or [(0, 0)]


def batch_bytes(b0: int, bits: int) -> slice:
    """The bytes of a packed row that hold bits b0 to b0 + bits of a batch."""
    return slice(b0 // 8, (b0 + bits + 7) // 8)


def _batch_rows(seeds: np.ndarray, k: int) -> np.ndarray:
    """The rows whose `pad_rows` expansions are batch k of each seed's long
    string: the seed, then k as 4 bytes, big-endian."""
    index = np.frombuffer(k.to_bytes(4, "big"), np.uint8)
    return np.concatenate((seeds, np.broadcast_to(index, (len(seeds), 4))), axis=1)


def extend_ot_send(backend, offset: np.ndarray, n_bits: int, count: int, rng):
    """Correlated OT, as a protocol side: instance k offers (L_k, L_k xor
    offset) for a packed n_bits-bit offset row, where L_k is the expansion of
    its branch-0 seed. Sends the seed OTs, then one OT_MASKED1 frame per
    batch (`ot_batches`), each holding that batch of every masked branch 1,
    and returns the keys L_k as a (count, ceil(n_bits/8)) array."""
    seeds = random_rows(2 * count, SEED_BITS, rng).reshape(count, 2, SEED_BITS // 8)
    yield from backend.send(seeds)
    keys = np.empty((count, (n_bits + 7) // 8), np.uint8)
    for k, (b0, bits) in enumerate(ot_batches(n_bits)):
        # not bound to a name here, so each frame is freed once it is sent
        yield Send((MsgType.OT_MASKED1, _masked_branch_one(seeds, keys, offset, k, b0, bits)))
    return keys


def _masked_branch_one(seeds, keys, offset, k: int, b0: int, bits: int) -> bytearray:
    """Batch k's OT_MASKED1 payload, bits b0 to b0 + bits of each instance:
    L_k xor offset masked under the expansion of its branch-1 seed. The
    batch's keys are expanded straight into their columns of keys, and the
    pads into the frame's buffer."""
    cols = batch_bytes(b0, bits)
    pad_rows("otx", _batch_rows(seeds[:, 0], k), bits, out=keys[:, cols])
    frame = bytearray(len(keys) * (cols.stop - cols.start))
    masked = np.frombuffer(frame, np.uint8).reshape(len(keys), -1)
    pad_rows("otx", _batch_rows(seeds[:, 1], k), bits, out=masked)
    masked ^= keys[:, cols]
    masked ^= offset[cols]
    return frame


def extend_ot_receive(backend, choices, n_bits: int, consume) -> None:
    """The receiving side: L_k xor c_k*offset per instance, the chosen seed
    s_c's expansion xor c_k times the instance's row of the branch-1 frames.
    Each batch goes to consume(b0, bits, cols) as it arrives, cols holding
    bits b0 to b0 + bits of every instance as a (len(choices),
    ceil(bits/8)) array, so the receiver holds one batch at a time. Each
    batch's frame is parsed whole before a choice bit picks its rows, so a
    set pad bit aborts whatever the choices are."""
    seeds = yield from backend.receive(choices, SEED_BITS)
    n = len(choices)
    picked = np.asarray(choices, bool)[:, None]
    for k, (b0, bits) in enumerate(ot_batches(n_bits)):
        # nothing here is bound to a name, so a batch is freed before the
        # next one is read
        consume(b0, bits, _unmasked_batch(
            seeds, picked, (yield Recv((MsgType.OT_MASKED1, (bits + 7) // 8 * n)))[0], k, bits))


def _unmasked_batch(seeds, picked, frame, k: int, bits: int) -> np.ndarray:
    """Batch k of each chosen long string: the expansion of its chosen seed,
    xor its row of the batch's OT_MASKED1 frame where the choice bit is set."""
    frame = unpack_rows(frame, len(seeds), bits)
    cols = pad_rows("otx", _batch_rows(seeds, k), bits)
    np.bitwise_xor(cols, frame, out=cols, where=picked)
    return cols
