"""Seed oblivious transfers and their PRG length extension.

The engine consumes a small, fixed budget of seed OTs per session and
stretches them to long strings as correlated OTs, IKNP-style: each seed OT
transfers one of two fresh kappa-bit seeds (s0, s1). Branch 0 of the long
OT is never sent - it *is* the expansion of s0, which the sender keeps as
its key L. Only branch 1 crosses the wire, once, masked under the expansion
of s1, so a receiver holding s_c computes L xor c*offset.

Messages, seeds and the long strings are packed uint8 rows in
`bitlinalg`'s byte order: a batch of n instances of ell-bit strings is one
(n, ceil(ell/8)) array, laid out as the OT_MASKED1 frame carries it.

Every transfer here is a protocol side, a generator run by
`transport.run_sides`, so both owners' extensions can run side by side. A
side only ever plays the honest party: a cheating sender, which may put any
branch 1 it likes into the OT_MASKED1 frame, is a peer that rewrites that
frame on its way out (the tests do so with `helpers.rewrite_sends`).

The seed OTs come from a backend with `send(pairs)` and
`receive(choices, n_bits)` sides. The one backend, `DealerOt`, is a
deliberately insecure trusted-dealer stand-in for lab use: one endpoint
mints a seed and sends it to the peer in the clear, and both derive every
batch's transfer pads from it with one `pad_rows` call. It is correct as an
OT (the honest receiver unmasks only its chosen branch) and exercises the
real framing, but offers no privacy against a curious endpoint. A hardened
base OT can replace it behind the same interface.
"""

from __future__ import annotations

import numpy as np

from .bitlinalg import random_rows, unpack_rows
from .errors import UsageError
# Nothing here calls `expand`; perfbench/spans.py patches `base_ot.expand` by name.
from .ro_suite import KAPPA_DEFAULT, expand, pad_rows  # noqa: F401
from .transport import MsgType, Recv, Send

SEED_BITS = KAPPA_DEFAULT


class DealerOt:
    """Insecure shared-seed OT backend (test dealer).

    `setup` must run first, on both endpoints: the minting endpoint (which
    needs `rng`) sends the dealer seed, the other receives it. `send` and
    `receive` raise `UsageError` before that. Each sending direction
    derives its pads from the seed under its own label, per (instance
    counter, branch), with its own counter. So the two directions may run
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

    def _pads(self, sender_minted: bool, n: int, branches, nb: int) -> np.ndarray:
        """The nb-byte pads of the direction's next n instances, an (n, b, nb)
        array for branch numbers that broadcast to (n, b): one `pad_rows` call
        over the keys seed || direction || instance index (8 bytes,
        big-endian) || branch. Advances the direction's counter."""
        if self._seed is None:
            raise UsageError("DealerOt.setup must run before send or receive")
        b = np.shape(branches)[1]
        first = self._ctr[sender_minted]
        keys = np.empty((n, b, 26), np.uint8)
        keys[..., :16] = np.frombuffer(self._seed, np.uint8)
        keys[..., 16] = sender_minted
        keys[..., 17:25] = np.arange(first, first + n, dtype=">u8").view(np.uint8).reshape(n, 1, 8)
        keys[..., 25] = branches
        self._ctr[sender_minted] += n
        self.instances += n
        return pad_rows("ot-dealer", keys.reshape(n * b, 26), 8 * nb).reshape(n, b, nb)

    def send(self, pairs):
        """Transfer chosen message pairs, an (n, 2, w) uint8 array of n
        instances' two w-byte messages; the receiver learns one per choice
        bit."""
        n, _, nb = pairs.shape
        masked = pairs ^ self._pads(self._minted, n, [[0, 1]], nb)
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
        pads = self._pads(not self._minted, n, c[:, None], nb)[:, 0]
        if not n:
            return pads
        got = yield Recv((MsgType.OT_MASKED0, nb * n), (MsgType.OT_MASKED1, nb * n))
        frames = np.stack([unpack_rows(f, n, 8 * nb) for f in got])
        return frames[c, np.arange(n)] ^ pads


def extend_ot_send(backend, offset: np.ndarray, n_bits: int, count: int, rng):
    """Correlated OT, as a protocol side: instance k offers (L_k, L_k xor
    offset) for a packed n_bits-bit offset row, where L_k is the expansion of
    its branch-0 seed. Sends the seed OTs, then one OT_MASKED1 frame holding
    every masked branch 1, and returns the keys L_k as a (count,
    ceil(n_bits/8)) array."""
    seeds = random_rows(2 * count, SEED_BITS, rng).reshape(count, 2, SEED_BITS // 8)
    yield from backend.send(seeds)
    keys = pad_rows("otx", seeds[:, 0], n_bits)
    # not bound to a name here, so the frame is freed once it is sent
    yield Send((MsgType.OT_MASKED1, _masked_branch_one(seeds[:, 1], keys, offset, n_bits)))
    return keys


def _masked_branch_one(seeds1, keys, offset, n_bits: int) -> bytearray:
    """The OT_MASKED1 payload: per instance, L_k xor offset masked under the
    expansion of its branch-1 seed. The pads go into the frame's buffer a
    few rows at a time."""
    count, nb = keys.shape
    frame = bytearray(count * nb)
    masked = np.frombuffer(frame, np.uint8).reshape(count, nb)
    for k in range(0, count, 64):
        masked[k : k + 64] = pad_rows("otx", seeds1[k : k + 64], n_bits)
    masked ^= keys
    masked ^= offset
    return frame


def extend_ot_receive(backend, choices, n_bits: int):
    """The receiving side: L_k xor c_k*offset per instance, the chosen seed
    s_c's expansion xor c_k times the instance's row of the branch-1 frame,
    as a (len(choices), ceil(n_bits/8)) array. The whole frame is parsed
    before a choice bit picks its rows, so a set pad bit aborts whatever the
    choices are."""
    seeds = yield from backend.receive(choices, SEED_BITS)
    n = len(choices)
    (frame,) = yield Recv((MsgType.OT_MASKED1, (n_bits + 7) // 8 * n))
    frame = unpack_rows(frame, n, n_bits)
    macs = pad_rows("otx", seeds, n_bits)
    np.bitwise_xor(macs, frame, out=macs, where=np.asarray(choices, bool)[:, None])
    return macs
