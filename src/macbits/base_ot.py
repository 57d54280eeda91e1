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
`transport.run_sides`, so both owners' extensions can run side by side.

The default backend is a deliberately insecure trusted-dealer stand-in for
lab use: both endpoints derive the transfer pads from a seed that is shared
over the wire in the clear. It is correct as an OT (the honest receiver
unmasks only its chosen branch) and exercises the real framing, but offers
no privacy against a curious endpoint. A hardened base OT can replace it
behind the same interface.
"""

from __future__ import annotations

import numpy as np

from .bitlinalg import random_rows
from .errors import UsageError
from .ro_suite import KAPPA_DEFAULT, expand, pad_rows, ro_hash
from .transport import Channel, MsgType, Recv, Send

SEED_BITS = KAPPA_DEFAULT


class DealerOt:
    """Insecure shared-seed OT backend (test dealer).

    One endpoint mints the dealer seed and ships it to the peer: `setup`
    does that explicitly, or else the first endpoint to send does. Each
    sending direction derives its pads from the seed under its own label,
    per (instance counter, branch), with its own counter. So the two
    directions may run side by side, and within one direction both sides
    must perform the same batch sequence.

    `send` and `receive` are protocol sides (see `transport.run_sides`), so
    the channel `ch` they run on is the driver's to use, not the backend's.
    """

    def __init__(self, ch: Channel, rng=None):
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
                raise UsageError("sending endpoint needs an rng to mint the dealer seed")
            self._seed, self._minted = self._rng.getrandbits(128).to_bytes(16, "little"), True
            yield Send((MsgType.OT_SETUP, self._seed))
        else:
            (seed,) = yield Recv((MsgType.OT_SETUP, 16))
            self._seed = bytes(seed)

    def _pad(self, sender_minted: bool, index: int, branch: int, n_bytes: int) -> np.ndarray:
        key = self._seed + bytes([sender_minted]) + index.to_bytes(8, "big") + bytes([branch])
        return np.frombuffer(expand(ro_hash("ot-dealer", key), 8 * n_bytes), np.uint8)

    def send(self, pairs):
        """Transfer chosen message pairs, an (n, 2, w) uint8 array of n
        instances' two w-byte messages; the receiver learns one per choice
        bit."""
        if self._seed is None:
            yield from self.setup(mint=True)
        if not len(pairs):
            return
        n, _, nb = pairs.shape
        mine = self._minted
        first = self._ctr[mine]
        masked = pairs ^ np.array([[self._pad(mine, first + k, branch, nb) for branch in (0, 1)]
                                   for k in range(n)])
        self._ctr[mine] += n
        self.instances += n
        yield Send((MsgType.OT_MASKED0, masked[:, 0].tobytes()),
                   (MsgType.OT_MASKED1, masked[:, 1].tobytes()))

    def receive(self, choices, n_bits: int):
        """Receive one n_bits-bit message per instance according to the choice
        bits, as an (n, ceil(n_bits/8)) uint8 array."""
        if self._seed is None:
            yield from self.setup(mint=False)
        nb = (n_bits + 7) // 8
        n = len(choices)
        if not n:
            return np.empty((0, nb), np.uint8)
        got = yield Recv((MsgType.OT_MASKED0, nb * n), (MsgType.OT_MASKED1, nb * n))
        theirs = not self._minted
        first = self._ctr[theirs]
        c = np.asarray(choices, np.uint8) & 1
        frames = np.stack([np.frombuffer(f, np.uint8).reshape(n, nb) for f in got])
        out = frames[c, np.arange(n)] ^ np.array([self._pad(theirs, first + k, ck, nb)
                                                  for k, ck in enumerate(c.tolist())])
        self._ctr[theirs] += n
        self.instances += n
        return out


def seed_ot_send(backend, pairs):
    """Transfer kappa-bit seed pairs, an (n, 2, kappa/8) array, through the
    backend (a protocol side)."""
    if pairs.shape[1:] != (2, SEED_BITS // 8):
        raise UsageError(f"seed OT messages must be {SEED_BITS} bits")
    return backend.send(pairs)


def seed_ot_receive(backend, choices):
    return backend.receive(choices, SEED_BITS)


def extend_ot_send(ch: Channel, backend, offset: np.ndarray, n_bits: int, count: int, rng, *,
                   offer_tamper=None):
    """Correlated OT, as a protocol side: instance k offers (L_k, L_k xor
    offset) for a packed n_bits-bit offset row, where L_k is the expansion of
    its branch-0 seed. Sends the seed OTs, then one OT_MASKED1 frame holding
    every masked branch 1, and returns the keys L_k as a (count,
    ceil(n_bits/8)) array.

    offer_tamper(keys, m1) -> m1 lets tests model a cheating sender: it sees
    the keys and every branch 1 and returns the branches 1 to send. Branch 0
    is fixed by the seeds.
    """
    seeds = random_rows(2 * count, SEED_BITS, rng).reshape(count, 2, SEED_BITS // 8)
    yield from seed_ot_send(backend, seeds)
    keys = pad_rows("otx", seeds[:, 0], n_bits)
    # not bound to a name here, so the frame is freed once it is sent
    yield Send((MsgType.OT_MASKED1,
                _masked_branch_one(seeds[:, 1], keys, offset, n_bits, offer_tamper)))
    return keys


def _masked_branch_one(seeds1, keys, offset, n_bits: int, offer_tamper) -> bytearray:
    """The OT_MASKED1 payload: per instance, L_k xor offset (or what
    offer_tamper makes of it) masked under the expansion of its branch-1
    seed. The pads go into the frame's buffer a few rows at a time."""
    count, nb = keys.shape
    frame = bytearray(count * nb)
    masked = np.frombuffer(frame, np.uint8).reshape(count, nb)
    for k in range(0, count, 64):
        masked[k : k + 64] = pad_rows("otx", seeds1[k : k + 64], n_bits)
    if offer_tamper is None:
        masked ^= keys
        masked ^= offset
    else:
        masked ^= offer_tamper(keys, keys ^ offset)
    return frame


def extend_ot_receive(ch: Channel, backend, choices, n_bits: int):
    """The receiving side: L_k xor c_k*offset per instance, the chosen seed
    s_c's expansion xor c_k times the instance's row of the branch-1 frame,
    as a (len(choices), ceil(n_bits/8)) array."""
    seeds = yield from seed_ot_receive(backend, choices)
    nb = (n_bits + 7) // 8
    (frame,) = yield Recv((MsgType.OT_MASKED1, nb * len(choices)))
    macs = pad_rows("otx", seeds, n_bits)
    np.bitwise_xor(macs, np.frombuffer(frame, np.uint8).reshape(len(choices), nb), out=macs,
                   where=np.asarray(choices, bool)[:, None])
    return macs
