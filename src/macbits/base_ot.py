"""Seed oblivious transfers and their PRG length extension.

The engine consumes a small, fixed budget of seed OTs per session and
stretches them to long strings as correlated OTs, IKNP-style: each seed OT
transfers one of two fresh kappa-bit seeds (s0, s1). Branch 0 of the long
OT is never sent - it *is* the expansion of s0, which the sender keeps as
its key L. Only branch 1 crosses the wire, once, masked under the expansion
of s1, so a receiver holding s_c computes L xor c*offset.

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

from .bitlinalg import BitVec
from .errors import UsageError
from .ro_suite import KAPPA_DEFAULT, expand, mask, ro_hash
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

    def _pad(self, sender_minted: bool, index: int, branch: int, n_bits: int) -> BitVec:
        key = self._seed + bytes([sender_minted]) + index.to_bytes(8, "big") + bytes([branch])
        return expand(ro_hash("ot-dealer", key), n_bits)

    def send(self, pairs):
        """Transfer chosen message pairs; receiver learns one per choice bit."""
        if self._seed is None:
            yield from self.setup(mint=True)
        if not pairs:
            return
        n = pairs[0][0].n
        if any(m0.n != n or m1.n != n for m0, m1 in pairs):
            raise UsageError("ragged OT message batch")
        mine = self._minted
        first = self._ctr[mine]
        f0, f1 = (b"".join((p[branch] ^ self._pad(mine, first + k, branch, n)).to_bytes()
                           for k, p in enumerate(pairs)) for branch in (0, 1))
        self._ctr[mine] += len(pairs)
        self.instances += len(pairs)
        yield Send((MsgType.OT_MASKED0, f0), (MsgType.OT_MASKED1, f1))

    def receive(self, choices, n_bits: int):
        """Receive one message per instance according to the choice bits."""
        if self._seed is None:
            yield from self.setup(mint=False)
        if not choices:
            return []
        nb = (n_bits + 7) // 8
        got = yield Recv((MsgType.OT_MASKED0, nb * len(choices)),
                         (MsgType.OT_MASKED1, nb * len(choices)))
        theirs = not self._minted
        first = self._ctr[theirs]
        out = [BitVec.from_bytes(n_bits, got[c & 1][k * nb : (k + 1) * nb])
               ^ self._pad(theirs, first + k, c & 1, n_bits)
               for k, c in enumerate(choices)]
        self._ctr[theirs] += len(choices)
        self.instances += len(choices)
        return out


def seed_ot_send(backend, pairs):
    """Transfer kappa-bit seed pairs through the backend (a protocol side)."""
    if any(m0.n != SEED_BITS or m1.n != SEED_BITS for m0, m1 in pairs):
        raise UsageError(f"seed OT messages must be {SEED_BITS} bits")
    return backend.send(pairs)


def seed_ot_receive(backend, choices):
    return backend.receive(choices, SEED_BITS)


def extend_ot_send(ch: Channel, backend, offset: BitVec, count: int, rng, *,
                   offer_tamper=None):
    """Correlated OT, as a protocol side: instance k offers (L_k, L_k xor
    offset), where L_k is the expansion of its branch-0 seed. Sends the seed
    OTs, then one OT_MASKED1 frame holding every masked branch 1, and returns
    the keys L_k.

    offer_tamper(k, m0, m1) -> (m0, m1) lets tests model a cheating sender.
    It may change m1 only: m0 is fixed by the seed.
    """
    seeds = [(BitVec.random(SEED_BITS, rng), BitVec.random(SEED_BITS, rng))
             for _ in range(count)]
    yield from seed_ot_send(backend, seeds)
    keys = [expand(ro_hash("otx", s0), offset.n) for s0, _ in seeds]
    # not bound to a name here, so the frame is freed once it is sent
    yield Send((MsgType.OT_MASKED1, _masked_branch_one(seeds, keys, offset, offer_tamper)))
    return keys


def _masked_branch_one(seeds, keys, offset: BitVec, offer_tamper) -> bytearray:
    """The OT_MASKED1 payload: per instance, L_k xor offset (or what
    offer_tamper makes of it) masked under the branch-1 seed."""
    nb = (offset.n + 7) // 8
    frame = bytearray(len(seeds) * nb)
    for k, ((_, s1), m0) in enumerate(zip(seeds, keys)):
        m1 = m0 ^ offset
        if offer_tamper is not None:
            t0, m1 = offer_tamper(k, m0, m1)
            if t0 != m0:
                raise UsageError("branch 0 of a correlated OT is fixed by its seed")
        frame[k * nb : (k + 1) * nb] = mask("otx", s1, m1).to_bytes()
    return frame


def extend_ot_receive(ch: Channel, backend, choices, n_bits: int):
    """The receiving side: L_k xor c_k*offset per instance, the chosen seed
    s_c's expansion xor c_k times the instance's slice of the branch-1 frame."""
    seeds = yield from seed_ot_receive(backend, choices)
    nb = (n_bits + 7) // 8
    (frame,) = yield Recv((MsgType.OT_MASKED1, nb * len(choices)))
    return [mask("otx", s, BitVec.from_bytes(n_bits, frame[k * nb : (k + 1) * nb]).times(c))
            for k, (c, s) in enumerate(zip(choices, seeds))]
