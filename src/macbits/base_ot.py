"""Seed oblivious transfers and their PRG length extension.

The engine consumes a small, fixed budget of seed OTs per session and
stretches them to long strings as correlated OTs, IKNP-style: each seed OT
transfers one of two fresh kappa-bit seeds (s0, s1). Branch 0 of the long
OT is never sent - it *is* the expansion of s0, which the sender keeps as
its key L. Only branch 1 crosses the wire, once, masked under the expansion
of s1, so a receiver holding s_c computes L xor c*offset.

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
from .transport import Channel, MsgType

SEED_BITS = KAPPA_DEFAULT


class DealerOt:
    """Insecure shared-seed OT backend (test dealer).

    The first sending endpoint mints the dealer seed and ships it to the
    peer. Pads are derived per (instance counter, branch), so both sides
    must perform the same batch sequence - which the lockstep protocols
    guarantee.
    """

    def __init__(self, ch: Channel, rng=None):
        self._ch = ch
        self._rng = rng
        self._seed = None
        self._ctr = 0
        self.instances = 0

    def _pad(self, index: int, branch: int, n_bits: int) -> BitVec:
        key = self._seed + index.to_bytes(8, "big") + bytes([branch])
        return expand(ro_hash("ot-dealer", key), n_bits)

    def send(self, pairs) -> None:
        """Transfer chosen message pairs; receiver learns one per choice bit."""
        if self._seed is None:
            if self._rng is None:
                raise UsageError("sending endpoint needs an rng to mint the dealer seed")
            self._seed = self._rng.getrandbits(128).to_bytes(16, "little")
            self._ch.send(MsgType.OT_SETUP, self._seed)
        if not pairs:
            return
        n = pairs[0][0].n
        if any(m0.n != n or m1.n != n for m0, m1 in pairs):
            raise UsageError("ragged OT message batch")
        f0, f1 = bytearray(), bytearray()
        for k, (m0, m1) in enumerate(pairs):
            i = self._ctr + k
            f0 += (m0 ^ self._pad(i, 0, n)).to_bytes()
            f1 += (m1 ^ self._pad(i, 1, n)).to_bytes()
        self._ctr += len(pairs)
        self.instances += len(pairs)
        self._ch.send(MsgType.OT_MASKED0, bytes(f0))
        self._ch.send(MsgType.OT_MASKED1, bytes(f1))

    def receive(self, choices, n_bits: int):
        """Receive one message per instance according to the choice bits."""
        if self._seed is None:
            self._seed = self._ch.recv(MsgType.OT_SETUP, 16)
        if not choices:
            return []
        nb = (n_bits + 7) // 8
        f0 = self._ch.recv(MsgType.OT_MASKED0, nb * len(choices))
        f1 = self._ch.recv(MsgType.OT_MASKED1, nb * len(choices))
        out = []
        for k, c in enumerate(choices):
            i = self._ctr + k
            blob = (f1 if c else f0)[k * nb : (k + 1) * nb]
            out.append(BitVec.from_bytes(n_bits, blob) ^ self._pad(i, c & 1, n_bits))
        self._ctr += len(choices)
        self.instances += len(choices)
        return out


def seed_ot_send(backend, pairs) -> None:
    """Transfer kappa-bit seed pairs through the backend."""
    if any(m0.n != SEED_BITS or m1.n != SEED_BITS for m0, m1 in pairs):
        raise UsageError(f"seed OT messages must be {SEED_BITS} bits")
    backend.send(pairs)


def seed_ot_receive(backend, choices):
    return backend.receive(choices, SEED_BITS)


def extend_ot_send(ch: Channel, backend, offset: BitVec, count: int, rng, *,
                   offer_tamper=None) -> list:
    """Correlated OT: instance k offers (L_k, L_k xor offset), where L_k is
    the expansion of its branch-0 seed. Sends one OT_MASKED1 frame holding
    every masked branch 1, and returns the keys L_k.

    offer_tamper(k, m0, m1) -> (m0, m1) lets tests model a cheating sender.
    It may change m1 only: m0 is fixed by the seed.
    """
    n = offset.n
    seeds = [(BitVec.random(SEED_BITS, rng), BitVec.random(SEED_BITS, rng))
             for _ in range(count)]
    seed_ot_send(backend, seeds)
    keys, frame = [], bytearray()
    for k, (s0, s1) in enumerate(seeds):
        m0 = expand(ro_hash("otx", s0), n)
        m1 = m0 ^ offset
        if offer_tamper is not None:
            t0, m1 = offer_tamper(k, m0, m1)
            if t0 != m0:
                raise UsageError("branch 0 of a correlated OT is fixed by its seed")
        keys.append(m0)
        frame += mask("otx", s1, m1).to_bytes()
    ch.send(MsgType.OT_MASKED1, bytes(frame))
    return keys


def extend_ot_receive(ch: Channel, backend, choices, n_bits: int):
    """Receive L_k xor c_k*offset per instance: the chosen seed s_c's
    expansion xor c_k times the instance's slice of the branch-1 frame."""
    seeds = seed_ot_receive(backend, choices)
    nb = (n_bits + 7) // 8
    frame = ch.recv(MsgType.OT_MASKED1, nb * len(choices))
    return [mask("otx", s, BitVec.from_bytes(n_bits, frame[k * nb : (k + 1) * nb]).times(c))
            for k, (c, s) in enumerate(zip(choices, seeds))]
