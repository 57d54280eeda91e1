"""Authenticated bits: types, the leaky OT-extension protocol, and the
privacy-amplified production pipeline.

An authenticated bit held by party P is (x, M_x) with the peer holding a
local key K_x and a session-global key Delta_P, bound by

    M_x = K_x xor x * Delta_P.

The relation is XOR-homomorphic, so shares combine locally. Constants are
authenticated for free: the holder uses a zero MAC and the peer sets
K = b * Delta_P.

Production pipeline for a batch of ell bits owned by P:

  1. P plays sender in T = 2*tau extended OTs, offering (L_i, L_i xor G)
     for a fixed ell-bit offset G; the peer picks choice bits y_i and learns
     N_i = L_i xor y_i*G. Each instance is one candidate "column".
  2. Cut-and-choose pairing: the peer reveals the XOR of choice bits inside
     each pair of a random matching, both sides fold the pairs, and a single
     batched equality check compares the folded MACs against the folded
     keys. A sender that used an inconsistent offset in a pair survives only
     by guessing that pair's choice bit.
  3. Privacy amplification: the key holder samples a random kappa x tau
     GF(2) matrix, and both sides project the surviving tau columns (and
     the weak global key y_1..y_tau) through it. Row r of the matrix selects
     the columns whose XOR is output slice r; this commutes with the
     transpose below and leaves kappa-bit MACs with no exploitable leakage.
  4. The kappa slices are transposed: bit j of G becomes an authenticated
     bit whose MAC is bit j of each slice.

tau = ceil(22*kappa/3) makes step 3 sound for kappa-bit MACs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .base_ot import extend_ot_receive, extend_ot_send
from .bitlinalg import (BitMatrix, BitVec, Pairing, mat_mul_rows, mat_vec_mul,
                        random_pairing, transpose_bits)
from .bitlinalg import mat_vec_mul_batch  # noqa: F401 - the benchmark still wraps it here
from .eq_box import eq_commit_side, eq_respond_side
from .errors import ProtocolAbort, ProtocolError, UsageError
from .transport import Channel, MsgType, Role


def tau_for(kappa: int) -> int:
    """Column count needed to amplify down to kappa-bit MACs."""
    return math.ceil(22 * kappa / 3)


# ---------------------------------------------------------------------------
# authenticated-bit algebra


@dataclass(frozen=True)
class GlobalKey:
    """Held by the *peer* of `owner`; authenticates every bit owner holds."""

    owner: Role
    delta: BitVec


@dataclass(frozen=True)
class AuthBitMac:
    """Holder's half: the bit and its MAC."""

    bit: int
    mac: BitVec

    def __xor__(self, other: "AuthBitMac") -> "AuthBitMac":
        return AuthBitMac(self.bit ^ other.bit, self.mac ^ other.mac)

    def xor_const(self, b: int) -> "AuthBitMac":
        # Constants carry a zero MAC, so only the bit moves.
        return AuthBitMac(self.bit ^ (b & 1), self.mac)


@dataclass(frozen=True)
class AuthBitKey:
    """Peer's half: the local key."""

    key: BitVec

    def __xor__(self, other: "AuthBitKey") -> "AuthBitKey":
        return AuthBitKey(self.key ^ other.key)

    def xor_const(self, b: int, gk: GlobalKey) -> "AuthBitKey":
        return AuthBitKey(self.key ^ gk.delta.times(b))


def const_mac(b: int, kappa: int) -> AuthBitMac:
    return AuthBitMac(b & 1, BitVec.zeros(kappa))


def const_key(b: int, gk: GlobalKey) -> AuthBitKey:
    return AuthBitKey(gk.delta.times(b))


def verify_abit(mac_half: AuthBitMac, key_half: AuthBitKey, gk: GlobalKey) -> bool:
    return mac_half.mac == key_half.key ^ gk.delta.times(mac_half.bit)


@dataclass
class AbitBatchMac:
    """Holder-side batch: bits[i] with macs[i]."""

    bits: list
    macs: list

    def __len__(self):
        return len(self.bits)


@dataclass
class AbitBatchKey:
    """Key-side batch plus the global key they all share."""

    gk: GlobalKey
    keys: list

    def __len__(self):
        return len(self.keys)


# ---------------------------------------------------------------------------
# leaky candidate phase (steps 1-2)


def labit_sender(ch: Channel, tau: int, ell: int, rng, backend, *, offer_tamper=None):
    """OT-sender side; ends holding (G, surviving keys L_i).

    offer_tamper(i, m0, m1) -> (m0, m1) lets tests model a cheating sender.
    """
    t = 2 * tau
    gamma = BitVec.random(ell, rng)
    keys = [BitVec.random(ell, rng) for _ in range(t)]
    pairs = [(l, l ^ gamma) for l in keys]
    if offer_tamper is not None:
        pairs = [offer_tamper(i, m0, m1) for i, (m0, m1) in enumerate(pairs)]
    extend_ot_send(ch, backend, pairs, rng)

    raw = ch.recv(MsgType.LABIT_PAIRING)
    if len(raw) != 4 * t:
        raise ProtocolError("bad pairing length")
    try:
        pairing = Pairing(struct.unpack(f">{t}I", raw))
    except UsageError:
        raise ProtocolAbort("labit", "peer sent an invalid pairing") from None
    reps = pairing.smaller_indices()
    d_raw = ch.recv(MsgType.LABIT_D)
    if len(d_raw) != (tau + 7) // 8:
        raise ProtocolError("bad pair-difference length")
    d = BitVec.from_bytes(tau, d_raw)

    folded = []
    for k, i in enumerate(reps):
        j = pairing.partner(i)
        folded.append(keys[i] ^ keys[j] ^ gamma.times(d[k]))
    if not eq_commit_side(ch, BitVec.join(folded), rng):
        raise ProtocolAbort("labit", "pair check failed")
    return gamma, [keys[i] for i in reps]


def labit_receiver(ch: Channel, tau: int, ell: int, rng, backend):
    """OT-receiver side; ends holding surviving (y_i, N_i)."""
    t = 2 * tau
    ys = [rng.getrandbits(1) for _ in range(t)]
    macs = extend_ot_receive(ch, backend, ys, ell)

    pairing = random_pairing(t, rng)
    ch.send(MsgType.LABIT_PAIRING, struct.pack(f">{t}I", *pairing.part))
    reps = pairing.smaller_indices()
    d = BitVec.from_bits(ys[i] ^ ys[pairing.partner(i)] for i in reps)
    ch.send(MsgType.LABIT_D, d.to_bytes())

    folded = [macs[i] ^ macs[pairing.partner(i)] for i in reps]
    if not eq_respond_side(ch, BitVec.join(folded)):
        raise ProtocolAbort("labit", "pair check failed")
    return [ys[i] for i in reps], [macs[i] for i in reps]


# ---------------------------------------------------------------------------
# privacy amplification, then transpose (steps 3-4)


def amplify_macs_with(matrix: BitMatrix, gamma: BitVec, keys: list) -> AbitBatchMac:
    """Holder side: bit j of gamma, MACed by bit j of each amplified column."""
    return AbitBatchMac(bits=gamma.bits(), macs=transpose_bits(mat_mul_rows(matrix, keys)))


def amplify_keys_with(matrix: BitMatrix, ys: list, macs: list, owner: Role) -> AbitBatchKey:
    """Key side: the amplified weak key y_1..y_tau and per-bit keys."""
    gk = GlobalKey(owner, mat_vec_mul(matrix, BitVec.from_bits(ys)))
    return AbitBatchKey(gk=gk, keys=transpose_bits(mat_mul_rows(matrix, macs)))


def wabit_amplify_mac_side(ch: Channel, gamma: BitVec, keys: list, kappa: int) -> AbitBatchMac:
    if len(keys) != tau_for(kappa):
        raise UsageError(f"tau {len(keys)} does not fit {kappa}-bit MACs")
    raw = ch.recv(MsgType.AMPLIFY_MATRIX)
    if len(raw) != kappa * ((len(keys) + 7) // 8):
        raise ProtocolError("bad amplification matrix length")
    matrix = BitMatrix.from_bytes(kappa, len(keys), raw)
    return amplify_macs_with(matrix, gamma, keys)


def wabit_amplify_key_side(ch: Channel, ys: list, macs: list, kappa: int, owner: Role,
                           rng) -> AbitBatchKey:
    if len(macs) != tau_for(kappa):
        raise UsageError(f"tau {len(macs)} does not fit {kappa}-bit MACs")
    matrix = BitMatrix.random(kappa, len(macs), rng)
    ch.send(MsgType.AMPLIFY_MATRIX, matrix.to_bytes())
    return amplify_keys_with(matrix, ys, macs, owner)


# ---------------------------------------------------------------------------
# un-amplified bit-sliced form (reference view)
#
# Off the product path: the tests build these transposed views to check the
# column-form amplification against, and the benchmark's trace still wraps
# labit_to_wabit_macs/keys.


@dataclass
class WabitMacView:
    """Holder side after transpose: ell bits, each with a tau-bit MAC."""

    tau: int
    bits: list
    macs: list


@dataclass
class WabitKeyView:
    """Key side after transpose: tau-bit weak global key and per-bit keys."""

    tau: int
    gamma: BitVec
    keys: list


def labit_to_wabit_macs(gamma: BitVec, keys: list) -> WabitMacView:
    return WabitMacView(tau=len(keys), bits=gamma.bits(), macs=transpose_bits(keys))


def labit_to_wabit_keys(ys: list, macs: list) -> WabitKeyView:
    return WabitKeyView(tau=len(macs), gamma=BitVec.from_bits(ys), keys=transpose_bits(macs))


# ---------------------------------------------------------------------------
# full pipeline


def produce_abits(ch: Channel, role: Role, owner: Role, count: int, kappa: int, rng, backend):
    """Produce `count` authenticated bits owned by `owner` with kappa-bit MACs.

    The owner ends with an AbitBatchMac; the peer ends with an AbitBatchKey
    whose global key is born here (derived, never sampled directly).
    """
    if count <= 0:
        raise UsageError("count must be positive")
    tau = tau_for(kappa)
    if role == owner:
        gamma, keys = labit_sender(ch, tau, count, rng, backend)
        return wabit_amplify_mac_side(ch, gamma, keys, kappa)
    ys, macs = labit_receiver(ch, tau, count, rng, backend)
    return wabit_amplify_key_side(ch, ys, macs, kappa, owner, rng)
