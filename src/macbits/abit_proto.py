"""Authenticated bits: the row layout, the leaky OT-extension protocol, and
the privacy-amplified production pipeline.

An authenticated bit held by party P is (x, M_x) with the peer holding a
local key K_x and a session-global key Delta_P, bound by

    M_x = K_x xor x * Delta_P.

The relation is XOR-homomorphic, so shares combine locally. Constants are
authenticated for free: the holder uses a zero MAC and the peer sets
K = b * Delta_P.

Production pipeline for a batch of ell bits owned by P:

  1. P plays sender in T = 2*tau correlated OTs with a fixed ell-bit offset
     G. The keys L_i are not sampled: each is the expansion of the seed OT's
     branch-0 seed, so one correction per column crosses the wire. The peer
     picks choice bits y_i and learns N_i = L_i xor y_i*G. Each instance is
     one candidate "column". The columns are one (T, ceil(ell/8)) uint8
     array of packed rows, laid out as the OT_MASKED1 frame carries them.
  2. Cut-and-choose pairing: the peer reveals the XOR of choice bits inside
     each pair of a random matching, both sides fold the pairs, and a single
     batched equality check compares digests of the folded MACs and the
     folded keys. The pairs are folded a chunk at a time (one gather, one
     XOR) straight into one `eq_box.value_stream` hash, packed rows, pad
     bits and all: the receiver reads the correction frame through
     `bitlinalg.unpack_rows`, so an honest row's pad bits are zero on both
     sides. A sender that used an inconsistent offset in a pair (by
     rewriting rows of its OT_MASKED1 correction frame) survives only by
     guessing that pair's choice bit.
  3. Privacy amplification: the key holder samples a random kappa x tau
     GF(2) matrix, a packed (kappa, ceil(tau/8)) array, and both sides
     project the surviving tau columns (and the weak global key
     y_1..y_tau) through it. Row r of the matrix selects the columns whose
     XOR is output slice r (`bitlinalg.mat_vec_mul_batch`); this commutes
     with the transpose below and leaves kappa-bit MACs with no exploitable
     leakage.
  4. The kappa slices are transposed: bit j of G becomes an authenticated
     bit whose MAC is bit j of each slice. The output is packed uint8 rows
     (`Rows`), the layout every later offline step and the store work on.

tau = ceil(22*kappa/3) makes step 3 sound for kappa-bit MACs.

Every role here is a protocol side: a generator that yields one `Send` or
`Recv` per flight (see `transport.run_sides`), and it plays the honest
party only: a cheater is a peer that changes the frames a side yields
before they go out, so no side takes a hook for it. A side takes kappa and
its rows as arguments and reads nothing from the channel; a global key is a
plain (kappa/8,) uint8 row, laid out like a key row. Each party's bits are
authenticated under the other party's key, so the pipelines for Alice's
bits and for Bob's bits are independent, and `dealer.deal` runs both
`produce_abits` sides side by side. In each round both parties compute at
once: both mask the OT corrections for their own bits, then both expand the
corrections they received for the peer's bits, and so on. The round in
which both ship their OT corrections, 2*tau*ceil(ell/8) bytes each way, is
the largest of the deal; above `transport.DUPLEX_MIN` each party sends its
frame on a second thread while it reads the peer's, so the two cross the
link at once. In a smaller round Alice sends before she reads and Bob
reads before he sends, unless the round is at most
`transport.SEND_FIRST_MAX`, when both send first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_ot import extend_ot_receive, extend_ot_send
from .bitlinalg import (mat_vec_mul, mat_vec_mul_batch, pack_bits, random_pairing,
                        random_rows, transpose_bits, unpack_bits, unpack_rows)
from .eq_box import eq_commit_side, eq_respond_side, value_stream
from .errors import ProtocolAbort, UsageError
from .transport import MsgType, Recv, Role, Send


def tau_for(kappa: int) -> int:
    """Column count needed to amplify down to kappa-bit MACs."""
    return math.ceil(22 * kappa / 3)


# ---------------------------------------------------------------------------
# authenticated-bit rows


@dataclass(frozen=True, eq=False)
class Rows:
    """n records of authenticated bits as uint8 rows, a store stream's layout.

    macs has shape (n, w_mac, kappa/8 + 1): the holder's halves, each the
    MAC's bytes in `BitVec.to_bytes` order and then one byte for the bit, so
    one row XOR moves bit and MAC together. keys has shape (n, w_key,
    kappa/8): the peer's halves. Unpacks as (macs, keys); its length is n.
    """

    macs: np.ndarray
    keys: np.ndarray

    @classmethod
    def of_macs(cls, macs: np.ndarray) -> "Rows":
        n, _, w = macs.shape
        return cls(macs, np.empty((n, 0, w - 1), np.uint8))

    @classmethod
    def of_keys(cls, keys: np.ndarray) -> "Rows":
        n, _, w = keys.shape
        return cls(np.empty((n, 0, w + 1), np.uint8), keys)

    def __len__(self) -> int:
        return len(self.macs)

    def __iter__(self):
        return iter((self.macs, self.keys))


# ---------------------------------------------------------------------------
# leaky candidate phase (steps 1-2)


def _representatives(part: np.ndarray) -> np.ndarray:
    """The smaller index i < part[i] of each pair of a pairing, ascending."""
    return np.flatnonzero(part > np.arange(len(part)))


def _fold_pairs(cols: np.ndarray, part: np.ndarray, offset=None, d=None):
    """Hash each pair's XOR, and offset where d is set, into the pair check's
    digest, a chunk of pairs at a time. Then move the representatives'
    columns, in order, to the first rows of cols: the k-th representative is
    row k or later, so each chunk moves after the rows it reads from. Returns
    (digest, those rows)."""
    reps = _representatives(part)
    both = np.stack((reps, part[reps]), axis=1)
    value = value_stream(8 * len(reps) * cols.shape[1])
    for k in range(0, len(reps), 64):
        pairs = cols[both[k : k + 64]]
        folded = pairs[:, 0] ^ pairs[:, 1]
        if offset is not None:
            np.bitwise_xor(folded, offset, out=folded, where=d[k : k + 64, None].astype(bool))
        value.update(folded)
    for k in range(0, len(reps), 64):
        chunk = reps[k : k + 64]
        cols[k : k + len(chunk)] = cols[chunk]
    return value.digest(), cols[: len(reps)]


def labit_sender(tau: int, ell: int, kappa: int, rng, backend):
    """OT-sender side; ends holding (G, surviving keys L_i): the packed ell-bit
    offset row and a (tau, ceil(ell/8)) array. kappa sets the width of the
    pair check's commitment."""
    t = 2 * tau
    gamma = random_rows(1, ell, rng)[0]
    keys = yield from extend_ot_send(backend, gamma, ell, t, rng)

    raw, raw_d = yield Recv((MsgType.LABIT_PAIRING, 4 * t), (MsgType.LABIT_D, (tau + 7) // 8))
    # in range, then no fixed point, then an involution: a fixed-point-free
    # involution is a perfect matching, and each check indexes only in range
    part, ids = np.frombuffer(raw, ">u4").astype(np.intp), np.arange(t)
    if not ((part < t).all() and (part != ids).all() and (part[part] == ids).all()):
        raise ProtocolAbort("labit", "peer sent an invalid pairing")
    digest, keys = _fold_pairs(keys, part, gamma, unpack_bits(raw_d, tau))
    if not (yield from eq_commit_side(digest, kappa, rng)):
        raise ProtocolAbort("labit", "pair check failed")
    return gamma, keys


def labit_receiver(tau: int, ell: int, kappa: int, rng, backend):
    """OT-receiver side; ends holding surviving (y_i, N_i): a (tau,) vector of
    choice bits and a (tau, ceil(ell/8)) array."""
    t = 2 * tau
    ys = np.array([rng.getrandbits(1) for _ in range(t)], np.uint8)
    macs = yield from extend_ot_receive(backend, ys, ell)

    part = random_pairing(t, rng)
    reps = _representatives(part)
    yield Send((MsgType.LABIT_PAIRING, part.astype(">u4").tobytes()),
               (MsgType.LABIT_D, pack_bits(ys[reps] ^ ys[part[reps]])))

    digest, macs = _fold_pairs(macs, part)
    if not (yield from eq_respond_side(digest, kappa)):
        raise ProtocolAbort("labit", "pair check failed")
    return ys[reps], macs


# ---------------------------------------------------------------------------
# privacy amplification, then transpose (steps 3-4)


def amplify_macs_with(matrix: np.ndarray, gamma: np.ndarray, keys: np.ndarray,
                      ell: int) -> np.ndarray:
    """Holder side: bit j of gamma, MACed by bit j of each amplified column,
    as (ell, kappa/8 + 1) MAC rows. matrix is a packed (kappa, ceil(tau/8))
    array."""
    macs = transpose_bits(mat_vec_mul_batch(matrix, keys), ell)
    return np.concatenate((macs, unpack_bits(gamma, ell)[:, None]), axis=1)


def amplify_keys_with(matrix: np.ndarray, ys: np.ndarray, macs: np.ndarray, ell: int):
    """Key side: the global key, which is the amplified weak key y_1..y_tau as
    a (kappa/8,) row, and (ell, kappa/8) key rows, one per bit."""
    delta = np.frombuffer(mat_vec_mul(matrix, pack_bits(ys)), np.uint8)
    return delta, transpose_bits(mat_vec_mul_batch(matrix, macs), ell)


def wabit_amplify_mac_side(gamma: np.ndarray, keys: np.ndarray, ell: int, kappa: int):
    """Holder side: receive the matrix, return (ell, kappa/8 + 1) MAC rows."""
    if len(keys) != tau_for(kappa):
        raise UsageError(f"tau {len(keys)} does not fit {kappa}-bit MACs")
    (raw,) = yield Recv((MsgType.AMPLIFY_MATRIX, kappa * ((len(keys) + 7) // 8)))
    return amplify_macs_with(unpack_rows(raw, kappa, len(keys)), gamma, keys, ell)


def wabit_amplify_key_side(ys: np.ndarray, macs: np.ndarray, ell: int, kappa: int, rng):
    """Key side: sample and send the matrix, return (delta, key rows)."""
    if len(macs) != tau_for(kappa):
        raise UsageError(f"tau {len(macs)} does not fit {kappa}-bit MACs")
    matrix = random_rows(kappa, len(macs), rng)
    yield Send((MsgType.AMPLIFY_MATRIX, matrix.tobytes()))
    return amplify_keys_with(matrix, ys, macs, ell)


# ---------------------------------------------------------------------------
# un-amplified bit-sliced form (reference view)
#
# Off the product path: the tests build these transposed views to check the
# column-form amplification against, and the benchmark's trace still wraps
# labit_to_wabit_macs/keys.


@dataclass
class WabitMacView:
    """Holder side after transpose: ell bits, each with a tau-bit MAC packed
    into a row of macs."""

    tau: int
    bits: np.ndarray
    macs: np.ndarray


@dataclass
class WabitKeyView:
    """Key side after transpose: the tau-bit weak global key y as a vector of
    bits, and per-bit keys, one packed row each."""

    tau: int
    gamma: np.ndarray
    keys: np.ndarray


def labit_to_wabit_macs(gamma: np.ndarray, keys: np.ndarray, ell: int) -> WabitMacView:
    return WabitMacView(tau=len(keys), bits=unpack_bits(gamma, ell),
                        macs=transpose_bits(keys, ell))


def labit_to_wabit_keys(ys: np.ndarray, macs: np.ndarray, ell: int) -> WabitKeyView:
    return WabitKeyView(tau=len(macs), gamma=ys, keys=transpose_bits(macs, ell))


# ---------------------------------------------------------------------------
# full pipeline


def produce_abits(ch, role: Role, owner: Role, count: int, kappa: int, rng, backend):
    """Produce `count` authenticated bits owned by `owner` with kappa-bit MACs,
    as a protocol side (run it with `transport.run_sides`).

    The owner ends with (count, kappa/8 + 1) MAC rows; the peer ends with
    (delta, (count, kappa/8) key rows), where the global key delta, a
    (kappa/8,) row, is born here (derived, never sampled directly).

    ch is not read: `perfbench/spans.py` counts this call's arguments by
    position, so it stays first until the program owns its spans.
    """
    if count <= 0:
        raise UsageError("count must be positive")
    tau = tau_for(kappa)
    if role == owner:
        gamma, keys = yield from labit_sender(tau, count, kappa, rng, backend)
        return (yield from wabit_amplify_mac_side(gamma, keys, count, kappa))
    ys, macs = yield from labit_receiver(tau, count, kappa, rng, backend)
    return (yield from wabit_amplify_key_side(ys, macs, count, kappa, rng))
