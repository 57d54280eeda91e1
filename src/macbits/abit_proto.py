"""Authenticated bits: the row layout, the leaky OT-extension protocol, and
the privacy-amplified production pipeline.

An authenticated bit held by party P is (x, M_x) with the peer holding a
local key K_x and a session-global key Delta_P, bound by

    M_x = K_x xor x * Delta_P.

The relation is XOR-homomorphic, so shares combine locally. Constants are
authenticated for free: the holder uses a zero MAC and the peer sets
K = b * Delta_P.

Production pipeline for ell bits owned by P:

  1. P plays sender in T = 2*tau correlated OTs with a fixed ell-bit offset
     G. The keys L_i are not sampled: each is the expansion of the seed OT's
     branch-0 seed, so one correction per column crosses the wire. The peer
     picks choice bits y_i and learns N_i = L_i xor y_i*G. Each instance is
     one candidate "column". The columns cross in batches along ell
     (`base_ot.ot_batches`: at most `base_ot.BATCH_BITS` bits of every
     column per OT_MASKED1 frame), all expanded from the one set of seed
     OTs. P keeps its keys L as one (T, ceil(ell/8)) uint8 array of packed
     rows; the peer never holds more than one batch of its columns.
  2. Cut-and-choose pairing: the peer reveals the XOR of choice bits inside
     each pair of a random matching, both sides fold the pairs, and a single
     batched equality check compares digests of the folded MACs and the
     folded keys. The pairs are folded a chunk at a time (one gather, one
     XOR) straight into one `eq_box.value_stream` hash, one batch after the
     other, packed rows, pad bits and all: the receiver reads each
     correction frame through `bitlinalg.unpack_rows`, so an honest row's
     pad bits are zero on both sides. A sender that used an inconsistent
     offset in a pair (by rewriting rows of any of its OT_MASKED1
     correction frames) survives only by guessing that pair's choice bit.
     The peer draws the pairing first and folds each batch as it arrives,
     but sends the pairing and d only after P's last correction frame: a P
     that knew them before its last batch could put one wrong offset on
     both columns of a pair with d = 0 in that batch, which the pair's XOR
     cancels, so the check would no longer bind the offsets.
  3. Privacy amplification: the key holder samples a random kappa x tau
     GF(2) matrix, a packed (kappa, ceil(tau/8)) array, and both sides
     project the surviving tau columns (and the weak global key
     y_1..y_tau) through it. Row r of the matrix selects the columns whose
     XOR is output slice r (`bitlinalg.mat_vec_mul_batch`); this commutes
     with the transpose below and leaves kappa-bit MACs with no exploitable
     leakage. The key holder draws the matrix up front too and amplifies
     each batch's surviving columns as the batch arrives; it sends the
     matrix after the pair check, and P then amplifies its kept keys.
  4. The kappa slices are transposed, one batch at a time: bit j of G
     becomes an authenticated bit whose MAC is bit j of each slice. The
     output is packed uint8 rows (`Rows`), the layout every later offline
     step and the store work on.

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
corrections they received for the peer's bits, and so on. The rounds in
which both ship a batch of OT corrections, 2*tau*ceil(bits/8) bytes each
way, are the largest of the deal; above `transport.DUPLEX_MIN` each party
sends its frame on a second thread while it reads the peer's, so the two
cross the link at once. In a smaller round Alice sends before she reads
and Bob reads before he sends, unless the round is at most
`transport.SEND_FIRST_MAX`, when both send first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_ot import batch_bytes, extend_ot_receive, extend_ot_send, ot_batches
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


def _pairs(part: np.ndarray):
    """A pairing's representatives, the smaller index i < part[i] of each
    pair, ascending, and its pairs as a (tau, 2) array of (i, part[i])."""
    reps = np.flatnonzero(part > np.arange(len(part)))
    return reps, np.stack((reps, part[reps]), axis=1)


def _fold_pairs(value, cols: np.ndarray, pairs: np.ndarray, offset=None, d=None) -> None:
    """Feed each pair's XOR, and offset where d is set, to the pair check's
    hash `value`, a chunk of pairs at a time."""
    for k in range(0, len(pairs), 64):
        both = cols[pairs[k : k + 64]]
        folded = both[:, 0] ^ both[:, 1]
        if offset is not None:
            np.bitwise_xor(folded, offset, out=folded, where=d[k : k + 64, None].astype(bool))
        value.update(folded)


def _keep_representatives(cols: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """Move the representatives' columns, in order, to the first rows of
    cols and return those rows: the k-th representative is row k or later,
    so each chunk moves after the rows it reads from."""
    for k in range(0, len(reps), 64):
        chunk = reps[k : k + 64]
        cols[k : k + len(chunk)] = cols[chunk]
    return cols[: len(reps)]


def labit_sender(tau: int, ell: int, kappa: int, rng, backend):
    """OT-sender side; ends holding (G, surviving keys L_i): the packed ell-bit
    offset row and a (tau, ceil(ell/8)) array. kappa sets the width of the
    pair check's commitment. Every correction frame goes out before the
    pairing comes in."""
    t = 2 * tau
    gamma = random_rows(1, ell, rng)[0]
    keys = yield from extend_ot_send(backend, gamma, ell, t, rng)

    raw, raw_d = yield Recv((MsgType.LABIT_PAIRING, 4 * t), (MsgType.LABIT_D, (tau + 7) // 8))
    # in range, then no fixed point, then an involution: a fixed-point-free
    # involution is a perfect matching, and each check indexes only in range
    part, ids = np.frombuffer(raw, ">u4").astype(np.intp), np.arange(t)
    if not ((part < t).all() and (part != ids).all() and (part[part] == ids).all()):
        raise ProtocolAbort("labit", "peer sent an invalid pairing")
    reps, pairs = _pairs(part)
    d = unpack_bits(raw_d, tau)
    value = value_stream(8 * tau * keys.shape[1])
    for b0, bits in ot_batches(ell):
        cols = batch_bytes(b0, bits)
        _fold_pairs(value, keys[:, cols], pairs, gamma[cols], d)
    if not (yield from eq_commit_side(value.digest(), kappa, rng)):
        raise ProtocolAbort("labit", "pair check failed")
    return gamma, _keep_representatives(keys, reps)


def labit_receiver(tau: int, ell: int, kappa: int, rng, backend, consume):
    """OT-receiver side; ends holding the surviving choice bits y_i, a (tau,)
    vector. The surviving columns N_i go to consume(b0, bits, cols) a batch
    at a time, cols holding bits b0 to b0 + bits of each as a (tau,
    ceil(bits/8)) array, so the side never holds more than one batch.

    The pairing is drawn before the first batch of columns arrives, and each
    batch is folded into the pair check as it arrives."""
    t = 2 * tau
    ys = np.array([rng.getrandbits(1) for _ in range(t)], np.uint8)
    part = random_pairing(t, rng)
    reps, pairs = _pairs(part)
    value = value_stream(8 * tau * ((ell + 7) // 8))

    def fold(b0, bits, cols):
        _fold_pairs(value, cols, pairs)
        consume(b0, bits, _keep_representatives(cols, reps))

    yield from extend_ot_receive(backend, ys, ell, fold)
    yield Send((MsgType.LABIT_PAIRING, part.astype(">u4").tobytes()),
               (MsgType.LABIT_D, pack_bits(ys[reps] ^ ys[part[reps]])))
    if not (yield from eq_respond_side(value.digest(), kappa)):
        raise ProtocolAbort("labit", "pair check failed")
    return ys[reps]


# ---------------------------------------------------------------------------
# privacy amplification, then transpose (steps 3-4)


def _amplify(matrix: np.ndarray, cols: np.ndarray, n_bits: int) -> np.ndarray:
    """The matrix applied to bit j of each of the tau n_bits-bit columns, for
    each j: n_bits rows of kappa/8 bytes."""
    return transpose_bits(mat_vec_mul_batch(matrix, cols), n_bits)


def amplify_macs_with(matrix: np.ndarray, gamma: np.ndarray, keys: np.ndarray,
                      ell: int) -> np.ndarray:
    """Holder side: bit j of gamma, MACed by bit j of each amplified column,
    as (ell, kappa/8 + 1) MAC rows. matrix is a packed (kappa, ceil(tau/8))
    array."""
    return np.concatenate((_amplify(matrix, keys, ell), unpack_bits(gamma, ell)[:, None]), axis=1)


def _global_key(matrix: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The global key: the amplified weak key y_1..y_tau, a (kappa/8,) row."""
    return np.frombuffer(mat_vec_mul(matrix, pack_bits(ys)), np.uint8)


def amplify_keys_with(matrix: np.ndarray, ys: np.ndarray, macs: np.ndarray, ell: int):
    """Key side: the global key, which is the amplified weak key y_1..y_tau as
    a (kappa/8,) row, and (ell, kappa/8) key rows, one per bit."""
    return _global_key(matrix, ys), _amplify(matrix, macs, ell)


def _check_tau(cols: np.ndarray, kappa: int) -> None:
    if len(cols) != tau_for(kappa):
        raise UsageError(f"tau {len(cols)} does not fit {kappa}-bit MACs")


def wabit_amplify_mac_side(gamma: np.ndarray, keys: np.ndarray, ell: int, kappa: int):
    """Holder side: receive the matrix, return (ell, kappa/8 + 1) MAC rows."""
    _check_tau(keys, kappa)
    (raw,) = yield Recv((MsgType.AMPLIFY_MATRIX, kappa * ((len(keys) + 7) // 8)))
    return amplify_macs_with(unpack_rows(raw, kappa, len(keys)), gamma, keys, ell)


def wabit_amplify_key_side(ys: np.ndarray, macs: np.ndarray, ell: int, kappa: int, rng):
    """Key side, on columns already at hand: sample and send the matrix,
    return (delta, key rows). Off the product path, where `produce_abits`
    draws its matrix before the columns arrive and amplifies them batch by
    batch; the tests and the benchmark's trace still call it."""
    _check_tau(macs, kappa)
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
    (kappa/8,) row, is born here (derived, never sampled directly). The
    peer draws its matrix before the columns arrive and turns each batch
    of them into key rows as it comes, so it holds one batch of columns at
    a time; the owner holds all 2*tau of its key columns until the matrix
    comes.

    ch is not read: `perfbench/spans.py` counts this call's arguments by
    position, so it stays first until the program owns its spans.
    """
    if count <= 0:
        raise UsageError("count must be positive")
    tau = tau_for(kappa)
    if role == owner:
        gamma, keys = yield from labit_sender(tau, count, kappa, rng, backend)
        return (yield from wabit_amplify_mac_side(gamma, keys, count, kappa))
    matrix = random_rows(kappa, tau, rng)
    keys = np.empty((count, kappa // 8), np.uint8)

    def amplify(b0, bits, cols):
        keys[b0 : b0 + bits] = _amplify(matrix, cols, bits)

    ys = yield from labit_receiver(tau, count, kappa, rng, backend, amplify)
    yield Send((MsgType.AMPLIFY_MATRIX, matrix.tobytes()))
    return _global_key(matrix, ys), keys
