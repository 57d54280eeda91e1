"""Authenticated AND triples: leaky generation plus bucketed combining.

A triple is three authenticated bits x, y, z with z = x & y, all held by one
party (the MAC side) and keyed by the other. Generation announces d = xy + r
for a fresh blind r and then proves z = xy with one digest comparison; the
proof is leaky because a garbled challenge digest passes exactly when x = 0,
so a cheating key side (one that rewrites its LAAND_U frame; the sides here
play only the honest party) buys one x bit per garbled instance at abort risk.
Bucketed combining with a MAC-side permutation washes that leakage out; it
reveals y + y' per fold, all in one frame (`aot_proto.bucket_combine`).
Generation and combining are protocol sides (`transport.run_sides`) that
read kappa off their rows and take the global key as a (kappa/8,) uint8
row; like laOT's, they take an unused `ch` first (see `aot_proto`).

Cost per leaky instance: 3 row hashes (`ro_suite.hash_rows`, 32-byte
BLAKE2b; 2 key side, 1 MAC side), with the key side reusing its first digest
as the equality-check reference.
"""

from __future__ import annotations

import numpy as np

from .abit_proto import Rows
from .aot_proto import bucket_combine
from .bitlinalg import pack_bits, unpack_bits, unpack_rows
from .eq_box import eq_commit_side, eq_respond_side, value_digest
from .errors import ProtocolAbort, UsageError
from .ro_suite import DIGEST_BYTES, hash_rows
from .transport import MsgType, Recv, Send


def laand_mac_side(ch, xs, ys, rs, rng):
    """Generate len(xs) leaky triples holding the MAC side (a protocol side).

    xs/ys are MAC rows of the triple inputs, rs of the fresh blinds that
    become z after the announced correction. Returns the triples as Rows:
    x, y, z."""
    ell = len(xs)
    if not (len(ys) == len(rs) == ell):
        raise UsageError("input batches must align")
    ds = (xs[:, -1] & ys[:, -1]) ^ rs[:, -1]
    yield Send((MsgType.LAAND_D, pack_bits(ds)))
    zs = rs.copy()
    zs[:, -1] ^= ds  # constants carry a zero MAC, so only the bit moves

    (raw_u,) = yield Recv((MsgType.LAAND_U, DIGEST_BYTES * ell))
    us = unpack_rows(raw_u, ell, 8 * DIGEST_BYTES)
    x = xs[:, -1:]
    # x = 0: v = H(M_x, M_z); x = 1: v = U ^ H(M_x, M_y ^ M_z)
    second = zs[:, :-1] ^ x * ys[:, :-1]
    vs = hash_rows("laand", np.concatenate((xs[:, :-1], second), axis=1)) ^ x * us
    kappa = 8 * (xs.shape[-1] - 1)
    if not (yield from eq_commit_side(value_digest(8 * DIGEST_BYTES * ell, vs), kappa, rng)):
        raise ProtocolAbort("laand", "product proof failed")
    return Rows.of_macs(np.stack((xs, ys, zs), axis=1))


def laand_key_side(ch, kxs, kys, krs, delta: np.ndarray):
    """Key side of leaky triple generation, on key rows under the global key
    delta (a protocol side); returns the triples as Rows: kx, ky, kz."""
    ell = len(kxs)
    if not (len(kys) == len(krs) == ell):
        raise UsageError("input batches must align")
    (raw_d,) = yield Recv((MsgType.LAAND_D, (ell + 7) // 8))
    ds = unpack_bits(raw_d, ell)

    kzs = krs ^ ds[:, None] * delta
    refs = hash_rows("laand", np.concatenate((kxs, kzs), axis=1))
    us = refs ^ hash_rows("laand", np.concatenate((kxs ^ delta, kys ^ kzs), axis=1))
    yield Send((MsgType.LAAND_U, us.tobytes()))
    if not (yield from eq_respond_side(value_digest(8 * DIGEST_BYTES * ell, refs),
                                       8 * delta.size)):
        raise ProtocolAbort("laand", "product proof failed")
    return Rows.of_keys(np.stack((kxs, kys, kzs), axis=1))


# ---------------------------------------------------------------------------
# combining


def _fold_triple_rows(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(x ^ x', y, z ^ z' ^ d*x'); slices, so a side with no rows folds too."""
    out = a ^ b
    out[:, 1:2] = a[:, 1:2]
    out[:, 2:3] ^= d[:, None, None] * b[:, 0:1]
    return out


def fold_triples(acc: Rows, nxt: Rows, d: np.ndarray) -> Rows:
    """Combine two triples under revealed d = y + y', one row per bucket;
    keeps acc's y. The MAC rows and the key rows fold alike."""
    return Rows(_fold_triple_rows(acc.macs, nxt.macs, d),
                _fold_triple_rows(acc.keys, nxt.keys, d))


def _triple_d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y + y', on MAC rows or on key rows alike."""
    return a[:, 1] ^ b[:, 1]


def aand_combine_mac(ch, triples: Rows, bucket: int, rng):
    """The MAC side samples the bucketing (its bits are the ones the leak
    targets) and reveals d = y + y' per fold, MACs deferred."""
    return bucket_combine(triples, bucket, fold_triples, _triple_d, "aand-comb", rng=rng)


def aand_combine_key(ch, triples: Rows, bucket: int, delta: np.ndarray):
    return bucket_combine(triples, bucket, fold_triples, _triple_d, "aand-comb",
                          delta=delta)
