"""Authenticated OT quadruples: leaky generation plus bucketed combining.

A quadruple binds four authenticated bits (x0, x1 at the sender; c, z at the
receiver) by z = x_c. Generation transfers the receiver's branch under pads
derived from the receiver's choice-bit key, which is exactly what makes it
leaky: a sender can garble one branch and learn c from whether the receiver
survives. Such a sender is a peer that rewrites bytes of the LAOT_X1 frame it
sends; the sides here play only the honest party. Combining B leaky quads
under a random bucketing leaves the output correlation clean unless an entire
bucket was leaky; `bucket_combine` does that bucketing for aAND triples too,
in two rounds: the permutation, then every fold's reveals in one frame, whose
MACs the caller checks at its flush. Generation and combining are protocol
sides (`transport.run_sides`). A global key is a plain (kappa/8,) uint8 row,
and kappa is read off it. No side reads the channel: laOT and the combiner
bindings take an unused `ch` first only because `perfbench/spans.py` counts
their arguments by position, until the program owns its spans.

Everything here works on uint8 rows (`abit_proto.Rows`): a batch is hashed
one call per row (`ro_suite.hash_rows`), but masked, XORed, permuted and
folded as whole arrays, and a quad batch is a Rows of x0, x1 | kc, kz on the
sender and c, z | kx0, kx1 on the receiver, the store's layout.

A LAOT_X0/X1 row is byte-aligned: branch b carries the sender's stored MAC
row for x_b (kappa/8 MAC bytes, then the bit byte) and then the pad
t_{x_b}, kappa/4 + 1 bytes masked whole under the (kappa/4 + 1)-byte row
hash of K_c xor b*Delta: BLAKE2b up to kappa = 248, SHAKE-128 at kappa =
256, where the pad is 65 bytes. The LAOT_I0/I1 pads are kappa/8-byte row
hashes. The receiver refuses a bit byte other than 0 or 1 as it refuses a
wrong MAC.

Per leaky instance the generator spends 6 hash calls (4 sender, 2 receiver),
asserted by the cost-accounting tests. The final pad-pair comparison is one
batched equality check, committed by the sender.
"""

from __future__ import annotations

import math

import numpy as np

from .abit_proto import Rows
from .bitlinalg import pack_bits, random_permutation, random_rows, unpack_bits, unpack_rows
from .eq_box import eq_commit_side, eq_respond_side, value_digest
from .errors import ProtocolAbort, UsageError
from .ro_suite import hash_rows
from .transport import MsgType, Recv, Send


def bucket_size(ell: int, psi: int) -> int:
    """Smallest bucket size B >= 2 with (log2(ell) + 1) * (B - 1) >= psi."""
    if ell < 1:
        raise UsageError("need at least one output instance")
    denom = math.log2(ell) + 1
    return max(2, 1 + math.ceil(psi / denom))


def laot_sender(ch, x0s, x1s, kcs, krs, delta: np.ndarray, rng):
    """Generate len(x0s) leaky quads as the sender (a protocol side).

    x0s/x1s are MAC rows of this side's authenticated bits; kcs/krs are key
    rows of the receiver's choice and blind bits; delta is the global key on
    the receiver's bits. Returns the quads as Rows: x0, x1 | kc, kz."""
    ell = len(x0s)
    if not (len(x1s) == len(kcs) == len(krs) == ell):
        raise UsageError("input batches must align")
    kappa, kb = 8 * delta.size, delta.size

    pads = random_rows(2 * ell, kappa, rng).reshape(ell, 2, kb)
    xs = np.stack((x0s, x1s))
    payloads = np.concatenate((xs, pads[np.arange(ell), xs[:, :, -1]]), axis=2)
    b0 = payloads[0] ^ hash_rows("laot/x", kcs, 2 * kb + 1)
    b1 = payloads[1] ^ hash_rows("laot/x", kcs ^ delta, 2 * kb + 1)
    yield Send((MsgType.LAOT_X0, b0.tobytes()), (MsgType.LAOT_X1, b1.tobytes()))

    (raw_d,) = yield Recv((MsgType.LAOT_D, (ell + 7) // 8))
    ds = unpack_bits(raw_d, ell)
    kz = krs ^ ds[:, None] * delta
    yield Send((MsgType.LAOT_I0, (hash_rows("laot/i", kz, kb) ^ pads[:, 1]).tobytes()),
               (MsgType.LAOT_I1, (hash_rows("laot/i", kz ^ delta, kb) ^ pads[:, 0]).tobytes()))

    if not (yield from eq_commit_side(value_digest(2 * kappa * ell, pads), kappa, rng)):
        raise ProtocolAbort("laot", "pad pair check failed")
    return Rows(np.stack((x0s, x1s), axis=1), np.stack((kcs, kz), axis=1))


def laot_receiver(ch, cs, rs, kx0s, kx1s, delta: np.ndarray):
    """Generate quads as the receiver (a protocol side); aborts on a bad
    branch MAC. delta is the global key on the sender's bits. Returns the
    quads as Rows: c, z | kx0, kx1."""
    ell = len(cs)
    if not (len(rs) == len(kx0s) == len(kx1s) == ell):
        raise UsageError("input batches must align")
    kappa, kb = 8 * delta.size, delta.size
    pb = 2 * kb + 1
    rows = np.arange(ell)

    f = np.stack([unpack_rows(raw, ell, 8 * pb) for raw in
                  (yield Recv((MsgType.LAOT_X0, pb * ell), (MsgType.LAOT_X1, pb * ell)))])
    c = cs[:, -1]
    blob = f[c, rows] ^ hash_rows("laot/x", cs[:, :-1], pb)
    xb, t_first = blob[:, kb], blob[:, kb + 1 :]
    # a bit byte other than 0 or 1 fails like a wrong MAC
    if not ((xb < 2).all() and np.array_equal(
            blob[:, :kb], np.where(c[:, None], kx1s, kx0s) ^ xb[:, None] * delta)):
        raise ProtocolAbort("laot", "branch MAC check failed")

    ds = xb ^ rs[:, -1]
    yield Send((MsgType.LAOT_D, pack_bits(ds)))

    g = np.stack([unpack_rows(raw, ell, kappa) for raw in
                  (yield Recv((MsgType.LAOT_I0, kb * ell), (MsgType.LAOT_I1, kb * ell)))])
    z = rs.copy()
    z[:, -1] ^= ds
    zb = z[:, -1]
    t_other = g[zb, rows] ^ hash_rows("laot/i", z[:, :-1], kb)
    pads = np.where(zb[:, None, None], np.stack((t_other, t_first), axis=1),
                    np.stack((t_first, t_other), axis=1))
    if not (yield from eq_respond_side(value_digest(2 * kappa * ell, pads), kappa)):
        raise ProtocolAbort("laot", "pad pair check failed")
    return Rows(np.stack((cs, z), axis=1), np.stack((kx0s, kx1s), axis=1))


# ---------------------------------------------------------------------------
# combining


def _xor_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The x0/x1 fold: (a0 ^ b0, a0 ^ b1), both against the accumulator's x0."""
    return a[:, :1] ^ b


def _xor_scaled(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The c/z fold: (a0 ^ b0, a1 ^ b1 ^ d*a0)."""
    out = a ^ b
    out[:, 1] ^= d[:, None] * a[:, 0]
    return out


def fold_quads_sender(acc: Rows, nxt: Rows, d: np.ndarray) -> Rows:
    """Sender side of combining two quads under revealed d = x0+x1+x0'+x1',
    one row per bucket: x0, x1 | kc, kz."""
    return Rows(_xor_first(acc.macs, nxt.macs), _xor_scaled(acc.keys, nxt.keys, d))


def fold_quads_receiver(acc: Rows, nxt: Rows, d: np.ndarray) -> Rows:
    """Receiver side of the same fold: c, z | kx0, kx1."""
    return Rows(_xor_scaled(acc.macs, nxt.macs, d), _xor_first(acc.keys, nxt.keys))


def bucket_combine(items: Rows, bucket: int, fold, opened, where: str, *, rng=None,
                   delta: np.ndarray = None):
    """Cut-and-choose bucketing shared by aOT quads and aAND triples, as a
    protocol side of two rounds: the side given `rng` sends the bucketing
    permutation, which the other side checks (a non-permutation aborts,
    tagged `where`); then the MAC side (no `delta`) folds each bucket left
    to right, `fold(cur, nxt, d) -> Rows` with d the bits of the rows
    `opened(cur, nxt)` XORs, and sends all (B-1)*n_out of them in one COMB_D
    frame, fold-major, which the key side reads to fold alike. Returns
    (combined, the opened bits' MAC rows in frame order), on the key side
    the MACs it expects, opened key rows ^ d*delta, for a flush to check.
    """
    n = len(items)
    if bucket < 2 or not n or n % bucket:
        raise UsageError("item count must be a positive multiple of the bucket size")
    n_out = n // bucket
    if rng is not None:
        perm = random_permutation(n, rng)
        yield Send((MsgType.COMB_PERM, perm.astype(">u4").tobytes()))
    else:
        (raw,) = yield Recv((MsgType.COMB_PERM, 4 * n))
        perm = np.frombuffer(raw, ">u4")
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ProtocolAbort(where, "peer sent a non-permutation")
    macs, keys = (a[perm].reshape(n_out, bucket, *a.shape[1:]) for a in items)
    if delta is not None:
        (raw,) = yield Recv((MsgType.COMB_D, ((bucket - 1) * n_out + 7) // 8))
        ds = unpack_bits(raw, (bucket - 1) * n_out).reshape(bucket - 1, n_out)
    cur, rows = Rows(macs[:, 0], keys[:, 0]), []
    for r in range(1, bucket):
        nxt = Rows(macs[:, r], keys[:, r])
        if delta is None:
            rows.append(opened(cur.macs, nxt.macs))
            d = rows[-1][:, -1]
        else:
            d = ds[r - 1]
            rows.append(opened(cur.keys, nxt.keys) ^ d[:, None] * delta)
        cur = fold(cur, nxt, d)
    rows = np.concatenate(rows)
    if delta is None:
        yield Send((MsgType.COMB_D, pack_bits(rows[:, -1])))
        rows = rows[:, :-1]
    return cur, rows


def _quad_d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x0 + x1 + x0' + x1', on MAC rows or on key rows alike."""
    return a[:, 0] ^ a[:, 1] ^ b[:, 0] ^ b[:, 1]


def aot_combine_sender(ch, quads: Rows, bucket: int):
    """The sender reveals d = x0+x1+x0'+x1' per fold, MACs deferred."""
    return bucket_combine(quads, bucket, fold_quads_sender, _quad_d, "aot-comb")


def aot_combine_receiver(ch, quads: Rows, bucket: int, delta: np.ndarray, rng):
    """The receiver samples the bucketing and expects the sender's d reveals
    under delta, the global key on the sender's bits."""
    return bucket_combine(quads, bucket, fold_quads_receiver, _quad_d, "aot-comb",
                          rng=rng, delta=delta)
