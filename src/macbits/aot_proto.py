"""Authenticated OT quadruples: leaky generation plus bucketed combining.

A quadruple binds four authenticated bits (x0, x1 at the sender; c, z at the
receiver) by z = x_c. Generation transfers the receiver's branch under pads
derived from the receiver's choice-bit key, which is exactly what makes it
leaky: a sender can garble one branch and learn c from whether the receiver
survives. Combining B leaky quads under a random bucketing leaves the output
correlation clean unless an entire bucket was leaky; `bucket_combine` does
that bucketing for aAND triples too.

Per leaky instance the generator spends 6 hash calls (4 sender, 2 receiver),
asserted by the cost-accounting tests. The final pad-pair comparison is one
batched equality check, committed by the sender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abit_proto import AuthBitKey, AuthBitMac, GlobalKey
from .bitlinalg import BitVec, random_permutation
from .eq_box import eq_commit_side, eq_respond_side
from .errors import ProtocolAbort, UsageError
from .ro_suite import MacAccumulator, mac_rows, mask
from .transport import Channel, MsgType


def bucket_size(ell: int, psi: int) -> int:
    """Smallest bucket size B >= 2 with (log2(ell) + 1) * (B - 1) >= psi."""
    if ell < 1:
        raise UsageError("need at least one output instance")
    denom = math.log2(ell) + 1
    return max(2, 1 + math.ceil(psi / denom))


@dataclass(frozen=True)
class QuadSender:
    x0: AuthBitMac
    x1: AuthBitMac
    kc: AuthBitKey
    kz: AuthBitKey


@dataclass(frozen=True)
class QuadReceiver:
    c: AuthBitMac
    z: AuthBitMac
    kx0: AuthBitKey
    kx1: AuthBitKey


def _payload(bit: int, mac: BitVec, pad: BitVec) -> BitVec:
    return BitVec.join([BitVec(1, bit), mac, pad])


def _split_payload(p: BitVec, kappa: int):
    bit = p[0]
    mac = BitVec(kappa, p.v >> 1)
    pad = BitVec(kappa, p.v >> (1 + kappa))
    return bit, mac, pad


def laot_sender(ch: Channel, x0s, x1s, kcs, krs, gk_recv: GlobalKey, rng,
                *, payload_tamper=None):
    """Generate len(x0s) leaky quads as the sender.

    x0s/x1s are this side's authenticated bits; kcs/krs are the keys it holds
    on the receiver's choice and blind bits; gk_recv is the receiver's global
    key. payload_tamper(i, b0, b1) lets tests model branch garbling.
    """
    ell = len(x0s)
    if not (len(x1s) == len(kcs) == len(krs) == ell):
        raise UsageError("input batches must align")
    kappa = ch.kappa
    delta = gk_recv.delta
    plen = 1 + 2 * kappa

    pads = [(BitVec.random(kappa, rng), BitVec.random(kappa, rng)) for _ in range(ell)]
    f0, f1 = bytearray(), bytearray()
    for i in range(ell):
        t0, t1 = pads[i]
        branch0 = _payload(x0s[i].bit, x0s[i].mac, (t0, t1)[x0s[i].bit])
        branch1 = _payload(x1s[i].bit, x1s[i].mac, (t0, t1)[x1s[i].bit])
        b0 = mask("laot/x", kcs[i].key, branch0).to_bytes()
        b1 = mask("laot/x", kcs[i].key ^ delta, branch1).to_bytes()
        if payload_tamper is not None:
            b0, b1 = payload_tamper(i, b0, b1)
        f0 += b0
        f1 += b1
    ch.send(MsgType.LAOT_X0, bytes(f0))
    ch.send(MsgType.LAOT_X1, bytes(f1))

    ds = BitVec.from_bytes(ell, ch.recv(MsgType.LAOT_D, (ell + 7) // 8))

    quads = []
    eq_parts = []
    g0, g1 = bytearray(), bytearray()
    for i in range(ell):
        kz = krs[i].key ^ delta.times(ds[i])
        t0, t1 = pads[i]
        g0 += mask("laot/i", kz, t1).to_bytes()
        g1 += mask("laot/i", kz ^ delta, t0).to_bytes()
        eq_parts.append(BitVec.join([t0, t1]))
        quads.append(QuadSender(x0s[i], x1s[i], kcs[i], AuthBitKey(kz)))
    ch.send(MsgType.LAOT_I0, bytes(g0))
    ch.send(MsgType.LAOT_I1, bytes(g1))

    if not eq_commit_side(ch, BitVec.join(eq_parts), rng):
        raise ProtocolAbort("laot", "pad pair check failed")
    return quads


def laot_receiver(ch: Channel, cs, rs, kx0s, kx1s, gk_send: GlobalKey, *, d_tamper=None):
    """Generate quads as the receiver; aborts on a bad branch MAC."""
    ell = len(cs)
    if not (len(rs) == len(kx0s) == len(kx1s) == ell):
        raise UsageError("input batches must align")
    kappa = ch.kappa
    delta = gk_send.delta
    plen = 1 + 2 * kappa
    pb = (plen + 7) // 8

    f0 = ch.recv(MsgType.LAOT_X0, pb * ell)
    f1 = ch.recv(MsgType.LAOT_X1, pb * ell)

    zs = []
    t_first = []
    for i in range(ell):
        blob = (f1 if cs[i].bit else f0)[i * pb : (i + 1) * pb]
        opened = mask("laot/x", cs[i].mac, BitVec.from_bytes(plen, blob))
        xb, mac, pad = _split_payload(opened, kappa)
        key_half = kx1s[i] if cs[i].bit else kx0s[i]
        if mac != key_half.key ^ delta.times(xb):
            raise ProtocolAbort("laot", "branch MAC check failed")
        zs.append(xb)
        t_first.append(pad)

    ds = [zs[i] ^ rs[i].bit for i in range(ell)]
    if d_tamper is not None:
        ds = [d_tamper(i, d) for i, d in enumerate(ds)]
    ch.send(MsgType.LAOT_D, BitVec.from_bits(ds).to_bytes())

    kb = (kappa + 7) // 8
    g0 = ch.recv(MsgType.LAOT_I0, kb * ell)
    g1 = ch.recv(MsgType.LAOT_I1, kb * ell)

    quads = []
    eq_parts = []
    for i in range(ell):
        z = AuthBitMac(rs[i].bit ^ ds[i], rs[i].mac)
        blob = (g1 if z.bit else g0)[i * kb : (i + 1) * kb]
        t_other = mask("laot/i", z.mac, BitVec.from_bytes(kappa, blob))
        t0, t1 = (t_first[i], t_other) if z.bit == 0 else (t_other, t_first[i])
        eq_parts.append(BitVec.join([t0, t1]))
        quads.append(QuadReceiver(cs[i], z, kx0s[i], kx1s[i]))
    if not eq_respond_side(ch, BitVec.join(eq_parts)):
        raise ProtocolAbort("laot", "pad pair check failed")
    return quads


# ---------------------------------------------------------------------------
# combining


def fold_sender(acc: QuadSender, nxt: QuadSender, d: int) -> QuadSender:
    """Sender side of combining two quads under revealed d = x0+x1+x0'+x1'."""
    return QuadSender(
        x0=acc.x0 ^ nxt.x0,
        x1=acc.x0 ^ nxt.x1,
        kc=acc.kc ^ nxt.kc,
        kz=AuthBitKey(acc.kz.key ^ nxt.kz.key ^ acc.kc.key.times(d)),
    )


def fold_receiver(acc: QuadReceiver, nxt: QuadReceiver, d: int) -> QuadReceiver:
    return QuadReceiver(
        c=acc.c ^ nxt.c,
        z=AuthBitMac(acc.z.bit ^ nxt.z.bit ^ (d & acc.c.bit),
                     acc.z.mac ^ nxt.z.mac ^ acc.c.mac.times(d)),
        kx0=acc.kx0 ^ nxt.kx0,
        kx1=acc.kx0 ^ nxt.kx1,
    )


def bucket_combine(ch: Channel, items, bucket: int, acc: MacAccumulator, fold,
                   where: str, *, rng=None, reveal=None, key=None, delta: BitVec = None):
    """Cut-and-choose bucketing shared by aOT quads and aAND triples.

    The side given `rng` samples the bucketing permutation and sends it; the
    other side receives it and aborts (tagged `where`) on a non-permutation.
    Each bucket is then folded left to right, one COMB_D frame per round: the
    side given `reveal(a, n) -> (d, mac)` announces the round's d and absorbs
    its MACs into `acc` in one call; the side given `key(a, n)` absorbs the
    expected MACs key ^ delta*d instead. Returns (combined, acc).
    """
    n = len(items)
    if bucket < 2 or n % bucket:
        raise UsageError("item count must be a positive multiple of the bucket size")
    n_out = n // bucket
    if rng is not None:
        perm = random_permutation(n, rng)
        ch.send(MsgType.COMB_PERM, b"".join(p.to_bytes(4, "big") for p in perm))
    else:
        raw = ch.recv(MsgType.COMB_PERM, 4 * n)
        perm = [int.from_bytes(raw[i : i + 4], "big") for i in range(0, 4 * n, 4)]
        if sorted(perm) != list(range(n)):
            raise ProtocolAbort(where, "peer sent a non-permutation")
    shuffled = [items[p] for p in perm]
    cur = shuffled[::bucket]
    for r in range(1, bucket):
        nxt = shuffled[r::bucket]
        if reveal is not None:
            opened = [reveal(a, b) for a, b in zip(cur, nxt)]
            ds = [d for d, _ in opened]
            ch.send(MsgType.COMB_D, BitVec.from_bits(ds).to_bytes())
            acc = acc.absorb(mac_rows(mac for _, mac in opened))
        else:
            ds = BitVec.from_bytes(n_out, ch.recv(MsgType.COMB_D, (n_out + 7) // 8)).bits()
            acc = acc.absorb(mac_rows(key(a, b) ^ delta.times(d)
                                      for a, b, d in zip(cur, nxt, ds)))
        cur = [fold(a, b, d) for a, b, d in zip(cur, nxt, ds)]
    return cur, acc


def _quad_d(acc: QuadSender, nxt: QuadSender):
    return (acc.x0.bit ^ acc.x1.bit ^ nxt.x0.bit ^ nxt.x1.bit,
            acc.x0.mac ^ acc.x1.mac ^ nxt.x0.mac ^ nxt.x1.mac)


def _quad_d_key(acc: QuadReceiver, nxt: QuadReceiver) -> BitVec:
    return acc.kx0.key ^ acc.kx1.key ^ nxt.kx0.key ^ nxt.kx1.key


def aot_combine_sender(ch: Channel, quads, bucket: int, acc: MacAccumulator):
    """The sender reveals d = x0+x1+x0'+x1' per fold, MACs deferred into `acc`."""
    return bucket_combine(ch, quads, bucket, acc, fold_sender, "aot-comb",
                          reveal=_quad_d)


def aot_combine_receiver(ch: Channel, quads, bucket: int, gk_send: GlobalKey, rng,
                         acc: MacAccumulator):
    """The receiver samples the bucketing and checks the sender's d reveals."""
    return bucket_combine(ch, quads, bucket, acc, fold_receiver, "aot-comb",
                          rng=rng, key=_quad_d_key, delta=gk_send.delta)
