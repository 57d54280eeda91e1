"""Authenticated AND triples: leaky generation plus bucketed combining.

A triple is three authenticated bits x, y, z with z = x & y, all held by one
party (the MAC side) and keyed by the other. Generation announces d = xy + r
for a fresh blind r and then proves z = xy with one digest comparison; the
proof is leaky because a garbled challenge digest passes exactly when x = 0,
so a cheating key side buys one x bit per garbled instance at abort risk.
Bucketed combining with a MAC-side permutation washes that leakage out.

Cost per leaky instance: 3 hash calls (2 key side, 1 MAC side), with the key
side reusing its first digest as the equality-check reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abit_proto import AuthBitKey, AuthBitMac, GlobalKey
from .aot_proto import bucket_combine
from .bitlinalg import BitVec
from .eq_box import eq_commit_side, eq_respond_side
from .errors import ProtocolAbort, ProtocolError, UsageError
from .ro_suite import DIGEST_BYTES, MacAccumulator, ro_hash
from .transport import Channel, MsgType


@dataclass(frozen=True)
class TripleMac:
    x: AuthBitMac
    y: AuthBitMac
    z: AuthBitMac


@dataclass(frozen=True)
class TripleKey:
    kx: AuthBitKey
    ky: AuthBitKey
    kz: AuthBitKey


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(p ^ q for p, q in zip(a, b))


def laand_mac_side(ch: Channel, xs, ys, rs, rng, *, d_tamper=None):
    """Generate len(xs) leaky triples holding the MAC side.

    xs/ys are the triple inputs, rs the fresh blinds that become z after the
    announced correction. d_tamper(i, d) models announcing a wrong product.
    """
    ell = len(xs)
    if not (len(ys) == len(rs) == ell):
        raise UsageError("input batches must align")
    ds = [(xs[i].bit & ys[i].bit) ^ rs[i].bit for i in range(ell)]
    if d_tamper is not None:
        ds = [d_tamper(i, d) for i, d in enumerate(ds)]
    ch.send(MsgType.LAAND_D, BitVec.from_bits(ds).to_bytes())
    zs = [rs[i].xor_const(ds[i]) for i in range(ell)]

    u_raw = ch.recv(MsgType.LAAND_U)
    if len(u_raw) != DIGEST_BYTES * ell:
        raise ProtocolError("bad challenge batch length")
    vs = []
    for i in range(ell):
        if xs[i].bit == 0:
            v = ro_hash("laand", xs[i].mac.to_bytes(), zs[i].mac.to_bytes())
        else:
            u = u_raw[i * DIGEST_BYTES : (i + 1) * DIGEST_BYTES]
            inner = ro_hash("laand", xs[i].mac.to_bytes(),
                            (ys[i].mac ^ zs[i].mac).to_bytes())
            v = _xor_bytes(u, inner)
        vs.append(BitVec.from_bytes(8 * DIGEST_BYTES, v))
    if not eq_commit_side(ch, BitVec.join(vs), rng):
        raise ProtocolAbort("laand", "product proof failed")
    return [TripleMac(xs[i], ys[i], zs[i]) for i in range(ell)]


def laand_key_side(ch: Channel, kxs, kys, krs, gk: GlobalKey, *, u_tamper=None):
    """Key side of leaky triple generation; u_tamper models the selective
    garbling a cheating key holder would use to probe x."""
    ell = len(kxs)
    if not (len(kys) == len(krs) == ell):
        raise UsageError("input batches must align")
    d_raw = ch.recv(MsgType.LAAND_D)
    if len(d_raw) != (ell + 7) // 8:
        raise ProtocolError("bad product correction length")
    ds = BitVec.from_bytes(ell, d_raw)
    delta = gk.delta

    kzs = [krs[i].xor_const(ds[i], gk) for i in range(ell)]
    us, refs = [], []
    for i in range(ell):
        ref = ro_hash("laand", kxs[i].key.to_bytes(), kzs[i].key.to_bytes())
        other = ro_hash("laand", (kxs[i].key ^ delta).to_bytes(),
                        (kys[i].key ^ kzs[i].key).to_bytes())
        u = _xor_bytes(ref, other)
        if u_tamper is not None:
            u = u_tamper(i, u)
        us.append(u)
        refs.append(BitVec.from_bytes(8 * DIGEST_BYTES, ref))
    ch.send(MsgType.LAAND_U, b"".join(us))
    if not eq_respond_side(ch, BitVec.join(refs)):
        raise ProtocolAbort("laand", "product proof failed")
    return [TripleKey(kxs[i], kys[i], kzs[i]) for i in range(ell)]


# ---------------------------------------------------------------------------
# combining


def fold_triple_mac(acc: TripleMac, nxt: TripleMac, d: int) -> TripleMac:
    """Combine two triples under revealed d = y + y'; keeps acc's y."""
    return TripleMac(
        x=acc.x ^ nxt.x,
        y=acc.y,
        z=AuthBitMac(acc.z.bit ^ nxt.z.bit ^ (d & nxt.x.bit),
                     acc.z.mac ^ nxt.z.mac ^ nxt.x.mac.times(d)),
    )


def fold_triple_key(acc: TripleKey, nxt: TripleKey, d: int) -> TripleKey:
    return TripleKey(
        kx=acc.kx ^ nxt.kx,
        ky=acc.ky,
        kz=AuthBitKey(acc.kz.key ^ nxt.kz.key ^ nxt.kx.key.times(d)),
    )


def aand_combine_mac(ch: Channel, triples, bucket: int, rng, acc: MacAccumulator):
    """The MAC side samples the bucketing (its bits are the ones the leak
    targets) and reveals d = y + y' per fold, MACs deferred into `acc`."""
    return bucket_combine(ch, triples, bucket, acc, fold_triple_mac, "aand-comb", rng=rng,
                          reveal=lambda a, n: (a.y.bit ^ n.y.bit, a.y.mac ^ n.y.mac))


def aand_combine_key(ch: Channel, triples, bucket: int, gk: GlobalKey,
                     acc: MacAccumulator):
    return bucket_combine(ch, triples, bucket, acc, fold_triple_key, "aand-comb",
                          key=lambda a, n: a.ky.key ^ n.ky.key, delta=gk.delta)
