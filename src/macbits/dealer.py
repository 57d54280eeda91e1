"""Preprocessing orchestration and the persisted material format.

deal() runs the whole offline phase on one channel: a handshake, the
authenticated-bit pipeline once per bit owner, then triple and quadruple
generation with bucketed combining, all under the two session global keys
born in the pipeline. The outcome is a MaterialStore per party: bit-packed
streams of records the online phase consumes through monotone cursors.

Material demand per owner follows from the combiners: every secure triple
eats 3 owner bits per leaky instance, every secure quadruple 2 sender bits
and 2 receiver bits per leaky instance, plus whatever fresh bits the config
asks for. The store never persists the peer's global key, only a joint
commitment digest both parties can recompute and compare at online startup.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .aand_proto import (TripleKey, TripleMac, aand_combine_key,
                         aand_combine_mac, laand_key_side, laand_mac_side)
from .abit_proto import (AuthBitKey, AuthBitMac, GlobalKey, produce_abits,
                         verify_abit)
from .aot_proto import (QuadReceiver, QuadSender, aot_combine_receiver,
                        aot_combine_sender, bucket_size, laot_receiver,
                        laot_sender)
from .base_ot import DealerOt
from .bitlinalg import BitReader, BitVec, BitWriter
from .errors import OutOfMaterial, ParseError, ProtocolAbort, UsageError
from .ro_suite import (DIGEST_BYTES, KAPPA_DEFAULT, PSI_DEFAULT, MacAccumulator,
                       flush_accumulators, ro_hash)
from .transport import Channel, MsgType, Role, perform_hello

MAGIC = b"MACBITS\x00"
STORE_VERSION = 1
HEADER_BYTES = 64


@dataclass(frozen=True)
class DealerConfig:
    """Counts for one preprocessing session.

    aOT direction names the sender first: n_aots_AB quads have Alice offering
    the message pair. bucket_B overrides the derived bucket size for every
    primitive; leave it None to derive per primitive from its output count.
    """

    kappa: int = KAPPA_DEFAULT
    psi: int = PSI_DEFAULT
    n_abits_A: int = 0
    n_abits_B: int = 0
    n_aands_A: int = 0
    n_aands_B: int = 0
    n_aots_AB: int = 0
    n_aots_BA: int = 0
    bucket_B: int = None

    def __post_init__(self):
        if self.kappa % 8 or not 8 <= self.kappa <= 256:
            raise UsageError("kappa must be a byte multiple in [8, 256]")
        if self.psi < 1:
            raise UsageError("psi must be positive")
        for name in ("n_abits_A", "n_abits_B", "n_aands_A", "n_aands_B",
                     "n_aots_AB", "n_aots_BA"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be nonnegative")
        if self.bucket_B is not None and self.bucket_B < 2:
            raise UsageError("bucket override must be at least 2")

    @classmethod
    def for_gates(cls, n_and: int, inputs_a: int = 0, inputs_b: int = 0,
                  kappa: int = KAPPA_DEFAULT, psi: int = PSI_DEFAULT,
                  bucket_B: int = None) -> "DealerConfig":
        """Material for a circuit with n_and AND gates: per gate one triple
        per party, one quad per direction, one fresh bit per party; plus one
        fresh bit per input wire for the owner's mask."""
        return cls(kappa=kappa, psi=psi,
                   n_abits_A=n_and + inputs_a, n_abits_B=n_and + inputs_b,
                   n_aands_A=n_and, n_aands_B=n_and,
                   n_aots_AB=n_and, n_aots_BA=n_and, bucket_B=bucket_B)

    def bucket_for(self, count: int) -> int:
        if count == 0:
            return 0
        if self.bucket_B is not None:
            return self.bucket_B
        return bucket_size(count, self.psi)

    def abit_demand(self, owner: Role) -> int:
        if owner is Role.ALICE:
            fresh, aands = self.n_abits_A, self.n_aands_A
            as_sender, as_receiver = self.n_aots_AB, self.n_aots_BA
        else:
            fresh, aands = self.n_abits_B, self.n_aands_B
            as_sender, as_receiver = self.n_aots_BA, self.n_aots_AB
        return (fresh
                + 3 * self.bucket_for(aands) * aands
                + 2 * self.bucket_for(as_sender) * as_sender
                + 2 * self.bucket_for(as_receiver) * as_receiver)


class _Pool:
    """Cursor over one owner's freshly produced authenticated bits."""

    def __init__(self, items):
        self.items = items
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.items):
            raise UsageError("abit pool exhausted during dealing")
        out = self.items[self.pos : self.pos + n]
        self.pos += n
        return out


class MaterialStore:
    """One party's preprocessed records plus consumption cursors."""

    STREAMS = ("abits_mine", "abits_theirs", "aands_mine", "aands_theirs",
               "aots_sender", "aots_receiver")

    def __init__(self, role: Role, kappa: int, psi: int, session_id: bytes,
                 gk_commit: bytes, delta: GlobalKey,
                 abits_mine=(), abits_theirs=(), aands_mine=(),
                 aands_theirs=(), aots_sender=(), aots_receiver=()):
        self.role = role
        self.kappa = kappa
        self.psi = psi
        self.session_id = session_id
        self.gk_commit = gk_commit
        self.delta = delta
        self.abits_mine = list(abits_mine)
        self.abits_theirs = list(abits_theirs)
        self.aands_mine = list(aands_mine)
        self.aands_theirs = list(aands_theirs)
        self.aots_sender = list(aots_sender)
        self.aots_receiver = list(aots_receiver)
        self._cursors = {name: 0 for name in self.STREAMS}

    # -- consumption --------------------------------------------------------

    def _take(self, name):
        records = getattr(self, name)
        pos = self._cursors[name]
        if pos >= len(records):
            raise OutOfMaterial(f"{name} exhausted after {pos} records")
        self._cursors[name] = pos + 1
        return records[pos]

    def take_abit(self, owner: Role):
        return self._take("abits_mine" if owner is self.role else "abits_theirs")

    def take_aand(self, owner: Role):
        return self._take("aands_mine" if owner is self.role else "aands_theirs")

    def take_aot(self, sender: Role):
        return self._take("aots_sender" if sender is self.role else "aots_receiver")

    def consumed(self) -> dict:
        return dict(self._cursors)

    def remaining(self, name: str) -> int:
        return len(getattr(self, name)) - self._cursors[name]

    # -- persistence --------------------------------------------------------

    def header_bytes(self) -> bytes:
        hdr = struct.pack(">8sHBB HH", MAGIC, STORE_VERSION, self.role.value, 0,
                          self.kappa, self.psi)
        hdr += self.session_id + self.gk_commit
        assert len(hdr) == HEADER_BYTES
        return hdr

    def save(self, path):
        k = self.kappa
        w = BitWriter()
        for r in self.abits_mine:
            w.append(BitVec(1, r.bit))
            w.append(r.mac)
        for r in self.abits_theirs:
            w.append(r.key)
        for t in self.aands_mine:
            for half in (t.x, t.y, t.z):
                w.append(BitVec(1, half.bit))
                w.append(half.mac)
        for t in self.aands_theirs:
            for key in (t.kx, t.ky, t.kz):
                w.append(key.key)
        for q in self.aots_sender:
            for half in (q.x0, q.x1):
                w.append(BitVec(1, half.bit))
                w.append(half.mac)
            w.append(q.kc.key)
            w.append(q.kz.key)
        for q in self.aots_receiver:
            for half in (q.c, q.z):
                w.append(BitVec(1, half.bit))
                w.append(half.mac)
            w.append(q.kx0.key)
            w.append(q.kx1.key)
        counts = struct.pack(">6Q", *(len(getattr(self, n)) for n in self.STREAMS))
        with open(path, "wb") as fh:
            fh.write(self.header_bytes())
            fh.write(self.delta.delta.to_bytes())
            fh.write(counts)
            fh.write(w.getvalue())

    @classmethod
    def load(cls, path) -> "MaterialStore":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < HEADER_BYTES:
            raise ParseError("material file too short for its header")
        magic, version, role_v, _, kappa, psi = struct.unpack(
            ">8sHBB HH", blob[:16])
        if magic != MAGIC:
            raise ParseError("not a material file (bad magic)")
        if version != STORE_VERSION:
            raise ParseError(f"unsupported material version {version}")
        if role_v not in (r.value for r in Role):
            raise ParseError(f"unknown role byte {role_v}")
        if kappa % 8 or not 8 <= kappa <= 256:
            raise ParseError(f"bad MAC length {kappa}")
        sid, commit = blob[16:32], blob[32:64]
        role = Role(role_v)
        counts_at = HEADER_BYTES + kappa // 8
        off = counts_at + 48
        if len(blob) < off:
            raise ParseError("material file too short for its record counts")
        delta = GlobalKey(role.other, BitVec.from_bytes(kappa, blob[HEADER_BYTES:counts_at]))
        counts = struct.unpack(">6Q", blob[counts_at:off])
        n_am, n_at, n_nm, n_nt, n_qs, n_qr = counts
        # record widths in bits, in STREAMS order
        widths = (1 + kappa, kappa, 3 + 3 * kappa, 3 * kappa, 2 + 4 * kappa, 2 + 4 * kappa)
        body_bits = sum(n * w for n, w in zip(counts, widths))
        if len(blob) - off != (body_bits + 7) // 8:
            raise ParseError("material body length does not match its record counts")
        rd = BitReader(blob[off:])
        take_mac = lambda: AuthBitMac(rd.take_bit(), rd.take(kappa))
        take_key = lambda: AuthBitKey(rd.take(kappa))
        store = cls(role, kappa, psi, sid, commit, delta)
        store.abits_mine = [take_mac() for _ in range(n_am)]
        store.abits_theirs = [take_key() for _ in range(n_at)]
        store.aands_mine = [TripleMac(take_mac(), take_mac(), take_mac())
                            for _ in range(n_nm)]
        store.aands_theirs = [TripleKey(take_key(), take_key(), take_key())
                              for _ in range(n_nt)]
        store.aots_sender = [QuadSender(take_mac(), take_mac(), take_key(), take_key())
                             for _ in range(n_qs)]
        store.aots_receiver = [QuadReceiver(take_mac(), take_mac(), take_key(), take_key())
                               for _ in range(n_qr)]
        return store


def deal(ch: Channel, role: Role, cfg: DealerConfig, rng) -> MaterialStore:
    """Run the full offline phase; returns this party's store (not saved)."""
    sid, _ = perform_hello(ch, role, cfg.kappa, cfg.psi, rng=rng)
    backend = DealerOt(ch, rng)

    batches = {}
    for owner in (Role.ALICE, Role.BOB):
        demand = cfg.abit_demand(owner)
        if demand:
            batches[owner] = produce_abits(ch, role, owner, demand,
                                           cfg.kappa, rng, backend)
        else:
            batches[owner] = None

    def pool(owner):
        b = batches[owner]
        if b is None:
            return _Pool([])
        if role is owner:
            return _Pool([AuthBitMac(b.bits[i], b.macs[i])
                          for i in range(len(b.bits))])
        return _Pool([AuthBitKey(k) for k in b.keys])

    def gk_of(owner) -> GlobalKey:
        b = batches[owner]
        if b is not None and role is not owner:
            return b.gk
        return GlobalKey(owner, BitVec.zeros(cfg.kappa))

    pools = {Role.ALICE: pool(Role.ALICE), Role.BOB: pool(Role.BOB)}
    sent_acc = MacAccumulator()
    expect_acc = MacAccumulator()

    aands = {Role.ALICE: [], Role.BOB: []}
    for owner, n_out in ((Role.ALICE, cfg.n_aands_A), (Role.BOB, cfg.n_aands_B)):
        if n_out == 0:
            continue
        bkt = cfg.bucket_for(n_out)
        leaky = bkt * n_out
        xs = pools[owner].take(leaky)
        ys = pools[owner].take(leaky)
        rs = pools[owner].take(leaky)
        if role is owner:
            triples = laand_mac_side(ch, xs, ys, rs, rng)
            aands[owner], sent_acc = aand_combine_mac(ch, triples, bkt, rng, sent_acc)
        else:
            triples = laand_key_side(ch, xs, ys, rs, gk_of(owner))
            aands[owner], expect_acc = aand_combine_key(ch, triples, bkt,
                                                        gk_of(owner), expect_acc)

    aots = {}
    for sender, n_out in ((Role.ALICE, cfg.n_aots_AB), (Role.BOB, cfg.n_aots_BA)):
        receiver = sender.other
        if n_out == 0:
            aots[sender] = []
            continue
        bkt = cfg.bucket_for(n_out)
        leaky = bkt * n_out
        sender_bits = pools[sender].take(2 * leaky)
        receiver_bits = pools[receiver].take(2 * leaky)
        if role is sender:
            x0s, x1s = sender_bits[:leaky], sender_bits[leaky:]
            kcs = receiver_bits[:leaky]
            krs = receiver_bits[leaky:]
            quads = laot_sender(ch, x0s, x1s, kcs, krs, gk_of(receiver), rng)
            aots[sender], sent_acc = aot_combine_sender(ch, quads, bkt, sent_acc)
        else:
            kx0s, kx1s = sender_bits[:leaky], sender_bits[leaky:]
            cs = receiver_bits[:leaky]
            rs = receiver_bits[leaky:]
            quads = laot_receiver(ch, cs, rs, kx0s, kx1s, gk_of(sender))
            aots[sender], expect_acc = aot_combine_receiver(
                ch, quads, bkt, gk_of(sender), rng, expect_acc)

    flush_accumulators(ch, role, sent_acc, expect_acc)

    my_delta = gk_of(role.other)
    my_commit = ro_hash("gkc", sid, bytes([role.value]), my_delta.delta.to_bytes())
    if role is Role.ALICE:
        ch.send(MsgType.GK_COMMIT, my_commit)
        peer_commit = ch.recv(MsgType.GK_COMMIT, DIGEST_BYTES)
        commit_a, commit_b = my_commit, peer_commit
    else:
        peer_commit = ch.recv(MsgType.GK_COMMIT, DIGEST_BYTES)
        ch.send(MsgType.GK_COMMIT, my_commit)
        commit_a, commit_b = peer_commit, my_commit
    gk_commit = ro_hash("gkc/joint", commit_a, commit_b)

    fresh_n = cfg.n_abits_A if role is Role.ALICE else cfg.n_abits_B
    fresh_peer_n = cfg.n_abits_B if role is Role.ALICE else cfg.n_abits_A
    return MaterialStore(
        role, cfg.kappa, cfg.psi, sid, gk_commit, my_delta,
        abits_mine=pools[role].take(fresh_n),
        abits_theirs=pools[role.other].take(fresh_peer_n),
        aands_mine=aands[role],
        aands_theirs=aands[role.other],
        aots_sender=aots[role],
        aots_receiver=aots[role.other],
    )


def verify_stores(store_a: MaterialStore, store_b: MaterialStore) -> int:
    """Full-scan cross check of two parties' stores; returns the number of
    MAC relations verified. Test and tooling aid: a deployment never holds
    both stores in one process."""
    if store_a.role is not Role.ALICE or store_b.role is not Role.BOB:
        raise UsageError("pass the stores in (alice, bob) order")
    for name in ("kappa", "psi", "session_id", "gk_commit"):
        if getattr(store_a, name) != getattr(store_b, name):
            raise ProtocolAbort("material", f"stores disagree on {name}")
    checked = 0

    def need(ok, what):
        nonlocal checked
        if not ok:
            raise ProtocolAbort("material", f"{what} relation violated")
        checked += 1

    for mac_store, key_store in ((store_a, store_b), (store_b, store_a)):
        gk = key_store.delta  # authenticates mac_store's bits
        if len(mac_store.abits_mine) != len(key_store.abits_theirs):
            raise ProtocolAbort("material", "abit stream lengths disagree")
        for m, k in zip(mac_store.abits_mine, key_store.abits_theirs):
            need(verify_abit(m, k, gk), "abit")
        if len(mac_store.aands_mine) != len(key_store.aands_theirs):
            raise ProtocolAbort("material", "aand stream lengths disagree")
        for t, tk in zip(mac_store.aands_mine, key_store.aands_theirs):
            need(t.z.bit == (t.x.bit & t.y.bit), "triple product")
            for half, key in ((t.x, tk.kx), (t.y, tk.ky), (t.z, tk.kz)):
                need(verify_abit(half, key, gk), "triple MAC")
        if len(mac_store.aots_sender) != len(key_store.aots_receiver):
            raise ProtocolAbort("material", "aot stream lengths disagree")
        gk_recv = mac_store.delta  # authenticates the receiver's bits
        for qs, qr in zip(mac_store.aots_sender, key_store.aots_receiver):
            need(qr.z.bit == (qr.c.bit & (qs.x0.bit ^ qs.x1.bit)) ^ qs.x0.bit,
                 "quad choice")
            need(verify_abit(qs.x0, qr.kx0, gk), "quad x0 MAC")
            need(verify_abit(qs.x1, qr.kx1, gk), "quad x1 MAC")
            need(verify_abit(qr.c, qs.kc, gk_recv), "quad c MAC")
            need(verify_abit(qr.z, qs.kz, gk_recv), "quad z MAC")
    return checked
