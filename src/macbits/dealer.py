"""Preprocessing orchestration and the persisted material format.

deal() runs the whole offline phase on one channel: a handshake, the
authenticated-bit pipeline for each bit owner, then triple and quadruple
generation with bucketed combining, all under the two session global keys
born in the pipeline.

Each party's bits are authenticated under the other party's key, so the
two owners' pipelines are independent, and so are the two owners' leaky
triples and the two directions' leaky quads. Every exchange of deal() is a
protocol side run by `transport.run_sides`, and the independent ones run
side by side: first both `produce_abits` sides, then the laAND sides of both
owners with the laOT sides of both directions. Every side yields one flight
at a time; in each round both parties compute their own sides' payloads at
once, then exchange them in one of `run_sides`' three modes: a small round
sends before it reads; a round above `transport.DUPLEX_MIN` (a batch of aBit
OT corrections) sends on a second thread while it reads; in between Alice sends
all of hers before she reads and Bob reads before he sends. So neither
blocks sending a large frame to a peer that is itself sending. Frames go out
in side order, Alice's bits or Alice's direction first on both parties. The
hello, the combiners and the deferred-MAC flush with the global-key
commitments stay one at a time, in the same order on both parties, so the
MAC accumulators chain alike.

The aBit sides cross their OT corrections in batches of at most
`base_ot.BATCH_BITS` bits per column, one frame per batch, and the key
holder turns each batch into key rows as it arrives. So while the aBits are
made a party holds its own bits' key columns, 2*tau bits per bit it owns
(about 49 MB per AES block), and a few batch-sized buffers: a deal's peak
memory grows with its demand by about that much, not by three times it.

From the aBit pipeline's transpose on, every
authenticated bit is a row of a uint8 array (a MAC-side row is the MAC's
kappa/8 bytes, then one byte for the bit; a key row is kappa/8 bytes): the
per-owner pools are array slices, laOT, laAND and the combiners hash and XOR
whole arrays, and their outputs are the six streams of each party's
MaterialStore, which the online phase slices one AND level at a time through
monotone cursors. A global key is a (kappa/8,) uint8 row too, like a key
row, and the session parameters travel as arguments, not on the channel. A
store file (version 2) is a 64-byte header, the global key, the six record
counts, and each stream's MAC rows then key rows as raw bytes.

A deal is sized by the circuit's shape, `DealerConfig`. Every secure triple
eats 3 owner bits per leaky instance and every secure quadruple 2 sender
bits and 2 receiver bits, so at bucket size B an owner's demand is one fresh
bit per own input wire plus n_and * (1 + 7B). The store never persists the
peer's global key, only a joint commitment digest both parties can
recompute and compare at online startup.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .aand_proto import (aand_combine_key, aand_combine_mac, laand_key_side,
                         laand_mac_side)
from .abit_proto import Rows, produce_abits
from .aot_proto import (aot_combine_receiver, aot_combine_sender, bucket_size,
                        laot_receiver, laot_sender)
from .base_ot import DealerOt
from .errors import OutOfMaterial, ParseError, ProtocolAbort, UsageError
from .ro_suite import (DIGEST_BYTES, KAPPA_DEFAULT, PSI_DEFAULT, MacAccumulator,
                       flush_accumulators, ro_hash)
from .transport import Channel, MsgType, Role, Swap, perform_hello, run_sides

MAGIC = b"MACBITS\x00"
STORE_VERSION = 2
HEADER_BYTES = 64


@dataclass(frozen=True)
class DealerConfig:
    """The shape of the circuit a session deals for: n_and AND gates and
    inputs_a, inputs_b input wires, at MAC length kappa and statistical
    security psi.

    Each AND gate burns, per party, one fresh bit, one triple of its own and
    one of the peer's, and one quad in each direction; each input wire burns
    one fresh bit of its owner's (the mask). `records` writes that recipe
    down. Triples and quads are bucketed alike: `bucket` leaky instances per
    output, bucket_B if given, else derived from psi and n_and.
    """

    n_and: int = 0
    inputs_a: int = 0
    inputs_b: int = 0
    kappa: int = KAPPA_DEFAULT
    psi: int = PSI_DEFAULT
    bucket_B: int = None

    def __post_init__(self):
        if self.kappa % 8 or not 8 <= self.kappa <= 256:
            raise UsageError("kappa must be a byte multiple in [8, 256]")
        if not 1 <= self.psi < 1 << 16:  # the hello and the store header hold 16 bits
            raise UsageError("psi must be in [1, 65535]")
        if min(self.n_and, self.inputs_a, self.inputs_b) < 0:
            raise UsageError("gate and input counts must be nonnegative")
        if self.bucket_B is not None and self.bucket_B < 2:
            raise UsageError("bucket override must be at least 2")

    @classmethod
    def for_gates(cls, n_and: int, inputs_a: int = 0, inputs_b: int = 0,
                  kappa: int = KAPPA_DEFAULT, psi: int = PSI_DEFAULT,
                  bucket_B: int = None) -> "DealerConfig":
        return cls(n_and, inputs_a, inputs_b, kappa, psi, bucket_B)

    @property
    def bucket(self) -> int:
        return self.n_and and (self.bucket_B or bucket_size(self.n_and, self.psi))

    def records(self, role: Role) -> dict:
        """Records per stream of role's store."""
        recs = dict.fromkeys(MaterialStore.STREAMS, self.n_and)
        inputs = {Role.ALICE: self.inputs_a, Role.BOB: self.inputs_b}
        recs["abits_mine"] += inputs[role]
        recs["abits_theirs"] += inputs[role.other]
        return recs

    def abit_demand(self, owner: Role) -> int:
        """owner's bits a deal makes: its fresh bits, then per AND gate 3
        per leaky triple and 2 per leaky quad as sender and as receiver."""
        return self.records(owner)["abits_mine"] + 7 * self.bucket * self.n_and


class MaterialStore:
    """One party's preprocessed material, as arrays, plus consumption cursors.

    Each stream is a pair of uint8 arrays with one record per leading index:
    MAC-side rows of shape (n, w_mac, kappa/8 + 1), each the MAC's bytes in
    `BitVec.to_bytes` order followed by one byte for the bit, and key rows of
    shape (n, w_key, kappa/8). WIDTHS gives each stream's (w_mac, w_key); its
    comments name the record fields the rows hold, in order. delta is the
    global key this party holds on the peer's bits, a (kappa/8,) row.
    """

    STREAMS = ("abits_mine", "abits_theirs", "aands_mine", "aands_theirs",
               "aots_sender", "aots_receiver")
    WIDTHS = {
        "abits_mine": (1, 0),     # bit
        "abits_theirs": (0, 1),   # key
        "aands_mine": (3, 0),     # x, y, z
        "aands_theirs": (0, 3),   # kx, ky, kz
        "aots_sender": (2, 2),    # x0, x1 | kc, kz
        "aots_receiver": (2, 2),  # c, z | kx0, kx1
    }

    def __init__(self, role: Role, kappa: int, psi: int, session_id: bytes,
                 gk_commit: bytes, delta: np.ndarray,
                 abits_mine=(), abits_theirs=(), aands_mine=(),
                 aands_theirs=(), aots_sender=(), aots_receiver=()):
        self.role = role
        self.kappa = kappa
        self.psi = psi
        self.session_id = session_id
        self.gk_commit = gk_commit
        self.delta = delta
        given = (abits_mine, abits_theirs, aands_mine, aands_theirs,
                 aots_sender, aots_receiver)
        for name, stream in zip(self.STREAMS, given):
            setattr(self, name, tuple(stream) or self._rows(name, 0, b""))
        self._cursors = {name: 0 for name in self.STREAMS}

    def _rows(self, name, n, raw, off=0):
        """Stream `name` of n records read from raw at off, as (macs, keys)."""
        (wm, wk), kb = self.WIDTHS[name], self.kappa // 8
        macs = np.frombuffer(raw, np.uint8, n * wm * (kb + 1), off)
        keys = np.frombuffer(raw, np.uint8, n * wk * kb, off + macs.size)
        return macs.reshape(n, wm, kb + 1), keys.reshape(n, wk, kb)

    # -- consumption --------------------------------------------------------

    def take(self, name: str, n: int):
        """The next n records of stream `name`, as (macs, keys) slices."""
        macs, keys = getattr(self, name)
        pos = self._cursors[name]
        if pos + n > len(macs):
            raise OutOfMaterial(f"{name} exhausted after {pos} records, "
                                f"{n} more wanted")
        self._cursors[name] = pos + n
        return macs[pos : pos + n], keys[pos : pos + n]

    def remaining(self, name: str) -> int:
        return len(getattr(self, name)[0]) - self._cursors[name]

    # -- persistence --------------------------------------------------------

    def header_bytes(self) -> bytes:
        hdr = struct.pack(">8sHBB HH", MAGIC, STORE_VERSION, self.role.value, 0,
                          self.kappa, self.psi)
        hdr += self.session_id + self.gk_commit
        assert len(hdr) == HEADER_BYTES
        return hdr

    def save(self, path):
        counts = struct.pack(">6Q", *(len(getattr(self, n)[0]) for n in self.STREAMS))
        with open(path, "wb") as fh:
            fh.write(self.header_bytes())
            fh.write(self.delta.tobytes())
            fh.write(counts)
            for name in self.STREAMS:
                for rows in getattr(self, name):
                    fh.write(rows.tobytes())

    @classmethod
    def load(cls, path) -> "MaterialStore":
        """Read a store file; its arrays are read-only views of the file's
        bytes. Malformed files raise ParseError."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < HEADER_BYTES:
            raise ParseError("material file too short for its header")
        magic, version, role_v, reserved, kappa, psi = struct.unpack(
            ">8sHBB HH", blob[:16])
        if magic != MAGIC:
            raise ParseError("not a material file (bad magic)")
        if version != STORE_VERSION:
            raise ParseError(f"unsupported material version {version}")
        if role_v not in (r.value for r in Role):
            raise ParseError(f"unknown role byte {role_v}")
        if reserved:
            raise ParseError(f"reserved header byte is {reserved}, not 0")
        if kappa % 8 or not 8 <= kappa <= 256:
            raise ParseError(f"bad MAC length {kappa}")
        if psi < 1:
            raise ParseError("statistical security psi is 0")
        sid, commit = blob[16:32], blob[32:64]
        role = Role(role_v)
        kb = kappa // 8
        counts_at = HEADER_BYTES + kb
        off = counts_at + 48
        if len(blob) < off:
            raise ParseError("material file too short for its record counts")
        delta = np.frombuffer(blob, np.uint8, kb, HEADER_BYTES)
        counts = struct.unpack(">6Q", blob[counts_at:off])
        sizes = [n * (wm * (kb + 1) + wk * kb)
                 for n, (wm, wk) in zip(counts, map(cls.WIDTHS.get, cls.STREAMS))]
        if len(blob) - off != sum(sizes):
            raise ParseError("material body length does not match its record counts")
        store = cls(role, kappa, psi, sid, commit, delta)
        for name, n, size in zip(cls.STREAMS, counts, sizes):
            macs, keys = store._rows(name, n, blob, off)
            if (macs[..., kb] > 1).any():
                raise ParseError(f"{name} holds a bit byte other than 0 or 1")
            setattr(store, name, (macs, keys))
            off += size
        return store


def deal(ch: Channel, role: Role, cfg: DealerConfig, rng) -> MaterialStore:
    """Run the full offline phase; returns this party's store (not saved)."""
    ((sid, _),) = run_sides(ch, role, perform_hello(role, cfg.kappa, cfg.psi, rng=rng))
    backend = DealerOt(rng)
    kb = cfg.kappa // 8

    # Both owners' aBits side by side. Alice mints the OT dealer seed first,
    # so that both directions can send seed OTs in the same flight.
    demand = {owner: cfg.abit_demand(owner) for owner in (Role.ALICE, Role.BOB)}
    owners = [owner for owner, n in demand.items() if n]
    if owners:
        run_sides(ch, role, backend.setup(mint=role is Role.ALICE))
    made = run_sides(ch, role, *(produce_abits(ch, role, owner, demand[owner], cfg.kappa,
                                               rng, backend) for owner in owners))
    # Per owner: the MAC rows of its bits if I own them, else my key rows.
    abits = {owner: np.empty((0, kb + (role is owner)), np.uint8) for owner in demand}
    gks = {}
    for owner, rows in zip(owners, made):
        if role is owner:
            abits[owner] = rows
        else:
            gks[owner], abits[owner] = rows
    taken = {Role.ALICE: 0, Role.BOB: 0}

    def take(owner, n):
        """The next n of owner's bits, in the same order on both sides."""
        pos = taken[owner]
        if pos + n > len(abits[owner]):
            raise UsageError("abit pool exhausted during dealing")
        taken[owner] = pos + n
        return abits[owner][pos : pos + n]

    def gk_of(owner) -> np.ndarray:
        """The global key on owner's bits; all zero if owner has none."""
        return gks[owner] if owner in gks else np.zeros(kb, np.uint8)

    # The leaky triples of both owners and the leaky quads of both directions
    # run side by side, B*n_and leaky instances each. The combiners then run
    # one at a time, in this same order on both parties, so the deferred-MAC
    # accumulators chain alike.
    sides = []
    if cfg.n_and:
        leaky = cfg.bucket * cfg.n_and
        for owner in (Role.ALICE, Role.BOB):
            xs, ys, rs = take(owner, leaky), take(owner, leaky), take(owner, leaky)
            if role is owner:
                sides.append(laand_mac_side(ch, xs, ys, rs, rng))
            else:
                sides.append(laand_key_side(ch, xs, ys, rs, gk_of(owner)))
        for sender in (Role.ALICE, Role.BOB):
            # the sender's x0, x1, then the receiver's c, r
            sender_bits = take(sender, leaky), take(sender, leaky)
            receiver_bits = take(sender.other, leaky), take(sender.other, leaky)
            if role is sender:
                sides.append(laot_sender(ch, *sender_bits, *receiver_bits,
                                         gk_of(sender.other), rng))
            else:
                sides.append(laot_receiver(ch, *receiver_bits, *sender_bits, gk_of(sender)))

    sent_acc = MacAccumulator()
    expect_acc = MacAccumulator()
    aands = {Role.ALICE: (), Role.BOB: ()}
    aots = {Role.ALICE: (), Role.BOB: ()}
    bkt = cfg.bucket
    jobs = [(is_aot, owner) for is_aot in (False, True) for owner in (Role.ALICE, Role.BOB)]
    for (is_aot, owner), items in zip(jobs, run_sides(ch, role, *sides)):
        if role is owner:
            side = (aot_combine_sender(ch, items, bkt, sent_acc) if is_aot
                    else aand_combine_mac(ch, items, bkt, rng, sent_acc))
            ((combined, sent_acc),) = run_sides(ch, role, side)
        else:
            side = (aot_combine_receiver(ch, items, bkt, gk_of(owner), rng, expect_acc)
                    if is_aot else aand_combine_key(ch, items, bkt, gk_of(owner), expect_acc))
            ((combined, expect_acc),) = run_sides(ch, role, side)
        (aots if is_aot else aands)[owner] = combined

    my_delta = gk_of(role.other)
    my_commit = ro_hash("gkc", sid, bytes([role.value]), my_delta)
    (peer_commit,) = run_sides(ch, role, _flush_and_commit(sent_acc, expect_acc, my_commit))
    commits = {role: my_commit, role.other: peer_commit}
    gk_commit = ro_hash("gkc/joint", commits[Role.ALICE], commits[Role.BOB])

    recs = cfg.records(role)
    return MaterialStore(
        role, cfg.kappa, cfg.psi, sid, gk_commit, my_delta,
        Rows.of_macs(take(role, recs["abits_mine"])[:, None]),
        Rows.of_keys(take(role.other, recs["abits_theirs"])[:, None]),
        aands[role], aands[role.other], aots[role], aots[role.other])


def _flush_and_commit(sent: MacAccumulator, expect: MacAccumulator, commit: bytes):
    """The deferred-MAC flush, then the global-key commitments, as one
    protocol side: this party's commitment goes out only once the flush has
    passed. Returns the peer's commitment."""
    yield from flush_accumulators(sent, expect)
    (theirs,) = yield Swap([(MsgType.GK_COMMIT, commit)], [(MsgType.GK_COMMIT, DIGEST_BYTES)])
    return theirs


def _macs_hold(macs, keys, delta) -> bool:
    """Every MAC-side row's MAC equals its key row ^ bit*delta."""
    return np.array_equal(macs[..., :-1], keys ^ macs[..., -1:] * delta)


def verify_stores(store_a: MaterialStore, store_b: MaterialStore) -> int:
    """Full-scan cross check of two parties' stores; returns the number of
    relations verified (per record: one per MAC, plus a triple's product and
    a quad's choice). Test and tooling aid: a deployment never holds both
    stores in one process."""
    if store_a.role is not Role.ALICE or store_b.role is not Role.BOB:
        raise UsageError("pass the stores in (alice, bob) order")
    for name in ("kappa", "psi", "session_id", "gk_commit"):
        if getattr(store_a, name) != getattr(store_b, name):
            raise ProtocolAbort("material", f"stores disagree on {name}")
    checked = 0

    def need(ok, what, n):
        nonlocal checked
        if not ok:
            raise ProtocolAbort("material", f"{what} relation violated")
        checked += n

    for mac_store, key_store in ((store_a, store_b), (store_b, store_a)):
        gk = key_store.delta  # authenticates mac_store's bits
        gk_recv = mac_store.delta  # authenticates the receiver's bits
        (am, _), (_, ak) = mac_store.abits_mine, key_store.abits_theirs
        (tm, _), (_, tk) = mac_store.aands_mine, key_store.aands_theirs
        (xs, kcz), (cz, kxs) = mac_store.aots_sender, key_store.aots_receiver
        for what, mine, theirs in (("abit", am, ak), ("aand", tm, tk), ("aot", xs, cz)):
            if len(mine) != len(theirs):
                raise ProtocolAbort("material", f"{what} stream lengths disagree")
        need(_macs_hold(am, ak, gk), "abit", len(am))
        x, y, z = (tm[:, i, -1] for i in range(3))
        need(np.array_equal(z, x & y), "triple product", len(tm))
        need(_macs_hold(tm, tk, gk), "triple MAC", 3 * len(tm))
        x0, x1, c, z = xs[:, 0, -1], xs[:, 1, -1], cz[:, 0, -1], cz[:, 1, -1]
        need(np.array_equal(z, (c & (x0 ^ x1)) ^ x0), "quad choice", len(xs))
        need(_macs_hold(xs, kxs, gk), "quad x0/x1 MAC", 2 * len(xs))
        need(_macs_hold(cz, kcz, gk_recv), "quad c/z MAC", 2 * len(xs))
    return checked
