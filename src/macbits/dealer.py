"""Preprocessing orchestration and the persisted material format.

deal() runs the whole offline phase on one channel: a handshake, the
authenticated-bit pipeline for each bit owner, then triple and quadruple
generation with bucketed combining, and last one Beaver triple per AND gate
folded from them, all under the two session global keys born in the
pipeline.

Each party's bits are authenticated under the other party's key, so the two
owners' pipelines are independent, and so are the two owners' triples and
the two directions' quads. Every exchange of deal() is a protocol side run
by `transport.run_sides`, and the independent ones run side by side, in
four calls: `transport.hello`, the one-round hello the online phase runs
too; both `produce_abits` sides, each owner's seed OTs keyed by the session
id (`base_ot.DealerOt`); four material sides, each owner's laAND and each
direction's laOT, each followed by its bucketed combining; and the flush
(`_flush`), the deal's last round. Every side yields one flight at a time,
and each round's frames cross in one of `run_sides`' three modes (a batch of
aBit OT corrections in its duplex mode), so neither party blocks sending a
large frame to a peer that is itself sending. Frames go out in side order,
Alice's bits or Alice's direction first on both parties. A combiner reveals
its bits in one frame and leaves their MACs to the flush, whose round also
carries the three bits per AND gate that each party opens to fold the
gate's triples, quads and fresh bit into one Beaver triple; each of a
party's two MAC chains absorbs its share of them in one call. The deal ends
there; nothing the peer cannot check, such as a hash of a global key, leaves
a party.

The aBit sides cross their OT corrections in batches of at most
`base_ot.BATCH_BITS` bits per column, one frame per batch, and the key
holder turns each batch into key rows as it arrives. So while the aBits are
made a party holds its own bits' key columns, 2*tau bits per bit it owns
(about 49 MB per AES block), and a few batch-sized buffers: a deal's peak
memory grows with its demand by about that much, not by three times it.

From the aBit pipeline's transpose on, every
authenticated bit is a row of a uint8 array (a MAC-side row is the MAC's
kappa/8 bytes, then one byte for the bit; a key row is kappa/8 bytes): the
per-owner pools are array slices, laOT, laAND, the combiners and the
conversion to Beaver triples hash and XOR whole arrays, and what they leave
is the three streams of each party's MaterialStore: the aBits of its input
wires, its keys on the peer's, and one Beaver triple per AND gate, which
the online phase takes through monotone cursors. A global key is a
(kappa/8,) uint8 row too, like a key row, and the session parameters travel
as arguments, not on the channel. A store file (version 3) is a 64-byte
header, the global key, the three record counts, a "store/body" digest of
everything after the header but itself, and each stream's MAC rows then key
rows as raw bytes.

A deal is sized by the circuit's shape, `DealerConfig`. Every secure triple
eats 3 owner bits per leaky instance and every secure quadruple 2 sender
bits and 2 receiver bits, and each Beaver triple one fresh bit, so at bucket
size B an owner's demand is one bit per own input wire plus
n_and * (1 + 7B). The store never persists the
peer's global key. Its 32-byte tag, `gk_commit`, is ro_hash("deal/tag",
Alice's flush payload, Bob's), which each party holds once its own flush
check passes and which the two compare at online startup. The payloads
chain every MAC the deal revealed, so the tag binds the material; without
AND gates it binds only the session id. A party whose check passed keeps
its store even if the peer's failed, and the online hello cannot start.
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
from .bitlinalg import pack_bits, unpack_bits
from .errors import OutOfMaterial, ParseError, ProtocolAbort, ProtocolError, UsageError
from .ro_suite import (DIGEST_BYTES, KAPPA_DEFAULT, PSI_DEFAULT, MacAccumulator, check_flush,
                       flush_accumulators, ro_hash, ro_stream)
from .transport import SESSION_ID_BYTES, Channel, MsgType, Role, Swap, hello, run_sides

MAGIC = b"MACBITS\x00"
STORE_VERSION = 3
HEADER_BYTES = 64


@dataclass(frozen=True)
class DealerConfig:
    """The shape of the circuit a session deals for: n_and AND gates and
    inputs_a, inputs_b input wires, at MAC length kappa and statistical
    security psi.

    Each AND gate burns, per party, one Beaver triple, which the deal makes
    from one fresh bit, one triple of its own and one of the peer's, and one
    quad in each direction; each input wire burns one fresh bit of its
    owner's (the mask). `records` writes the store's side of that recipe
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
        inputs = {Role.ALICE: self.inputs_a, Role.BOB: self.inputs_b}
        return {"abits_mine": inputs[role], "abits_theirs": inputs[role.other],
                "triples": self.n_and}

    def abit_demand(self, owner: Role) -> int:
        """owner's bits a deal makes: one per input wire, then per AND gate
        a fresh bit, 3 per leaky triple and 2 per leaky quad as sender and
        as receiver."""
        return self.records(owner)["abits_mine"] + self.n_and * (1 + 7 * self.bucket)


class MaterialStore:
    """One party's preprocessed material, as arrays, plus consumption cursors.

    Each stream is a pair of uint8 arrays with one record per leading index:
    MAC-side rows of shape (n, w_mac, kappa/8 + 1), each the MAC's bytes in
    `BitVec.to_bytes` order followed by one byte for the bit, and key rows of
    shape (n, w_key, kappa/8). WIDTHS gives each stream's (w_mac, w_key); its
    comments name the record fields the rows hold, in order. delta is the
    global key this party holds on the peer's bits, a (kappa/8,) row.
    """

    STREAMS = ("abits_mine", "abits_theirs", "triples")
    WIDTHS = {
        "abits_mine": (1, 0),     # bit
        "abits_theirs": (0, 1),   # key
        "triples": (3, 3),        # u, v, w | ku, kv, kw
    }

    def __init__(self, role: Role, kappa: int, psi: int, session_id: bytes,
                 gk_commit: bytes, delta: np.ndarray,
                 abits_mine=(), abits_theirs=(), triples=()):
        self.role = role
        self.kappa = kappa
        self.psi = psi
        self.session_id = session_id
        self.gk_commit = gk_commit
        self.delta = delta
        for name, stream in zip(self.STREAMS, (abits_mine, abits_theirs, triples)):
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
        """Write the header, then the global key, the record counts, the
        body's digest and each stream's MAC rows then key rows. The digest
        is the "store/body" hash of everything after the header but itself."""
        counts = struct.pack(f">{len(self.STREAMS)}Q",
                             *(len(getattr(self, n)[0]) for n in self.STREAMS))
        body = [np.ascontiguousarray(rows) for n in self.STREAMS for rows in getattr(self, n)]
        digest = ro_stream("store/body", self.delta, counts)
        for rows in body:
            digest.update(rows)
        with open(path, "wb") as fh:
            fh.write(self.header_bytes())
            fh.write(self.delta.tobytes())
            fh.write(counts)
            fh.write(digest.digest())
            for rows in body:
                fh.write(rows.tobytes())

    @classmethod
    def load(cls, path) -> "MaterialStore":
        """Read a store file; its arrays are read-only views of the file's
        bytes. Malformed files raise ParseError, a body that does not match
        its digest before any array is built."""
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
        digest_at = counts_at + 8 * len(cls.STREAMS)
        off = digest_at + DIGEST_BYTES
        if len(blob) < off:
            raise ParseError("material file too short for its record counts")
        counts = struct.unpack(f">{len(cls.STREAMS)}Q", blob[counts_at:digest_at])
        sizes = [n * (wm * (kb + 1) + wk * kb)
                 for n, (wm, wk) in zip(counts, map(cls.WIDTHS.get, cls.STREAMS))]
        if len(blob) - off != sum(sizes):
            raise ParseError("material body length does not match its record counts")
        view = memoryview(blob)
        digest = ro_stream("store/body")
        digest.update(view[HEADER_BYTES:digest_at])
        digest.update(view[off:])
        if digest.digest() != blob[digest_at:off]:
            raise ParseError("material body does not match its digest")
        delta = np.frombuffer(blob, np.uint8, kb, HEADER_BYTES)
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
    kb = cfg.kappa // 8

    # Alice mints the session id; Bob's hello carries zeros in its place and
    # he takes hers. Both hellos cross in one round, and each party checks
    # the peer's when that round ends, before it builds an OT frame. Each
    # owner's seed OTs are keyed by the id, so an id changed on its way to
    # Bob gives him other pads, which the aBit checks refuse; and the deal's
    # MAC chains start from it, so the flush refuses it when no aBit is made.
    demand = {owner: cfg.abit_demand(owner) for owner in (Role.ALICE, Role.BOB)}
    owners = [owner for owner, n in demand.items() if n]
    alice = role is Role.ALICE
    sid = (rng.getrandbits(8 * SESSION_ID_BYTES).to_bytes(SESSION_ID_BYTES, "little")
           if alice else bytes(SESSION_ID_BYTES))
    ((peer_sid, _),) = run_sides(ch, role, hello(role, cfg.kappa, cfg.psi, sid))
    if not alice:
        sid = peer_sid
    elif peer_sid != bytes(SESSION_ID_BYTES):
        raise ProtocolError("session id mismatch")
    made = run_sides(ch, role, *(produce_abits(ch, role, owner, demand[owner], cfg.kappa,
                                               rng, DealerOt(sid, owner)) for owner in owners))
    # Per owner: the MAC rows of its bits if I own them, else my key rows,
    # and the global key I hold on its bits, all zero if I hold none.
    abits = {owner: np.empty((0, kb + (role is owner)), np.uint8) for owner in demand}
    gks = dict.fromkeys(demand, np.zeros(kb, np.uint8))
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

    # Four sides, in this order on both parties: Alice's triples, Bob's,
    # the quads from Alice to Bob and from Bob to Alice. Each combines its
    # B*n_and leaky instances once they have passed their EQ check, under
    # the bucketing of the party whose bits the leak targets.
    sides, bkt = [], cfg.bucket
    if cfg.n_and:
        leaky = bkt * cfg.n_and
        for owner in (Role.ALICE, Role.BOB):
            xs, ys, rs = take(owner, leaky), take(owner, leaky), take(owner, leaky)
            if role is owner:
                sides.append(_then(ch, laand_mac_side(ch, xs, ys, rs, rng),
                                   aand_combine_mac, bkt, rng))
            else:
                sides.append(_then(ch, laand_key_side(ch, xs, ys, rs, gks[owner]),
                                   aand_combine_key, bkt, gks[owner]))
        for sender in (Role.ALICE, Role.BOB):
            # the sender's x0, x1, then the receiver's c, r
            sender_bits = take(sender, leaky), take(sender, leaky)
            receiver_bits = take(sender.other, leaky), take(sender.other, leaky)
            if role is sender:
                sides.append(_then(ch, laot_sender(ch, *sender_bits, *receiver_bits,
                                                   gks[sender.other], rng),
                                   aot_combine_sender, bkt))
            else:
                sides.append(_then(ch, laot_receiver(ch, *receiver_bits, *sender_bits,
                                                     gks[sender]),
                                   aot_combine_receiver, bkt, gks[sender], rng))
    aands, aots, sent, expect = {}, {}, [], []
    jobs = [(pool, owner) for pool in (aands, aots) for owner in (Role.ALICE, Role.BOB)]
    for (pool, owner), (combined, macs) in zip(jobs, run_sides(ch, role, *sides)):
        pool[owner] = combined
        (sent if role is owner else expect).append(macs)

    recs = cfg.records(role)
    inputs = take(role, recs["abits_mine"]), take(role.other, recs["abits_theirs"])
    my_delta = gks[role.other]
    # per AND gate, my records and my keys on the peer's same records: my
    # triple, my quad as sender, my quad as receiver and my fresh bit
    mine = theirs = None
    if cfg.n_and:
        mine = (aands[role].macs, aots[role].macs, aots[role.other].macs,
                take(role, cfg.n_and))
        theirs = (aands[role.other].keys, aots[role.other].keys, aots[role].keys,
                  take(role.other, cfg.n_and))
    ((triples, *flushes),) = run_sides(ch, role, _flush(sid, sent, expect, mine, theirs,
                                                       my_delta))
    tag = ro_hash("deal/tag", *(flushes if alice else flushes[::-1]))
    return MaterialStore(role, cfg.kappa, cfg.psi, sid, tag, my_delta,
                         Rows.of_macs(inputs[0][:, None]), Rows.of_keys(inputs[1][:, None]),
                         triples)


def _opened(t, s, q, r):
    """The three bits a party opens per AND gate, as (n, 3) rows: d = c_r ^ b,
    e = x0 ^ x1 ^ a and h = r ^ x0, from its triple t (a, b, c), its quad s
    (x0, x1) as sender, its quad q (c_r, z_r) as receiver and its fresh bit
    r. On MAC rows of its own records, or alike on the peer's key rows of
    them."""
    x0 = s[:, 0]
    return np.stack((q[:, 0] ^ t[:, 1], x0 ^ s[:, 1] ^ t[:, 0], r ^ x0), axis=1)


def _product_share(t, q, r, d, e):
    """w less its public h: c ^ r ^ d*a ^ z_r ^ e*c_r, from the records of
    `_opened` and the other party's opened d and e. On MAC rows or key rows
    alike."""
    return t[:, 2] ^ r ^ d[:, None] * t[:, 0] ^ q[:, 1] ^ e[:, None] * q[:, 0]


def _then(ch, side, combine, *args):
    """A protocol side: `side`, then `combine(ch, items, *args)` of its items."""
    items = yield from side
    return (yield from combine(ch, items, *args))


def _flush(sid: bytes, sent: list, expect: list, mine, theirs, delta: np.ndarray):
    """The deferred-MAC flush, the deal's last round, as one protocol side.
    Returns (the Beaver triples as Rows, my flush payload, the peer's), once
    the peer's has passed my check.

    Both MAC chains start from a digest of the session id sid; `sent` lists
    the MAC rows of the bits I revealed in combining and `expect` those I
    expect of the peer's, in side order. With AND gates the flush round
    carries, before the flush, the bits each party opens per gate (`_opened`
    of `mine`; `theirs` holds my keys on the peer's same records, delta the
    global key I hold), one BEAVER_OPEN frame, and each chain absorbs their
    MACs after the combiners' rows, in one call. They fold each gate's
    material into one authenticated Beaver triple u = a, v = b, w = c ^ r ^
    d'*a ^ z_r ^ e'*c_r ^ h', primes marking the peer's opened bits: the
    peer's share of a*b' is z_r' ^ e*c_r' ^ h and mine r ^ d'*a, so w_A ^ w_B
    = (u_A ^ u_B) * (v_A ^ v_B). The public h' moves my bit, and my key on
    the peer's w by h * delta."""
    start = MacAccumulator(ro_hash("deal/acc", sid))
    if mine is None:
        yield from flush_accumulators(start, start)
        return (), start.state, start.state
    opened, keys = _opened(*mine), _opened(*theirs)
    n, kb = keys.shape[0], delta.size
    sent = start.absorb(np.concatenate([*sent, opened[..., :kb].reshape(-1, kb)]))
    bits = opened[..., kb]
    got, flush = yield Swap(
        [(MsgType.BEAVER_OPEN, pack_bits(bits.ravel())), (MsgType.RT_ACC_FLUSH, sent.state)],
        [(MsgType.BEAVER_OPEN, (3 * n + 7) // 8), (MsgType.RT_ACC_FLUSH, DIGEST_BYTES)])
    peer = unpack_bits(got, 3 * n).reshape(n, 3)
    expect = [*expect, (keys ^ peer[..., None] * delta).reshape(-1, kb)]
    check_flush(flush, start.absorb(np.concatenate(expect)))
    (t, _, q, r), (kt, _, kq, kr) = mine, theirs
    w = _product_share(t, q, r, peer[:, 0], peer[:, 1])
    w[:, kb] ^= peer[:, 2]
    kw = _product_share(kt, kq, kr, bits[:, 0], bits[:, 1]) ^ bits[:, 2:] * delta
    triples = Rows(np.stack((t[:, 0], t[:, 1], w), axis=1),
                   np.stack((kt[:, 0], kt[:, 1], kw), axis=1))
    return triples, sent.state, flush


def _macs_hold(macs, keys, delta) -> bool:
    """Every MAC-side row's MAC equals its key row ^ bit*delta."""
    return np.array_equal(macs[..., :-1], keys ^ macs[..., -1:] * delta)


def verify_stores(store_a: MaterialStore, store_b: MaterialStore) -> int:
    """Full-scan cross check of two parties' stores; returns the number of
    relations verified (one per MAC, and one product per Beaver triple).
    Test and tooling aid: a deployment never holds both stores in one
    process."""
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
        for what, (macs, _), (_, keys) in (
                ("abit", mac_store.abits_mine, key_store.abits_theirs),
                ("triple", mac_store.triples, key_store.triples)):
            if len(macs) != len(keys):
                raise ProtocolAbort("material", f"{what} stream lengths disagree")
            need(_macs_hold(macs, keys, key_store.delta), f"{what} MAC", macs[..., 0].size)
    u, v, w = (store_a.triples[0][..., -1] ^ store_b.triples[0][..., -1]).T
    need(np.array_equal(w, u & v), "triple product", len(w))
    return checked
