"""Shared test fixtures: a per-record reference view of authenticated bits,
an honest in-memory dealer, random circuits, and two-party run plumbing.

The engine keeps authenticated bits as uint8 rows (`macbits.abit_proto.Rows`).
The record types below are the tests' reference: one frozen object per bit,
per triple and per quad, with the per-record folds the combiners must agree
with. `to_rows` and `from_rows` convert between the two.

The oracle dealer manufactures correlated MaterialStore pairs directly from
a test RNG, skipping the offline protocol entirely. That keeps online-phase
tests fast and makes the material independently trustworthy: every record is
built straight from the defining MAC relation M = K xor bit*Delta, then
packed into the store's row layout.
"""

from __future__ import annotations

import queue
import random
import socket
from dataclasses import dataclass

import numpy as np

from macbits.abit_proto import Rows
from macbits.bitlinalg import BitVec, random_rows
from macbits.circuit import Circuit, CircuitHeader, Gate
from macbits.dealer import DealerConfig, MaterialStore
from macbits.ro_suite import expand, ro_hash
from macbits.transport import MemoryChannel, Role, memory_pair, run_pair, run_sides


# ---------------------------------------------------------------------------
# record reference view


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

    def xor_const(self, b: int, delta: np.ndarray) -> "AuthBitKey":
        return AuthBitKey(self.key ^ delta_vec(delta).times(b))


def delta_vec(delta: np.ndarray) -> BitVec:
    """A global key, a (kappa/8,) uint8 row, as a BitVec of the record view."""
    return BitVec.from_bytes(8 * len(delta), delta.tobytes())


def const_mac(b: int, kappa: int) -> AuthBitMac:
    return AuthBitMac(b & 1, BitVec.zeros(kappa))


def const_key(b: int, delta: np.ndarray) -> AuthBitKey:
    return AuthBitKey(delta_vec(delta).times(b))


def verify_abit(mac_half: AuthBitMac, key_half: AuthBitKey, delta: np.ndarray) -> bool:
    return mac_half.mac == key_half.key ^ delta_vec(delta).times(mac_half.bit)


# A record lists its MAC halves first, then its key halves, as a Rows does.
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


def _halves(record):
    return (record,) if isinstance(record, (AuthBitMac, AuthBitKey)) else vars(record).values()


def to_rows(records, kappa: int) -> Rows:
    """Records (bit halves, triples or quads) in the engine's row layout."""
    kb, n = kappa // 8, len(records)
    halves = [h for r in records for h in _halves(r)]
    macs = b"".join(h.mac.to_bytes() + bytes((h.bit,)) for h in halves
                    if isinstance(h, AuthBitMac))
    keys = b"".join(h.key.to_bytes() for h in halves if isinstance(h, AuthBitKey))

    def shaped(raw, w):
        return np.frombuffer(raw, np.uint8).reshape(n, len(raw) // (n * w) if n else 0, w)

    return Rows(shaped(macs, kb + 1), shaped(keys, kb))


def bit_rows(halves, kappa: int) -> np.ndarray:
    """AuthBitMac or AuthBitKey halves as 2-D MAC rows or key rows."""
    rows = to_rows(halves, kappa)
    return (rows.macs if isinstance(halves[0], AuthBitMac) else rows.keys)[:, 0]


def mac_half(row) -> AuthBitMac:
    return AuthBitMac(int(row[-1]), BitVec.from_bytes(8 * (len(row) - 1), row[:-1].tobytes()))


def key_half(row) -> AuthBitKey:
    return AuthBitKey(BitVec.from_bytes(8 * len(row), row.tobytes()))


def from_rows(rows: Rows, cls) -> list:
    """Rows back as records of type cls (a triple or quad type)."""
    return [cls(*map(mac_half, m), *map(key_half, k)) for m, k in zip(*rows)]


# Per-record folds: the combiners' reference. d is the bucket round's
# revealed bit, x0+x1+x0'+x1' for quads and y+y' for triples.


def fold_sender(acc: QuadSender, nxt: QuadSender, d: int) -> QuadSender:
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


def fold_triple_mac(acc: TripleMac, nxt: TripleMac, d: int) -> TripleMac:
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


def reference_combine(pairs, perm, bucket: int, folds, reveal):
    """Bucket (mac-side record, key-side record) pairs by perm and fold each
    bucket left to right with folds = (mac-side fold, key-side fold); the
    round's opened MAC is reveal(acc, nxt) on the MAC-side records. Returns
    (combined pairs, the opened MACs as one packed array per round)."""
    shuffled = [pairs[p] for p in perm]
    cur = shuffled[::bucket]
    rounds = []
    for r in range(1, bucket):
        opened = [reveal(a[0], b[0]) for a, b in zip(cur, shuffled[r::bucket])]
        rounds.append(bit_rows(opened, len(opened[0].mac))[:, :-1])
        cur = [(folds[0](a[0], b[0], o.bit), folds[1](a[1], b[1], o.bit))
               for a, b, o in zip(cur, shuffled[r::bucket], opened)]
    return cur, rounds


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


# ---------------------------------------------------------------------------
# honest dealer oracle


class OracleDealer:
    """Builds both parties' material without running any protocol."""

    def __init__(self, kappa: int, rng: random.Random):
        self.kappa = kappa
        self.rng = rng
        # delta[P], a (kappa/8,) row, authenticates P's bits and is held by
        # P's peer
        self.delta = {r: random_rows(1, kappa, rng)[0] for r in (Role.ALICE, Role.BOB)}

    def abit(self, owner: Role):
        """One authenticated bit: (mac half for owner, key half for peer)."""
        bit = self.rng.getrandbits(1)
        key = BitVec.random(self.kappa, self.rng)
        mac = key ^ delta_vec(self.delta[owner]).times(bit)
        return AuthBitMac(bit, mac), AuthBitKey(key)

    def abit_with(self, owner: Role, bit: int):
        key = BitVec.random(self.kappa, self.rng)
        mac = key ^ delta_vec(self.delta[owner]).times(bit)
        return AuthBitMac(bit, mac), AuthBitKey(key)

    def triple(self, owner: Role):
        x, kx = self.abit(owner)
        y, ky = self.abit(owner)
        zbit = x.bit & y.bit
        z, kz = self.abit_with(owner, zbit)
        return TripleMac(x, y, z), TripleKey(kx, ky, kz)

    def quad(self, sender: Role):
        x0, kx0 = self.abit(sender)
        x1, kx1 = self.abit(sender)
        receiver = sender.other
        c, kc = self.abit(receiver)
        zbit = x0.bit ^ (c.bit & (x0.bit ^ x1.bit))
        z, kz = self.abit_with(receiver, zbit)
        return (QuadSender(x0, x1, kc, kz),
                QuadReceiver(c, z, kx0, kx1))

    def store_pair(self, cfg: DealerConfig):
        """Stores shaped exactly like deal() would produce for cfg, minus
        the bucketing (records are born clean)."""
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        commits = {}
        for r in (Role.ALICE, Role.BOB):
            commits[r] = ro_hash("gkc", sid, bytes([r.value]), self.delta[r.other])
        joint = ro_hash("gkc/joint", commits[Role.ALICE], commits[Role.BOB])
        records = {r: {name: [] for name in MaterialStore.STREAMS}
                   for r in (Role.ALICE, Role.BOB)}

        for owner, n in ((Role.ALICE, cfg.n_abits_A), (Role.BOB, cfg.n_abits_B)):
            for _ in range(n):
                m, k = self.abit(owner)
                records[owner]["abits_mine"].append(m)
                records[owner.other]["abits_theirs"].append(k)
        for owner, n in ((Role.ALICE, cfg.n_aands_A), (Role.BOB, cfg.n_aands_B)):
            for _ in range(n):
                tm, tk = self.triple(owner)
                records[owner]["aands_mine"].append(tm)
                records[owner.other]["aands_theirs"].append(tk)
        for sender, n in ((Role.ALICE, cfg.n_aots_AB), (Role.BOB, cfg.n_aots_BA)):
            for _ in range(n):
                qs, qr = self.quad(sender)
                records[sender]["aots_sender"].append(qs)
                records[sender.other]["aots_receiver"].append(qr)
        return tuple(MaterialStore(r, self.kappa, cfg.psi, sid, joint, self.delta[r.other],
                                   *(to_rows(records[r][name], self.kappa) if records[r][name]
                                     else () for name in MaterialStore.STREAMS))
                     for r in (Role.ALICE, Role.BOB))


def oracle_store_pair(circuit: Circuit, rng: random.Random, kappa: int = 16,
                      psi: int = 8, slack: int = 0):
    """Material sized for one evaluation of circuit (plus slack AND gates)."""
    cfg = DealerConfig.for_gates(circuit.n_and + slack,
                                 circuit.header.inputs_a + slack,
                                 circuit.header.inputs_b + slack,
                                 kappa=kappa, psi=psi)
    return OracleDealer(kappa, rng).store_pair(cfg)


# ---------------------------------------------------------------------------
# random circuits


def random_circuit(rng: random.Random, n_gates: int, inputs_a: int = 4,
                   inputs_b: int = 4, n_outputs: int = None,
                   kinds=("XOR", "AND", "INV", "EQW")) -> Circuit:
    """A valid random circuit; every gate reads wires defined before it."""
    n_in = inputs_a + inputs_b
    gates = []
    wire = n_in
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind in ("INV", "EQW"):
            ins = (rng.randrange(wire),)
        else:
            ins = (rng.randrange(wire), rng.randrange(wire))
        gates.append(Gate(kind, ins, wire))
        wire += 1
    if n_outputs is None:
        n_outputs = min(8, n_gates)
    header = CircuitHeader(n_gates=n_gates, n_wires=wire, inputs_a=inputs_a,
                           inputs_b=inputs_b, n_outputs=n_outputs,
                           output_dest=("both",) * n_outputs)
    return Circuit(header, gates)


def random_inputs(circuit: Circuit, rng: random.Random):
    return (BitVec.random(circuit.header.inputs_a, rng),
            BitVec.random(circuit.header.inputs_b, rng))


# ---------------------------------------------------------------------------
# two-party execution


def run_side(ch, role: Role, side):
    """Run one protocol side alone on ch; returns its result."""
    (result,) = run_sides(ch, role, side)
    return result


def seeded(backend, mint: bool, side):
    """One protocol side: the backend's dealer seed setup, as `dealer.deal`
    runs it first (the minting endpoint sends the seed, the other receives
    it), then `side`; returns side's result."""
    yield from backend.setup(mint)
    return (yield from side)


def dealer_pad(seed: bytes, sender_minted: bool, index: int, branch: int, nb: int) -> bytes:
    """The reference `DealerOt` pad of one instance and branch: nb bytes of
    expand(ro_hash("ot-dealer", seed || direction || index || branch))."""
    key = seed + bytes([sender_minted]) + index.to_bytes(8, "big") + bytes([branch])
    return expand(ro_hash("ot-dealer", key), 8 * nb)


def run_two(fn_a, fn_b, timeout: float = 60.0):
    """Run the two closures over a fresh in-memory channel pair."""
    ca, cb = memory_pair(timeout=timeout)
    return run_pair(lambda: fn_a(ca), lambda: fn_b(cb), timeout=timeout)


class CountingChannel(MemoryChannel):
    """A MemoryChannel that logs every frame it sends as (MsgType, payload)."""

    def __init__(self, inbox, outbox, timeout):
        super().__init__(inbox, outbox, timeout)
        self.sent = []

    def _send_frame(self, msg_type, payload):
        self.sent.append((msg_type, payload))
        super()._send_frame(msg_type, payload)


def counting_pair(timeout: float = 120.0):
    """memory_pair whose two endpoints log what they send."""
    ab, ba = queue.Queue(), queue.Queue()
    return CountingChannel(ba, ab, timeout), CountingChannel(ab, ba, timeout)


def eval_two(circuit: Circuit, store_a, store_b, xa: BitVec, xb: BitVec,
             timeout: float = 60.0, tamper_a=None, tamper_b=None):
    """Evaluate circuit with both runtimes; returns (out_a, out_b, rt_a, rt_b)."""
    from macbits.runtime_2pc import Runtime

    ca, cb = memory_pair(timeout=timeout)
    rt_a = Runtime(ca, Role.ALICE, store_a, tamper=tamper_a)
    rt_b = Runtime(cb, Role.BOB, store_b, tamper=tamper_b)
    out_a, out_b = run_pair(lambda: rt_a.evaluate(circuit, xa),
                            lambda: rt_b.evaluate(circuit, xb),
                            timeout=timeout, channels=(ca, cb))
    return out_a, out_b, rt_a, rt_b


def reconstruct_pair(a, b) -> int:
    """Combine the two parties' MAC-side rows (MAC bytes, then the bit) of one
    wire into its value."""
    return int(a[-1] ^ b[-1])


# ---------------------------------------------------------------------------
# adversary games

# These loop many protocol rounds over one channel pair; every abort in the
# games below surfaces at the trailing EQ, after all other traffic, so the
# channel stays in lockstep between rounds.


def labit_cheat_survivals(m: int, trials: int, seed: int, tau: int = 4,
                          ell: int = 4, kappa: int = 16) -> int:
    """Sender uses a wrong offset in OT i for i < m (distinct offsets, so
    colliding pairs cannot cancel); survive means the pairing check passed."""
    from macbits.abit_proto import labit_receiver, labit_sender
    from macbits.base_ot import DealerOt
    from macbits.errors import ProtocolAbort

    ca, cb = memory_pair(timeout=120.0)

    def tamper(keys, m1):
        # offset k + 1 (< 2**ell) on OT k's branch 1
        m1[:m, 0] ^= np.arange(1, m + 1, dtype=np.uint8)
        return m1

    def sender():
        rng = random.Random(seed)
        backend = DealerOt(rng)
        run_side(ca, Role.ALICE, backend.setup(mint=True))
        wins = 0
        for _ in range(trials):
            try:
                run_side(ca, Role.ALICE,
                         labit_sender(tau, ell, kappa, rng, backend, offer_tamper=tamper))
                wins += 1
            except ProtocolAbort:
                pass
        return wins

    def receiver():
        rng = random.Random(seed + 1)
        backend = DealerOt()
        run_side(cb, Role.BOB, backend.setup(mint=False))
        for _ in range(trials):
            try:
                run_side(cb, Role.BOB, labit_receiver(tau, ell, kappa, rng, backend))
            except ProtocolAbort:
                pass

    wins, _ = run_pair(sender, receiver, timeout=600)
    return wins


def laot_probe_outcomes(trials: int, seed: int, kappa: int = 16):
    """Sender garbles the MAC field of branch 1 in a single-quad batch.
    Returns a list of (receiver_choice_bit, aborted) per trial."""
    from macbits.aot_proto import laot_receiver, laot_sender
    from macbits.errors import ProtocolAbort

    rng = random.Random(seed)
    dealer = OracleDealer(kappa, rng)
    outcomes = []
    for t in range(trials):
        qs, qr = dealer.quad(Role.ALICE)
        delta_b = dealer.delta[Role.BOB]
        delta_a = dealer.delta[Role.ALICE]

        def garble(i, b0, b1):
            # flip a MAC bit (payload bit 1) in the masked branch-1 blob
            return b0, bytes([b1[0] ^ 2]) + b1[1:]

        ca, cb = memory_pair(timeout=30.0)
        rng_a = random.Random(seed * 7 + t)
        try:
            run_pair(
                lambda: run_side(ca, Role.ALICE, laot_sender(
                    ca, *(bit_rows([h], kappa) for h in vars(qs).values()),
                    delta_b, rng_a, payload_tamper=garble)),
                lambda: run_side(cb, Role.BOB, laot_receiver(
                    cb, *(bit_rows([h], kappa) for h in vars(qr).values()), delta_a)),
                timeout=30, channels=(ca, cb))
            outcomes.append((qr.c.bit, False))
        except ProtocolAbort:
            outcomes.append((qr.c.bit, True))
    return outcomes


def laand_u_tamper_outcomes(trials: int, seed: int, kappa: int = 16):
    """Key side offsets its challenge U by a nonzero E on a single-triple
    batch. Returns a list of (mac_side_x_bit, aborted) per trial."""
    from macbits.aand_proto import laand_key_side, laand_mac_side
    from macbits.errors import ProtocolAbort

    rng = random.Random(seed)
    dealer = OracleDealer(kappa, rng)
    ca, cb = memory_pair(timeout=120.0)
    delta = dealer.delta[Role.ALICE]

    batches = []
    for _ in range(trials):
        x, kx = dealer.abit(Role.ALICE)
        y, ky = dealer.abit(Role.ALICE)
        r, kr = dealer.abit(Role.ALICE)
        batches.append(((x, y, r), (kx, ky, kr)))

    def tamper(i, u):
        return bytes([u[0] ^ 0x5A]) + u[1:]

    def mac_side():
        rng_a = random.Random(seed + 1)
        outcomes = []
        for (x, y, r), _ in batches:
            try:
                run_side(ca, Role.ALICE,
                         laand_mac_side(ca, *(bit_rows([h], kappa) for h in (x, y, r)), rng_a))
                outcomes.append((x.bit, False))
            except ProtocolAbort:
                outcomes.append((x.bit, True))
        return outcomes

    def key_side():
        for _, (kx, ky, kr) in batches:
            try:
                run_side(cb, Role.BOB,
                         laand_key_side(cb, *(bit_rows([h], kappa) for h in (kx, ky, kr)),
                                        delta, u_tamper=tamper))
            except ProtocolAbort:
                pass

    outcomes, _ = run_pair(mac_side, key_side, timeout=600)
    return outcomes
