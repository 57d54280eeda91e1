"""Shared test fixtures: a per-record reference view of authenticated bits,
an honest in-memory dealer, random circuits, a per-line Bristol reader, and
two-party run plumbing.

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

import contextlib
import hashlib
import random
import socket
from dataclasses import dataclass
from itertools import islice

import numpy as np

from macbits.abit_proto import Rows, labit_receiver
from macbits.base_ot import batch_bytes, extend_ot_receive
from macbits.bitlinalg import BitVec, random_rows
from macbits.circuit import (DEST_A, DEST_B, DEST_BOTH, GATE_KINDS, MAX_WIRES, Circuit,
                             CircuitHeader, Gate)
from macbits.dealer import DealerConfig, MaterialStore
from macbits.errors import ParseError
from macbits.ro_suite import ro_hash
from macbits.transport import (MsgType, Role, Swap, TcpChannel, memory_pair, run_pair,
                               run_sides)


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


@dataclass(frozen=True)
class BeaverShare:
    """One party's Beaver triple: its shares u, v, w, then its keys on the
    peer's shares, the store's "triples" record."""

    u: AuthBitMac
    v: AuthBitMac
    w: AuthBitMac
    ku: AuthBitKey
    kv: AuthBitKey
    kw: AuthBitKey


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

    def beaver(self) -> dict:
        """Both parties' BeaverShare of one triple, by role, born clean:
        w_A ^ w_B = (u_A ^ u_B) & (v_A ^ v_B)."""
        A, B = Role.ALICE, Role.BOB
        u, v = ({r: self.abit(r) for r in (A, B)} for _ in range(2))
        w = {A: self.abit(A)}
        product = (u[A][0].bit ^ u[B][0].bit) & (v[A][0].bit ^ v[B][0].bit)
        w[B] = self.abit_with(B, product ^ w[A][0].bit)
        return {r: BeaverShare(u[r][0], v[r][0], w[r][0], u[r.other][1], v[r.other][1],
                               w[r.other][1]) for r in (A, B)}

    def store_pair(self, cfg: DealerConfig):
        """Stores shaped exactly like deal() would produce for cfg, minus
        the bucketing and the conversion (Beaver triples are born clean)."""
        return self.stores(cfg.psi, cfg.records(Role.ALICE))

    def stores(self, psi: int, counts: dict):
        """Both parties' stores, Alice's holding counts[name] records of
        each stream; Bob's mirror hers (his abits_mine are her
        abits_theirs, and both hold the same number of triples)."""
        sid = bytes(self.rng.getrandbits(8) for _ in range(16))
        tag = ro_hash("deal/tag", sid)  # a deal's tag digests its flushes
        records = {r: {name: [] for name in MaterialStore.STREAMS}
                   for r in (Role.ALICE, Role.BOB)}

        for owner, n in ((Role.ALICE, counts["abits_mine"]),
                         (Role.BOB, counts["abits_theirs"])):
            for _ in range(n):
                m, k = self.abit(owner)
                records[owner]["abits_mine"].append(m)
                records[owner.other]["abits_theirs"].append(k)
        for _ in range(counts["triples"]):
            for r, share in self.beaver().items():
                records[r]["triples"].append(share)
        return tuple(MaterialStore(r, self.kappa, psi, sid, tag, self.delta[r.other],
                                   *(to_rows(records[r][name], self.kappa) if records[r][name]
                                     else () for name in MaterialStore.STREAMS))
                     for r in (Role.ALICE, Role.BOB))


def consumed(store: MaterialStore) -> dict:
    """The records taken so far from each of the store's streams."""
    return {name: len(getattr(store, name)[0]) - store.remaining(name)
            for name in MaterialStore.STREAMS}


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
    rows = []  # the gate table: kind, first input, second input, output
    wire = n_in
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        a = rng.randrange(wire)
        b = a if kind in ("INV", "EQW") else rng.randrange(wire)
        rows.append((GATE_KINDS.index(kind), a, b, wire))
        wire += 1
    if n_outputs is None:
        n_outputs = min(8, n_gates)
    header = CircuitHeader(n_gates=n_gates, n_wires=wire, inputs_a=inputs_a,
                           inputs_b=inputs_b, n_outputs=n_outputs,
                           output_dest=("both",) * n_outputs)
    return Circuit(header, rows)


def random_inputs(circuit: Circuit, rng: random.Random):
    return (BitVec.random(circuit.header.inputs_a, rng),
            BitVec.random(circuit.header.inputs_b, rng))


# ---------------------------------------------------------------------------
# the per-line Bristol reader: the differential reference for the array parser

_REF_ARITY = {"XOR": 2, "AND": 2, "INV": 1, "EQW": 1}


def reference_from_text(text: str):
    """(CircuitHeader, tuple of Gates) for ASCII Bristol text, read one line
    and one gate at a time and checked gate by gate against the set of wires
    made so far; raises ParseError where `Circuit.from_text` must."""
    if not text.isascii():
        raise ParseError("non-ASCII text")
    header, gates = _reference_parse(text)
    _reference_validate(header, gates)
    return header, gates


def _reference_parse(text: str):
    lines = text.splitlines()
    head = list(islice(((n, toks) for n, toks in enumerate(map(str.split, lines), 1)
                        if toks), 3))
    if not head:
        raise ParseError("empty circuit file")
    lineno, nums = head[0]
    try:
        vals = [int(t) for t in nums]
        if len(vals) != 2:
            raise ParseError(f"line {lineno}: expected 'n_gates n_wires'")
        if min(vals) < 0:
            raise ParseError(f"line {lineno}: negative count or width")
        n_gates, n_wires = vals
        if len(head) < 2:
            raise ParseError("missing input declaration line")
        lineno, nums = head[1]
        io_vals = [int(t) for t in nums]
        old_style = (len(io_vals) == 3 and len(head) > 2
                     and not head[2][1][-1].lstrip("-").isdigit())
        if not old_style:
            if not io_vals or len(io_vals) != io_vals[0] + 1:
                raise ParseError(f"line {lineno}: malformed input value list")
            if len(io_vals) not in (2, 3):
                raise ParseError(f"line {lineno}: expected one or two input values")
        if min(io_vals) < 0:
            raise ParseError(f"line {lineno}: negative count or width")
        if old_style:
            inputs_a, inputs_b, n_outputs = io_vals
        else:
            inputs_a, inputs_b = io_vals[1], (io_vals[2] if len(io_vals) == 3 else 0)
            if len(head) < 3:
                raise ParseError("missing output declaration line")
            lineno, nums = head[2]
            out_vals = [int(t) for t in nums]
            if not out_vals or len(out_vals) != out_vals[0] + 1:
                raise ParseError(f"line {lineno}: malformed output value list")
            if min(out_vals) < 0:
                raise ParseError(f"line {lineno}: negative count or width")
            n_outputs = sum(out_vals[1:])
        gates = []
        for lineno, line in enumerate(lines[lineno:], lineno + 1):  # after the header
            toks = line.split()
            if not toks:
                continue
            if len(toks) < 4:
                raise ParseError(f"line {lineno}: truncated gate")
            kind = toks[-1].upper()
            if kind == "EQ":
                kind = "EQW"
            if kind not in _REF_ARITY:
                raise ParseError(f"line {lineno}: unsupported gate {toks[-1]!r}")
            nums = toks[:-1]
            n_in, n_out, *wires = map(int, nums)
            if n_out != 1 or len(wires) != n_in + 1:
                raise ParseError(f"line {lineno}: bad gate wire counts")
            if n_in != _REF_ARITY[kind]:
                raise ParseError(f"line {lineno}: {kind} takes {_REF_ARITY[kind]} inputs")
            if len(gates) == n_gates:
                raise ParseError(f"line {lineno}: more gates than declared")
            gates.append(Gate(kind, tuple(wires[:-1]), wires[-1]))
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {nums!r}") from None
    if len(gates) != n_gates:
        raise ParseError(f"expected {n_gates} gates, file has {len(gates)}")
    header = CircuitHeader(n_gates, n_wires, inputs_a, inputs_b, n_outputs,
                           (DEST_BOTH,) * min(n_outputs, n_gates))
    return header, tuple(gates)


def _reference_validate(header: CircuitHeader, gates) -> None:
    n_in, n_wires = header.n_inputs, header.n_wires
    if n_in + header.n_outputs > n_wires:
        raise ParseError("wire count below inputs plus outputs")
    made = set()
    for g in gates:
        for w in g.ins:
            if not 0 <= w < n_wires:
                raise ParseError(f"input wire {w} out of range")
            if w >= n_in and w not in made:
                raise ParseError(f"wire {w} used before assignment")
        if not 0 <= g.out < n_wires:
            raise ParseError(f"output wire {g.out} out of range")
        if g.out < n_in or g.out in made:
            raise ParseError(f"wire {g.out} assigned twice")
        made.add(g.out)
    for w in range(n_wires - header.n_outputs, n_wires):  # stops at the first gap
        if w not in made:
            raise ParseError(f"output wire {w} never assigned")
    if n_wires != n_in + len(gates):
        raise ParseError(f"header claims {n_wires} wires, inputs and gates make "
                         f"{n_in + len(gates)}")
    if n_wires >= MAX_WIRES:
        raise ParseError(f"{n_wires} wires, the limit is {MAX_WIRES - 1}")


# ---------------------------------------------------------------------------
# two-party execution


def run_side(ch, role: Role, side):
    """Run one protocol side alone on ch; returns its result."""
    (result,) = run_sides(ch, role, side)
    return result


def rewrite_sends(side, fn):
    """`side` as a cheating peer runs it: every yield is forwarded, but each
    frame it sends goes out as fn(flight, msg_type, payload), where flight
    counts the side's yields from 0. Returns side's result."""
    reply, flight = None, 0
    while True:
        try:
            step = side.send(reply)
        except StopIteration as done:
            return done.value
        frames = [(t, fn(flight, t, p)) for t, p in step.frames]
        reply = yield Swap(frames, step.wants)
        flight += 1


def flip_bit(msg_type, i: int):
    """A `rewrite_sends` rewrite that flips packed bit i, instance i's bit of
    a d frame, in every msg_type frame and keeps the other frames."""
    def fn(flight, t, payload):
        if t is not msg_type:
            return payload
        out = bytearray(payload)
        out[i // 8] ^= 1 << i % 8
        return bytes(out)
    return fn


def gathering(n: int, n_bits: int):
    """A consume for `extend_ot_receive` or `labit_receiver` that joins the
    batches it is handed: (consume, the (n, ceil(n_bits/8)) array it fills)."""
    rows = np.empty((n, (n_bits + 7) // 8), np.uint8)

    def consume(b0, bits, cols):
        rows[:, batch_bytes(b0, bits)] = cols

    return consume, rows


def ot_receive_all(backend, choices, n_bits: int):
    """`extend_ot_receive`, returning every instance's whole n_bits-bit
    string as one (len(choices), ceil(n_bits/8)) array."""
    consume, rows = gathering(len(choices), n_bits)
    yield from extend_ot_receive(backend, choices, n_bits, consume)
    return rows


def labit_receive_all(tau: int, ell: int, kappa: int, rng, backend):
    """`labit_receiver`, returning (y_i, N_i): the surviving choice bits and
    their whole columns as one (tau, ceil(ell/8)) array."""
    consume, rows = gathering(tau, ell)
    ys = yield from labit_receiver(tau, ell, kappa, rng, backend, consume)
    return ys, rows


def ref_pad(tag: str, row: bytes, n_bits: int) -> bytes:
    """The reference `pad_rows` pad of one row: n_bits bits of SHAKE-128 of
    the 2-byte big-endian tag length, the tag and the row, packed in
    ceil(n_bits/8) bytes with the pad bits past n_bits zeroed."""
    t = tag.encode()
    out = int.from_bytes(hashlib.shake_128(len(t).to_bytes(2, "big") + t + bytes(row))
                         .digest((n_bits + 7) // 8), "little")
    return (out & ((1 << n_bits) - 1)).to_bytes((n_bits + 7) // 8, "little")


def ref_row_hash(tag: str, row: bytes, nbytes: int) -> bytes:
    """The reference `hash_rows` digest of one row: of the 2-byte big-endian
    tag length, the tag and the row, the nbytes-byte BLAKE2b digest up to 64
    bytes and nbytes bytes of SHAKE-128 past them."""
    t = tag.encode()
    data = len(t).to_bytes(2, "big") + t + bytes(row)
    if nbytes <= 64:
        return hashlib.blake2b(data, digest_size=nbytes).digest()
    return hashlib.shake_128(data).digest(nbytes)


def dealer_pads(session_id: bytes, sender, first: int, n: int, nb: int) -> list:
    """The reference `DealerOt` pads of one batch of n instances, as n pairs
    (branch 0, branch 1) of nb-byte strings: consecutive slices of one
    SHAKE-128 stream of the 2-byte big-endian length of the tag "prg", the
    tag, the session id, the sender's role byte, the batch's first instance
    index and nb (each 8 bytes, big-endian)."""
    key = (session_id + bytes([sender.value]) + first.to_bytes(8, "big")
           + nb.to_bytes(8, "big"))
    stream = hashlib.shake_128(b"\x00\x03prg" + key).digest(2 * n * nb)
    return [(stream[2 * k * nb : (2 * k + 1) * nb], stream[(2 * k + 1) * nb : (2 * k + 2) * nb])
            for k in range(n)]


@contextlib.contextmanager
def closing_pair(pair):
    """The channel pair, with both ends closed when the block ends."""
    try:
        yield pair
    finally:
        for ch in pair:
            ch.close()


def run_two(fn_a, fn_b, timeout: float = 60.0):
    """fn_a(Alice's channel) and fn_b(Bob's channel) run over a fresh
    in-process channel pair, which is closed once they end: run_pair's
    results."""
    with closing_pair(memory_pair(timeout=timeout)) as (ca, cb):
        return run_pair(lambda: fn_a(ca), lambda: fn_b(cb), timeout=timeout,
                        channels=(ca, cb))


class CountingChannel(TcpChannel):
    """A TcpChannel that logs every frame it sends as (MsgType, payload),
    in `sent`, and every frame it sends or reads as ("send" or "recv",
    MsgType), in order, in `log`. A logged payload is the object that was
    sent, not a copy."""

    def __init__(self, sock, timeout):
        super().__init__(sock, timeout)
        self.sent = []
        self.log = []

    def _send_frame(self, msg_type, payload):
        self.sent.append((msg_type, payload))
        self.log.append(("send", msg_type))
        super()._send_frame(msg_type, payload)

    def _recv_frame(self):
        msg = super()._recv_frame()
        self.log.append(("recv", msg.msg_type))
        return msg

    @property
    def flights(self) -> int:
        """The runs of sends in `log`, each begun by the first send or by a
        send after a read, as perfbench/link.py counts flights."""
        ops = [op for op, _ in self.log]
        return sum(op == "send" and (i == 0 or ops[i - 1] == "recv")
                   for i, op in enumerate(ops))


def counting_pair(timeout: float = 120.0):
    """memory_pair whose two endpoints log what they send."""
    s1, s2 = socket.socketpair()
    return CountingChannel(s1, timeout), CountingChannel(s2, timeout)


class FlipChannel(CountingChannel):
    """A CountingChannel that cheats once: it flips bit `bit` of the payload
    of its `frame`-th sent frame, counting frames from 0 and bits as packed
    bits are numbered; a negative bit counts back from the payload's last."""

    def __init__(self, sock, timeout, frame: int, bit: int):
        super().__init__(sock, timeout)
        self.frame, self.bit = frame, bit

    def _send_frame(self, msg_type, payload):
        if len(self.sent) == self.frame:
            i = self.bit % (8 * len(payload))
            payload = bytearray(payload)
            payload[i // 8] ^= 1 << i % 8
        super()._send_frame(msg_type, payload)


def flip_pair(cheater: Role, frame: int, bit: int, timeout: float = 60.0):
    """counting_pair whose cheater endpoint is a FlipChannel(frame, bit)."""
    return tuple(FlipChannel(sock, timeout, frame, bit) if role is cheater
                 else CountingChannel(sock, timeout)
                 for role, sock in zip(Role, socket.socketpair()))


# ---------------------------------------------------------------------------
# online cheaters


@dataclass(frozen=True)
class TamperPlan:
    """One online fault: at the cheater's site-th MAC-carrying reveal, flip
    the revealed bit ("bit") or its MAC ("mac")."""

    site: int
    mode: str  # "bit" or "mac"


def reveal_frame_bits(circuit: Circuit) -> list:
    """The bit count of each RT_REVEAL_BATCH frame a party sends, in order:
    per AND level of n gates each party sends one frame of 2n bits. A frame's
    bytes are padded, so its length alone does not tell."""
    return [2 * len(ands[0]) for ands, _ in circuit.row_schedule[1] if ands is not None]


def output_rows(circuit: Circuit, role: Role) -> int:
    """How many output wires `role` reveals to the peer: the packed bits that
    open the RT_OUTPUT frame it sends, before the kappa/8-byte digest of
    their MACs."""
    peer = DEST_B if role is Role.ALICE else DEST_A
    return sum(d in (peer, DEST_BOTH) for d in circuit.header.output_dest)


def count_reveal_sites(circuit: Circuit, role: Role) -> int:
    """How many MAC-carrying reveals `role` performs on this circuit: the bits
    of its RT_REVEAL_BATCH frames, then the output bits of its RT_OUTPUT
    frame."""
    return sum(reveal_frame_bits(circuit)) + output_rows(circuit, role)


class TamperChannel(CountingChannel):
    """An online endpoint that logs what it sends, like CountingChannel, and
    cheats by the TamperPlan `plan` (honest when it is None). Sites are
    numbered in the order the runtime reveals: the bits of its RT_REVEAL_BATCH
    frames, then the output bits of its RT_OUTPUT frame. "bit" flips the
    revealed bit. No reveal's own MAC crosses the wire: at AND site s "mac"
    flips bit s % 256 of the chain state in the RT_ACC_FLUSH frame, and at
    output site s bit s % kappa of the digest that follows the output bits
    in the RT_OUTPUT frame."""

    def __init__(self, sock, timeout, plan, circuit: Circuit, role: Role, kappa: int):
        super().__init__(sock, timeout)
        self.plan = plan
        self._frames = iter(reveal_frame_bits(circuit))
        self._rows = output_rows(circuit, role)
        self._kappa = kappa
        self._site = 0  # the first site of the next frame

    def _send_frame(self, msg_type, payload):
        at = None if self.plan is None else self._flip_at(msg_type)
        if at is not None:
            payload = bytearray(payload)
            payload[at // 8] ^= 1 << at % 8
        super()._send_frame(msg_type, payload)

    def _flip_at(self, msg_type):
        """The payload bit the plan flips in this frame, or None."""
        site, mac = self.plan.site - self._site, self.plan.mode == "mac"
        if msg_type is MsgType.RT_REVEAL_BATCH:
            n = next(self._frames)
            self._site += n
            return site if not mac and 0 <= site < n else None
        if msg_type is MsgType.RT_ACC_FLUSH:
            # past the 8-byte count, into the 32-byte chain state
            return 64 + self.plan.site % 256 if mac and site < 0 else None
        if msg_type is MsgType.RT_OUTPUT and 0 <= site < self._rows:
            return 8 * ((self._rows + 7) // 8) + site % self._kappa if mac else site
        return None


def tamper_pair(circuit: Circuit, kappa: int, plan_a=None, plan_b=None,
                timeout: float = 60.0):
    """Two logging online endpoints for circuit; each cheats by its plan."""
    s1, s2 = socket.socketpair()
    return (TamperChannel(s1, timeout, plan_a, circuit, Role.ALICE, kappa),
            TamperChannel(s2, timeout, plan_b, circuit, Role.BOB, kappa))


def eval_two(circuit: Circuit, store_a, store_b, xa: BitVec, xb: BitVec,
             timeout: float = 60.0, tamper_a=None, tamper_b=None):
    """Evaluate circuit with both runtimes, Alice cheating by the TamperPlan
    tamper_a and Bob by tamper_b when given; returns (out_a, out_b, rt_a, rt_b)."""
    from macbits.runtime_2pc import Runtime

    if tamper_a is None and tamper_b is None:
        pair = memory_pair(timeout=timeout)
    else:
        pair = tamper_pair(circuit, store_a.kappa, tamper_a, tamper_b, timeout)
    with closing_pair(pair) as (ca, cb):
        rt_a = Runtime(ca, Role.ALICE, store_a)
        rt_b = Runtime(cb, Role.BOB, store_b)
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
                          ell: int = 4, kappa: int = 16, batch: int = 0) -> int:
    """Sender uses a wrong offset in OT i for i < m (distinct offsets, so
    colliding pairs cannot cancel) in one batch of the extension, the first
    unless told otherwise; survive means the pairing check passed."""
    from macbits.abit_proto import labit_sender
    from macbits.base_ot import DealerOt
    from macbits.errors import ProtocolAbort

    ca, cb = memory_pair(timeout=120.0)

    def tamper(flight, msg_type, payload):
        # offset k + 1 (< 2**ell) on OT k's branch 1; flight 0 holds the
        # seed OTs' own OT_MASKED1, flight 1 + b batch b's correction frame
        if (flight, msg_type) != (1 + batch, MsgType.OT_MASKED1):
            return payload
        m1 = np.frombuffer(payload, np.uint8).reshape(2 * tau, -1).copy()
        m1[:m, 0] ^= np.arange(1, m + 1, dtype=np.uint8)
        return m1.tobytes()

    # the session id takes the sender rng's first draw, so the trials draw
    # what they drew when a dealer seed took it
    rng = random.Random(seed)
    sid = rng.getrandbits(128).to_bytes(16, "little")

    def sender():
        backend = DealerOt(sid, Role.ALICE)
        wins = 0
        for _ in range(trials):
            try:
                run_side(ca, Role.ALICE,
                         rewrite_sends(labit_sender(tau, ell, kappa, rng, backend), tamper))
                wins += 1
            except ProtocolAbort:
                pass
        return wins

    def receiver():
        rng_b = random.Random(seed + 1)
        backend = DealerOt(sid, Role.ALICE)
        for _ in range(trials):
            try:
                run_side(cb, Role.BOB, labit_receive_all(tau, ell, kappa, rng_b, backend))
            except ProtocolAbort:
                pass

    with closing_pair((ca, cb)):
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

        def garble(flight, msg_type, payload):
            # flip a MAC bit (payload bit 1) in the masked branch-1 blob
            if msg_type is not MsgType.LAOT_X1:
                return payload
            return bytes([payload[0] ^ 2]) + payload[1:]

        rng_a = random.Random(seed * 7 + t)
        with closing_pair(memory_pair(timeout=30.0)) as (ca, cb):
            try:
                run_pair(
                    lambda: run_side(ca, Role.ALICE, rewrite_sends(laot_sender(
                        ca, *(bit_rows([h], kappa) for h in vars(qs).values()),
                        delta_b, rng_a), garble)),
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

    def tamper(flight, msg_type, payload):
        if msg_type is not MsgType.LAAND_U:
            return payload
        return bytes([payload[0] ^ 0x5A]) + payload[1:]

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
                run_side(cb, Role.BOB, rewrite_sends(
                    laand_key_side(cb, *(bit_rows([h], kappa) for h in (kx, ky, kr)), delta),
                    tamper))
            except ProtocolAbort:
                pass

    with closing_pair((ca, cb)):
        outcomes, _ = run_pair(mac_side, key_side, timeout=600)
    return outcomes
