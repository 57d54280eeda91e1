"""Online two-party circuit evaluation over preprocessed material.

Wire values are additively shared; each party's share bit is authenticated
toward the peer (MAC under the peer's global key). XOR and constants are
local. The circuit's AND-level schedule (`Circuit.levels`) drives the
evaluation: each level's AND gates run as one batch, then that level's free
gates. An AND gate burns two triples, two OT quads, and two fresh bits and
announces ten bits across the three rounds of its level:

  round 1 (B -> A): d for the A-sender cross term, plus B's local f,g
  round 2 (A -> B): d for the B-sender cross term, A's local f,g, and
                    A's cross f,g (which need round 1's d)
  round 3 (B -> A): B's cross f,g

Every announced bit's MAC is deferred into running accumulators, one absorb
per reveal round on each side; the chains are compared once before any
output is revealed, and output MACs themselves are checked immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abit_proto import AuthBitKey, AuthBitMac, const_key, const_mac
from .bitlinalg import BitReader, BitVec, BitWriter
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit
from .dealer import MaterialStore
from .errors import ProtocolAbort, UsageError
from .ro_suite import MacAccumulator, flush_accumulators
from .transport import Channel, MsgType, Role, perform_hello


@dataclass(frozen=True)
class AuthShare:
    """One party's view of a shared wire: own bit half plus the key on the
    peer's half."""

    my_half: AuthBitMac
    peer_key: AuthBitKey

    def __xor__(self, other: "AuthShare") -> "AuthShare":
        return AuthShare(self.my_half ^ other.my_half,
                         self.peer_key ^ other.peer_key)


@dataclass(frozen=True)
class TamperPlan:
    """Fault injection for soundness tests: at this party's site-th
    MAC-carrying reveal, flip the announced bit (keeping the MAC honest) or
    corrupt the MAC (keeping the bit)."""

    site: int
    mode: str  # "bit" or "mac"


@dataclass
class RuntimeStats:
    and_gates: int = 0
    levels: list = field(default_factory=list)
    bits_revealed: int = 0
    bits_expected: int = 0
    input_bits_sent: int = 0
    input_bits_received: int = 0
    output_reveals_sent: int = 0
    output_reveals_received: int = 0
    flushes: int = 0


def _dest_tag(role: Role) -> str:
    return DEST_A if role is Role.ALICE else DEST_B


def _times_mac(a: AuthBitMac, s: int, kappa: int) -> AuthBitMac:
    return a if s & 1 else AuthBitMac(0, BitVec.zeros(kappa))


def _times_key(k: AuthBitKey, s: int, kappa: int) -> AuthBitKey:
    return k if s & 1 else AuthBitKey(BitVec.zeros(kappa))


def count_reveal_sites(circuit: Circuit, role: Role) -> int:
    """How many MAC-carrying reveals `role` performs on this circuit: five
    per AND gate plus one per output wire it reveals to the peer."""
    peer = _dest_tag(role.other)
    outs = sum(1 for d in circuit.header.output_dest if d in (peer, DEST_BOTH))
    return 5 * circuit.n_and + outs


class Runtime:
    """One party's online evaluator bound to a channel and a material store."""

    def __init__(self, ch: Channel, role: Role, store: MaterialStore, *,
                 tamper: TamperPlan = None):
        if store.role is not role:
            raise UsageError("material store was dealt for the other role")
        self.ch = ch
        self.role = role
        self.store = store
        self.kappa = store.kappa
        self.delta = store.delta  # global key I hold on the peer's bits
        self.tamper = tamper
        self.stats = RuntimeStats()
        self._sent = MacAccumulator()
        self._expect = MacAccumulator()
        self._site = 0
        self._hello_done = False

    # -- session ------------------------------------------------------------

    def handshake(self) -> None:
        _, peer_commit = perform_hello(
            self.ch, self.role, self.kappa, self.store.psi,
            session_id=self.store.session_id, extra=self.store.gk_commit)
        if peer_commit != self.store.gk_commit:
            raise ProtocolAbort("hello", "material commitment mismatch")
        self._hello_done = True

    # -- reveal plumbing ------------------------------------------------------

    def _maybe_tamper(self, bit: int, mac: BitVec):
        if self.tamper is not None and self._site == self.tamper.site:
            if self.tamper.mode == "bit":
                bit ^= 1
            else:
                mac = mac ^ BitVec(mac.n, 1)
        self._site += 1
        return bit, mac

    def _send_round(self, opened) -> list:
        """Announce one round of (bit, mac) reveals in one frame and absorb
        their MACs in one call; returns the bits as sent."""
        bits, macs = [], []
        for bit, mac in opened:
            bit, mac = self._maybe_tamper(bit, mac)
            bits.append(bit)
            macs.append(mac)
        self.ch.send(MsgType.RT_REVEAL_BATCH, BitVec.from_bits(bits).to_bytes())
        self._sent = self._sent.absorb(*macs)
        self.stats.bits_revealed += len(bits)
        return bits

    def _recv_round(self, keys) -> list:
        """Read the peer's round, one bit per key on it, and absorb the MACs
        those bits must carry (key ^ delta*bit) in one call."""
        n = len(keys)
        payload = self.ch.recv(MsgType.RT_REVEAL_BATCH, (n + 7) // 8)
        bits = BitVec.from_bytes(n, payload).bits()
        delta = self.delta.delta
        self._expect = self._expect.absorb(*(k ^ delta.times(b) for k, b in zip(keys, bits)))
        self.stats.bits_expected += n
        return bits

    def flush(self) -> None:
        flush_accumulators(self.ch, self.role, self._sent, self._expect)
        self._sent = MacAccumulator()
        self._expect = MacAccumulator()
        self.stats.flushes += 1

    # -- local gates ----------------------------------------------------------

    def xor_const(self, a: AuthShare, c: int) -> AuthShare:
        # by convention Alice's share absorbs public constants
        if not c & 1:
            return a
        if self.role is Role.ALICE:
            return AuthShare(a.my_half.xor_const(1), a.peer_key)
        return AuthShare(a.my_half, a.peer_key.xor_const(1, self.delta))

    # -- batched AND level ----------------------------------------------------

    def _and_batch(self, pairs) -> list:
        """Evaluate AND on a batch of share pairs (one AND level)."""
        n = len(pairs)
        st = self.store
        me, peer = self.role, self.role.other
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        tm = [st.take_aand(me) for _ in range(n)]
        tk = [st.take_aand(peer) for _ in range(n)]
        qs = [st.take_aot(me) for _ in range(n)]
        qr = [st.take_aot(peer) for _ in range(n)]
        rm = [st.take_abit(me) for _ in range(n)]
        rk = [st.take_abit(peer) for _ in range(n)]
        self.stats.and_gates += n
        self.stats.levels.append(n)

        # my reveals, as (bit, mac)
        def rv_d(i):
            return (qr[i].c.bit ^ ys[i].my_half.bit,
                    qr[i].c.mac ^ ys[i].my_half.mac)

        def rv_floc(i):
            return (tm[i].x.bit ^ xs[i].my_half.bit,
                    tm[i].x.mac ^ xs[i].my_half.mac)

        def rv_gloc(i):
            return (tm[i].y.bit ^ ys[i].my_half.bit,
                    tm[i].y.mac ^ ys[i].my_half.mac)

        def rv_fx(i):
            return (qs[i].x0.bit ^ qs[i].x1.bit ^ xs[i].my_half.bit,
                    qs[i].x0.mac ^ qs[i].x1.mac ^ xs[i].my_half.mac)

        def rv_gx(i, d):
            return (rm[i].bit ^ qs[i].x0.bit ^ (d & xs[i].my_half.bit),
                    rm[i].mac ^ qs[i].x0.mac ^ xs[i].my_half.mac.times(d))

        # peer reveals I verify, as my key on the announced bit
        def ky_d(i):
            return qs[i].kc.key ^ ys[i].peer_key.key

        def ky_floc(i):
            return tk[i].kx.key ^ xs[i].peer_key.key

        def ky_gloc(i):
            return tk[i].ky.key ^ ys[i].peer_key.key

        def ky_fx(i):
            return qr[i].kx0.key ^ qr[i].kx1.key ^ xs[i].peer_key.key

        def ky_gx(i, d):
            return rk[i].key ^ qr[i].kx0.key ^ xs[i].peer_key.key.times(d)

        if self.role is Role.BOB:
            bits = self._send_round(r for i in range(n)
                                    for r in (rv_d(i), rv_floc(i), rv_gloc(i)))
            d_sent, my_floc, my_gloc = bits[0::3], bits[1::3], bits[2::3]
            r2 = self._recv_round([k for i in range(n) for k in (
                ky_d(i), ky_floc(i), ky_gloc(i), ky_fx(i), ky_gx(i, d_sent[i]))])
            d_recv, peer_floc, peer_gloc, peer_fx, peer_gx = (r2[j::5] for j in range(5))
            bits = self._send_round(r for i in range(n)
                                    for r in (rv_fx(i), rv_gx(i, d_recv[i])))
            my_fx, my_gx = bits[0::2], bits[1::2]
        else:
            r1 = self._recv_round([k for i in range(n)
                                   for k in (ky_d(i), ky_floc(i), ky_gloc(i))])
            d_recv, peer_floc, peer_gloc = r1[0::3], r1[1::3], r1[2::3]
            bits = self._send_round(r for i in range(n) for r in (
                rv_d(i), rv_floc(i), rv_gloc(i), rv_fx(i), rv_gx(i, d_recv[i])))
            d_sent, my_floc, my_gloc, my_fx, my_gx = (bits[j::5] for j in range(5))
            r3 = self._recv_round([k for i in range(n)
                                   for k in (ky_fx(i), ky_gx(i, d_sent[i]))])
            peer_fx, peer_gx = r3[0::2], r3[1::2]

        out = []
        kappa = self.kappa
        for i in range(n):
            f, g = my_floc[i], my_gloc[i]
            lp_mac = (_times_mac(ys[i].my_half, f, kappa)
                      ^ _times_mac(xs[i].my_half, g, kappa)
                      ^ tm[i].z).xor_const(f & g)
            pf, pg = peer_floc[i], peer_gloc[i]
            lp_key = (_times_key(ys[i].peer_key, pf, kappa)
                      ^ _times_key(xs[i].peer_key, pg, kappa)
                      ^ tk[i].kz).xor_const(pf & pg, self.delta)
            s_mac = (qr[i].z ^ _times_mac(qr[i].c, peer_fx[i], kappa)
                     ).xor_const(peer_gx[i])
            s_key = (qs[i].kz ^ _times_key(qs[i].kc, my_fx[i], kappa)
                     ).xor_const(my_gx[i], self.delta)
            out.append(AuthShare(lp_mac ^ rm[i] ^ s_mac,
                                 lp_key ^ rk[i] ^ s_key))
        return out

    # -- circuit driver -------------------------------------------------------

    def _input_phase(self, wires, circuit, my_inputs: BitVec) -> None:
        h = circuit.header
        layout = ((Role.ALICE, 0, h.inputs_a),
                  (Role.BOB, h.inputs_a, h.inputs_b))
        for owner, base, count in layout:
            if count == 0:
                continue
            if owner is self.role:
                abits = [self.store.take_abit(owner) for _ in range(count)]
                ms = [my_inputs[i] ^ abits[i].bit for i in range(count)]
                self.ch.send(MsgType.RT_ANNOUNCE_BATCH,
                             BitVec.from_bits(ms).to_bytes())
                self.stats.input_bits_sent += count
                for i in range(count):
                    wires[base + i] = AuthShare(abits[i],
                                                const_key(ms[i], self.delta))
            else:
                keys = [self.store.take_abit(owner) for _ in range(count)]
                payload = self.ch.recv(MsgType.RT_ANNOUNCE_BATCH, (count + 7) // 8)
                ms = BitVec.from_bytes(count, payload)
                self.stats.input_bits_received += count
                for i in range(count):
                    wires[base + i] = AuthShare(const_mac(ms[i], self.kappa),
                                                keys[i])

    def _output_phase(self, wires, circuit) -> BitVec:
        h = circuit.header
        self.flush()
        outs = list(zip(circuit.output_wires, h.output_dest))
        got = {}
        for receiver in (Role.ALICE, Role.BOB):
            tag = _dest_tag(receiver)
            batch = [w for w, d in outs if d in (tag, DEST_BOTH)]
            if not batch:
                continue
            if self.role is receiver:
                need = len(batch) * (1 + self.kappa)
                payload = self.ch.recv(MsgType.RT_OUTPUT, (need + 7) // 8)
                r = BitReader(payload)
                for w in batch:
                    b = r.take_bit()
                    mac = r.take(self.kappa)
                    share = wires[w]
                    if mac != share.peer_key.key ^ self.delta.delta.times(b):
                        raise ProtocolAbort("output", "MAC check failed")
                    got[w] = share.my_half.bit ^ b
                self.stats.output_reveals_received += len(batch)
            else:
                wtr = BitWriter()
                for w in batch:
                    b, mac = self._maybe_tamper(wires[w].my_half.bit,
                                                wires[w].my_half.mac)
                    wtr.append_bit(b)
                    wtr.append(mac)
                self.ch.send(MsgType.RT_OUTPUT, wtr.getvalue())
                self.stats.output_reveals_sent += len(batch)
        mytag = _dest_tag(self.role)
        return BitVec.from_bits(got[w] for w, d in outs
                                if d in (mytag, DEST_BOTH))

    def evaluate(self, circuit: Circuit, my_inputs: BitVec) -> BitVec:
        """Run the circuit; returns the output bits destined to this party."""
        h = circuit.header
        n_mine = h.inputs_a if self.role is Role.ALICE else h.inputs_b
        if my_inputs.n != n_mine:
            raise UsageError(f"this party supplies {n_mine} input bits")
        if not self._hello_done:
            self.handshake()
        wires = [None] * h.n_wires
        self._input_phase(wires, circuit, my_inputs)
        for ands, frees in circuit.levels:
            if ands:
                shares = self._and_batch([(wires[g.ins[0]], wires[g.ins[1]])
                                          for g in ands])
                for g, sh in zip(ands, shares):
                    wires[g.out] = sh
            for g in frees:
                if g.kind == "XOR":
                    wires[g.out] = wires[g.ins[0]] ^ wires[g.ins[1]]
                elif g.kind == "INV":
                    wires[g.out] = self.xor_const(wires[g.ins[0]], 1)
                else:
                    wires[g.out] = wires[g.ins[0]]
        return self._output_phase(wires, circuit)
