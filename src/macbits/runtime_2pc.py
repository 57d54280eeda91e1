"""Online two-party circuit evaluation over preprocessed material.

Wire values are additively shared; each party's share bit is authenticated
toward the peer (MAC under the peer's global key). XOR and constants are
local. An AND gate burns two triples, two OT quads, and two fresh bits and
announces ten bits across three rounds per dependency level:

  round 1 (B -> A): d for the A-sender cross term, plus B's local f,g
  round 2 (A -> B): d for the B-sender cross term, A's local f,g, and
                    A's cross f,g (which need round 1's d)
  round 3 (B -> A): B's cross f,g

Every announced bit's MAC is deferred into running accumulators; the chains
are compared once before any output is revealed, and output MACs themselves
are checked immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abit_proto import AuthBitKey, AuthBitMac, const_key, const_mac
from .bitlinalg import BitReader, BitVec, BitWriter
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit, chunks
from .dealer import MaterialStore
from .errors import ProtocolAbort, ProtocolError, UsageError
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


def reconstruct_pair(a: AuthShare, b: AuthShare) -> int:
    """Test helper: combine the two parties' shares of one wire."""
    return a.my_half.bit ^ b.my_half.bit


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
                 chunk_size: int = 1024, tamper: TamperPlan = None):
        if store.role is not role:
            raise UsageError("material store was dealt for the other role")
        self.ch = ch
        self.role = role
        self.store = store
        self.kappa = store.kappa
        self.delta = store.delta  # global key I hold on the peer's bits
        self.chunk_size = chunk_size
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

    def _reveal(self, bit: int, mac: BitVec) -> int:
        bit, mac = self._maybe_tamper(bit, mac)
        self._sent = self._sent.absorb(mac)
        self.stats.bits_revealed += 1
        return bit

    def _expect_reveal(self, bit: int, key: BitVec) -> None:
        self._expect = self._expect.absorb(key ^ self.delta.delta.times(bit))
        self.stats.bits_expected += 1

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
        """Evaluate AND on a batch of share pairs (one dependency level)."""
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

        def send_bits(bits):
            self.ch.send(MsgType.RT_REVEAL_BATCH, BitVec.from_bits(bits).to_bytes())

        def recv_bits(count):
            payload = self.ch.recv(MsgType.RT_REVEAL_BATCH)
            if len(payload) != (count + 7) // 8:
                raise ProtocolError("bad reveal batch length")
            v = BitVec.from_bytes(count, payload)
            return [v[j] for j in range(count)]

        # my reveals
        def rv_d(i):
            return self._reveal(qr[i].c.bit ^ ys[i].my_half.bit,
                                qr[i].c.mac ^ ys[i].my_half.mac)

        def rv_floc(i):
            return self._reveal(tm[i].x.bit ^ xs[i].my_half.bit,
                                tm[i].x.mac ^ xs[i].my_half.mac)

        def rv_gloc(i):
            return self._reveal(tm[i].y.bit ^ ys[i].my_half.bit,
                                tm[i].y.mac ^ ys[i].my_half.mac)

        def rv_fx(i):
            return self._reveal(qs[i].x0.bit ^ qs[i].x1.bit ^ xs[i].my_half.bit,
                                qs[i].x0.mac ^ qs[i].x1.mac ^ xs[i].my_half.mac)

        def rv_gx(i, d):
            return self._reveal(
                rm[i].bit ^ qs[i].x0.bit ^ (d & xs[i].my_half.bit),
                rm[i].mac ^ qs[i].x0.mac ^ xs[i].my_half.mac.times(d))

        # peer reveals I verify
        def ex_d(i, b):
            self._expect_reveal(b, qs[i].kc.key ^ ys[i].peer_key.key)

        def ex_floc(i, b):
            self._expect_reveal(b, tk[i].kx.key ^ xs[i].peer_key.key)

        def ex_gloc(i, b):
            self._expect_reveal(b, tk[i].ky.key ^ ys[i].peer_key.key)

        def ex_fx(i, b):
            self._expect_reveal(b, qr[i].kx0.key ^ qr[i].kx1.key
                                ^ xs[i].peer_key.key)

        def ex_gx(i, b, d):
            self._expect_reveal(b, rk[i].key ^ qr[i].kx0.key
                                ^ xs[i].peer_key.key.times(d))

        if self.role is Role.BOB:
            bits = []
            for i in range(n):
                bits += [rv_d(i), rv_floc(i), rv_gloc(i)]
            send_bits(bits)
            d_sent = bits[0::3]
            my_floc, my_gloc = bits[1::3], bits[2::3]

            r2 = recv_bits(5 * n)
            for i in range(n):
                ex_d(i, r2[5 * i])
                ex_floc(i, r2[5 * i + 1])
                ex_gloc(i, r2[5 * i + 2])
                ex_fx(i, r2[5 * i + 3])
                ex_gx(i, r2[5 * i + 4], d_sent[i])
            d_recv = r2[0::5]
            peer_floc, peer_gloc = r2[1::5], r2[2::5]
            peer_fx, peer_gx = r2[3::5], r2[4::5]

            bits = []
            for i in range(n):
                bits += [rv_fx(i), rv_gx(i, d_recv[i])]
            send_bits(bits)
            my_fx, my_gx = bits[0::2], bits[1::2]
        else:
            r1 = recv_bits(3 * n)
            for i in range(n):
                ex_d(i, r1[3 * i])
                ex_floc(i, r1[3 * i + 1])
                ex_gloc(i, r1[3 * i + 2])
            d_recv = r1[0::3]
            peer_floc, peer_gloc = r1[1::3], r1[2::3]

            bits = []
            for i in range(n):
                bits += [rv_d(i), rv_floc(i), rv_gloc(i),
                         rv_fx(i), rv_gx(i, d_recv[i])]
            send_bits(bits)
            d_sent = bits[0::5]
            my_floc, my_gloc = bits[1::5], bits[2::5]
            my_fx, my_gx = bits[3::5], bits[4::5]

            r3 = recv_bits(2 * n)
            for i in range(n):
                ex_fx(i, r3[2 * i])
                ex_gx(i, r3[2 * i + 1], d_sent[i])
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
                payload = self.ch.recv(MsgType.RT_ANNOUNCE_BATCH)
                if len(payload) != (count + 7) // 8:
                    raise ProtocolError("bad input announcement length")
                ms = BitVec.from_bytes(count, payload)
                self.stats.input_bits_received += count
                for i in range(count):
                    wires[base + i] = AuthShare(const_mac(ms[i], self.kappa),
                                                keys[i])

    def _run_level(self, gates, wires) -> None:
        if not gates:
            return
        shares = self._and_batch([(wires[g.ins[0]], wires[g.ins[1]])
                                  for g in gates])
        for g, s in zip(gates, shares):
            wires[g.out] = s

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
                payload = self.ch.recv(MsgType.RT_OUTPUT)
                need = len(batch) * (1 + self.kappa)
                if len(payload) != (need + 7) // 8:
                    raise ProtocolError("bad output batch length")
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
        for ck in chunks(circuit, self.chunk_size):
            batch = []
            pending = set()
            for g in ck.gates:
                if any(w in pending for w in g.ins):
                    self._run_level(batch, wires)
                    batch = []
                    pending = set()
                if g.kind == "AND":
                    batch.append(g)
                    pending.add(g.out)
                elif g.kind == "XOR":
                    wires[g.out] = wires[g.ins[0]] ^ wires[g.ins[1]]
                elif g.kind == "INV":
                    wires[g.out] = self.xor_const(wires[g.ins[0]], 1)
                else:
                    wires[g.out] = wires[g.ins[0]]
            self._run_level(batch, wires)
        return self._output_phase(wires, circuit)
