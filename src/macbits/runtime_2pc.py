"""Online two-party circuit evaluation over preprocessed material.

Wire values are additively shared; each party's share bit is authenticated
toward the peer (MAC under the peer's global key). A party keeps its wires
in two uint8 arrays with one row per wire, laid out like the material store
rows: WM holds its own half as the MAC's kappa/8 bytes followed by one byte
for the bit, so a row XOR moves bit and MAC together, and WK holds its key
on the peer's half. Two rows past the circuit's wires hold the public
constants 0 and 1 (Alice's half carries the 1), so every free gate is a
row XOR. The circuit's one schedule, `Circuit.level_indices`, drives the
evaluation: each level's AND gates run as one batch of array operations
over gathered rows and one level's slice of the store, then that level's
free gates, one array XOR per dependency step. An AND gate burns two
triples, two OT quads, and two fresh bits and announces ten bits across
the three rounds of its level:

  round 1 (B -> A): d for the A-sender cross term, plus B's local f,g
  round 2 (A -> B): d for the B-sender cross term, A's local f,g, and
                    A's cross f,g (which need round 1's d)
  round 3 (B -> A): B's cross f,g

A round's reveals are gate-major. Every announced bit's MAC is deferred
into running accumulators, one absorb per reveal round on each side; the
chains are compared once before any output is revealed, and output MACs
themselves are checked immediately. So a cheating peer acts only through
bytes it sends: its revealed bits, its output rows and its flush digest.

The hello, the input round, the levels' reveal rounds, the flush and the
output rounds form one protocol side, which `evaluate` runs with
`transport.run_sides`. Its parameters come from the store: kappa, psi, the
session id and the global key this party holds, a (kappa/8,) row like a key
row; the channel only carries the frames. Every round names its speaker, so both parties run
the same code: the speaker sends and the peer reads. Bob's round 3 of one
level and his round 1 of the next go out back to back, one flight. Before
the hello, `evaluate` checks that the store holds the material the circuit
burns, and fails with OutOfMaterial if it is too small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitlinalg import BitVec, pack_bits, unpack_bits
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit
from .dealer import MaterialStore
from .errors import OutOfMaterial, ProtocolAbort, UsageError
from .ro_suite import MacAccumulator, flush_accumulators
from .transport import Channel, MsgType, Recv, Role, Send, perform_hello, run_sides

# An AND level's three reveal rounds as (speaker, columns of the speaker's
# five reveals per gate: d, f_loc, g_loc, f_x, g_x).
_LEVEL_ROUNDS = ((Role.BOB, slice(0, 3)), (Role.ALICE, slice(0, 5)), (Role.BOB, slice(3, 5)))


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


class Runtime:
    """One party's online evaluator bound to a channel and a material store."""

    def __init__(self, ch: Channel, role: Role, store: MaterialStore):
        if store.role is not role:
            raise UsageError("material store was dealt for the other role")
        self.ch = ch
        self.role = role
        self.store = store
        self.kappa = store.kappa
        self._delta = store.delta  # global key I hold on the peer's bits
        self.stats = RuntimeStats()
        self._sent = MacAccumulator()
        self._expect = MacAccumulator()

    # -- session ------------------------------------------------------------

    def _hello(self):
        _, peer_commit = yield from perform_hello(
            self.role, self.kappa, self.store.psi,
            session_id=self.store.session_id, extra=self.store.gk_commit)
        if peer_commit != self.store.gk_commit:
            raise ProtocolAbort("hello", "material commitment mismatch")

    # -- reveal plumbing ------------------------------------------------------

    def _flush(self):
        yield from flush_accumulators(self._sent, self._expect)
        self._sent = MacAccumulator()
        self._expect = MacAccumulator()
        self.stats.flushes += 1

    # -- batched AND level ----------------------------------------------------

    def _and_level(self, wm, wk, ins, outs):
        """Evaluate one AND level: gate i is ins[i, 0] & ins[i, 1] -> outs[i]."""
        n = len(outs)
        st, me, peer = self.store, self.role, self.role.other
        tm, _ = st.take_aand(me, n)      # x, y, z
        _, tk = st.take_aand(peer, n)    # kx, ky, kz
        qs, qsk = st.take_aot(me, n)     # x0, x1 | kc, kz
        qr, qrk = st.take_aot(peer, n)   # c, z | kx0, kx1
        rm, _ = st.take_abit(me, n)
        _, rk = st.take_abit(peer, n)
        self.stats.and_gates += n
        self.stats.levels.append(n)
        xy, kxy = wm[ins], wk[ins]
        x, y, kx, ky = xy[:, 0], xy[:, 1], kxy[:, 0], kxy[:, 1]
        delta = self._delta

        # my reveals per gate: d, f_loc, g_loc, f_x, g_x (g_x still needs
        # d_peer * x), and my keys on the peer's same five reveals
        mine = np.empty((n, 5, x.shape[1]), np.uint8)
        np.bitwise_xor(qr[:, 0], y, out=mine[:, 0])
        np.bitwise_xor(tm[:, :2], xy, out=mine[:, 1:3])
        np.bitwise_xor(qs[:, 0], qs[:, 1], out=mine[:, 3])
        mine[:, 3] ^= x
        np.bitwise_xor(rm[:, 0], qs[:, 0], out=mine[:, 4])
        theirs = np.empty((n, 5, kx.shape[1]), np.uint8)
        np.bitwise_xor(qsk[:, 0], ky, out=theirs[:, 0])
        np.bitwise_xor(tk[:, :2], kxy, out=theirs[:, 1:3])
        np.bitwise_xor(qrk[:, 0], qrk[:, 1], out=theirs[:, 3])
        theirs[:, 3] ^= kx
        np.bitwise_xor(rk[:, 0], qrk[:, 0], out=theirs[:, 4])

        # Each round is k reveals for each of the n gates, gate-major in one
        # frame, with their MACs absorbed in one call: the speaker's own
        # MAC||bit rows, or on the peer the MACs the heard bits must carry
        # (key ^ delta*bit). A round that carries the speaker's d completes
        # both g_x: the speaker's key on the peer's, and the peer's own.
        sent, heard = [], []
        for speaker, cols in _LEVEL_ROUNDS:
            k = cols.stop - cols.start
            if speaker is me:
                flat = mine[:, cols].reshape(n * k, -1)
                yield Send((MsgType.RT_REVEAL_BATCH, pack_bits(flat[:, -1])))
                self._sent = self._sent.absorb(flat[:, :-1])
                self.stats.bits_revealed += n * k
                bits = flat[:, -1].reshape(n, k)
                sent.extend(bits.T)
                if cols.start == 0:
                    theirs[:, 4] ^= bits[:, :1] * kx
            else:
                (payload,) = yield Recv((MsgType.RT_REVEAL_BATCH, (n * k + 7) // 8))
                bits = unpack_bits(payload, n * k).reshape(n, k)
                macs = theirs[:, cols] ^ bits[:, :, None] * delta
                self._expect = self._expect.absorb(macs.reshape(n * k, -1))
                self.stats.bits_expected += n * k
                heard.extend(bits.T)
                if cols.start == 0:
                    mine[:, 4] ^= bits[:, :1] * x
        _, f, g, fx, gx = sent
        _, pf, pg, pfx, pgx = heard

        # z ^ f*y ^ g*x ^ (f&g) for the local product, r, and the cross
        # term qr.z ^ f_x'*c ^ g_x' from the peer's reveals
        out = tm[:, 2] ^ rm[:, 0] ^ qr[:, 1]
        out ^= f[:, None] * y
        out ^= g[:, None] * x
        out ^= pfx[:, None] * qr[:, 0]
        out[:, -1] ^= (f & g) ^ pgx
        wm[outs] = out
        out = tk[:, 2] ^ rk[:, 0] ^ qsk[:, 1]
        out ^= pf[:, None] * ky
        out ^= pg[:, None] * kx
        out ^= fx[:, None] * qsk[:, 0]
        out ^= ((pf & pg) ^ gx)[:, None] * delta
        wk[outs] = out

    # -- circuit driver -------------------------------------------------------

    def _input_phase(self, wm, wk, circuit, my_inputs: BitVec):
        h = circuit.header
        layout = ((Role.ALICE, 0, h.inputs_a),
                  (Role.BOB, h.inputs_a, h.inputs_b))
        for owner, base, count in layout:
            if count == 0:
                continue
            rows = slice(base, base + count)
            macs, keys = self.store.take_abit(owner, count)
            if owner is self.role:
                ms = macs[:, 0, -1] ^ np.array(my_inputs.bits(), np.uint8)
                yield Send((MsgType.RT_ANNOUNCE_BATCH, pack_bits(ms)))
                self.stats.input_bits_sent += count
                wm[rows] = macs[:, 0]
                wk[rows] = ms[:, None] * self._delta
            else:
                (payload,) = yield Recv((MsgType.RT_ANNOUNCE_BATCH, (count + 7) // 8))
                self.stats.input_bits_received += count
                wm[rows, -1] = unpack_bits(payload, count)  # zero MAC
                wk[rows] = keys[:, 0]

    def _output_phase(self, wm, wk, circuit):
        """Reveal each output wire's bit||MAC, one RT_OUTPUT frame per
        receiver; returns the bits destined to this party."""
        h = circuit.header
        yield from self._flush()
        outs = list(zip(circuit.output_wires, h.output_dest))
        got = BitVec(0)
        for receiver, tag in ((Role.ALICE, DEST_A), (Role.BOB, DEST_B)):
            batch = [w for w, d in outs if d in (tag, DEST_BOTH)]
            if not batch:
                continue
            n = len(batch)
            if self.role is receiver:
                (payload,) = yield Recv((MsgType.RT_OUTPUT, (n * (1 + self.kappa) + 7) // 8))
                bits = unpack_bits(payload, n * (1 + self.kappa)).reshape(n, -1)
                b = bits[:, 0]
                macs = np.packbits(bits[:, 1:], axis=1, bitorder="little")
                if not np.array_equal(macs, wk[batch] ^ b[:, None] * self._delta):
                    raise ProtocolAbort("output", "MAC check failed")
                got = BitVec.from_bytes(n, pack_bits(wm[batch, -1] ^ b))
                self.stats.output_reveals_received += n
            else:
                rows = wm[batch]
                bits = np.unpackbits(rows[:, :-1], axis=1, bitorder="little")
                yield Send((MsgType.RT_OUTPUT,
                            pack_bits(np.concatenate((rows[:, -1:], bits), axis=1))))
                self.stats.output_reveals_sent += n
        return got

    def evaluate(self, circuit: Circuit, my_inputs: BitVec) -> BitVec:
        """Run the circuit; returns the output bits destined to this party."""
        h = circuit.header
        n_mine = h.inputs_a if self.role is Role.ALICE else h.inputs_b
        if my_inputs.n != n_mine:
            raise UsageError(f"this party supplies {n_mine} input bits")
        # before the hello: per AND gate a bit of each party's, a triple and
        # a quad each way; one bit per input wire
        need = dict.fromkeys(MaterialStore.STREAMS, circuit.n_and)
        need["abits_mine"] += n_mine
        need["abits_theirs"] += h.n_inputs - n_mine
        for name, n in need.items():
            left = self.store.remaining(name)
            if left < n:
                raise OutOfMaterial(f"{name}: {n} records needed, {left} left")
        (out,) = run_sides(self.ch, self.role, self._online(circuit, my_inputs))
        return out

    def _online(self, circuit: Circuit, my_inputs: BitVec):
        """The online phase as one protocol side: hello, inputs, every level,
        flush and outputs."""
        yield from self._hello()
        h = circuit.header
        kb = self.kappa // 8
        wm = np.zeros((h.n_wires + 2, kb + 1), np.uint8)
        wk = np.zeros((h.n_wires + 2, kb), np.uint8)
        if self.role is Role.ALICE:  # the constant-1 wire
            wm[h.n_wires + 1, -1] = 1
        else:
            wk[h.n_wires + 1] = self._delta
        yield from self._input_phase(wm, wk, circuit, my_inputs)
        for ands, steps in circuit.level_indices:
            if ands is not None:
                yield from self._and_level(wm, wk, *ands)
            for a, b, out in steps:
                wm[out] = wm[a] ^ wm[b]
                wk[out] = wk[a] ^ wk[b]
        return (yield from self._output_phase(wm, wk, circuit))
