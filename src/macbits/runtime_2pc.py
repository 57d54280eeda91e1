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
triples, two OT quads, and two fresh bits, and each party reveals five bits
per gate, all in one round per level in which both parties send at once:

  d     = c ^ y          my y under the choice bit c of my quad as receiver
  f, g  = a ^ x, b ^ y   my x and y under my triple (a, b, a & b)
  f_x   = x0 ^ x1 ^ x    my x under my quad (x0, x1) as sender
  h     = r ^ x0         my fresh bit r under that quad's x0

None needs a bit of the peer's, which is what lets the two reveals cross.
For the cross term x * y' (x mine, y' the peer's), my share is r ^ d' * x
with d' the peer's reveal, and the peer's share is z' ^ f_x * c' ^ h from
its quad (c', z' = x_c'); they add up to x * (c' ^ d') = x * y'. The d' * x
term is added after the round, next to the local product's g * x, as
(g ^ d') * x; on the key side, my key on the peer's d * x' joins the key
on its g' * x' as (g' ^ d) * kx.

A level's reveals are gate-major. Every announced bit's MAC is deferred
into running accumulators, one absorb per level on each side (my sent
MACs, and the MACs I expect of the peer's bits); the chains are compared
once before any output is revealed, and output MACs themselves are checked
immediately. So a cheating peer acts only through bytes it sends: its
revealed bits, its output rows and its flush digest.

The hello, the input round, the levels' rounds, the flush and the output
round form one protocol side, which `evaluate` runs with
`transport.run_sides`. Its parameters come from the store: kappa, psi, the
session id and the global key this party holds, a (kappa/8,) row like a key
row; the channel only carries the frames. After the hello every round is
symmetric, both parties' frames crossing at once, so both run the same
code; Bob's input announcement goes out in the flight of his hello. Before
the hello, `evaluate` checks that the store holds the material the circuit
burns, and fails with OutOfMaterial if it is too small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitlinalg import BitVec, pack_bits, unpack_bits
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit
from .dealer import DealerConfig, MaterialStore
from .errors import OutOfMaterial, ProtocolAbort, UsageError
from .ro_suite import MacAccumulator, flush_accumulators
from .transport import Channel, MsgType, Role, Send, Swap, perform_hello, run_sides

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
        st = self.store
        tm, _ = st.take("aands_mine", n)       # x, y, z
        _, tk = st.take("aands_theirs", n)     # kx, ky, kz
        qs, qsk = st.take("aots_sender", n)    # x0, x1 | kc, kz
        qr, qrk = st.take("aots_receiver", n)  # c, z | kx0, kx1
        rm, _ = st.take("abits_mine", n)
        _, rk = st.take("abits_theirs", n)
        self.stats.and_gates += n
        self.stats.levels.append(n)
        xy, kxy = wm[ins], wk[ins]
        x, y, kx, ky = xy[:, 0], xy[:, 1], kxy[:, 0], kxy[:, 1]
        delta = self._delta

        # my reveals per gate: d, f_loc, g_loc, f_x, h = r ^ x0, and my keys
        # on the peer's same five reveals
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

        # Both parties' 5n reveals cross at once, gate-major in one frame
        # each way. Their MACs are absorbed in one call per side: my own
        # MAC||bit rows, and the MACs the peer's bits must carry (key ^
        # delta*bit).
        flat = mine.reshape(5 * n, -1)
        (payload,) = yield Swap([(MsgType.RT_REVEAL_BATCH, pack_bits(flat[:, -1]))],
                                [(MsgType.RT_REVEAL_BATCH, (5 * n + 7) // 8)])
        self._sent = self._sent.absorb(flat[:, :-1])
        bits = unpack_bits(payload, 5 * n).reshape(n, 5)
        macs = theirs ^ bits[:, :, None] * delta
        self._expect = self._expect.absorb(macs.reshape(5 * n, -1))
        self.stats.bits_revealed += 5 * n
        self.stats.bits_expected += 5 * n
        d, f, g, fx, h = mine[:, :, -1].T
        pd, pf, pg, pfx, ph = bits.T

        # z ^ f*y ^ g*x ^ (f&g) for the local product; r ^ d'*x, my share of
        # my cross term; and qr.z ^ f_x'*c ^ h', my share of the peer's
        out = tm[:, 2] ^ rm[:, 0] ^ qr[:, 1]
        out ^= f[:, None] * y
        out ^= (g ^ pd)[:, None] * x
        out ^= pfx[:, None] * qr[:, 0]
        out[:, -1] ^= (f & g) ^ ph
        wm[outs] = out
        out = tk[:, 2] ^ rk[:, 0] ^ qsk[:, 1]
        out ^= pf[:, None] * ky
        out ^= (pg ^ d)[:, None] * kx
        out ^= fx[:, None] * qsk[:, 0]
        out ^= ((pf & pg) ^ h)[:, None] * delta
        wk[outs] = out

    # -- circuit driver -------------------------------------------------------

    def _input_phase(self, wm, wk, circuit, my_inputs: BitVec):
        """Both parties announce their masked inputs in one round."""
        h = circuit.header
        a, b = slice(0, h.inputs_a), slice(h.inputs_a, h.n_inputs)
        me, peer = (a, b) if self.role is Role.ALICE else (b, a)
        n, pn = me.stop - me.start, peer.stop - peer.start
        frames = []
        if n:
            macs, _ = self.store.take("abits_mine", n)
            ms = macs[:, 0, -1] ^ np.array(my_inputs.bits(), np.uint8)
            frames.append((MsgType.RT_ANNOUNCE_BATCH, pack_bits(ms)))
            self.stats.input_bits_sent += n
            wm[me] = macs[:, 0]
            wk[me] = ms[:, None] * self._delta
        if pn:
            _, keys = self.store.take("abits_theirs", pn)
            (payload,) = yield Swap(frames, [(MsgType.RT_ANNOUNCE_BATCH, (pn + 7) // 8)])
            self.stats.input_bits_received += pn
            wm[peer, -1] = unpack_bits(payload, pn)  # zero MAC
            wk[peer] = keys[:, 0]
        elif frames:
            yield Send(*frames)

    def _output_phase(self, wm, wk, circuit):
        """Flush, then reveal each output wire's bit||MAC to its receivers:
        both parties' RT_OUTPUT frames cross in one round. Returns the bits
        destined to this party."""
        yield from self._flush()
        mine, peer = (DEST_A, DEST_B) if self.role is Role.ALICE else (DEST_B, DEST_A)
        dest = circuit.header.output_dest
        wires = circuit.output_wires
        send = [w for w, d in zip(wires, dest) if d in (peer, DEST_BOTH)]
        get = [w for w, d in zip(wires, dest) if d in (mine, DEST_BOTH)]
        frames = []
        if send:
            rows = wm[send]
            bits = np.unpackbits(rows[:, :-1], axis=1, bitorder="little")
            frames.append((MsgType.RT_OUTPUT,
                           pack_bits(np.concatenate((rows[:, -1:], bits), axis=1))))
            self.stats.output_reveals_sent += len(send)
        got = BitVec(0)
        if get:
            n, width = len(get), 1 + self.kappa
            (payload,) = yield Swap(frames, [(MsgType.RT_OUTPUT, (n * width + 7) // 8)])
            bits = unpack_bits(payload, n * width).reshape(n, -1)
            b = bits[:, 0]
            macs = np.packbits(bits[:, 1:], axis=1, bitorder="little")
            if not np.array_equal(macs, wk[get] ^ b[:, None] * self._delta):
                raise ProtocolAbort("output", "MAC check failed")
            self.stats.output_reveals_received += n
            got = BitVec.from_bytes(n, pack_bits(wm[get, -1] ^ b))
        elif frames:
            yield Send(*frames)
        return got

    def evaluate(self, circuit: Circuit, my_inputs: BitVec) -> BitVec:
        """Run the circuit; returns the output bits destined to this party."""
        h = circuit.header
        n_mine = h.inputs_a if self.role is Role.ALICE else h.inputs_b
        if my_inputs.n != n_mine:
            raise UsageError(f"this party supplies {n_mine} input bits")
        shape = DealerConfig.for_gates(circuit.n_and, h.inputs_a, h.inputs_b)
        for name, n in shape.records(self.role).items():
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
