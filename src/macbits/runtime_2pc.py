"""Online two-party circuit evaluation over preprocessed material.

Wire values are additively shared; each party's share bit is authenticated
toward the peer (MAC under the peer's global key). A party keeps its wires
in one uint8 table with one row per wire, 2*kappa/8 + 1 bytes wide: its own
half as the MAC's kappa/8 bytes and one byte for the bit, laid out like the
material store's MAC rows, then its key on the peer's half, laid out like
the store's key rows. So one row XOR moves bit, MAC and key together. The
rows follow the circuit's one schedule, `Circuit.row_schedule`, which holds
the wire-to-row map and the schedule over rows, computed once per circuit:
input wires keep rows 0..n_inputs-1, gate outputs take the next rows in
schedule order (per level its ANDs, then each free step), and two rows past
them hold the public constants 0 and 1 (Alice's half carries the 1), so
every free gate is a row XOR. Each level's AND gates run as one batch of
array operations over gathered rows, writing their outputs into one slice
of rows; then each of that level's free-gate steps is two row gathers and
one XOR into the step's slice of rows.
Outputs are read through the map. An AND gate burns two triples, two OT
quads, and two fresh bits. Right after the input round, `_stage` takes
each stream's records for all of the circuit's AND gates in one call and
lays them out once, field by field, as full rows in schedule order, with
what needs no wire already combined (c, a, b, x0 ^ x1, r ^ x0 and the
output constant); a level reads its slice, so no level takes material.
Each party reveals five bits per gate, all in one round per level in which
both parties send at once:

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
`transport.run_sides`; an AND level's round is yielded by that side itself,
between the plain code of `_and_open` and `_and_close`. Its parameters come
from the store: kappa, psi, the session id and the global key this party
holds, a (kappa/8,) row like a key row; the channel only carries the
frames. After the hello every round is symmetric, both parties' frames
crossing at once, so both run the same code; Bob's input announcement goes
out in the flight of his hello. Before the hello, `evaluate` checks that
the store holds the material the circuit burns, and fails with
OutOfMaterial if it is too small.
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


def _term_codes() -> np.ndarray:
    """The four output terms of an AND gate, as codes into `Runtime._terms`,
    for every pair of reveals: column 32 * m + p holds them for my five
    reveal bits m and the peer's five p, bit i of each being reveal i (d, f,
    g, f_x, h).

    Four full rows per gate complete its output: x, y and the receiver
    quad's c, each kept or cleared per half by a bit, and a constant; each
    code is 2 * (the MAC half's bit) + (the key half's bit). The MAC half
    adds the local product's g*x ^ f*y ^ (f&g), d'*x (my share of my cross
    term is r ^ d'*x) and f_x'*c ^ h' (my share of the peer's is
    z ^ f_x'*c ^ h'); the key half adds my keys on the same terms of the
    peer's share: g'*x', d*x', f'*y', f_x*c', (f'&g') ^ h."""
    m, p = np.divmod(np.arange(1024), 32)
    d, f, g, fx, h = m >> np.arange(5)[:, None] & 1
    pd, pf, pg, pfx, ph = p >> np.arange(5)[:, None] & 1
    return np.array([(g ^ pd) << 1 | (pg ^ d),
                     f << 1 | pf,
                     pfx << 1 | fx,
                     ((f & g) ^ ph) << 1 | ((pf & pg) ^ h) | 4], np.uint8)


_TERM_CODES = _term_codes()
# a gate's column of _TERM_CODES from its reveal bits, 32 * mine + peer's
_MINE, _PEER = 32 << np.arange(5), 1 << np.arange(5)
# An AND level gathers each gate's inputs x, y as y, x, y, x: the wires that
# the staged c, a, b and x0 ^ x1 are XORed with to make d, f, g and f_x.
_YXYX = np.array([1, 0, 1, 0])


def _rows(a):
    """a, whose last axis must be contiguous, with each row along that axis
    as one void element: numpy copies such a row several times faster than
    its bytes."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


def _gate_major(fields):
    """A (5, n, width) view of a level's reveal rows as one contiguous
    (5 * n, width) uint8 array, gate-major: the order of the revealed bits."""
    width = fields.shape[-1]
    return np.ascontiguousarray(_rows(fields).T).view(np.uint8).reshape(-1, width)


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
        # Full rows an AND gate's output terms are taken from, by a code 2m + k
        # of two bits: 0..3 are masks that keep the MAC half (with the bit)
        # if m and the key half if k; 4..7 are constants, bit m and key
        # k * delta.
        kb = self.kappa // 8
        self._terms = np.zeros((8, 2 * kb + 1), np.uint8)
        self._terms[[2, 3], :kb + 1] = 0xFF
        self._terms[[1, 3], kb + 1:] = 0xFF
        self._terms[[6, 7], kb] = 1
        self._terms[[5, 7], kb + 1:] = self._delta
        # my key on a peer's bit b, less its MAC: b * delta, by b
        self._bit_keys = self._terms[[4, 5], kb + 1:]

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

    def _stage(self, n):
        """Burn the material of the circuit's n AND gates, the records its
        levels use in schedule order, and lay it out once as a (6, n, row)
        array: per field one full row per gate, like the wire table's, each
        pairing the MAC half of a value of mine with my key half on the
        peer's matching value. The fields combine what needs no wire: the
        receiver quad's c, the triple's a and b, the sender quad's x0 ^ x1,
        the fresh bit's r ^ x0, and the output constant z ^ r ^ the receiver
        quad's z."""
        kb = self.kappa // 8
        st = self.store
        qs, qsk = st.take("aots_sender", n)    # x0, x1 | kc, kz
        qr, qrk = st.take("aots_receiver", n)  # c, z | kx0, kx1
        tm, _ = st.take("aands_mine", n)       # a, b, z
        _, tk = st.take("aands_theirs", n)
        rm, _ = st.take("abits_mine", n)       # r
        _, rk = st.take("abits_theirs", n)
        # the records' rows as c, a, b, x0, r, z, x1, the receiver quad's z
        m = np.empty((8, n, 2 * kb + 1), np.uint8)
        for half, (cz, t, x, r) in ((m[:, :, :kb + 1], (qr, tm, qs, rm)),
                                    (m[:, :, kb + 1:], (qsk, tk, qrk, rk))):
            half = _rows(half)
            for k, (rec, i) in enumerate(((cz, 0), (t, 0), (t, 1), (x, 0),
                                          (r, 0), (t, 2), (x, 1), (cz, 1))):
                half[k] = _rows(rec)[:, i]
        m[5] ^= m[4]  # z ^ r, then ^ the receiver quad's z
        m[5] ^= m[7]
        m[4] ^= m[3]  # r ^ x0, before x0 becomes x0 ^ x1
        m[3] ^= m[6]
        return m[:6]

    def _and_open(self, w, ins, o0, mat):
        """The local half of one AND level, gate i being ins[i, 0] & ins[i, 1]
        into row o0 + i with its staged material mat[:, i]: writes the output
        rows' local terms and returns (the packed bits this party reveals,
        gate-major, and the state `_and_close` needs). The material was
        burned once, after the input round (`_stage`).

        My reveals d, f, g, f_x are the staged c, a, b, x0 ^ x1 XORed with my
        y, x, y, x, and h = r ^ x0 is staged, on the MAC half; on the key half
        are my keys on the peer's same five reveals. So one gather and one
        XOR make the first four, and two copies make h and the output
        rows."""
        n = len(ins)
        kb = self.kappa // 8
        self.stats.and_gates += n
        self.stats.levels.append(n)
        yx = w.take(ins.T[_YXYX], axis=0)
        rv = np.empty((5, n, 2 * kb + 1), np.uint8)
        np.bitwise_xor(mat[:4], yx, out=rv[:4])
        rv[4] = mat[4]
        w[o0:o0 + n] = mat[5]
        return pack_bits(rv[:, :, kb].T.ravel()), (yx, mat[0], rv)

    def _and_close(self, w, o0, state, payload):
        """The rest of an AND level once the peer's reveals are in."""
        yx, c, rv = state
        n = rv.shape[1]
        kb = self.kappa // 8
        bits = unpack_bits(payload, 5 * n).reshape(n, 5)
        # One absorb per chain, gate-major: my own MACs, and the MACs the
        # peer's bits must carry, key ^ delta*bit.
        self._sent = self._sent.absorb(_gate_major(rv[:, :, :kb]))
        expect = _gate_major(rv[:, :, kb + 1:])
        expect ^= self._bit_keys.take(bits.ravel(), axis=0)
        self._expect = self._expect.absorb(expect)
        self.stats.bits_revealed += 5 * n
        self.stats.bits_expected += 5 * n
        code = _TERM_CODES.take(_MINE @ rv[:, :, kb] + bits @ _PEER, axis=1)
        terms = self._terms.take(code, axis=0)
        terms[:2] &= yx[1:3]  # x, y
        terms[2] &= c
        w[o0:o0 + n] ^= np.bitwise_xor.reduce(terms, axis=0)

    # -- circuit driver -------------------------------------------------------

    def _input_phase(self, w, circuit, my_inputs: BitVec):
        """Both parties announce their masked inputs in one round."""
        h = circuit.header
        kb = self.kappa // 8
        a, b = slice(0, h.inputs_a), slice(h.inputs_a, h.n_inputs)
        me, peer = (a, b) if self.role is Role.ALICE else (b, a)
        n, pn = me.stop - me.start, peer.stop - peer.start
        frames = []
        if n:
            macs, _ = self.store.take("abits_mine", n)
            ms = macs[:, 0, -1] ^ np.array(my_inputs.bits(), np.uint8)
            frames.append((MsgType.RT_ANNOUNCE_BATCH, pack_bits(ms)))
            self.stats.input_bits_sent += n
            w[me, :kb + 1] = macs[:, 0]
            w[me, kb + 1:] = ms[:, None] * self._delta
        if pn:
            _, keys = self.store.take("abits_theirs", pn)
            (payload,) = yield Swap(frames, [(MsgType.RT_ANNOUNCE_BATCH, (pn + 7) // 8)])
            self.stats.input_bits_received += pn
            w[peer, kb] = unpack_bits(payload, pn)  # zero MAC
            w[peer, kb + 1:] = keys[:, 0]
        elif frames:
            yield Send(*frames)

    def _output_phase(self, w, circuit):
        """Flush, then reveal each output wire's bit||MAC to its receivers:
        both parties' RT_OUTPUT frames cross in one round. Returns the bits
        destined to this party."""
        yield from self._flush()
        kb = self.kappa // 8
        mine, peer = (DEST_A, DEST_B) if self.role is Role.ALICE else (DEST_B, DEST_A)
        dest = circuit.header.output_dest
        rows = circuit.row_schedule[0][circuit.output_wires].tolist()
        send = [r for r, d in zip(rows, dest) if d in (peer, DEST_BOTH)]
        get = [r for r, d in zip(rows, dest) if d in (mine, DEST_BOTH)]
        frames = []
        if send:
            mb = w[send, :kb + 1]
            bits = np.unpackbits(mb[:, :-1], axis=1, bitorder="little")
            frames.append((MsgType.RT_OUTPUT,
                           pack_bits(np.concatenate((mb[:, -1:], bits), axis=1))))
            self.stats.output_reveals_sent += len(send)
        got = BitVec(0)
        if get:
            n, width = len(get), 1 + self.kappa
            (payload,) = yield Swap(frames, [(MsgType.RT_OUTPUT, (n * width + 7) // 8)])
            bits = unpack_bits(payload, n * width).reshape(n, -1)
            b = bits[:, 0]
            macs = np.packbits(bits[:, 1:], axis=1, bitorder="little")
            if not np.array_equal(macs, w[get, kb + 1:] ^ b[:, None] * self._delta):
                raise ProtocolAbort("output", "MAC check failed")
            self.stats.output_reveals_received += n
            got = BitVec.from_bytes(n, pack_bits(w[get, kb] ^ b))
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
        flush and outputs. An AND level's round is yielded here, between the
        plain code of `_and_open` and `_and_close`."""
        yield from self._hello()
        h = circuit.header
        kb = self.kappa // 8
        _, levels = circuit.row_schedule
        w = np.zeros((h.n_wires + 2, 2 * kb + 1), np.uint8)
        if self.role is Role.ALICE:  # the constant-1 wire
            w[h.n_wires + 1, kb] = 1
        else:
            w[h.n_wires + 1, kb + 1:] = self._delta
        yield from self._input_phase(w, circuit, my_inputs)
        mat = self._stage(circuit.n_and)
        g = 0
        for ands, steps in levels:
            if ands is not None:
                ins, o0 = ands
                reveal, state = self._and_open(w, ins, o0, mat[:, g:g + len(ins)])
                g += len(ins)
                (payload,) = yield Swap(
                    [(MsgType.RT_REVEAL_BATCH, reveal)],
                    [(MsgType.RT_REVEAL_BATCH, (5 * len(ins) + 7) // 8)])
                self._and_close(w, o0, state, payload)
            for a, b, out in steps:
                np.bitwise_xor(w.take(a, axis=0), w.take(b, axis=0), out=w[out])
        return (yield from self._output_phase(w, circuit))
