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
Outputs are read through the map. The owner of an input wire takes its
input bit as its share, with the MAC of a fresh aBit r, and announces the
masked bit m = r ^ input; the peer takes 0 with a zero MAC, and r's key
plus m * delta as its key. So a party's bits and MACs never wait for the
peer's announcement, only its keys on the peer's input wires do. An AND
gate burns one Beaver triple per party, the store's "triples" record: my
shares u, v, w of u * v = w, their MACs, and my keys on the peer's shares,
which the deal folded from the gate's triples, quads and fresh bits. Right
after the inputs are shared, `_stage` takes the triples of all of the
circuit's AND gates in one call and lays them out once as full rows in
schedule order; a level reads its slice, so no level takes material.
For a gate x * y each party reveals two bits, f = u ^ x and g = v ^ y, all
in one round per level in which both parties send at once; neither needs a
bit of the peer's, which is what lets the two reveals cross. With F and G
the sums of both parties' f and g, x * y = w ^ F * v ^ G * u ^ F * G, so
each party's output row is its w ^ F * v ^ G * u, MAC and key half alike,
and the public F * G joins it as a constant (Alice's bit, Bob's key F * G *
delta).

A level's reveals are gate-major. Every announced bit's MAC is deferred
into running accumulators, one absorb per level on each side: my sent MACs
in `_and_open`, and the MACs I expect of the peer's bits in `_and_close`.
So my sent chain is complete once the last AND level is open, and its
flush digest (RT_ACC_FLUSH, the chain's 32-byte state) goes out in that
level's flight, after the reveals; the peer's digest is checked after that level's `_and_close`,
before any output is revealed. A circuit without AND gates flushes in the
one round it has before the outputs. An output wire's bit is revealed with
no MAC of its own: a party's RT_OUTPUT frame is the packed bits it sends,
then one kappa/8-byte digest of their MACs in frame order
(`output_digest`), which the receiver recomputes from its keys. A changed output bit passes only if the sender
guesses the global key or the digest, so with probability at most
2^(1 - kappa). So a cheating peer acts only through bytes it sends: its
revealed bits, its flush digest, and its output bits and their digest.

The hello, the input announcements and the evaluation are three protocol
sides, which `evaluate` runs side by side with `transport.run_sides`, so
their first flights go out as one. Both parties' HELLO, RT_ANNOUNCE_BATCH
and first AND level's reveals (with the flush if that level is the last; a
circuit without AND gates sends the flush alone) cross in one round: the
hello is `transport.hello`, the one-round hello the deal runs too, with
the session id and the deal's tag read from the store (`gk_commit`, a
digest of both parties' deal flushes), and the level's reveals need no
announcement. `run_sides` resumes the three in
that order, so each party first checks the peer's hello (`_hello`: the
session id and the tag, once `hello` has checked the parameters),
then adds m * delta for each announced m to its keys on the peer's input
wires (`_input_phase`), and then redoes what read those keys before the
round, level 0's free steps and the first level's gathered key halves
(`_rekey`), before it closes the level. Every round is symmetric, both
parties' frames crossing at once, so both run the same code; an AND
level's round is yielded by the evaluation side itself, between the plain
code of `_and_open` and `_and_close`. So with outputs going both ways an
evaluation of AND depth D >= 1 takes D + 1 flights per party, 2 * D + 2 in
all, and one of depth 0 takes 2 per party. What a party sends before it
has checked the hello is its announcement and the first level's reveals,
each masked by one-time material; the MAC checks stay deferred to the
flush and the output digest. The parameters come from the store: kappa,
psi, the session id and the global key this party holds, a (kappa/8,) row
like a key row; the channel only carries the frames. Before the first
round, `evaluate` checks that the store holds the material the circuit
burns, and fails with OutOfMaterial if it is too small, and builds the
circuit's schedule, so the peer does not wait on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitlinalg import BitVec, pack_bits, unpack_bits
from .circuit import DEST_A, DEST_B, DEST_BOTH, Circuit
from .dealer import DealerConfig, MaterialStore
from .errors import OutOfMaterial, ProtocolAbort, ProtocolError, UsageError
from .ro_suite import (DIGEST_BYTES, MacAccumulator, check_flush, flush_accumulators,
                       ro_hash)
from .transport import Channel, MsgType, Role, Send, Swap, hello, run_sides


def output_digest(macs: np.ndarray) -> bytes:
    """The RT_OUTPUT digest of output MACs, one kappa/8-byte row each in
    frame order: the first kappa/8 bytes of their "rt/out" hash."""
    return ro_hash("rt/out", macs)[:macs.shape[1]]


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
        kb = self.kappa // 8
        # my key on a peer's bit b, less its MAC: b * delta, by b
        self._bit_keys = np.zeros((2, kb), np.uint8)
        self._bit_keys[1] = self._delta
        # the public constant b as a full row, by b: Alice's half carries
        # the bit, Bob's key on it is b * delta
        self._consts = np.zeros((2, 2 * kb + 1), np.uint8)
        if role is Role.ALICE:
            self._consts[1, kb] = 1
        else:
            self._consts[1, kb + 1:] = self._delta

    # -- session ------------------------------------------------------------

    def _hello(self):
        """`transport.hello` with the store's parameters and the deal's tag
        as its extra; the peer must name the same session id and tag."""
        st = self.store
        sid, commit = yield from hello(self.role, self.kappa, st.psi, st.session_id, st.gk_commit)
        if sid != st.session_id:
            raise ProtocolError("session id mismatch")
        if commit != st.gk_commit:
            raise ProtocolAbort("hello", "deal tag mismatch")

    # -- batched AND level ----------------------------------------------------

    def _stage(self, n):
        """Burn the Beaver triples of the circuit's n AND gates, the records
        its levels use in schedule order, and lay them out once as an (n, 3,
        row) array: per gate u, v and w as full rows, like the wire table's,
        each pairing the MAC half of my share with my key half on the
        peer's."""
        kb = self.kappa // 8
        macs, keys = self.store.take("triples", n)
        mat = np.empty((n, 3, 2 * kb + 1), np.uint8)
        mat[..., :kb + 1] = macs
        mat[..., kb + 1:] = keys
        return mat

    def _and_open(self, w, ins, o0, mat):
        """The local half of one AND level, gate i being ins[i, 0] & ins[i, 1]
        into row o0 + i with its staged triple mat[i]: returns (the packed
        bits this party reveals, gate-major, and the state `_and_close`
        needs). The triples were burned once, right after the inputs were
        shared (`_stage`).

        My reveals f = u ^ x and g = v ^ y are one gather and one XOR of full
        rows: on the MAC half my bits and their MACs, on the key half my keys
        on the peer's same reveals."""
        n = len(ins)
        kb = self.kappa // 8
        self.stats.and_gates += n
        self.stats.levels.append(n)
        rv = np.bitwise_xor(mat[:, :2], w.take(ins, axis=0))
        # my sent chain is complete before the reveals go out, so the last
        # level's flight can carry its flush
        self._sent = self._sent.absorb(rv[..., :kb].reshape(-1, kb))
        self.stats.bits_revealed += 2 * n
        return pack_bits(rv[..., kb].ravel()), (mat, rv)

    def _and_close(self, w, o0, state, payload):
        """The rest of an AND level once the peer's reveals are in: with F and
        G the opened u ^ x and v ^ y, each output row is w ^ F*v ^ G*u plus
        the public constant F*G."""
        mat, rv = state
        n = len(rv)
        kb = self.kappa // 8
        bits = unpack_bits(payload, 2 * n).reshape(n, 2)
        # gate-major, the MACs the peer's bits must carry: key ^ delta*bit
        self._expect = self._expect.absorb(
            (rv[..., kb + 1:] ^ self._bit_keys.take(bits, axis=0)).reshape(-1, kb))
        self.stats.bits_expected += 2 * n
        f, g = (rv[..., kb] ^ bits).T
        out = mat[:, 2] ^ self._consts.take(f & g, axis=0)
        out ^= mat[:, 1] * f[:, None]
        out ^= mat[:, 0] * g[:, None]
        w[o0:o0 + n] = out

    # -- circuit driver -------------------------------------------------------

    def _input_phase(self, w, circuit, my_inputs: BitVec):
        """Both parties announce their masked inputs in one round.

        The owner of an input wire announces m = r ^ x, its input bit x under
        a fresh aBit r, and takes x = r ^ m as its share, with r's MAC; the
        peer's key on it is the peer's key on r plus m * delta. The peer
        takes 0 with a zero MAC, on which the owner's key is 0. So a party's
        bits and MACs are in the table before the round; the peer's
        announcement completes only my keys on its input wires."""
        h = circuit.header
        kb = self.kappa // 8
        a, b = slice(0, h.inputs_a), slice(h.inputs_a, h.n_inputs)
        me, peer = (a, b) if self.role is Role.ALICE else (b, a)
        n, pn = me.stop - me.start, peer.stop - peer.start
        frames = []
        if n:
            macs, _ = self.store.take("abits_mine", n)
            x = np.array(my_inputs.bits(), np.uint8)
            frames.append((MsgType.RT_ANNOUNCE_BATCH, pack_bits(macs[:, 0, -1] ^ x)))
            self.stats.input_bits_sent += n
            w[me, :kb] = macs[:, 0, :kb]
            w[me, kb] = x
        if pn:
            _, keys = self.store.take("abits_theirs", pn)
            w[peer, kb + 1:] = keys[:, 0]
            (payload,) = yield Swap(frames, [(MsgType.RT_ANNOUNCE_BATCH, (pn + 7) // 8)])
            self.stats.input_bits_received += pn
            w[peer, kb + 1:] ^= self._bit_keys.take(unpack_bits(payload, pn), axis=0)
        elif frames:
            yield Send(*frames)

    def _rekey(self, w, steps, ins, state):
        """Redo, once the first round is in, what read my keys on the peer's
        input wires before its announcement completed them: level 0's free
        steps `steps`, and the reveal rows of the first AND level's
        `_and_open` (gates `ins`, returning `state`), whose MAC halves come
        out the same."""
        for a, b, out in steps:
            np.bitwise_xor(w.take(a, axis=0), w.take(b, axis=0), out=w[out])
        mat, rv = state
        np.bitwise_xor(mat[:, :2], w.take(ins, axis=0), out=rv)

    def _output_phase(self, w, circuit):
        """Reveal each output wire's bit to its receivers, followed by one
        digest of those bits' MACs (`output_digest`): both parties'
        RT_OUTPUT frames cross in one round. Returns the bits destined to
        this party."""
        kb = self.kappa // 8
        mine, peer = (DEST_A, DEST_B) if self.role is Role.ALICE else (DEST_B, DEST_A)
        dest = circuit.header.output_dest
        rows = circuit.row_schedule[0][circuit.output_wires].tolist()
        send = [r for r, d in zip(rows, dest) if d in (peer, DEST_BOTH)]
        get = [r for r, d in zip(rows, dest) if d in (mine, DEST_BOTH)]
        frames = []
        if send:
            mb = w[send, :kb + 1]
            frames.append((MsgType.RT_OUTPUT, pack_bits(mb[:, -1]) + output_digest(mb[:, :-1])))
            self.stats.output_reveals_sent += len(send)
        got = BitVec(0)
        if get:
            n, nb = len(get), (len(get) + 7) // 8
            (payload,) = yield Swap(frames, [(MsgType.RT_OUTPUT, nb + kb)])
            b = unpack_bits(payload[:nb], n)
            if payload[nb:] != output_digest(w[get, kb + 1:] ^ self._bit_keys.take(b, axis=0)):
                raise ProtocolAbort("output", "MAC digest check failed")
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
        circuit.row_schedule  # built and cached before the hello, not while the peer waits
        kb = self.kappa // 8
        w = np.zeros((h.n_wires + 2, 2 * kb + 1), np.uint8)
        w[h.n_wires + 1] = self._consts[1]
        # run_sides resumes the sides handed frames in this order, so in the
        # first round the hello is checked, then my keys on the peer's inputs
        # are completed, and only then is the first AND level closed
        _, _, out = run_sides(self.ch, self.role, self._hello(),
                              self._input_phase(w, circuit, my_inputs),
                              self._online(w, circuit))
        return out

    def _online(self, w, circuit: Circuit):
        """The evaluation as a protocol side: one round per AND level, the
        last carrying the flush, then the output round; a circuit without
        AND gates flushes in its first round, before its free gates. That
        first round is also the hello's and the input announcements', whose
        sides `_hello` and `_input_phase` run beside this one. An AND
        level's round is yielded here, between the plain code of `_and_open`
        and `_and_close`."""
        _, levels = circuit.row_schedule
        mat = self._stage(circuit.n_and)
        g = 0
        for k, (ands, steps) in enumerate(levels):
            if ands is not None:
                ins, o0 = ands
                reveal, state = self._and_open(w, ins, o0, mat[g:g + len(ins)])
                g += len(ins)
                nb = (2 * len(ins) + 7) // 8
                frames = [(MsgType.RT_REVEAL_BATCH, reveal)]
                if g < circuit.n_and:
                    got = yield Swap(frames, [(MsgType.RT_REVEAL_BATCH, nb)])
                else:  # the last AND level's flight carries the flush
                    frames.append((MsgType.RT_ACC_FLUSH, self._sent.state))
                    got = yield Swap(frames, [(MsgType.RT_REVEAL_BATCH, nb),
                                              (MsgType.RT_ACC_FLUSH, DIGEST_BYTES)])
                if k == 1:  # levels[0] has no AND gates, so this was the first round
                    self._rekey(w, levels[0][1], ins, state)
                self._and_close(w, o0, state, got[0])
                if g == circuit.n_and:
                    check_flush(got[1], self._expect)
                    self.stats.flushes += 1
            elif not circuit.n_and:  # its free gates then read complete keys
                yield from flush_accumulators(self._sent, self._expect)
                self.stats.flushes += 1
            for a, b, out in steps:
                np.bitwise_xor(w.take(a, axis=0), w.take(b, axis=0), out=w[out])
        return (yield from self._output_phase(w, circuit))
