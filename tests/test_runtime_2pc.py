import os
import random
import re
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import helpers
from aes_oracle import KNOWN_VECTORS
from helpers import (OracleDealer, TamperPlan, closing_pair, consumed, count_reveal_sites,
                     counting_pair, eval_two, flip_pair, oracle_store_pair, random_circuit,
                     random_inputs, tamper_pair)
from macbits import runtime_2pc
from macbits.aescircuit import bits_to_block, block_to_bits, generate_aes_circuit
from macbits.bitlinalg import BitVec
from macbits.circuit import (AND, DEST_A, DEST_B, DEST_BOTH, EQW, INV, Circuit,
                             CircuitHeader, plain_eval)
from macbits.dealer import DealerConfig, MaterialStore
from macbits.errors import (OutOfMaterial, ProtocolAbort, TransportError,
                            UsageError)
from macbits.ro_suite import hash_calls, ro_hash
from macbits.runtime_2pc import Runtime, output_digest
from macbits.transport import MsgType, Role, TcpChannel, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB
ROOT = Path(__file__).resolve().parent.parent

AND_1 = Circuit.from_text("1 3\n1 1 1\n2 1 0 1 2 AND\n")
XOR_1 = Circuit.from_text("1 3\n1 1 1\n2 1 0 1 2 XOR\n")
SELF_XOR = Circuit.from_text("1 2\n1 1\n1 1\n2 1 0 0 1 XOR\n")
EQW_1 = Circuit.from_text("1 2\n1 1\n1 1\n1 1 0 1 EQW\n")


def eval_bits(circuit, xa_bits, xb_bits, seed=0, **kw):
    rng = random.Random(seed)
    sa, sb = oracle_store_pair(circuit, rng)
    xa = BitVec.from_bits(xa_bits)
    xb = BitVec.from_bits(xb_bits)
    return eval_two(circuit, sa, sb, xa, xb, **kw)


@pytest.mark.parametrize("xa", [0, 1])
@pytest.mark.parametrize("xb", [0, 1])
def test_and_gate_truth_table(xa, xb):
    out_a, out_b, _, _ = eval_bits(AND_1, [xa], [xb], seed=xa * 2 + xb)
    assert out_a.bits() == out_b.bits() == [xa & xb]


@pytest.mark.parametrize("xa", [0, 1])
@pytest.mark.parametrize("xb", [0, 1])
def test_xor_gate_truth_table(xa, xb):
    out_a, out_b, _, _ = eval_bits(XOR_1, [xa], [xb], seed=xa * 2 + xb)
    assert out_a.bits() == out_b.bits() == [xa ^ xb]


@pytest.mark.parametrize("x", [0, 1])
def test_share_xor_itself_is_constant_zero(x):
    # a ^ a collapses to an all-zero share on both halves
    out_a, out_b, _, _ = eval_bits(SELF_XOR, [x], [], seed=x)
    assert out_a.bits() == out_b.bits() == [0]


def test_inv_and_eqw():
    c = Circuit.from_text("2 4\n1 1 2\n1 1 0 2 INV\n1 1 1 3 EQ\n")
    for xa in (0, 1):
        for xb in (0, 1):
            out_a, out_b, _, _ = eval_bits(c, [xa], [xb], seed=xa * 2 + xb)
            assert out_a == out_b
            assert out_a.bits() == [xa ^ 1, xb]


def test_matches_cleartext_on_random_circuits():
    rng = random.Random(42)
    for trial in range(15):
        c = random_circuit(rng, 60)
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        want = plain_eval(c, xa, xb)
        out_a, out_b, rt_a, rt_b = eval_two(c, sa, sb, xa, xb)
        assert out_a == want and out_b == want
        assert rt_a.stats.and_gates == rt_b.stats.and_gates == c.n_and


def test_one_and_batch_per_level():
    rng = random.Random(7)
    for _ in range(5):
        c = random_circuit(rng, 80)
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        out_a, out_b, rt_a, rt_b = eval_two(c, sa, sb, xa, xb)
        want = [len(ands[0]) for ands, _ in c.row_schedule[1] if ands is not None]
        assert len(want) > 1
        assert rt_a.stats.levels == rt_b.stats.levels == want
        assert out_a == out_b == plain_eval(c, xa, xb)


def test_aes_runs_its_40_and_levels():
    c = generate_aes_circuit()
    key, pt, ct = KNOWN_VECTORS[0]
    sa, sb = oracle_store_pair(c, random.Random(14))
    before = hash_calls("acc/")
    out_a, out_b, rt_a, rt_b = eval_two(c, sa, sb, block_to_bits(key),
                                        block_to_bits(pt), timeout=300.0)
    # one absorb per chain per level: the sent and the expected, each side
    assert hash_calls("acc/") - before == 2 * 2 * 40
    assert len(rt_a.stats.levels) == len(rt_b.stats.levels) == 40
    assert out_a == out_b == plain_eval(c, block_to_bits(key), block_to_bits(pt))
    assert bits_to_block(out_a) == ct


def test_routed_outputs():
    rng = random.Random(9)
    c = random_circuit(rng, 40, n_outputs=2).with_output_dest([DEST_A, DEST_B])
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    want = plain_eval(c, xa, xb)
    out_a, out_b, rt_a, rt_b = eval_two(c, sa, sb, xa, xb)
    assert out_a.bits() == [want[0]]
    assert out_b.bits() == [want[1]]
    assert rt_a.stats.output_reveals_sent == 1
    assert rt_a.stats.output_reveals_received == 1
    assert rt_b.stats.output_reveals_sent == 1


def routed_tail_circuit(rng):
    """A random circuit whose outputs end in: an input wire copied by EQW, an
    AND output that a later AND output also reads, and an INV chain on that
    AND; each output goes to A, B or both at random."""
    body = random_circuit(rng, rng.randrange(20, 60), n_outputs=1)
    h = body.header
    rows = body.table.tolist()
    wire = h.n_wires
    tail = [(EQW, rng.randrange(h.n_inputs), None),
            (AND, rng.randrange(wire), rng.randrange(wire)),
            (AND, wire + 1, rng.randrange(wire)),
            (INV, wire + 2, None), (INV, wire + 3, None), (INV, wire + 4, None)]
    for kind, a, b in tail:
        rows.append((kind, a, a if b is None else b, wire))
        wire += 1
    dests = [DEST_A, DEST_B, DEST_BOTH] + [rng.choice((DEST_A, DEST_B, DEST_BOTH))
                                           for _ in tail[3:]]
    rng.shuffle(dests)
    header = CircuitHeader(len(rows), wire, h.inputs_a, h.inputs_b, len(tail),
                           tuple(dests))
    return Circuit(header, rows)


def test_routed_outputs_match_cleartext_on_random_circuits():
    rng = random.Random(29)
    for _ in range(8):
        c = routed_tail_circuit(rng)
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        want = plain_eval(c, xa, xb).bits()
        dest = c.header.output_dest
        out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb)
        assert out_a.bits() == [v for v, d in zip(want, dest) if d in (DEST_A, DEST_BOTH)]
        assert out_b.bits() == [v for v, d in zip(want, dest) if d in (DEST_B, DEST_BOTH)]


@pytest.mark.parametrize("make", [lambda rng: random_circuit(rng, 80),
                                  routed_tail_circuit,
                                  lambda rng: generate_aes_circuit()])
def test_wire_rows_follow_the_schedule(make):
    """Inputs and the two constants keep their rows; every group of the
    schedule fills the next slice of rows, each row the output of the gate
    whose input rows the group lists, in file order."""
    c = make(random.Random(30))
    h = c.header
    rows, levels = c.row_schedule
    assert sorted(rows.tolist()) == list(range(h.n_wires + 2))
    assert rows[:h.n_inputs].tolist() == list(range(h.n_inputs))
    assert rows[h.n_wires:].tolist() == [h.n_wires, h.n_wires + 1]
    kind, a, b, out = c.table.T
    second = rows[np.select([kind == EQW, kind == INV], [h.n_wires, h.n_wires + 1], b)]
    gate = np.full(h.n_wires + 2, -1)
    gate[rows[out]] = np.arange(h.n_gates)  # the gate that fills each row
    groups = []  # (is AND, first input rows, second input rows, output rows)
    for ands, steps in levels:
        if ands is not None:
            ins, o0 = ands
            groups.append((True, ins[:, 0], ins[:, 1], slice(o0, o0 + len(ins))))
        groups += [(False, *step) for step in steps]
    at = h.n_inputs
    for is_and, ra, rb, sl in groups:
        g = gate[sl]
        assert sl.start == at < sl.stop
        assert g.tolist() == sorted(g.tolist())
        assert ((kind[g] == AND) == is_and).all()
        assert rows[a[g]].tolist() == ra.tolist() and second[g].tolist() == rb.tolist()
        at = sl.stop
    assert at == h.n_wires


def replay_store(store):
    """A fresh copy of a store: the same records, every cursor at the start."""
    return MaterialStore(store.role, store.kappa, store.psi, store.session_id,
                         store.gk_commit, store.delta,
                         *(getattr(store, name) for name in MaterialStore.STREAMS))


def test_two_circuits_then_a_replay_of_the_first():
    rng = random.Random(31)
    first, second = (random_circuit(rng, 60) for _ in range(2))
    inputs = [random_inputs(c, rng) for c in (first, second)]
    stores = [oracle_store_pair(c, rng) for c in (first, second)]
    fresh = [replay_store(s) for s in stores[0]]
    for c, (sa, sb), (xa, xb) in zip((first, second, first), (*stores, fresh),
                                     (*inputs, inputs[0])):
        out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb)
        assert out_a == out_b == plain_eval(c, xa, xb)


# ---------------------------------------------------------------------------
# stats and traffic schedule


def test_announced_bit_schedule():
    rng = random.Random(10)
    c = random_circuit(rng, 60)
    assert c.n_and > 0
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    _, _, rt_a, rt_b = eval_two(c, sa, sb, xa, xb)
    for rt in (rt_a, rt_b):
        # two announced bits per AND gate per party, four total
        assert rt.stats.bits_revealed == 2 * c.n_and
        assert rt.stats.bits_expected == 2 * c.n_and
        assert sum(rt.stats.levels) == c.n_and
        assert rt.stats.flushes == 1
    assert rt_a.stats.levels == rt_b.stats.levels
    assert rt_a.stats.input_bits_sent == c.header.inputs_a
    assert rt_a.stats.input_bits_received == c.header.inputs_b


def test_per_and_material_consumption():
    rng = random.Random(11)
    c = random_circuit(rng, 60)
    n_and = c.n_and
    assert n_and > 0
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    eval_two(c, sa, sb, xa, xb)
    h = c.header
    for store, mine in ((sa, h.inputs_a), (sb, h.inputs_b)):
        used = consumed(store)
        assert used["triples"] == n_and
        assert used["abits_mine"] == mine
        assert used["abits_theirs"] == h.n_inputs - mine


def cut_store(store, counts):
    """A copy of a store holding the first counts[name] records of each
    stream, every cursor at the start."""
    return MaterialStore(store.role, store.kappa, store.psi, store.session_id,
                         store.gk_commit, store.delta,
                         *((m[:counts[name]], k[:counts[name]])
                           for name in MaterialStore.STREAMS
                           for m, k in [getattr(store, name)]))


def test_staging_burns_the_records_the_levels_use():
    """The AND material is burned at once, once the inputs are shared: stores
    with surplus records in every stream send the same frames and give the
    same outputs as the same stores cut to the circuit's exact need, and
    keep the surplus."""
    rng = random.Random(41)
    c = random_circuit(rng, 80)
    assert sum(ands is not None for ands, _ in c.row_schedule[1]) > 1
    h = c.header
    need = DealerConfig.for_gates(c.n_and, h.inputs_a, h.inputs_b)
    surplus = oracle_store_pair(c, rng, slack=5)
    exact = [cut_store(s, need.records(s.role)) for s in surplus]
    xa, xb = random_inputs(c, rng)
    runs = []
    for sa, sb in (surplus, exact):
        with closing_pair(counting_pair(timeout=60.0)) as (ca, cb):
            rt_a, rt_b = Runtime(ca, A, sa), Runtime(cb, B, sb)
            outs = run_pair(lambda: rt_a.evaluate(c, xa), lambda: rt_b.evaluate(c, xb),
                            timeout=60, channels=(ca, cb))
        runs.append((outs, ca.sent, cb.sent))
    assert runs[0] == runs[1]
    out_a, out_b = runs[0][0]
    assert out_a == out_b == plain_eval(c, xa, xb)
    for big, cut in zip(surplus, exact):
        for name, n in need.records(big.role).items():
            assert cut.remaining(name) == 0
            assert big.remaining(name) == len(getattr(big, name)[0]) - n > 0


def test_and_levels_take_no_material(monkeypatch):
    """Past its inputs a party takes its AND gates' triples in one call,
    however many levels the circuit has."""
    rng = random.Random(42)
    c = random_circuit(rng, 120)
    assert sum(ands is not None for ands, _ in c.row_schedule[1]) > 2
    calls = {A: [], B: []}
    take = MaterialStore.take

    def counted(store, name, n):
        calls[store.role].append((name, n))
        return take(store, name, n)

    monkeypatch.setattr(MaterialStore, "take", counted)
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    out_a, _, _, _ = eval_two(c, sa, sb, xa, xb)
    assert out_a == plain_eval(c, xa, xb)
    h = c.header
    for role, mine, theirs in ((A, h.inputs_a, h.inputs_b), (B, h.inputs_b, h.inputs_a)):
        assert calls[role][:2] == [("abits_mine", mine), ("abits_theirs", theirs)]
        assert calls[role][2:] == [("triples", c.n_and)]


def test_xor_only_circuit_consumes_no_and_material():
    rng = random.Random(12)
    c = random_circuit(rng, 50, kinds=("XOR", "INV", "EQW"))
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    out_a, _, _, _ = eval_two(c, sa, sb, xa, xb)
    assert out_a == plain_eval(c, xa, xb)
    used = consumed(sa)
    assert used["triples"] == 0
    assert used["abits_mine"] == c.header.inputs_a


def test_exact_wire_bytes_follow_level_schedule():
    rng = random.Random(13)
    c = random_circuit(rng, 60)
    assert c.n_and > 0
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    with closing_pair(memory_pair(timeout=60.0)) as (ca, cb):
        rt_a = Runtime(ca, A, sa)
        rt_b = Runtime(cb, B, sb)
        run_pair(lambda: rt_a.evaluate(c, xa), lambda: rt_b.evaluate(c, xb),
                 timeout=60, channels=(ca, cb))

    levels = rt_a.stats.levels
    h = c.header
    hello = 25 + 32  # fixed hello fields, then the deal's tag
    # all outputs go both ways, as packed bits, then a kappa/8-byte digest
    out_bytes = (h.n_outputs + 7) // 8 + 16 // 8

    pay_a = (hello + (h.inputs_a + 7) // 8
             + sum((2 * n + 7) // 8 for n in levels)
             + 32 + out_bytes)
    frames_a = 1 + 1 + len(levels) + 1 + 1
    assert ca.stats.bytes_sent == pay_a + 5 * frames_a

    pay_b = (hello + (h.inputs_b + 7) // 8
             + sum((2 * n + 7) // 8 for n in levels)
             + 32 + out_bytes)
    frames_b = 1 + 1 + len(levels) + 1 + 1
    assert cb.stats.bytes_sent == pay_b + 5 * frames_b
    assert ca.stats.bytes_sent == cb.stats.bytes_received


def test_online_flights_follow_and_depth():
    """Both parties' reveals of an AND level cross in one exchange, and so
    do the first level's with both hellos and both input announcements:
    with outputs going both ways each party flies one flight per AND level
    and one with its outputs, and its flush rides in its last AND level's
    flight. A circuit without AND gates swaps hellos, inputs and flush in a
    flight of its own. The benchmark's online_flights is their sum,
    2 * depth + 2 (4 at depth 0)."""
    rng = random.Random(19)
    deep = random_circuit(rng, 60)
    free = random_circuit(rng, 20, kinds=("XOR", "INV", "EQW"))
    for depth, c in ((3, deep), (1, AND_1), (0, free)):
        assert sum(ands is not None for ands, _ in c.row_schedule[1]) == depth
        assert set(c.header.output_dest) == {DEST_BOTH}
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        with closing_pair(counting_pair(timeout=60.0)) as (ca, cb):
            rt_a, rt_b = Runtime(ca, A, sa), Runtime(cb, B, sb)
            out_a, out_b = run_pair(lambda: rt_a.evaluate(c, xa),
                                    lambda: rt_b.evaluate(c, xb),
                                    timeout=60, channels=(ca, cb))
        assert out_a == out_b == plain_eval(c, xa, xb)
        assert (ca.flights, cb.flights) == (max(depth, 1) + 1,) * 2, depth
        first = ["HELLO", "RT_ANNOUNCE_BATCH"] + ["RT_REVEAL_BATCH"] * (depth > 0)
        if depth < 2:
            first.append("RT_ACC_FLUSH")
        for ch in (ca, cb):
            ops = [op for op, _ in ch.log]
            assert [m.name for _, m in ch.log[:ops.index("recv")]] == first, depth


# ---------------------------------------------------------------------------
# input and output phases


def test_input_and_output_gates_round_trip():
    assert EQW_1.header.output_dest == (DEST_BOTH,)
    out_a, out_b, rt_a, _ = eval_bits(EQW_1, [1], [])
    assert out_a.bits() == out_b.bits() == [1]
    assert rt_a.stats.flushes == 1


def test_input_announcements_are_masked(monkeypatch):
    # the announced bit is x ^ mask; over many fresh masks it is unbiased
    trials = 400
    c = Circuit.from_text(f"1 {trials + 1}\n1 {trials}\n1 1\n"
                          f"1 1 0 {trials} EQW\n")
    sent_by_alice = []

    def recording_pair(timeout):
        ca, cb = memory_pair(timeout=timeout)
        send = ca.send

        def record(msg_type, payload):
            sent_by_alice.append((msg_type, payload))
            send(msg_type, payload)

        ca.send = record
        return ca, cb

    monkeypatch.setattr(helpers, "memory_pair", recording_pair)
    out_a, out_b, _, _ = eval_bits(c, [1] * trials, [], seed=1)
    assert out_a.bits() == out_b.bits() == [1]
    announced = [p for t, p in sent_by_alice if t == MsgType.RT_ANNOUNCE_BATCH]
    assert len(announced) == 1
    ones = BitVec.from_bytes(trials, announced[0]).popcount()
    assert abs(ones - trials / 2) <= 3 * (trials * 0.25) ** 0.5


def test_store_role_must_match():
    rng = random.Random(3)
    od = OracleDealer(16, rng)
    _, sb = od.store_pair(DealerConfig(kappa=16, psi=8))
    with closing_pair(memory_pair()) as (ca, _), pytest.raises(UsageError):
        Runtime(ca, A, sb)


def test_wrong_input_width():
    rng = random.Random(4)
    sa, sb = oracle_store_pair(AND_1, rng)
    xa = BitVec(2, 0)
    xb = BitVec(1, 0)
    with pytest.raises(UsageError):
        eval_two(AND_1, sa, sb, xa, xb, timeout=5)


def test_out_of_material():
    rng = random.Random(5)
    lean = random_circuit(rng, 20, kinds=("XOR",))
    rich = random_circuit(rng, 20, kinds=("AND",))
    sa, sb = oracle_store_pair(lean, rng)  # no AND material at all
    xa, xb = random_inputs(rich, rng)
    with closing_pair(memory_pair(timeout=10.0)) as (ca, cb), pytest.raises(OutOfMaterial):
        run_pair(lambda: Runtime(ca, A, sa).evaluate(rich, xa),
                 lambda: Runtime(cb, B, sb).evaluate(rich, xb),
                 timeout=10, channels=(ca, cb))
    # both sides check their stores before the hello
    assert ca.stats.frames_sent == cb.stats.frames_sent == 0


# ---------------------------------------------------------------------------
# handshake binding


def test_handshake_rejects_commit_mismatch():
    rng = random.Random(6)
    sa, sb = oracle_store_pair(AND_1, rng)
    sb.gk_commit = bytes(32)
    with pytest.raises(ProtocolAbort):
        eval_two(AND_1, sa, sb, BitVec(1, 1), BitVec(1, 1), timeout=10)


def test_both_parties_refuse_a_foreign_commitment():
    """The hellos cross in the first round, with the first level's reveals:
    with one commitment bit flipped, each party refuses the other's hello
    itself (phase "hello"), and neither sends an output."""
    rng = random.Random(22)
    c = random_circuit(rng, 40)
    sa, sb = oracle_store_pair(c, rng)
    sb.gk_commit = bytes([sb.gk_commit[0] ^ 1]) + sb.gk_commit[1:]
    xa, xb = random_inputs(c, rng)
    errors = {}

    def evaluate(ch, role, store, x):
        try:
            Runtime(ch, role, store).evaluate(c, x)
        except Exception as e:  # noqa: BLE001 - checked below
            errors[role] = e

    with closing_pair(counting_pair(timeout=10.0)) as (ca, cb):
        threads = [threading.Thread(target=evaluate, args=args, daemon=True)
                   for args in ((ca, A, sa, xa), (cb, B, sb, xb))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
            assert not t.is_alive()
        sent = [[m for m, _ in ch.sent] for ch in (ca, cb)]
    assert {r: (type(e), e.phase) for r, e in errors.items()} == \
        {A: (ProtocolAbort, "hello"), B: (ProtocolAbort, "hello")}
    for frames in sent:
        assert MsgType.HELLO in frames and MsgType.RT_OUTPUT not in frames


# Alice's wires 0, 1 and Bob's 2, 3; the outputs are 2 & 0 (an AND level),
# 1 ^ 3 ^ 2 (XORs only) and a copy of Bob's input wire 3
ROUTED = Circuit.from_text("4 8\n2 2 3\n"
                           "2 1 1 3 4 XOR\n2 1 0 2 5 AND\n2 1 4 2 6 XOR\n1 1 3 7 EQW\n")


def test_input_wires_through_free_gates_to_outputs():
    """Input wires that reach outputs through free gates only, or straight
    through a copy, open to their plain values."""
    rng = random.Random(23)
    for v in range(16):
        xa, xb = BitVec.from_bits([v & 1, v >> 1 & 1]), BitVec.from_bits([v >> 2 & 1, v >> 3])
        sa, sb = oracle_store_pair(ROUTED, rng)
        out_a, out_b, _, _ = eval_two(ROUTED, sa, sb, xa, xb, timeout=20)
        assert out_a == out_b == plain_eval(ROUTED, xa, xb), v


@pytest.mark.parametrize("cheater", [A, B], ids=["alice-wire-1-via-xors", "bob-wire-3-copied"])
def test_a_flipped_announcement_aborts_at_the_output_digest(cheater):
    """A party that flips the announced masked bit of its second input wire
    (frame 1, bit 1, after its hello) leaves the peer's key on that wire
    off by delta. The wire reaches an output through free gates only, so no
    AND level's flush sees it, and the peer refuses the output's digest."""
    rng = random.Random(24)
    sa, sb = oracle_store_pair(ROUTED, rng)
    xa, xb = random_inputs(ROUTED, rng)
    with closing_pair(flip_pair(cheater, 1, 1, timeout=20.0)) as (ca, cb):
        with pytest.raises(ProtocolAbort) as e:
            run_pair(lambda: Runtime(ca, A, sa).evaluate(ROUTED, xa),
                     lambda: Runtime(cb, B, sb).evaluate(ROUTED, xb),
                     timeout=20, channels=(ca, cb))
        assert ({A: ca, B: cb}[cheater].sent[1][0]) is MsgType.RT_ANNOUNCE_BATCH
    assert e.value.phase == "output"


def test_handshake_rejects_foreign_session():
    # Bob sees the session id mismatch (ProtocolError) and hangs up; Alice
    # only observes the hangup, so either transport-layer error may surface.
    rng = random.Random(7)
    sa, _ = oracle_store_pair(AND_1, rng)
    _, sb = oracle_store_pair(AND_1, random.Random(8))
    with pytest.raises(TransportError):
        eval_two(AND_1, sa, sb, BitVec(1, 1), BitVec(1, 1), timeout=10)


def test_schedule_is_cached_before_the_hello():
    """`evaluate` builds the circuit's schedule before its hello goes out,
    so a first evaluation does not build it while the peer waits."""

    class HelloWatch(TcpChannel):
        def __init__(self, sock, circuit):
            super().__init__(sock, 20.0)
            self.circuit, self.cached = circuit, []

        def _send_frame(self, msg_type, payload):
            if msg_type is MsgType.HELLO:
                self.cached.append("row_schedule" in vars(self.circuit))
            super()._send_frame(msg_type, payload)

    rng = random.Random(21)
    c = random_circuit(rng, 40)
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    # each party reads its own copy, unscheduled until its evaluate
    ca, cb = (HelloWatch(s, Circuit(c.header, c.table)) for s in socket.socketpair())
    with closing_pair((ca, cb)):
        out_a, out_b = run_pair(lambda: Runtime(ca, A, sa).evaluate(ca.circuit, xa),
                                lambda: Runtime(cb, B, sb).evaluate(cb.circuit, xb),
                                timeout=20, channels=(ca, cb))
    assert out_a == out_b == plain_eval(c, xa, xb)
    assert ca.cached == cb.cached == [True]


# ---------------------------------------------------------------------------
# fault injection


def test_reveal_site_census():
    """The sites the tamper sweep numbers are the bits an honest run reveals:
    its RT_REVEAL_BATCH bits (2n per AND level of n gates, one frame) and the
    output bits of its RT_OUTPUT frame, which a kappa/8-byte digest
    follows."""
    rng = random.Random(14)
    c = random_circuit(rng, 30, n_outputs=8)
    assert c.n_and > 0 and c.header.output_dest == (DEST_BOTH,) * 8
    routed = c.with_output_dest([DEST_A] * 8)
    for circuit in (c, routed):
        sa, sb = oracle_store_pair(circuit, rng)
        xa, xb = random_inputs(circuit, rng)
        with closing_pair(counting_pair(timeout=60.0)) as (ca, cb):
            rt_a, rt_b = Runtime(ca, A, sa), Runtime(cb, B, sb)
            run_pair(lambda: rt_a.evaluate(circuit, xa), lambda: rt_b.evaluate(circuit, xb),
                     timeout=60, channels=(ca, cb))
        for ch, rt in ((ca, rt_a), (cb, rt_b)):
            reveals = [p for t, p in ch.sent if t is MsgType.RT_REVEAL_BATCH]
            bits = [2 * n for n in rt.stats.levels]
            assert [len(p) for p in reveals] == [(b + 7) // 8 for b in bits]
            outputs = [p for t, p in ch.sent if t is MsgType.RT_OUTPUT]
            rows = rt.stats.output_reveals_sent
            assert [len(p) for p in outputs] == ([(rows + 7) // 8 + sa.kappa // 8]
                                                 if rows else [])
            assert sum(bits) + rows == count_reveal_sites(circuit, rt.role)
    assert count_reveal_sites(c, A) == 2 * c.n_and + 8
    assert count_reveal_sites(routed, A) == 2 * c.n_and
    assert count_reveal_sites(routed, B) == 2 * c.n_and + 8


@pytest.mark.parametrize("mode", ["bit", "mac"])
@pytest.mark.parametrize("cheater", [A, B])
def test_single_site_tamper_sample_is_caught(mode, cheater):
    rng = random.Random(15)
    c = random_circuit(rng, 30)
    assert c.n_and > 0
    n_sites = count_reveal_sites(c, cheater)
    xa, xb = random_inputs(c, rng)
    # first reveal, last AND reveal, first output reveal
    for site in (0, 2 * c.n_and - 1, 2 * c.n_and):
        sa, sb = oracle_store_pair(c, random.Random(16))
        plan = TamperPlan(site, mode)
        kw = {"tamper_a": plan} if cheater is A else {"tamper_b": plan}
        with pytest.raises(ProtocolAbort):
            eval_two(c, sa, sb, xa, xb, timeout=20, **kw)
    # one past the last site never fires
    sa, sb = oracle_store_pair(c, random.Random(17))
    plan = TamperPlan(n_sites, mode)
    kw = {"tamper_a": plan} if cheater is A else {"tamper_b": plan}
    out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb, timeout=20, **kw)
    assert out_a == out_b == plain_eval(c, xa, xb)


@pytest.mark.parametrize("mode", ["bit", "mac"])
def test_failed_flush_reveals_no_output(mode):
    """Bob flips his first AND reveal bit, or his flush digest: honest Alice
    aborts at the flush and sends no RT_OUTPUT frame."""
    rng = random.Random(18)
    c = random_circuit(rng, 30)
    # an honest Alice reveals outputs to Bob after the flush
    assert c.n_and > 0 and DEST_BOTH in c.header.output_dest
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    ca, cb = tamper_pair(c, sa.kappa, plan_b=TamperPlan(0, mode), timeout=20.0)
    rt_a, rt_b = Runtime(ca, A, sa), Runtime(cb, B, sb)
    aborts = []

    def alice():
        try:
            return rt_a.evaluate(c, xa)
        except ProtocolAbort as e:
            aborts.append(e.phase)
            raise

    with closing_pair((ca, cb)), pytest.raises(ProtocolAbort):
        run_pair(alice, lambda: rt_b.evaluate(c, xb), timeout=20, channels=(ca, cb))
    assert aborts == ["flush"]
    sent = [t for t, _ in ca.sent]
    assert MsgType.RT_ACC_FLUSH in sent
    assert MsgType.RT_OUTPUT not in sent


def _output_frame_index(circuit, cheater, xa, xb):
    """The index, among the frames `cheater` sends, of its RT_OUTPUT frame,
    and that frame's payload, in an honest run."""
    sa, sb = oracle_store_pair(circuit, random.Random(22))
    with closing_pair(counting_pair(timeout=20.0)) as (ca, cb):
        run_pair(lambda: Runtime(ca, A, sa).evaluate(circuit, xa),
                 lambda: Runtime(cb, B, sb).evaluate(circuit, xb),
                 timeout=20, channels=(ca, cb))
    sent = (ca if cheater is A else cb).sent
    (k,) = [k for k, (t, _) in enumerate(sent) if t is MsgType.RT_OUTPUT]
    return k, sent[k][1]


@pytest.mark.parametrize("dest", [(DEST_BOTH,) * 3, (DEST_B,) * 3, (DEST_A, DEST_BOTH, DEST_A)],
                         ids=["both", "to-B", "mixed"])
def test_any_output_bit_or_digest_bit_flip_aborts(dest):
    """A cheater flips one bit of its RT_OUTPUT frame, any output bit or any
    bit of the kappa/8-byte digest after them: the honest party aborts in
    the output phase. A party that sends no outputs has no frame to flip."""
    rng = random.Random(23)
    c = random_circuit(rng, 30, n_outputs=3).with_output_dest(dest)
    xa, xb = random_inputs(c, rng)
    kb = 16 // 8  # oracle stores are dealt at kappa = 16
    for cheater in (A, B):
        peer_dest = DEST_B if cheater is A else DEST_A
        n = sum(d in (peer_dest, DEST_BOTH) for d in dest)
        if not n:
            continue
        k, payload = _output_frame_index(c, cheater, xa, xb)
        nb = (n + 7) // 8
        assert len(payload) == nb + kb
        for bit in [*range(n), *range(8 * nb, 8 * (nb + kb))]:
            sa, sb = oracle_store_pair(c, random.Random(22))
            ca, cb = flip_pair(cheater, k, bit, timeout=20.0)
            with closing_pair((ca, cb)), pytest.raises(ProtocolAbort) as e:
                run_pair(lambda: Runtime(ca, A, sa).evaluate(c, xa),
                         lambda: Runtime(cb, B, sb).evaluate(c, xb),
                         timeout=20, channels=(ca, cb))
            assert e.value.phase == "output", (cheater, bit)


def test_outputs_to_bob_are_alices_bits_and_one_digest(monkeypatch):
    """With every output routed to Bob, Alice's RT_OUTPUT frame is the
    packed bits of her shares of the outputs, then the digest of their MACs,
    which Bob recomputes from his keys; Bob sends no RT_OUTPUT frame."""
    rng = random.Random(24)
    c = random_circuit(rng, 40, n_outputs=12).with_output_dest([DEST_B] * 12)
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    digested = []
    digest = runtime_2pc.output_digest

    def recorded(macs):
        digested.append(macs.copy())
        return digest(macs)

    monkeypatch.setattr(runtime_2pc, "output_digest", recorded)
    with closing_pair(counting_pair(timeout=20.0)) as (ca, cb):
        out_a, out_b = run_pair(lambda: Runtime(ca, A, sa).evaluate(c, xa),
                                lambda: Runtime(cb, B, sb).evaluate(c, xb),
                                timeout=20, channels=(ca, cb))
    assert out_a.n == 0 and out_b == plain_eval(c, xa, xb)
    assert MsgType.RT_OUTPUT not in [t for t, _ in cb.sent]
    (frame,) = [p for t, p in ca.sent if t is MsgType.RT_OUTPUT]
    # Alice's MACs on her bits, then the MACs Bob expects of the bits he read
    mine, expected = digested
    assert mine.shape == (12, 2) and np.array_equal(mine, expected)
    nb = (12 + 7) // 8  # the packed bits, then a kappa/8 = 2-byte digest
    assert len(frame) == nb + 2
    assert frame[nb:] == ro_hash("rt/out", mine)[:2]


def test_output_forgery_rate_at_reduced_kappa():
    """At kappa = 8 a cheater flips its one output bit b and guesses the
    1-byte digest: the receiver, who now expects the MAC key ^ (b ^ 1) *
    delta, accepts at a rate within 3 sigma of 2^-8."""
    trials = 10 ** 5
    rng = np.random.default_rng(1011)
    delta, key, guess = rng.integers(0, 256, (3, trials), dtype=np.uint8)
    bit = rng.integers(0, 2, trials, dtype=np.uint8)
    expected = (key ^ (bit ^ 1) * delta).reshape(trials, 1, 1)
    hits = sum(output_digest(e)[0] == g for e, g in zip(expected, guess.tolist()))
    rate, want = hits / trials, 2.0 ** -8
    assert abs(rate - want) <= 3 * (want * (1 - want) / trials) ** 0.5, rate


def test_online_replay_script(tmp_path):
    """scripts/online_replay.py records a two-party evaluation of a small
    circuit, then times Alice's evaluation against a replay of Bob's frames.
    Each party sends its hello (62 bytes with its header), its inputs (6)
    and the first level's reveals (6) in one flight, the second level's
    reveals (6) with the flush (37) in the next, and one output bit with its
    16-byte digest (22) in the last: 139 bytes in depth + 1 = 3 flights."""
    path = tmp_path / "and3.txt"
    path.write_text("3 7\n2 2 1\n2 1 0 2 4 AND\n2 1 1 3 5 AND\n2 1 4 5 6 AND\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "online_replay.py"),
                           "--circuit", str(path), "--runs", "2"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{path}: 3 AND gates in 2 levels; Alice reads 6 frames, sends 6"
    assert lines[1] == "Alice sends 139 bytes in 3 flights"
    assert lines[2] == "Bob sends 139 bytes in 3 flights"
    assert re.fullmatch(r"evaluate: median [0-9.]+ ms, fastest [0-9.]+ ms over 2 runs",
                        lines[3]), lines[3]
    for name, line in zip(("_and_open", "_and_close"), lines[4:], strict=True):
        assert re.fullmatch(rf"{name}: median [0-9.]+ ms per evaluation", line), line
