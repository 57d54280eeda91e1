import random

import pytest

import helpers
from helpers import (OracleDealer, eval_two, oracle_store_pair,
                     random_circuit, random_inputs)
from macbits.bitlinalg import BitVec
from macbits.circuit import DEST_A, DEST_B, DEST_BOTH, Circuit, plain_eval
from macbits.dealer import DealerConfig
from macbits.errors import (OutOfMaterial, ProtocolAbort, TransportError,
                            UsageError)
from macbits.runtime_2pc import Runtime, TamperPlan, count_reveal_sites
from macbits.transport import MsgType, Role, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB

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


def test_chunk_size_does_not_change_results():
    rng = random.Random(7)
    c = random_circuit(rng, 80)
    xa, xb = random_inputs(c, rng)
    want = plain_eval(c, xa, xb)
    for chunk in (1, 7, 1024):
        sa, sb = oracle_store_pair(c, random.Random(8))
        out_a, _, rt_a, _ = eval_two(c, sa, sb, xa, xb, chunk_size=chunk)
        assert out_a == want
        if chunk == 1:
            assert all(n == 1 for n in rt_a.stats.levels)


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
        # five announced bits per AND gate per party, ten total
        assert rt.stats.bits_revealed == 5 * c.n_and
        assert rt.stats.bits_expected == 5 * c.n_and
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
        used = store.consumed()
        assert used["aands_mine"] == n_and
        assert used["aands_theirs"] == n_and
        assert used["aots_sender"] == n_and
        assert used["aots_receiver"] == n_and
        assert used["abits_mine"] == mine + n_and
        assert used["abits_theirs"] == (h.n_inputs - mine) + n_and


def test_xor_only_circuit_consumes_no_and_material():
    rng = random.Random(12)
    c = random_circuit(rng, 50, kinds=("XOR", "INV", "EQW"))
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    out_a, _, _, _ = eval_two(c, sa, sb, xa, xb)
    assert out_a == plain_eval(c, xa, xb)
    used = sa.consumed()
    assert used["aands_mine"] == used["aands_theirs"] == 0
    assert used["aots_sender"] == used["aots_receiver"] == 0
    assert used["abits_mine"] == c.header.inputs_a


def test_exact_wire_bytes_follow_level_schedule():
    rng = random.Random(13)
    c = random_circuit(rng, 60)
    assert c.n_and > 0
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    ca, cb = memory_pair(timeout=60.0)
    rt_a = Runtime(ca, A, sa)
    rt_b = Runtime(cb, B, sb)
    run_pair(rt_a.handshake, rt_b.handshake, timeout=60)
    base_a, base_b = ca.stats.bytes_sent, cb.stats.bytes_sent

    run_pair(lambda: rt_a.evaluate(c, xa), lambda: rt_b.evaluate(c, xb),
             timeout=60)

    levels = rt_a.stats.levels
    h = c.header
    out_bytes = (h.n_outputs * (1 + 16) + 7) // 8  # all outputs go both ways

    pay_a = ((h.inputs_a + 7) // 8
             + sum((5 * n + 7) // 8 for n in levels)
             + 40 + out_bytes)
    frames_a = 1 + len(levels) + 1 + 1
    assert ca.stats.bytes_sent - base_a == pay_a + 5 * frames_a

    pay_b = ((h.inputs_b + 7) // 8
             + sum((3 * n + 7) // 8 + (2 * n + 7) // 8 for n in levels)
             + 40 + out_bytes)
    frames_b = 1 + 2 * len(levels) + 1 + 1
    assert cb.stats.bytes_sent - base_b == pay_b + 5 * frames_b
    assert ca.stats.bytes_sent == cb.stats.bytes_received


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
    ca, _ = memory_pair()
    with pytest.raises(UsageError):
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
    with pytest.raises(OutOfMaterial):
        eval_two(rich, sa, sb, xa, xb, timeout=10)


# ---------------------------------------------------------------------------
# handshake binding


def test_handshake_rejects_commit_mismatch():
    rng = random.Random(6)
    sa, sb = oracle_store_pair(AND_1, rng)
    sb.gk_commit = bytes(32)
    with pytest.raises(ProtocolAbort):
        eval_two(AND_1, sa, sb, BitVec(1, 1), BitVec(1, 1), timeout=10)


def test_handshake_rejects_foreign_session():
    # Bob sees the session id mismatch (ProtocolError) and hangs up; Alice
    # only observes the hangup, so either transport-layer error may surface.
    rng = random.Random(7)
    sa, _ = oracle_store_pair(AND_1, rng)
    _, sb = oracle_store_pair(AND_1, random.Random(8))
    with pytest.raises(TransportError):
        eval_two(AND_1, sa, sb, BitVec(1, 1), BitVec(1, 1), timeout=10)


# ---------------------------------------------------------------------------
# fault injection


def test_reveal_site_census():
    rng = random.Random(14)
    c = random_circuit(rng, 30, n_outputs=8)
    assert count_reveal_sites(c, A) == 5 * c.n_and + 8
    routed = c.with_output_dest([DEST_A] * 8)
    assert count_reveal_sites(routed, A) == 5 * c.n_and
    assert count_reveal_sites(routed, B) == 5 * c.n_and + 8


@pytest.mark.parametrize("mode", ["bit", "mac"])
@pytest.mark.parametrize("cheater", [A, B])
def test_single_site_tamper_sample_is_caught(mode, cheater):
    rng = random.Random(15)
    c = random_circuit(rng, 30)
    assert c.n_and > 0
    n_sites = count_reveal_sites(c, cheater)
    xa, xb = random_inputs(c, rng)
    # first reveal, last AND reveal, first output reveal
    for site in (0, 5 * c.n_and - 1, 5 * c.n_and):
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
