import os
import random
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (OracleDealer, bit_rows, closing_pair, consumed, counting_pair, eval_two,
                     flip_pair, random_circuit, random_inputs, run_side, run_two, to_rows)
from macbits import base_ot
from macbits.abit_proto import tau_for
from macbits.base_ot import SEED_BITS
from macbits.bitlinalg import random_rows
from macbits.dealer import (DealerConfig, MaterialStore, _flush, deal,
                            flush_accumulators, verify_stores)
from macbits.circuit import plain_eval
from macbits.errors import (OutOfMaterial, ParseError, ProtocolAbort, ProtocolError,
                            TransportError, UsageError)
from macbits.ro_suite import MacAccumulator, expand, hash_calls, reset_hash_calls
from macbits.runtime_2pc import Runtime
from macbits.transport import MsgType, Role, run_pair

A, B = Role.ALICE, Role.BOB
ROOT = Path(__file__).resolve().parents[1]


def test_config_validation():
    with pytest.raises(UsageError):
        DealerConfig(kappa=12)
    with pytest.raises(UsageError):
        DealerConfig(kappa=264)
    with pytest.raises(UsageError):
        DealerConfig(psi=0)
    with pytest.raises(UsageError):  # the hello and the store header carry psi in 16 bits
        DealerConfig.for_gates(1, 1, 1, kappa=16, psi=1 << 16)
    with pytest.raises(UsageError):
        DealerConfig(n_and=-1)
    with pytest.raises(UsageError):
        DealerConfig(inputs_b=-1)
    with pytest.raises(UsageError):
        DealerConfig(bucket_B=1)


def test_for_gates_counts():
    cfg = DealerConfig.for_gates(100, 16, 8, kappa=16, psi=8)
    assert cfg == DealerConfig(n_and=100, inputs_a=16, inputs_b=8, kappa=16, psi=8)
    assert cfg.records(A) == {"abits_mine": 16, "abits_theirs": 8, "triples": 100}
    assert cfg.records(B) == {"abits_mine": 8, "abits_theirs": 16, "triples": 100}


def test_bucket():
    assert DealerConfig(psi=40).bucket == 0
    assert DealerConfig(n_and=1024, psi=40).bucket == 5
    assert DealerConfig(n_and=1024, psi=40, bucket_B=3).bucket == 3
    assert DealerConfig(psi=40, bucket_B=3).bucket == 0


def test_abit_demand_arithmetic():
    # 10^4 triples at B=4 eat 3*4*10^4 owner bits; each quad direction at
    # B=4 eats 2*4*10^4 bits from each party; fresh bits come on top.
    cfg = DealerConfig.for_gates(10**4, 128, 128, kappa=128, psi=40)
    assert cfg.bucket == 4
    want = (10**4 + 128) + 3 * 4 * 10**4 + 2 * 4 * 10**4 + 2 * 4 * 10**4
    assert cfg.abit_demand(A) == want == 290_128
    assert cfg.abit_demand(B) == want


def test_abit_demand_asymmetric():
    cfg = DealerConfig.for_gates(3, 5, 0, kappa=16, psi=8)
    bkt = cfg.bucket
    assert cfg.abit_demand(A) == 5 + 3 * (1 + 7 * bkt)
    assert cfg.abit_demand(B) == 3 * (1 + 7 * bkt)
    assert DealerConfig.for_gates(0, 5, 0).abit_demand(B) == 0


# ---------------------------------------------------------------------------
# full offline phase


SMALL = DealerConfig.for_gates(3, 5, 3, kappa=16, psi=8)


def run_deal(cfg, seed=0, timeout=60):
    rng_a, rng_b = random.Random(seed), random.Random(seed + 1)
    return run_two(lambda a: deal(a, A, cfg, rng_a),
                   lambda b: deal(b, B, cfg, rng_b),
                   timeout=timeout)


def test_deal_produces_verified_material():
    sa, sb = run_deal(SMALL)
    assert sa.session_id == sb.session_id
    assert sa.gk_commit == sb.gk_commit
    for store in (sa, sb):
        assert {name: store.remaining(name) for name in MaterialStore.STREAMS} \
            == SMALL.records(store.role)
    assert (len(sa.abits_mine[0]), len(sb.abits_mine[0])) == (5, 3)
    checked = verify_stores(sa, sb)
    # each party's input aBits and the MACs of its 3 * 3 triple shares, and
    # 3 products
    assert checked == (5 + 9) + (3 + 9) + 3


def test_deal_tag_binds_the_material():
    """Two deals with Alice's seed, so her session id, and two Bob seeds:
    each deal's stores share a tag, but Alice's store of one and Bob's of
    the other, though they name the same session id, are refused at the
    online hello, because each tag digests its deal's flushes, which chain
    the MACs the deal revealed."""
    rng = random.Random(4)
    c = random_circuit(rng, 20, inputs_a=5, inputs_b=3)
    cfg = DealerConfig.for_gates(c.n_and, 5, 3, kappa=16, psi=8)
    assert cfg.n_and > 0
    (sa, sb), (sa2, sb2) = [run_two(lambda a: deal(a, A, cfg, random.Random(1)),
                                    lambda b: deal(b, B, cfg, random.Random(seed)), timeout=60)
                            for seed in (2, 3)]
    assert sa.session_id == sb2.session_id == sa2.session_id
    assert sa.gk_commit == sb.gk_commit != sb2.gk_commit == sa2.gk_commit
    xa, xb = random_inputs(c, rng)
    with pytest.raises(ProtocolAbort) as e:
        eval_two(c, sa, sb2, xa, xb)
    assert e.value.phase == "hello"


def test_deal_at_the_widest_mac():
    """kappa = 256, the widest DealerConfig takes: laOT's branch pads are
    2 * 32 + 1 = 65 bytes there, one past BLAKE2b's longest digest, so
    `hash_rows` makes them with SHAKE-128. The stores verify."""
    cfg = DealerConfig.for_gates(3, 5, 3, kappa=256, psi=8)
    sa, sb = run_deal(cfg, seed=5)
    assert sa.kappa == sb.kappa == 256
    assert verify_stores(sa, sb) == (5 + 9) + (3 + 9) + 3


@pytest.mark.parametrize("cfg", [DealerConfig.for_gates(0, 5, 0, kappa=16, psi=8),
                                 DealerConfig.for_gates(0, kappa=16, psi=8)],
                         ids=["alice-inputs-only", "empty"])
def test_deal_edge_shapes(cfg):
    """No AND gate: Bob owning no bit runs one produce_abits side, and an
    empty shape is the hello and the flush only."""
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        sa, sb = run_pair(lambda: deal(a, A, cfg, random.Random(1)),
                          lambda: deal(b, B, cfg, random.Random(2)),
                          timeout=60, channels=(a, b))
    assert sa.gk_commit == sb.gk_commit
    verify_stores(sa, sb)
    for store in (sa, sb):
        assert {name: store.remaining(name) for name in MaterialStore.STREAMS} \
            == cfg.records(store.role)
    sent = {m.name for ch in (a, b) for m, _ in ch.sent}
    if cfg.inputs_a:
        assert "LAOT_X0" not in sent and "LAAND_U" not in sent
        assert [m.name for m, _ in b.sent].count("OT_MASKED1") == 0
        assert [m.name for m, _ in a.sent].count("OT_MASKED1") == 2
    else:
        assert sent == {"HELLO", "RT_ACC_FLUSH"}


def test_deal_for_a_circuit_is_used_up_by_one_evaluation():
    """A deal shaped by a circuit carries exactly what one evaluation burns."""
    rng = random.Random(3)
    c = random_circuit(rng, 60, inputs_a=5, inputs_b=3)
    h = c.header
    cfg = DealerConfig.for_gates(c.n_and, h.inputs_a, h.inputs_b, kappa=16, psi=8)
    sa, sb = run_deal(cfg, seed=11)
    xa, xb = random_inputs(c, rng)
    run_two(lambda a: Runtime(a, A, sa).evaluate(c, xa),
            lambda b: Runtime(b, B, sb).evaluate(c, xb), timeout=60)
    for store in (sa, sb):
        assert {name: store.remaining(name) for name in MaterialStore.STREAMS} \
            == dict.fromkeys(MaterialStore.STREAMS, 0)


def test_offline_byte_budget():
    """Per owner, the aBit extension is one OT_MASKED1 frame of
    2*tau*ceil(ell/8) bytes after the seed OTs, and each of the six EQ
    exchanges (labit and laAND per owner, laOT per direction) costs
    kappa/8 + 32 + 32 + kappa/8 bytes."""
    kappa = 128
    cfg = DealerConfig.for_gates(300, 8, 8, kappa=kappa, psi=40)
    with closing_pair(counting_pair(timeout=300.0)) as (a, b):
        sa, sb = run_pair(lambda: deal(a, A, cfg, random.Random(21)),
                          lambda: deal(b, B, cfg, random.Random(22)),
                          timeout=300, channels=(a, b))
    assert verify_stores(sa, sb) > 0

    t = 2 * tau_for(kappa)
    seed = t * SEED_BITS // 8
    for owner, ch in ((A, a), (B, b)):
        ot = [(m, len(p)) for m, p in ch.sent if m.name.startswith("OT_")]
        ext = t * ((cfg.abit_demand(owner) + 7) // 8)
        assert ot == [(MsgType.OT_MASKED0, seed), (MsgType.OT_MASKED1, seed),
                      (MsgType.OT_MASKED1, ext)]

    size = {MsgType.EQ_COMMIT: kappa // 8, MsgType.EQ_VALUE: 32,
            MsgType.EQ_OPEN: 32 + kappa // 8}
    eq = [(m, len(p)) for ch in (a, b) for m, p in ch.sent if m in size]
    assert all(n == size[m] for m, n in eq)
    assert Counter(m for m, _ in eq) == {m: 6 for m in size}


def test_multi_batch_deal(monkeypatch):
    """With 32-bit batches, each owner's 113 or 111 bits (not whole bytes)
    cross in four correction frames after one seed-OT batch. Per owner there
    is one pairing, one d, one pair-check EQ and one matrix, and the key
    holder sends nothing between the owner's first and last correction
    frame but its own corrections. The stores verify."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 32)
    demand = {r: SMALL.abit_demand(r) for r in (A, B)}
    assert demand == {A: 113, B: 111}
    batches = {r: base_ot.ot_batches(n) for r, n in demand.items()}
    assert [len(b) for b in batches.values()] == [4, 4]
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        sa, sb = run_pair(lambda: deal(a, A, SMALL, random.Random(3)),
                          lambda: deal(b, B, SMALL, random.Random(4)),
                          timeout=60, channels=(a, b))
    assert verify_stores(sa, sb) > 0

    t = 2 * tau_for(SMALL.kappa)
    for owner, ch in ((A, a), (B, b)):
        names = Counter(m.name for m, _ in ch.sent)
        assert names["OT_MASKED0"] == names["LABIT_PAIRING"] == names["LABIT_D"] == 1
        assert names["AMPLIFY_MATRIX"] == 1
        ot = [len(p) for m, p in ch.sent if m is MsgType.OT_MASKED1]
        assert ot == [t * SEED_BITS // 8] + [t * ((n + 7) // 8) for _, n in batches[owner]]
    assert sum(m is MsgType.EQ_COMMIT for ch in (a, b) for m, _ in ch.sent) == 6

    for holder in (a, b):
        # the owner's corrections are the second to fifth OT_MASKED1 the
        # key holder reads; between them it sends only its own corrections
        reads = [i for i, (op, m) in enumerate(holder.log)
                 if (op, m) == ("recv", MsgType.OT_MASKED1)]
        first, last = reads[1], reads[-1]
        assert len(reads) == 5
        assert {m for op, m in holder.log[first:last] if op == "send"} <= {MsgType.OT_MASKED1}


def test_multi_batch_offline_tamper_sweep(monkeypatch):
    """A deal of four batches per owner: either party flips the first bit,
    the last bit or a seeded random bit of each OT_MASKED1 frame it sends,
    the seed OTs' and every batch's. Each run aborts the deal, or leaves
    stores that verify and evaluate the circuit correctly."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 64)
    rng = random.Random(1011)
    c = random_circuit(rng, 24)
    h = c.header
    cfg = DealerConfig.for_gates(c.n_and, h.inputs_a, h.inputs_b, kappa=16, psi=8)
    assert all(len(base_ot.ot_batches(cfg.abit_demand(r))) >= 3 for r in (A, B))
    xa, xb = random_inputs(c, rng)
    want = plain_eval(c, xa, xb)

    def run_deal_on(pair):
        with closing_pair(pair) as (a, b):
            return run_pair(lambda: deal(a, A, cfg, random.Random(1)),
                            lambda: deal(b, B, cfg, random.Random(2)),
                            timeout=60, channels=(a, b))

    honest = counting_pair(timeout=60.0)
    run_deal_on(honest)
    runs = Counter()
    for cheater, ch in zip((A, B), honest):
        frames = [(k, p) for k, (m, p) in enumerate(ch.sent) if m is MsgType.OT_MASKED1]
        assert len(frames) >= 4
        for k, payload in frames:
            n, pick = 8 * len(payload), random.Random(f"{cheater}/{k}")
            for bit in sorted({0, n - 1, pick.randrange(n)}):
                where = f"{cheater} flips bit {bit} of frame {k}"
                try:
                    sa, sb = run_deal_on(flip_pair(cheater, k, bit))
                except (ProtocolAbort, ProtocolError):
                    runs["aborted"] += 1
                    continue
                try:
                    verify_stores(sa, sb)
                except ProtocolAbort as e:
                    raise AssertionError(f"{where}: {e}") from e
                out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb)
                assert out_a == out_b == want, where
                runs["survived"] += 1
    # a flipped row whose choice bit is 0 goes unseen, and harms nothing
    assert runs["aborted"] > 0 and runs["survived"] > 0, runs


def test_deal_is_deterministic(tmp_path):
    sa1, _ = run_deal(SMALL, seed=7)
    sa2, _ = run_deal(SMALL, seed=7)
    p1, p2 = tmp_path / "a1.mat", tmp_path / "a2.mat"
    sa1.save(p1)
    sa2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_deal_fresh_seed_fresh_session():
    sa1, _ = run_deal(SMALL, seed=1)
    sa2, _ = run_deal(SMALL, seed=2)
    assert sa1.session_id != sa2.session_id
    assert not np.array_equal(sa1.delta, sa2.delta)


def test_deal_hello_takes_one_round():
    """Both parties' HELLOs cross in the deal's first round, alone: Bob
    sends his before he reads Alice's, and takes her session id."""
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        sa, sb = run_pair(lambda: deal(a, A, SMALL, random.Random(1)),
                          lambda: deal(b, B, SMALL, random.Random(2)),
                          timeout=60, channels=(a, b))
    assert b.log[0] == ("send", MsgType.HELLO)
    for ch in (a, b):
        assert ch.log[:2] == [("send", MsgType.HELLO), ("recv", MsgType.HELLO)]
    assert sa.session_id == sb.session_id


@pytest.mark.parametrize("bob_cfg", [DealerConfig.for_gates(3, 5, 3, kappa=24, psi=8),
                                     DealerConfig.for_gates(3, 5, 3, kappa=16, psi=9)],
                         ids=["kappa", "psi"])
def test_deal_hello_mismatch_aborts_before_ot(bob_cfg):
    """Parties that disagree on kappa or psi both raise ProtocolError when
    the hellos' round ends, each having sent only its first flight."""
    def caught(fn):
        try:
            fn()
        except ProtocolError as e:
            return e

    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        ea, eb = run_pair(lambda: caught(lambda: deal(a, A, SMALL, random.Random(1))),
                          lambda: caught(lambda: deal(b, B, bob_cfg, random.Random(2))),
                          timeout=60)
    assert "parameter mismatch" in str(ea) and "parameter mismatch" in str(eb)
    assert [m for m, _ in a.sent] == [m for m, _ in b.sent] == [MsgType.HELLO]


@pytest.mark.parametrize("cheater", [A, B], ids=["alice", "bob"])
def test_deal_fails_on_a_changed_session_id(cheater):
    """A bit flipped in the session id of a party's HELLO fails the deal.
    Bob learns Alice's id from her hello alone, and every seed-OT pad is
    keyed by it, so he would derive other pads; Bob's hello must name no
    id."""
    sid_bit = 8 * 7  # past version, role, kappa and psi
    with closing_pair(flip_pair(cheater, 0, sid_bit)) as (a, b):
        with pytest.raises((ProtocolAbort, ProtocolError)):
            run_pair(lambda: deal(a, A, SMALL, random.Random(1)),
                     lambda: deal(b, B, SMALL, random.Random(2)),
                     timeout=60, channels=(a, b))
    assert a.sent[0][0] is b.sent[0][0] is MsgType.HELLO


def test_empty_deal_fails_on_a_changed_session_id():
    """A deal that makes no aBit still binds its session id: both parties'
    MAC chains start from a digest of the id they hold, so a bit flipped in
    Alice's HELLO id fails the deal's flush on both parties."""
    cfg = DealerConfig.for_gates(0)
    assert cfg.abit_demand(A) == cfg.abit_demand(B) == 0

    def caught(fn):
        try:
            fn()
        except ProtocolAbort as e:
            return e

    with closing_pair(flip_pair(A, 0, 8 * 7)) as (a, b):  # past version, role, kappa, psi
        ea, eb = run_pair(lambda: caught(lambda: deal(a, A, cfg, random.Random(1))),
                          lambda: caught(lambda: deal(b, B, cfg, random.Random(2))),
                          timeout=60, channels=(a, b))
    assert ea.phase == eb.phase == "flush"


def test_deal_hash_budget(monkeypatch):
    """Per party, the seed OTs' pads are two derivations, one stream for the
    send batch (its own role byte) and one for the receive batch (the
    peer's), each of both branches of 2*tau seed-sized instances; laOT and laAND keep 6B and 3B hash calls per output
    (both parties together), B the bucket."""
    derivations = Counter()

    def counted_expand(key, out_bits):
        # key: session id (16 bytes), the sender's role byte, first index, nb
        derivations[threading.get_ident(), key[16], out_bits] += 1
        return expand(key, out_bits)

    monkeypatch.setattr(base_ot, "expand", counted_expand)
    cfg = DealerConfig.for_gates(20, 5, 3, kappa=16, psi=8)
    reset_hash_calls()
    run_deal(cfg, seed=5)
    stream = 2 * (2 * tau_for(cfg.kappa)) * SEED_BITS
    parties = {ident for ident, _, _ in derivations}
    assert len(parties) == 2
    assert derivations == {(ident, d, stream): 1 for ident in parties for d in (0, 1)}
    outputs = 2 * cfg.n_and  # two directions of aOTs, two owners of aANDs
    assert hash_calls("laot") == 6 * cfg.bucket * outputs
    assert hash_calls("laand") == 3 * cfg.bucket * outputs
    # the deferred MACs: one absorb per chain per party, at the flush
    assert hash_calls("acc/round") == 4


def test_combining_takes_two_frames_per_combiner():
    """At 32 AND gates (B = 8) each party sends one COMB_PERM for each of
    the two combiners whose bucketing it samples (the peer's quads and its
    own triples) and one COMB_D for each whose bits it reveals, all
    (B - 1) * n_and of them in one frame; and the deal's flights stay
    pinned per party."""
    cfg = DealerConfig.for_gates(32, 4, 4)
    assert cfg.bucket == 8
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        sa, sb = run_pair(lambda: deal(a, A, cfg, random.Random(1)),
                          lambda: deal(b, B, cfg, random.Random(2)),
                          timeout=60, channels=(a, b))
    assert verify_stores(sa, sb) > 0
    for ch in (a, b):
        sent = Counter(m for m, _ in ch.sent)
        assert sent[MsgType.COMB_PERM] == sent[MsgType.COMB_D] == 2
        assert {len(p) for m, p in ch.sent if m is MsgType.COMB_D} == {7 * 32 // 8}
    assert (a.flights, b.flights) == (17, 15)


def test_save_load_round_trip(tmp_path):
    sa, sb = run_deal(SMALL, seed=3)
    for store in (sa, sb):
        path = tmp_path / f"{store.role.name}.mat"
        store.save(path)
        back = MaterialStore.load(path)
        assert back.role is store.role
        assert back.kappa == store.kappa and back.psi == store.psi
        assert back.session_id == store.session_id
        assert back.gk_commit == store.gk_commit
        assert np.array_equal(back.delta, store.delta)
        for name in MaterialStore.STREAMS:
            for got, want in zip(getattr(back, name), getattr(store, name)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                assert not got.flags.writeable
        assert all(v == 0 for v in consumed(back).values())
    assert verify_stores(MaterialStore.load(tmp_path / "ALICE.mat"),
                         MaterialStore.load(tmp_path / "BOB.mat")) > 0


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(b"short")
    with pytest.raises(ParseError):
        MaterialStore.load(bad)
    bad.write_bytes(b"NOTMAGIC" + bytes(64))
    with pytest.raises(ParseError):
        MaterialStore.load(bad)


def test_load_rejects_truncated_or_relabelled_store(tmp_path):
    sa, _ = run_deal(SMALL, seed=5)
    good = tmp_path / "good.mat"
    sa.save(good)
    blob = good.read_bytes()
    bad = tmp_path / "bad.mat"
    cuts = sorted({*range(0, 130), *range(130, len(blob), 7), len(blob) - 1})
    corrupt = [blob[:n] for n in cuts] + [blob + b"\0"]
    corrupt += [blob[:10] + bytes([r]) + blob[11:] for r in (2, 7, 255)]  # role byte
    for data in corrupt:
        bad.write_bytes(data)
        with pytest.raises(ParseError):
            MaterialStore.load(bad)


def test_cursors_and_exhaustion():
    sa, sb = run_deal(SMALL, seed=4)
    for _ in range(5):
        sa.take("abits_mine", 1)
    assert consumed(sa)["abits_mine"] == 5
    assert sa.remaining("abits_mine") == 0
    with pytest.raises(OutOfMaterial):
        sa.take("abits_mine", 1)
    with pytest.raises(OutOfMaterial):
        sb.take("abits_mine", 4)  # 3 dealt: a short take consumes nothing
    assert sb.remaining("abits_mine") == 3
    uvw, kuvw = sb.take("triples", 1)
    assert consumed(sb)["triples"] == 1
    assert uvw.shape == (1, 3, 3) and kuvw.shape == (1, 3, 2)  # u, v, w | ku, kv, kw
    # slices of the same rows
    assert np.array_equal(uvw, sb.triples[0][:1])
    assert np.array_equal(kuvw, sb.triples[1][:1])


def test_take_from_empty_stream():
    store = MaterialStore(A, 16, 8, bytes(16), bytes(32),
                          None)
    with pytest.raises(OutOfMaterial):
        store.take("triples", 1)


def test_verify_stores_argument_order():
    sa, sb = run_deal(SMALL, seed=5)
    with pytest.raises(UsageError):
        verify_stores(sb, sa)


def test_verify_stores_catches_corruption():
    sa, sb = run_deal(SMALL, seed=6)
    keys = sb.abits_theirs[1].copy()
    keys[0, 0, 0] ^= 1  # bit 0 of the first key
    sb.abits_theirs = (sb.abits_theirs[0], keys)
    with pytest.raises(ProtocolAbort):
        verify_stores(sa, sb)


@pytest.mark.parametrize("field", [0, 1, 2], ids=["u", "v", "w"])
def test_verify_stores_refuses_one_bad_triple_mac(field):
    sa, sb = run_deal(SMALL, seed=7)
    macs = sb.triples[0].copy()
    macs[1, field, 0] ^= 1  # bit 0 of the MAC on Bob's share, second gate
    sb.triples = (macs, sb.triples[1])
    with pytest.raises(ProtocolAbort, match="triple MAC"):
        verify_stores(sa, sb)


def test_verify_stores_refuses_a_broken_product():
    """Alice's w bit flipped on one gate, with its MAC moved by the global
    key Bob holds, so that every MAC holds: the product does not."""
    sa, sb = run_deal(SMALL, seed=8)
    macs = sa.triples[0].copy()
    macs[2, 2, -1] ^= 1
    macs[2, 2, :-1] ^= sb.delta
    sa.triples = (macs, sa.triples[1])
    with pytest.raises(ProtocolAbort, match="triple product"):
        verify_stores(sa, sb)


def test_conversion_makes_beaver_triples_at_kappa_8():
    """The deal's last round folds each AND gate's material into one Beaver
    triple. Over random clean material at kappa = 8 (the aAND triples of
    both owners, the aOT quads of both directions and a fresh bit per party
    and gate): every gate's w_A ^ w_B is (u_A ^ u_B) & (v_A ^ v_B), with u
    and v each party's a and b; every MAC holds; and evaluations on the
    triples open every AND gate to x & y."""
    kappa = 8
    rng = random.Random(1017)
    c = random_circuit(rng, 240, inputs_a=6, inputs_b=6)
    n, h = c.n_and, c.header
    od = OracleDealer(kappa, rng)
    trip = {r: [od.triple(r) for _ in range(n)] for r in (A, B)}
    quad = {r: [od.quad(r) for _ in range(n)] for r in (A, B)}  # r the sender
    fresh = {r: [od.abit(r) for _ in range(n)] for r in (A, B)}

    def rows(records, half):
        return getattr(to_rows(records, kappa), half)

    def convert(ch, role):
        peer = role.other
        mine = (rows([t for t, _ in trip[role]], "macs"),
                rows([s for s, _ in quad[role]], "macs"),
                rows([q for _, q in quad[peer]], "macs"),
                bit_rows([m for m, _ in fresh[role]], kappa))
        theirs = (rows([k for _, k in trip[peer]], "keys"),
                  rows([q for _, q in quad[peer]], "keys"),
                  rows([s for s, _ in quad[role]], "keys"),
                  bit_rows([k for _, k in fresh[peer]], kappa))
        return run_side(ch, role, _flush(bytes(16), [], [], mine, theirs, od.delta[peer]))

    (ta, _, _), (tb, _, _) = run_two(lambda ch: convert(ch, A), lambda ch: convert(ch, B))
    for role, t in ((A, ta), (B, tb)):
        assert t.macs.shape == (n, 3, 2) and t.keys.shape == (n, 3, 1)
        assert t.macs[:, :2, -1].tolist() == [[x.x.bit, x.y.bit] for x, _ in trip[role]]
    u, v, w = (ta.macs[..., -1] ^ tb.macs[..., -1]).T
    assert np.array_equal(w, u & v) and 0 < w.sum() < n
    for _ in range(4):
        sa, sb = od.stores(8, {"abits_mine": h.inputs_a, "abits_theirs": h.inputs_b,
                               "triples": 0})
        sa.triples, sb.triples = tuple(ta), tuple(tb)
        assert verify_stores(sa, sb) == h.n_inputs + 2 * 3 * n + n
        xa, xb = random_inputs(c, rng)
        out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb)
        assert out_a == out_b == plain_eval(c, xa, xb)


@pytest.mark.parametrize("cheater", [A, B], ids=["alice", "bob"])
def test_a_flipped_beaver_open_bit_fails_the_flush(cheater):
    """Any of the 3 * n_and bits a party opens in its BEAVER_OPEN frame,
    flipped on the wire, fails the deal for its peer: the MACs the peer
    expects of it no longer chain to its flush digest, so the peer aborts in
    phase "flush". The flush is the deal's last round, so the party whose
    frame was changed, its own flush check passing, returns a store; with
    no store on the other side, no online hello can start from it."""
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        run_pair(lambda: deal(a, A, SMALL, random.Random(1)),
                 lambda: deal(b, B, SMALL, random.Random(2)),
                 timeout=60, channels=(a, b))
    sent = [m for m, _ in (a if cheater is A else b).sent]
    k = sent.index(MsgType.BEAVER_OPEN)
    assert sent[k + 1:] == [MsgType.RT_ACC_FLUSH]

    def side(ch, role, seed):
        try:
            return deal(ch, role, SMALL, random.Random(seed))
        except (ProtocolAbort, TransportError) as e:
            ch.close()  # unblocks the peer, as run_pair does on a failure
            return e

    for bit in range(3 * SMALL.n_and):
        with closing_pair(flip_pair(cheater, k, bit)) as (a, b):
            ea, eb = run_pair(lambda: side(a, A, 1), lambda: side(b, B, 2),
                              timeout=60, channels=(a, b))
            honest, flipped = (eb, ea) if cheater is A else (ea, eb)
            assert isinstance(honest, ProtocolAbort) and honest.phase == "flush", bit
            assert isinstance(flipped, MaterialStore) and flipped.role is cheater, bit


# ---------------------------------------------------------------------------
# deferred-MAC flush


def absorb_all(macs):
    acc = MacAccumulator()
    for m in macs:
        acc = acc.absorb(m[None])
    return acc


def test_flush_agreement():
    rng = random.Random(9)
    from_a = random_rows(5, 16, rng)
    from_b = random_rows(3, 16, rng)
    run_two(
        lambda a: run_side(a, A, flush_accumulators(absorb_all(from_a), absorb_all(from_b))),
        lambda b: run_side(b, B, flush_accumulators(absorb_all(from_b), absorb_all(from_a))),
        timeout=10)


def test_flush_detects_divergence():
    rng = random.Random(10)
    from_a = random_rows(5, 16, rng)
    seen_b = from_a.copy()
    seen_b[2, 0] ^= 1
    with pytest.raises(ProtocolAbort):
        run_two(
            lambda a: run_side(a, A, flush_accumulators(absorb_all(from_a), MacAccumulator())),
            lambda b: run_side(b, B, flush_accumulators(MacAccumulator(), absorb_all(seen_b))),
            timeout=10)


def test_deal_memory_script():
    """scripts/deal_memory.py deals one AES block's material between two
    forked processes and prints each party's deal time and peak memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "deal_memory.py"),
                           "--blocks", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "1 AES block(s): 7200 ANDs, 208928 aBits per owner, B=4"
    for name, line in zip(("alice", "bob"), lines[1:]):
        got = re.fullmatch(rf"{name}: deal [0-9.]+ s, ru_maxrss ([0-9.]+) MiB before the deal, "
                           r"([0-9.]+) MiB after; 128 aBits, 7200 triples", line)
        assert got and float(got[2]) > float(got[1]), line
