import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (AuthBitKey, AuthBitMac, closing_pair, const_key, const_mac, delta_vec,
                     key_half, labit_cheat_survivals, labit_receive_all, mac_half,
                     ot_receive_all, run_side, run_two, seeded, verify_abit)
from macbits import base_ot
from macbits.abit_proto import (amplify_keys_with, amplify_macs_with, labit_receiver,
                                labit_sender, labit_to_wabit_keys, labit_to_wabit_macs,
                                produce_abits, tau_for, wabit_amplify_mac_side)
from macbits.base_ot import DealerOt
from macbits.bitlinalg import BitVec, pack_bits, random_rows
from macbits.eq_box import eq_respond_side, value_digest
from macbits.errors import ProtocolAbort, ProtocolError, UsageError
from macbits.transport import MsgType, Role, Send, memory_pair

A, B = Role.ALICE, Role.BOB


def test_tau_sizing():
    assert tau_for(40) == 294
    assert tau_for(64) == 470
    assert tau_for(128) == 939
    assert tau_for(3) == 22


# ---------------------------------------------------------------------------
# authenticated-bit algebra


def make_abit(bit, delta, rng, kappa=16):
    key = BitVec.random(kappa, rng)
    return AuthBitMac(bit, key ^ delta.times(bit)), AuthBitKey(key)


def test_mac_relation_and_homomorphism_exhaustive():
    rng = random.Random(0)
    gk = random_rows(1, 16, rng)[0]
    for x in (0, 1):
        for y in (0, 1):
            mx, kx = make_abit(x, delta_vec(gk), rng)
            my, ky = make_abit(y, delta_vec(gk), rng)
            assert verify_abit(mx, kx, gk)
            assert verify_abit(my, ky, gk)
            # M_x ^ M_y = (K_x ^ K_y) ^ (x ^ y) Delta
            assert verify_abit(mx ^ my, kx ^ ky, gk)
            assert (mx ^ my).bit == x ^ y


def test_constant_bits():
    rng = random.Random(1)
    gk = random_rows(1, 16, rng)[0]
    for b in (0, 1):
        m, k = const_mac(b, 16), const_key(b, gk)
        assert m.mac == BitVec.zeros(16)
        assert k.key == delta_vec(gk).times(b)
        assert verify_abit(m, k, gk)


def test_xor_const():
    rng = random.Random(2)
    gk = random_rows(1, 16, rng)[0]
    m, k = make_abit(1, delta_vec(gk), rng)
    assert verify_abit(m.xor_const(1), k.xor_const(1, gk), gk)
    assert m.xor_const(1).bit == 0
    assert m.xor_const(0) == m


def test_verify_rejects_wrong_mac():
    rng = random.Random(3)
    gk = random_rows(1, 16, rng)[0]
    m, k = make_abit(1, delta_vec(gk), rng)
    bad = AuthBitMac(m.bit, m.mac ^ BitVec(16, 1))
    assert not verify_abit(bad, k, gk)
    assert not verify_abit(AuthBitMac(0, m.mac), k, gk)


# ---------------------------------------------------------------------------
# leaky candidate phase


def run_labit(tau, ell, seed=0, kappa=16):
    rng_a, rng_b = random.Random(seed), random.Random(seed + 1)
    ot_a, ot_b = DealerOt(rng_a), DealerOt()
    return run_two(
        lambda a: run_side(a, A, seeded(ot_a, True, labit_sender(tau, ell, kappa, rng_a, ot_a))),
        lambda b: run_side(b, B, seeded(ot_b, False, labit_receive_all(tau, ell, kappa, rng_b,
                                                                       ot_b))),
        timeout=30)


def test_labit_honest_output_relation():
    # every surviving column satisfies N_i == L_i xor y_i * Gamma
    for ell in (16, 21):
        (gamma, keys), (ys, macs) = run_labit(4, ell)
        assert len(keys) == len(macs) == len(ys) == 4  # half the 2*tau candidates
        assert keys.shape == macs.shape == (4, (ell + 7) // 8)
        for l, y, n in zip(keys, ys, macs):
            assert np.array_equal(n, l ^ gamma * y)


def test_labit_cheat_one_pair_half_abort():
    trials = 2000
    wins = labit_cheat_survivals(1, trials, seed=5)
    sigma = math.sqrt(trials * 0.25)
    assert abs(wins - trials / 2) <= 3 * sigma


def test_labit_wrong_d_announcement_aborts():
    """Receiver lies about one pair's choice-bit difference: the folded
    values disagree and the equality check fails on both sides."""
    tau, ell, kappa = 4, 8, 16
    rng_b = random.Random(11)

    def lying_receiver():
        t = 2 * tau
        ys = [rng_b.getrandbits(1) for _ in range(t)]
        ot_b = DealerOt()
        yield from ot_b.setup(mint=False)
        macs = yield from ot_receive_all(ot_b, ys, ell)
        part = np.arange(t, dtype=np.uint32) ^ 1  # pairs (0, 1), (2, 3), ...
        reps = range(0, t, 2)
        d = [ys[i] ^ ys[part[i]] for i in reps]
        d[0] ^= 1  # the lie
        yield Send((MsgType.LABIT_PAIRING, part.astype(">u4").tobytes()),
                   (MsgType.LABIT_D, BitVec.from_bits(d).to_bytes()))
        folded = BitVec.join([BitVec.from_bytes(ell, (macs[i] ^ macs[part[i]]).tobytes())
                              for i in reps])
        return (yield from eq_respond_side(value_digest(folded.n, folded.to_bytes()), kappa))

    ot_a = DealerOt(random.Random(10))
    with pytest.raises(ProtocolAbort):
        run_two(lambda a: run_side(a, A, seeded(ot_a, True, labit_sender(
                    tau, ell, kappa, random.Random(10), ot_a))),
                lambda b: run_side(b, B, lying_receiver()), timeout=30)


# ---------------------------------------------------------------------------
# transpose to authenticated bits


def packed(bits) -> np.ndarray:
    """A 0/1 matrix as packed rows, bit j of row i in byte j // 8."""
    return np.packbits(np.asarray(bits, np.uint8), axis=-1, bitorder="little")


def test_wabit_hand_instance():
    # tau=2, ell=3, all relations by direct substitution
    gamma = packed([1, 0, 1])
    l1, l2 = packed([0, 1, 1]), packed([1, 1, 0])
    ys = np.array([1, 0], np.uint8)
    n1, n2 = l1 ^ gamma * ys[0], l2 ^ gamma * ys[1]
    mac_view = labit_to_wabit_macs(gamma, np.stack((l1, l2)), 3)
    key_view = labit_to_wabit_keys(ys, np.stack((n1, n2)), 3)
    assert key_view.gamma.tolist() == [1, 0]
    for j in range(3):
        assert mac_view.bits[j] == [1, 0, 1][j]
        assert np.array_equal(key_view.keys[j], mac_view.macs[j] ^ packed(ys) * mac_view.bits[j])


def test_wabit_zero_offset_means_zero_bits():
    rng = random.Random(4)
    keys = random_rows(3, 5, rng)
    view = labit_to_wabit_macs(np.zeros(1, np.uint8), keys, 5)
    key_view = labit_to_wabit_keys(np.array([1, 0, 1], np.uint8), keys, 5)  # N_i == L_i when G=0
    assert view.bits.tolist() == [0, 0, 0, 0, 0]
    assert np.array_equal(view.macs, key_view.keys)


# ---------------------------------------------------------------------------
# privacy amplification


def synthetic_columns(tau, ell, rng):
    """labit outputs: the holder's (G, L_i), the key side's (y_i, N_i)."""
    gamma = random_rows(1, ell, rng)[0]
    keys = random_rows(tau, ell, rng)
    ys = np.array([rng.getrandbits(1) for _ in range(tau)], np.uint8)
    macs = keys ^ gamma * ys[:, None]
    return (gamma, keys), (ys, macs)


def unpacked(rows, n) -> np.ndarray:
    return np.unpackbits(rows, axis=-1, count=n, bitorder="little")


def ref_times(mat, tau, rows) -> np.ndarray:
    """mat @ row for each packed tau-bit row, on unpacked bits (the
    reference for the packed product)."""
    return packed((unpacked(rows, tau).astype(int) @ unpacked(mat, tau).T.astype(int)) % 2)


def test_amplify_identity_matrix_is_noop():
    rng = random.Random(5)
    (gamma, keys), (ys, macs) = synthetic_columns(6, 10, rng)
    mv, kv = labit_to_wabit_macs(gamma, keys, 10), labit_to_wabit_keys(ys, macs, 10)
    eye = packed(np.eye(6))
    out_m = amplify_macs_with(eye, gamma, keys, 10)
    gk, out_k = amplify_keys_with(eye, ys, macs, 10)
    assert np.array_equal(out_m[:, :-1], mv.macs) and np.array_equal(out_m[:, -1], mv.bits)
    assert np.array_equal(out_k, kv.keys) and gk.tobytes() == pack_bits(kv.gamma)


def test_amplify_preserves_mac_relation():
    rng = random.Random(6)
    (gamma, keys), (ys, macs) = synthetic_columns(59, 40, rng)
    kv = labit_to_wabit_keys(ys, macs, 40)
    mat = random_rows(8, 59, rng)
    out_m = amplify_macs_with(mat, gamma, keys, 40)
    gk, out_k = amplify_keys_with(mat, ys, macs, 40)
    assert gk.tobytes() == ref_times(mat, 59, packed(kv.gamma)).tobytes()
    for i in range(40):
        assert verify_abit(mac_half(out_m[i]), key_half(out_k[i]), gk)


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("ell", [1, 7, 9, 1000])
@pytest.mark.parametrize("tau", [3, 22, 59])
def test_amplify_then_transpose_matches_transpose_then_multiply(tau, ell, identity):
    rng = random.Random(tau * 10_000 + ell)
    (gamma, keys), (ys, macs) = synthetic_columns(tau, ell, rng)
    mat = packed(np.eye(tau)) if identity else random_rows(8, tau, rng)
    mv, kv = labit_to_wabit_macs(gamma, keys, ell), labit_to_wabit_keys(ys, macs, ell)
    out_m = amplify_macs_with(mat, gamma, keys, ell)
    gk, out_k = amplify_keys_with(mat, ys, macs, ell)

    assert np.array_equal(out_m[:, -1], mv.bits)
    assert np.array_equal(out_m[:, :-1], ref_times(mat, tau, mv.macs))
    assert np.array_equal(out_k, ref_times(mat, tau, kv.keys))
    assert gk.tobytes() == ref_times(mat, tau, packed(kv.gamma)).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300).filter(lambda n: n % 8), st.integers(1, 300).filter(lambda n: n % 8),
       st.integers(0, 2**32))
def test_amplify_linearity(tau, ell, seed):
    # the amplified MACs of two column sets XOR to those of their XOR, and
    # each equals the unpacked reference; tau and ell are off byte boundaries
    rng = random.Random(seed)
    mat = random_rows(8, tau, rng)
    gamma = random_rows(1, ell, rng)[0]
    u, v = random_rows(tau, ell, rng), random_rows(tau, ell, rng)
    amp = {k: amplify_macs_with(mat, gamma, x, ell)[:, :-1]
           for k, x in (("u", u), ("v", v), ("uv", u ^ v))}
    assert np.array_equal(amp["uv"], amp["u"] ^ amp["v"])
    want = (unpacked(mat, tau).astype(int) @ unpacked(u, ell).astype(int)) % 2
    assert np.array_equal(unpacked(amp["u"], 8).T, want)


def test_amplify_checks_width():
    rng = random.Random(8)
    (gamma, keys), (ys, macs) = synthetic_columns(10, 4, rng)
    with pytest.raises(UsageError):
        amplify_macs_with(random_rows(4, 8, rng), gamma, keys, 4)
    with pytest.raises(UsageError):
        amplify_keys_with(random_rows(4, 17, rng), ys, macs, 4)


@pytest.mark.parametrize("extra", [None, 1])
def test_amplify_rejects_wrong_length_matrix(extra):
    # a malformed peer frame is a protocol error, not a caller bug
    kappa = 16
    tau = tau_for(kappa)
    (gamma, keys), _ = synthetic_columns(tau, 10, random.Random(9))
    raw = bytes(2) if extra is None else bytes(kappa * ((tau + 7) // 8) + extra)
    with closing_pair(memory_pair(timeout=5.0)) as (a, b):
        b.send(MsgType.AMPLIFY_MATRIX, raw)
        with pytest.raises(ProtocolError):
            run_side(a, A, wabit_amplify_mac_side(gamma, keys, 10, kappa))


# ---------------------------------------------------------------------------
# full pipeline


def run_produce(count, psi, owner=Role.ALICE, seed=0):
    rng_a, rng_b = random.Random(seed), random.Random(seed + 1)
    backends = {}

    def party(ch, role, rng):
        backend = DealerOt(rng)
        backends[role] = backend
        return run_side(ch, role, seeded(backend, role is Role.ALICE,
                                         produce_abits(ch, role, owner, count, psi, rng, backend)))

    got_a, got_b = run_two(lambda a: party(a, Role.ALICE, rng_a),
                           lambda b: party(b, Role.BOB, rng_b),
                           timeout=120)
    return got_a, got_b, backends


def test_produce_abits_relations_hold():
    count, psi = 1000, 64
    batch_mac, (gk, batch_key), _ = run_produce(count, psi)
    assert batch_mac.shape == (count, psi // 8 + 1)
    assert batch_key.shape == (count, psi // 8)
    assert gk.shape == (psi // 8,)
    for i in range(count):
        assert verify_abit(mac_half(batch_mac[i]), key_half(batch_key[i]), gk)


def test_produce_abits_homomorphic_pairs():
    batch_mac, (gk, batch_key), _ = run_produce(64, 16, seed=2)
    for i in range(0, 64, 2):
        m = mac_half(batch_mac[i]) ^ mac_half(batch_mac[i + 1])
        k = key_half(batch_key[i]) ^ key_half(batch_key[i + 1])
        assert verify_abit(m, k, gk)


def test_produce_abits_seed_ot_budget():
    count, psi = 32, 16
    _, _, backends = run_produce(count, psi, seed=3)
    want = 2 * tau_for(psi)
    assert backends[Role.ALICE].instances == want
    assert backends[Role.BOB].instances == want


def test_produce_abits_owner_bob():
    (gk, batch_key), batch_mac, _ = run_produce(50, 16, owner=Role.BOB, seed=4)
    for i in range(50):
        assert verify_abit(mac_half(batch_mac[i]), key_half(batch_key[i]), gk)


def test_produce_abits_rejects_zero():
    # the backend is not set up, which would also raise UsageError
    with closing_pair(memory_pair()) as (a, _):
        with pytest.raises(UsageError, match="count must be positive"):
            run_side(a, A, produce_abits(a, Role.ALICE, Role.ALICE, 0, 16, random.Random(0),
                                         DealerOt(random.Random(0))))


# ---------------------------------------------------------------------------
# the extension in batches


def test_cheat_in_one_later_batch_survives_at_two_to_the_minus_m(monkeypatch):
    """ell = 24 crosses in three 8-bit batches. A sender that puts m distinct
    offsets into the last batch's correction frame only still survives the
    one pair check over all batches at 2^-m."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 8)
    assert base_ot.ot_batches(24) == [(0, 8), (8, 8), (16, 8)]
    trials = 10 ** 4
    for m in (1, 2, 3):
        rate = labit_cheat_survivals(m, trials, seed=2005 + m, ell=24, batch=2) / trials
        want = 2.0 ** -m
        assert abs(rate - want) <= 3 * math.sqrt(want * (1 - want) / trials), (m, rate)


def test_every_correction_crosses_before_the_pairing(monkeypatch):
    """Driven by hand over three batches of ell = 44 bits (16, 16, 12): the
    sender yields all its correction frames before its first read, and the
    receiver, fed those frames, sends nothing until it has read the last
    one; then it sends the pairing and d. An owner that knew them could
    put one wrong offset on both columns of a pair with d = 0, and no pair
    check would see it."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 16)
    tau, ell, kappa = 4, 44, 16
    assert base_ot.ot_batches(ell) == [(0, 16), (16, 16), (32, 12)]
    ot = DealerOt(random.Random(1))
    sender = seeded(ot, True, labit_sender(tau, ell, kappa, random.Random(2), ot))
    flights, step = [], sender.send(None)
    while not step.wants:
        flights.append(step.frames)
        step = sender.send(None)
    assert [t for t, _ in step.wants] == [MsgType.LABIT_PAIRING, MsgType.LABIT_D]
    assert [[t for t, _ in f] for f in flights] == [
        [MsgType.OT_SETUP], [MsgType.OT_MASKED0, MsgType.OT_MASKED1]] + [[MsgType.OT_MASKED1]] * 3
    assert [len(f[0][1]) for f in flights[2:]] == [2 * tau * 2] * 3

    rx_ot = DealerOt()
    receiver = seeded(rx_ot, False, labit_receive_all(tau, ell, kappa, random.Random(3), rx_ot))
    queue = [frame for f in flights for frame in f]
    step = receiver.send(None)
    while queue:
        assert not step.frames
        reply = []
        for t, n in step.wants:
            got_t, payload = queue.pop(0)
            assert (got_t, len(payload)) == (t, n)
            reply.append(payload)
        step = receiver.send(reply)
    assert [t for t, _ in step.frames] == [MsgType.LABIT_PAIRING, MsgType.LABIT_D]


def test_key_holder_starts_a_pair_check_past_two_to_the_32_bits():
    """At kappa = 128 (tau = 939), ell = 4,573,979 aBits per owner, the
    smallest deal shape (157,719 ANDs) whose folded pair-check value has
    2^32 bits or more. The key holder gets to its first read, before any
    ell-sized array exists."""
    tau, ell, kappa = tau_for(128), 4_573_979, 128
    assert 8 * tau * ((ell + 7) // 8) >= 1 << 32
    ot = DealerOt(random.Random(1))
    next(ot.setup(True))  # the seed is drawn before its frame goes out
    receiver = labit_receiver(tau, ell, kappa, random.Random(2), ot, lambda *batch: None)
    step = receiver.send(None)
    assert list(step.wants) == [(MsgType.OT_MASKED0, 32 * tau), (MsgType.OT_MASKED1, 32 * tau)]


@pytest.mark.parametrize("ell", [44, 61])
def test_batched_extension_keeps_the_relation(monkeypatch, ell):
    """Over several batches, the last not a whole byte, each surviving
    column still satisfies N_i == L_i xor y_i * Gamma, and produce_abits'
    key holder, amplifying each batch as it arrives, ends with keys that
    match the owner's MACs."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 16)
    assert len(base_ot.ot_batches(ell)) >= 3
    (gamma, keys), (ys, macs) = run_labit(4, ell)
    for l, y, n in zip(keys, ys, macs):
        assert np.array_equal(n, l ^ gamma * y)
    batch_mac, (gk, batch_key), _ = run_produce(ell, 16, seed=6)
    for i in range(ell):
        assert verify_abit(mac_half(batch_mac[i]), key_half(batch_key[i]), gk)


def test_memory_is_bounded_by_the_batch(monkeypatch):
    """At kappa = 128 and 2^13-bit batches, going from 4 to 8 batches of ell
    adds to the traced peak little more than the owner's added key columns
    (2*tau*dell/8 bytes, the owner's L) and the added output rows: every
    other buffer is one batch wide. Holding the whole correction frames, as
    one batch of ell would, adds about three times the column bytes."""
    monkeypatch.setattr(base_ot, "BATCH_BITS", 1 << 13)
    kappa = 128

    def traced_peak(ell):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_produce(ell, kappa, seed=7)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()

    small, large = 4 << 13, 8 << 13
    assert len(base_ot.ot_batches(small)) == 4 and len(base_ot.ot_batches(large)) == 8
    grown = traced_peak(large) - traced_peak(small)
    dell = large - small
    columns = 2 * tau_for(kappa) * dell // 8
    rows = dell * (kappa // 8 + 1) + dell * kappa // 8
    assert grown <= 1.25 * (columns + rows), (grown, columns, rows)
