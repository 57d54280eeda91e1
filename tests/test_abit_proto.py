import math
import random
import struct

import pytest

from helpers import labit_cheat_survivals
from macbits.abit_proto import (AbitBatchKey, AbitBatchMac, AuthBitKey,
                                AuthBitMac, GlobalKey, amplify_keys_with,
                                amplify_macs_with, const_key, const_mac,
                                labit_receiver, labit_sender,
                                labit_to_wabit_keys, labit_to_wabit_macs,
                                produce_abits, tau_for, verify_abit,
                                wabit_amplify_key_side,
                                wabit_amplify_mac_side)
from macbits.base_ot import DealerOt, extend_ot_receive
from macbits.bitlinalg import BitMatrix, BitVec, Pairing, mat_vec_mul
from macbits.eq_box import eq_respond_side
from macbits.errors import ProtocolAbort, ProtocolError, UsageError
from macbits.transport import MsgType, Role, memory_pair, run_pair


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
    gk = GlobalKey(Role.ALICE, BitVec.random(16, rng))
    for x in (0, 1):
        for y in (0, 1):
            mx, kx = make_abit(x, gk.delta, rng)
            my, ky = make_abit(y, gk.delta, rng)
            assert verify_abit(mx, kx, gk)
            assert verify_abit(my, ky, gk)
            # M_x ^ M_y = (K_x ^ K_y) ^ (x ^ y) Delta
            assert verify_abit(mx ^ my, kx ^ ky, gk)
            assert (mx ^ my).bit == x ^ y


def test_constant_bits():
    rng = random.Random(1)
    gk = GlobalKey(Role.BOB, BitVec.random(16, rng))
    for b in (0, 1):
        m, k = const_mac(b, 16), const_key(b, gk)
        assert m.mac == BitVec.zeros(16)
        assert k.key == gk.delta.times(b)
        assert verify_abit(m, k, gk)


def test_xor_const():
    rng = random.Random(2)
    gk = GlobalKey(Role.ALICE, BitVec.random(16, rng))
    m, k = make_abit(1, gk.delta, rng)
    assert verify_abit(m.xor_const(1), k.xor_const(1, gk), gk)
    assert m.xor_const(1).bit == 0
    assert m.xor_const(0) == m


def test_verify_rejects_wrong_mac():
    rng = random.Random(3)
    gk = GlobalKey(Role.ALICE, BitVec.random(16, rng))
    m, k = make_abit(1, gk.delta, rng)
    bad = AuthBitMac(m.bit, m.mac ^ BitVec(16, 1))
    assert not verify_abit(bad, k, gk)
    assert not verify_abit(AuthBitMac(0, m.mac), k, gk)


# ---------------------------------------------------------------------------
# leaky candidate phase


def run_labit(tau, ell, seed=0, kappa=16, offer_tamper=None):
    a, b = memory_pair(timeout=30.0)
    a.kappa = b.kappa = kappa
    rng_a, rng_b = random.Random(seed), random.Random(seed + 1)
    return run_pair(
        lambda: labit_sender(a, tau, ell, rng_a, DealerOt(a, rng_a),
                             offer_tamper=offer_tamper),
        lambda: labit_receiver(b, tau, ell, rng_b, DealerOt(b)),
        timeout=30, channels=(a, b))


def test_labit_honest_output_relation():
    # every surviving column satisfies N_i == L_i xor y_i * Gamma
    (gamma, keys), (ys, macs) = run_labit(4, 16)
    assert len(keys) == len(macs) == 4  # half the 2*tau candidates
    for l, y, n in zip(keys, ys, macs):
        assert n == l ^ gamma.times(y)


def test_labit_cheat_one_pair_half_abort():
    trials = 2000
    wins = labit_cheat_survivals(1, trials, seed=5)
    sigma = math.sqrt(trials * 0.25)
    assert abs(wins - trials / 2) <= 3 * sigma


def test_labit_wrong_d_announcement_aborts():
    """Receiver lies about one pair's choice-bit difference: the folded
    values disagree and the equality check fails on both sides."""
    tau, ell, kappa = 4, 8, 16
    a, b = memory_pair(timeout=30.0)
    a.kappa = b.kappa = kappa
    rng_b = random.Random(11)

    def lying_receiver():
        t = 2 * tau
        ys = [rng_b.getrandbits(1) for _ in range(t)]
        macs = extend_ot_receive(b, DealerOt(b), ys, ell)
        part = list(range(t))
        for i in range(0, t, 2):
            part[i], part[i + 1] = i + 1, i
        pairing = Pairing(part)
        b.send(MsgType.LABIT_PAIRING, struct.pack(f">{t}I", *pairing.part))
        reps = pairing.smaller_indices()
        d = [ys[i] ^ ys[pairing.partner(i)] for i in reps]
        d[0] ^= 1  # the lie
        b.send(MsgType.LABIT_D, BitVec.from_bits(d).to_bytes())
        folded = [macs[i] ^ macs[pairing.partner(i)] for i in reps]
        return eq_respond_side(b, BitVec.join(folded))

    with pytest.raises(ProtocolAbort):
        run_pair(lambda: labit_sender(a, tau, ell, random.Random(10),
                                      DealerOt(a, random.Random(10))),
                 lying_receiver, timeout=30, channels=(a, b))


# ---------------------------------------------------------------------------
# transpose to authenticated bits


def test_wabit_hand_instance():
    # tau=2, ell=3, all relations by direct substitution
    gamma = BitVec.from_bits([1, 0, 1])
    l1 = BitVec.from_bits([0, 1, 1])
    l2 = BitVec.from_bits([1, 1, 0])
    ys = [1, 0]
    n1 = l1 ^ gamma.times(ys[0])
    n2 = l2 ^ gamma.times(ys[1])
    mac_view = labit_to_wabit_macs(gamma, [l1, l2])
    key_view = labit_to_wabit_keys(ys, [n1, n2])
    weak = BitVec.from_bits(ys)
    assert key_view.gamma == weak
    for j in range(3):
        assert mac_view.bits[j] == gamma[j]
        assert key_view.keys[j] == mac_view.macs[j] ^ weak.times(gamma[j])


def test_wabit_zero_offset_means_zero_bits():
    rng = random.Random(4)
    keys = [BitVec.random(5, rng) for _ in range(3)]
    view = labit_to_wabit_macs(BitVec.zeros(5), keys)
    key_view = labit_to_wabit_keys([1, 0, 1], keys)  # N_i == L_i when G=0
    assert view.bits == [0, 0, 0, 0, 0]
    assert view.macs == key_view.keys


# ---------------------------------------------------------------------------
# privacy amplification


def synthetic_columns(tau, ell, rng):
    """labit outputs: the holder's (G, L_i), the key side's (y_i, N_i)."""
    gamma = BitVec.random(ell, rng)
    keys = [BitVec.random(ell, rng) for _ in range(tau)]
    ys = [rng.getrandbits(1) for _ in range(tau)]
    macs = [keys[i] ^ gamma.times(ys[i]) for i in range(tau)]
    return (gamma, keys), (ys, macs)


def test_amplify_identity_matrix_is_noop():
    rng = random.Random(5)
    (gamma, keys), (ys, macs) = synthetic_columns(6, 10, rng)
    mv, kv = labit_to_wabit_macs(gamma, keys), labit_to_wabit_keys(ys, macs)
    out_m = amplify_macs_with(BitMatrix.identity(6), gamma, keys)
    out_k = amplify_keys_with(BitMatrix.identity(6), ys, macs, Role.ALICE)
    assert out_m.macs == mv.macs and out_m.bits == mv.bits
    assert out_k.keys == kv.keys and out_k.gk.delta == kv.gamma


def test_amplify_preserves_mac_relation():
    rng = random.Random(6)
    (gamma, keys), (ys, macs) = synthetic_columns(59, 40, rng)
    kv = labit_to_wabit_keys(ys, macs)
    mat = BitMatrix.random(8, 59, rng)
    out_m = amplify_macs_with(mat, gamma, keys)
    out_k = amplify_keys_with(mat, ys, macs, Role.ALICE)
    gk = out_k.gk
    assert gk.delta == mat_vec_mul(mat, kv.gamma)
    for i in range(40):
        assert verify_abit(AuthBitMac(out_m.bits[i], out_m.macs[i]),
                           AuthBitKey(out_k.keys[i]), gk)


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("ell", [1, 7, 9, 1000])
@pytest.mark.parametrize("tau", [3, 22, 59])
def test_amplify_then_transpose_matches_transpose_then_multiply(tau, ell, identity):
    rng = random.Random(tau * 10_000 + ell)
    (gamma, keys), (ys, macs) = synthetic_columns(tau, ell, rng)
    mat = BitMatrix.identity(tau) if identity else BitMatrix.random(8, tau, rng)
    mv, kv = labit_to_wabit_macs(gamma, keys), labit_to_wabit_keys(ys, macs)
    out_m = amplify_macs_with(mat, gamma, keys)
    out_k = amplify_keys_with(mat, ys, macs, Role.BOB)
    assert out_m.bits == mv.bits
    assert out_m.macs == [mat_vec_mul(mat, m) for m in mv.macs]
    assert out_k.keys == [mat_vec_mul(mat, k) for k in kv.keys]
    assert out_k.gk == GlobalKey(Role.BOB, mat_vec_mul(mat, kv.gamma))


def test_amplify_linearity():
    rng = random.Random(7)
    mat = BitMatrix.random(8, 20, rng)
    u, v = BitVec.random(20, rng), BitVec.random(20, rng)
    assert mat_vec_mul(mat, u ^ v) == mat_vec_mul(mat, u) ^ mat_vec_mul(mat, v)


def test_amplify_checks_width():
    rng = random.Random(8)
    (gamma, keys), (ys, macs) = synthetic_columns(10, 4, rng)
    with pytest.raises(UsageError):
        amplify_macs_with(BitMatrix.random(4, 9, rng), gamma, keys)
    with pytest.raises(UsageError):
        amplify_keys_with(BitMatrix.random(4, 11, rng), ys, macs, Role.ALICE)


@pytest.mark.parametrize("extra", [None, 1])
def test_amplify_rejects_wrong_length_matrix(extra):
    # a malformed peer frame is a protocol error, not a caller bug
    kappa = 16
    tau = tau_for(kappa)
    (gamma, keys), _ = synthetic_columns(tau, 10, random.Random(9))
    raw = bytes(2) if extra is None else bytes(kappa * ((tau + 7) // 8) + extra)
    a, b = memory_pair(timeout=5.0)
    b.send(MsgType.AMPLIFY_MATRIX, raw)
    with pytest.raises(ProtocolError):
        wabit_amplify_mac_side(a, gamma, keys, kappa)


# ---------------------------------------------------------------------------
# full pipeline


def run_produce(count, psi, owner=Role.ALICE, seed=0):
    a, b = memory_pair(timeout=120.0)
    a.kappa = b.kappa = psi  # EQ width follows the amplification target
    rng_a, rng_b = random.Random(seed), random.Random(seed + 1)
    backends = {}

    def party(ch, role, rng):
        backend = DealerOt(ch, rng)
        backends[role] = backend
        return produce_abits(ch, role, owner, count, psi, rng, backend)

    got_a, got_b = run_pair(lambda: party(a, Role.ALICE, rng_a),
                            lambda: party(b, Role.BOB, rng_b),
                            timeout=120)
    return got_a, got_b, backends


def test_produce_abits_relations_hold():
    count, psi = 1000, 64
    batch_mac, batch_key, _ = run_produce(count, psi)
    assert isinstance(batch_mac, AbitBatchMac)
    assert isinstance(batch_key, AbitBatchKey)
    assert len(batch_mac) == len(batch_key) == count
    gk = batch_key.gk
    assert gk.owner is Role.ALICE
    for i in range(count):
        m = AuthBitMac(batch_mac.bits[i], batch_mac.macs[i])
        assert verify_abit(m, AuthBitKey(batch_key.keys[i]), gk)


def test_produce_abits_homomorphic_pairs():
    batch_mac, batch_key, _ = run_produce(64, 16, seed=2)
    gk = batch_key.gk
    for i in range(0, 64, 2):
        m = (AuthBitMac(batch_mac.bits[i], batch_mac.macs[i])
             ^ AuthBitMac(batch_mac.bits[i + 1], batch_mac.macs[i + 1]))
        k = AuthBitKey(batch_key.keys[i]) ^ AuthBitKey(batch_key.keys[i + 1])
        assert verify_abit(m, k, gk)


def test_produce_abits_seed_ot_budget():
    count, psi = 32, 16
    _, _, backends = run_produce(count, psi, seed=3)
    want = 2 * tau_for(psi)
    assert backends[Role.ALICE].instances == want
    assert backends[Role.BOB].instances == want


def test_produce_abits_owner_bob():
    batch_key, batch_mac, _ = run_produce(50, 16, owner=Role.BOB, seed=4)
    gk = batch_key.gk
    assert gk.owner is Role.BOB
    for i in range(50):
        m = AuthBitMac(batch_mac.bits[i], batch_mac.macs[i])
        assert verify_abit(m, AuthBitKey(batch_key.keys[i]), gk)


def test_produce_abits_rejects_zero():
    a, _ = memory_pair()
    with pytest.raises(UsageError):
        produce_abits(a, Role.ALICE, Role.ALICE, 0, 16, random.Random(0),
                      DealerOt(a, random.Random(0)))
