import random

import numpy as np
import pytest

from helpers import (OracleDealer, TripleKey, TripleMac, bit_rows, from_rows,
                     laand_u_tamper_outcomes, run_side, to_rows, verify_abit)
from macbits.aand_proto import (aand_combine_key, aand_combine_mac, fold_triples,
                                laand_key_side, laand_mac_side)
from macbits.errors import ProtocolAbort, UsageError
from macbits.ro_suite import MacAccumulator, hash_calls, reset_hash_calls
from macbits.transport import MsgType, Role, memory_pair, run_pair

KAPPA = 16
A, B = Role.ALICE, Role.BOB


def triple_inputs(od: OracleDealer, n: int):
    xs, ys, rs = [], [], []
    kxs, kys, krs = [], [], []
    for _ in range(n):
        xm, xk = od.abit(A)
        ym, yk = od.abit(A)
        rm, rk = od.abit(A)
        xs.append(xm)
        ys.append(ym)
        rs.append(rm)
        kxs.append(xk)
        kys.append(yk)
        krs.append(rk)
    return ([bit_rows(h, KAPPA) for h in (xs, ys, rs)],
            [bit_rows(h, KAPPA) for h in (kxs, kys, krs)])


def run_laand(n, seed=0, d_tamper=None, u_tamper=None):
    rng = random.Random(seed)
    od = OracleDealer(KAPPA, rng)
    mac_in, key_in = triple_inputs(od, n)
    a, b = memory_pair(timeout=30.0)
    rng_a = random.Random(seed + 1)
    macs, keys = run_pair(
        lambda: run_side(a, A, laand_mac_side(a, *mac_in, rng_a, d_tamper=d_tamper)),
        lambda: run_side(b, B, laand_key_side(b, *key_in, od.delta[A], u_tamper=u_tamper)),
        timeout=30, channels=(a, b))
    return od, (from_rows(macs, TripleMac), from_rows(keys, TripleKey))


def check_triple(tm: TripleMac, tk: TripleKey, od: OracleDealer):
    assert tm.z.bit == tm.x.bit & tm.y.bit
    assert verify_abit(tm.x, tk.kx, od.delta[A])
    assert verify_abit(tm.y, tk.ky, od.delta[A])
    assert verify_abit(tm.z, tk.kz, od.delta[A])


def test_laand_honest_triples():
    od, (macs, keys) = run_laand(40)
    assert len(macs) == len(keys) == 40
    for tm, tk in zip(macs, keys):
        check_triple(tm, tk, od)


def test_laand_wrong_product_aborts():
    with pytest.raises(ProtocolAbort):
        run_laand(4, seed=2, d_tamper=lambda i, d: d ^ (1 if i == 2 else 0))


def test_laand_garbled_challenge_leaks_x():
    """A tampered challenge digest passes exactly when x = 0: the holder
    never reads u for those instances."""
    outcomes = laand_u_tamper_outcomes(300, seed=3)
    assert all(aborted == (x == 1) for x, aborted in outcomes)
    aborts = sum(ab for _, ab in outcomes)
    assert 0 < aborts < 300


def test_laand_rejects_ragged_batches():
    rng = random.Random(4)
    od = OracleDealer(KAPPA, rng)
    (xs, ys, rs), _ = triple_inputs(od, 3)
    a, _ = memory_pair()
    with pytest.raises(UsageError):
        run_side(a, A, laand_mac_side(a, xs, ys[:2], rs, rng))


def test_laand_hash_budget():
    reset_hash_calls()
    run_laand(50, seed=5)
    assert hash_calls("laand") == 3 * 50  # 1 holder + 2 key side


# ---------------------------------------------------------------------------
# folding and bucketed combining


def make_triple(od: OracleDealer, x: int, y: int):
    xm, xk = od.abit_with(A, x)
    ym, yk = od.abit_with(A, y)
    zm, zk = od.abit_with(A, x & y)
    return TripleMac(xm, ym, zm), TripleKey(xk, yk, zk)


def test_fold_preserves_product_exhaustively():
    rng = random.Random(6)
    od = OracleDealer(KAPPA, rng)
    for bits in range(16):
        ta_m, ta_k = make_triple(od, bits & 1, (bits >> 1) & 1)
        tb_m, tb_k = make_triple(od, (bits >> 2) & 1, (bits >> 3) & 1)
        d = np.array([ta_m.y.bit ^ tb_m.y.bit], np.uint8)
        [fm] = from_rows(fold_triples(to_rows([ta_m], KAPPA), to_rows([tb_m], KAPPA), d),
                         TripleMac)
        [fk] = from_rows(fold_triples(to_rows([ta_k], KAPPA), to_rows([tb_k], KAPPA), d),
                         TripleKey)
        assert fm.y == ta_m.y  # fold keeps the accumulator's y
        check_triple(fm, fk, od)


def run_combine(n, bucket, seed=0):
    rng = random.Random(seed)
    od = OracleDealer(KAPPA, rng)
    pairs = [od.triple(A) for _ in range(n)]
    macs = to_rows([p[0] for p in pairs], KAPPA)
    keys = to_rows([p[1] for p in pairs], KAPPA)
    a, b = memory_pair(timeout=30.0)
    rng_a = random.Random(seed + 1)
    (out_m, acc_m), (out_k, acc_k) = run_pair(
        lambda: run_side(a, A, aand_combine_mac(a, macs, bucket, rng_a, MacAccumulator())),
        lambda: run_side(b, B, aand_combine_key(b, keys, bucket, od.delta[A],
                                                MacAccumulator())),
        timeout=30)
    return od, out_m, out_k, acc_m, acc_k


def test_combine_outputs_clean_triples():
    od, out_m, out_k, _, _ = run_combine(12, 3)
    assert len(out_m) == len(out_k) == 4
    for tm, tk in zip(from_rows(out_m, TripleMac), from_rows(out_k, TripleKey)):
        check_triple(tm, tk, od)


def test_combine_accumulators_agree():
    _, _, _, acc_m, acc_k = run_combine(10, 2, seed=2)
    assert acc_m.count == acc_k.count == 5
    assert acc_m.state == acc_k.state


def test_combine_rejects_non_permutation():
    rng = random.Random(7)
    od = OracleDealer(KAPPA, rng)
    keys = to_rows([od.triple(A)[1] for _ in range(4)], KAPPA)
    a, b = memory_pair(timeout=10.0)

    def bad_peer():
        perm = [3, 3, 1, 0]
        a.send(MsgType.COMB_PERM, b"".join(p.to_bytes(4, "big") for p in perm))

    with pytest.raises(ProtocolAbort):
        run_pair(bad_peer,
                 lambda: run_side(b, B, aand_combine_key(b, keys, 2, od.delta[A],
                                                         MacAccumulator())),
                 timeout=10, channels=(a, b))


def test_combine_validates_bucketing():
    rng = random.Random(8)
    od = OracleDealer(KAPPA, rng)
    macs = [od.triple(A)[0] for _ in range(5)]
    a, _ = memory_pair()
    with pytest.raises(UsageError):
        run_side(a, A, aand_combine_mac(a, to_rows(macs, KAPPA), 2, rng, MacAccumulator()))
    with pytest.raises(UsageError):
        run_side(a, A, aand_combine_mac(a, to_rows(macs[:4], KAPPA), 1, rng, MacAccumulator()))
