import random

import numpy as np
import pytest

from helpers import (OracleDealer, QuadReceiver, QuadSender, bit_rows, from_rows,
                     laot_probe_outcomes, run_side, to_rows, verify_abit)
from macbits.aot_proto import (aot_combine_receiver, aot_combine_sender, bucket_size,
                               fold_quads_receiver, fold_quads_sender, laot_receiver,
                               laot_sender)
from macbits.errors import ProtocolAbort, UsageError
from macbits.ro_suite import MacAccumulator, hash_calls, reset_hash_calls
from macbits.transport import MsgType, Role, memory_pair, run_pair

KAPPA = 16
A, B = Role.ALICE, Role.BOB


def test_bucket_size_table():
    assert bucket_size(1024, 40) == 5
    assert bucket_size(7200, 40) == 4
    assert bucket_size(2**20, 40) == 3
    assert bucket_size(1, 40) == 41
    assert bucket_size(10**6, 1) == 2
    with pytest.raises(UsageError):
        bucket_size(0, 40)


# ---------------------------------------------------------------------------
# leaky generation


def quad_inputs(od: OracleDealer, n: int):
    x0s, x1s, kcs, krs = [], [], [], []
    cs, rs, kx0s, kx1s = [], [], [], []
    for _ in range(n):
        x0m, x0k = od.abit(A)
        x1m, x1k = od.abit(A)
        cm, ck = od.abit(B)
        rm, rk = od.abit(B)
        x0s.append(x0m)
        x1s.append(x1m)
        kcs.append(ck)
        krs.append(rk)
        cs.append(cm)
        rs.append(rm)
        kx0s.append(x0k)
        kx1s.append(x1k)
    return ([bit_rows(h, KAPPA) for h in (x0s, x1s, kcs, krs)],
            [bit_rows(h, KAPPA) for h in (cs, rs, kx0s, kx1s)])


def run_laot(n, seed=0, d_tamper=None):
    rng = random.Random(seed)
    od = OracleDealer(KAPPA, rng)
    send_in, recv_in = quad_inputs(od, n)
    a, b = memory_pair(timeout=30.0)
    rng_a = random.Random(seed + 1)
    quads_s, quads_r = run_pair(
        lambda: run_side(a, A, laot_sender(a, *send_in, od.delta[B], rng_a)),
        lambda: run_side(b, B, laot_receiver(b, *recv_in, od.delta[A], d_tamper=d_tamper)),
        timeout=30, channels=(a, b))
    return od, (from_rows(quads_s, QuadSender), from_rows(quads_r, QuadReceiver))


def check_quad(qs: QuadSender, qr: QuadReceiver, od: OracleDealer):
    assert qr.z.bit == (qs.x1.bit if qr.c.bit else qs.x0.bit)
    assert verify_abit(qs.x0, qr.kx0, od.delta[A])
    assert verify_abit(qs.x1, qr.kx1, od.delta[A])
    assert verify_abit(qr.c, qs.kc, od.delta[B])
    assert verify_abit(qr.z, qs.kz, od.delta[B])


def test_laot_honest_quads():
    od, (quads_s, quads_r) = run_laot(40)
    assert len(quads_s) == len(quads_r) == 40
    for qs, qr in zip(quads_s, quads_r):
        check_quad(qs, qr, od)


def test_laot_probe_leaks_choice_bit():
    """Garbling one branch turns the abort signal into the choice bit."""
    outcomes = laot_probe_outcomes(300, seed=3)
    assert all(aborted == (c == 1) for c, aborted in outcomes)
    aborts = sum(ab for _, ab in outcomes)
    assert 0 < aborts < 300  # both branches of the leak occur


def test_laot_wrong_d_aborts_on_pad_check():
    with pytest.raises(ProtocolAbort):
        run_laot(4, seed=5, d_tamper=lambda i, d: d ^ (1 if i == 0 else 0))


def test_laot_rejects_ragged_batches():
    rng = random.Random(6)
    od = OracleDealer(KAPPA, rng)
    (x0s, x1s, kcs, krs), _ = quad_inputs(od, 3)
    a, _ = memory_pair()
    with pytest.raises(UsageError):
        run_side(a, A, laot_sender(a, x0s, x1s[:2], kcs, krs, od.delta[B], rng))


def test_laot_hash_budget():
    reset_hash_calls()
    run_laot(50, seed=7)
    assert hash_calls("laot") == 6 * 50
    assert hash_calls("laot/x") == 3 * 50  # 2 sender + 1 receiver
    assert hash_calls("laot/i") == 3 * 50  # 2 sender + 1 receiver


# ---------------------------------------------------------------------------
# folding and bucketed combining


def make_quad(od: OracleDealer, x0: int, x1: int, c: int):
    x0m, x0k = od.abit_with(A, x0)
    x1m, x1k = od.abit_with(A, x1)
    cm, ck = od.abit_with(B, c)
    zm, zk = od.abit_with(B, x1 if c else x0)
    return QuadSender(x0m, x1m, ck, zk), QuadReceiver(cm, zm, x0k, x1k)


def test_fold_preserves_quad_relation_exhaustively():
    rng = random.Random(8)
    od = OracleDealer(KAPPA, rng)
    for bits_a in range(8):
        for bits_b in range(8):
            qa_s, qa_r = make_quad(od, bits_a & 1, (bits_a >> 1) & 1,
                                   (bits_a >> 2) & 1)
            qb_s, qb_r = make_quad(od, bits_b & 1, (bits_b >> 1) & 1,
                                   (bits_b >> 2) & 1)
            d = qa_s.x0.bit ^ qa_s.x1.bit ^ qb_s.x0.bit ^ qb_s.x1.bit
            ds = np.array([d], np.uint8)
            fs = fold_quads_sender(to_rows([qa_s], KAPPA), to_rows([qb_s], KAPPA), ds)
            fr = fold_quads_receiver(to_rows([qa_r], KAPPA), to_rows([qb_r], KAPPA), ds)
            check_quad(*from_rows(fs, QuadSender), *from_rows(fr, QuadReceiver), od)


def run_combine(n, bucket, seed=0):
    rng = random.Random(seed)
    od = OracleDealer(KAPPA, rng)
    pairs = [od.quad(A) for _ in range(n)]
    quads_s = to_rows([p[0] for p in pairs], KAPPA)
    quads_r = to_rows([p[1] for p in pairs], KAPPA)
    a, b = memory_pair(timeout=30.0)
    rng_b = random.Random(seed + 1)
    (out_s, acc_s), (out_r, acc_r) = run_pair(
        lambda: run_side(a, A, aot_combine_sender(a, quads_s, bucket, MacAccumulator())),
        lambda: run_side(b, B, aot_combine_receiver(b, quads_r, bucket, od.delta[A], rng_b,
                                                    MacAccumulator())),
        timeout=30)
    return od, out_s, out_r, acc_s, acc_r


def test_combine_outputs_clean_quads():
    od, out_s, out_r, acc_s, acc_r = run_combine(12, 3)
    assert len(out_s) == len(out_r) == 4
    for qs, qr in zip(from_rows(out_s, QuadSender), from_rows(out_r, QuadReceiver)):
        check_quad(qs, qr, od)


def test_combine_accumulators_agree():
    # d reveals are deferred: both sides absorb the same MAC sequence
    _, _, _, acc_s, acc_r = run_combine(10, 2, seed=2)
    assert acc_s.count == acc_r.count == 5
    assert acc_s.state == acc_r.state


def test_combine_rejects_non_permutation():
    rng = random.Random(9)
    od = OracleDealer(KAPPA, rng)
    quads = to_rows([od.quad(A)[0] for _ in range(4)], KAPPA)
    a, b = memory_pair(timeout=10.0)

    def bad_peer():
        perm = [0, 1, 2, 2]
        b.send(MsgType.COMB_PERM, b"".join(p.to_bytes(4, "big") for p in perm))

    with pytest.raises(ProtocolAbort):
        run_pair(lambda: run_side(a, A, aot_combine_sender(a, quads, 2, MacAccumulator())),
                 bad_peer, timeout=10, channels=(a, b))


def test_combine_validates_bucketing():
    rng = random.Random(10)
    od = OracleDealer(KAPPA, rng)
    quads = [od.quad(A)[0] for _ in range(5)]
    a, _ = memory_pair()
    with pytest.raises(UsageError):
        run_side(a, A, aot_combine_sender(a, to_rows(quads, KAPPA), 2,
                                          MacAccumulator()))  # 5 % 2 != 0
    with pytest.raises(UsageError):
        run_side(a, A, aot_combine_sender(a, to_rows(quads[:4], KAPPA), 1, MacAccumulator()))
