"""Headline acceptance suite.

Each test exercises one end-to-end property of the engine at a stated
tolerance and prints a single [PASS]/[FAIL] line (run with -s to watch the
table scroll by). Statistical checks use 3-sigma bands around the predicted
rates, so a clean run is also evidence the estimators are calibrated.
"""

import math
import random
import time

import numpy as np

from aes_oracle import KNOWN_VECTORS, aes128_encrypt
from helpers import (AuthBitKey, AuthBitMac, OracleDealer, bit_rows, const_key,
                     const_mac, delta_vec, eval_two, labit_cheat_survivals,
                     laand_u_tamper_outcomes, laot_probe_outcomes,
                     oracle_store_pair, random_circuit, random_inputs,
                     reconstruct_pair, run_side, verify_abit)
from macbits.aand_proto import aand_combine_key, aand_combine_mac
from macbits.aescircuit import (bits_to_block, block_to_bits,
                                generate_aes_circuit)
from macbits.aot_proto import aot_combine_receiver, aot_combine_sender
from macbits.bitlinalg import BitVec
from macbits.circuit import plain_eval
from macbits.dealer import DealerConfig, deal
from macbits.errors import ProtocolAbort
from macbits.leakage_lab import (alpha_prime, bucket_fail_mc,
                                 bucket_fail_prob, span_fail_rate)
from macbits.ro_suite import MacAccumulator, hash_calls, reset_hash_calls
from macbits.runtime_2pc import Runtime, TamperPlan, count_reveal_sites
from macbits.transport import Role, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def three_sigma(p: float, trials: int) -> float:
    return 3 * math.sqrt(p * (1 - p) / trials)


def test_oracle_equivalence_100_random_circuits():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    matches = 0
    for _ in range(100):
        c = random_circuit(rng, rng.randrange(20, 1001),
                           inputs_a=rng.randrange(1, 17),
                           inputs_b=rng.randrange(1, 17))
        sa, sb = oracle_store_pair(c, rng)
        xa, xb = random_inputs(c, rng)
        out_a, out_b, _, _ = eval_two(c, sa, sb, xa, xb)
        want = plain_eval(c, xa, xb)
        matches += out_a == want and out_b == want
    elapsed = time.perf_counter() - t0
    report("oracle equivalence", matches == 100 and elapsed < 60,
           f"{matches}/100 random circuits match plain evaluation "
           f"in {elapsed:.1f}s (<60s)")


def _aes_block(circuit, key, pt, kappa, psi, seed):
    cfg = DealerConfig.for_gates(circuit.n_and, 128, 128,
                                 kappa=kappa, psi=psi)
    ca, cb = memory_pair(timeout=600.0)
    sa, sb = run_pair(
        lambda: deal(ca, A, cfg, random.Random(seed)),
        lambda: deal(cb, B, cfg, random.Random(seed + 1)),
        timeout=600.0, channels=(ca, cb))
    ca2, cb2 = memory_pair(timeout=600.0)
    ra = Runtime(ca2, A, sa)
    rb = Runtime(cb2, B, sb)
    out_a, out_b = run_pair(
        lambda: ra.evaluate(circuit, block_to_bits(key)),
        lambda: rb.evaluate(circuit, block_to_bits(pt)),
        timeout=600.0, channels=(ca2, cb2))
    assert out_a == out_b
    return bits_to_block(out_a)


def test_aes_end_to_end():
    circuit = generate_aes_circuit()
    n_gates = circuit.header.n_gates
    gates_ok = abs(n_gates - 34520) <= 0.35 * 34520

    key, pt, ct = KNOWN_VECTORS[0]
    t0 = time.perf_counter()
    got = _aes_block(circuit, key, pt, kappa=128, psi=40, seed=42)
    t_full = time.perf_counter() - t0
    vectors_ok = got == ct == aes128_encrypt(key, pt)

    # two more vectors through the identical engine at reduced parameters
    for i, (key, pt, ct) in enumerate(KNOWN_VECTORS[1:3]):
        got = _aes_block(circuit, key, pt, kappa=64, psi=16, seed=77 + i)
        vectors_ok = vectors_ok and got == ct == aes128_encrypt(key, pt)

    report("oblivious AES", vectors_ok and t_full < 120 and gates_ok,
           f"3/3 ciphertexts match the local oracle; full-parameter block "
           f"{t_full:.1f}s (<120s); {n_gates} gates (within 35% of 34,520)")


def test_tamper_sweep_detects_every_site():
    rng = random.Random(1003)
    c = random_circuit(rng, 50)
    assert c.n_and >= 5
    xa, xb = random_inputs(c, rng)
    detected = total = 0
    for cheater in (A, B):
        for mode in ("bit", "mac"):
            for site in range(count_reveal_sites(c, cheater)):
                sa, sb = oracle_store_pair(c, rng)
                plan = TamperPlan(site, mode)
                total += 1
                try:
                    eval_two(c, sa, sb, xa, xb,
                             tamper_a=plan if cheater is A else None,
                             tamper_b=plan if cheater is B else None)
                except ProtocolAbort:
                    detected += 1
    report("single-site tamper sweep", detected == total,
           f"{detected}/{total} bit/MAC flips aborted "
           f"(50-gate circuit, {c.n_and} ANDs, both parties)")


def test_reveal_forgery_rate_at_reduced_kappa():
    kappa, trials = 8, 10 ** 5
    rng = random.Random(1004)
    hits = 0
    for _ in range(trials):
        delta = BitVec.random(kappa, rng)
        gk = np.frombuffer(delta.to_bytes(), np.uint8)
        key = BitVec.random(kappa, rng)
        bit = rng.getrandbits(1)
        mac = key ^ delta.times(bit)
        assert verify_abit(AuthBitMac(bit, mac), AuthBitKey(key), gk)
        # flipping the bit is accepted only with MAC = mac ^ delta, so a
        # forgery is exactly a correct blind guess of delta
        guess = BitVec.random(kappa, rng)
        hits += verify_abit(AuthBitMac(bit ^ 1, mac ^ guess),
                            AuthBitKey(key), gk)
    rate, want = hits / trials, 2.0 ** -kappa
    band = three_sigma(want, trials)
    report("reveal forgery rate", abs(rate - want) <= band,
           f"kappa={kappa}: {rate:.5f} vs 2^-8={want:.5f} "
           f"(3-sigma band {band:.5f}, {trials} trials)")


def test_pairing_cheat_survival():
    trials = 10 ** 4
    lines, ok = [], True
    for m in (1, 2, 3):
        rate = labit_cheat_survivals(m, trials, seed=1005 + m) / trials
        want = 2.0 ** -m
        ok = ok and abs(rate - want) <= three_sigma(want, trials)
        lines.append(f"m={m}: {rate:.3f}~{want:.3f}")
    report("correlation cheat survival", ok,
           f"{'; '.join(lines)} (3-sigma, {trials} trials each)")


def test_selective_failure_rates():
    trials = 10 ** 4
    band = three_sigma(0.5, trials)
    ot = laot_probe_outcomes(trials, seed=1006)
    ot_rate = sum(ab for _, ab in ot) / trials
    ot_ok = (abs(ot_rate - 0.5) <= band
             and all(ab == (c == 1) for c, ab in ot))
    an = laand_u_tamper_outcomes(trials, seed=1007)
    an_rate = sum(ab for _, ab in an) / trials
    an_ok = (abs(an_rate - 0.5) <= band
             and all(ab == (x == 1) for x, ab in an))
    report("selective-failure probes", ot_ok and an_ok,
           f"OT-branch probe aborts {ot_rate:.3f}, AND-challenge tamper "
           f"{an_rate:.3f}; expected 1/2 +- {band:.3f} ({trials} trials each)")


def test_security_bound_oracles():
    rng = random.Random(1008)
    base = 20_000
    cells = worst = 0
    grid_ok = True
    for bucket in (2, 3, 4):
        for ell in (4, 8, 16):
            for gamma in range(bucket, 2 * bucket + 1):
                a = bucket_fail_prob(gamma, ell, bucket)
                hit = min(1.0, a * 2.0 ** gamma)
                trials = min(max(base, int(50 / hit) + 1), 100 * base)
                mc, se = bucket_fail_mc(gamma, ell, bucket, trials, rng,
                                        return_stderr=True)
                if se > 0:
                    cell_ok = abs(mc - a) <= 3 * se
                    worst = max(worst, abs(mc - a) / se)
                else:
                    cell_ok = hit * trials <= 9
                grid_ok = grid_ok and cell_ok
                cells += 1
    prime_ok = all(
        alpha_prime(bucket, ell) <= (2 * ell) ** (1 - bucket)
        for bucket in range(2, 7) for ell in (16, 256, 4096, 2 ** 20))
    tail = alpha_prime(6, 2 ** 20)
    span = span_fail_rate(8, trials=10 ** 6, rng=rng)
    report("security bound oracles",
           grid_ok and prime_ok and tail <= 2.0 ** -100 and span <= 2.0 ** -7,
           f"{cells} bucket cells within 3 sigma (worst {worst:.2f});"
           f" alpha'(6,2^20)={tail:.2e}<=2^-100;"
           f" span rate {span:.2e}<=2^-7 (10^6 trials)")


def test_cost_accounting():
    rng = random.Random(1009)
    od = OracleDealer(16, rng)
    bucket, n_out = 3, 10
    n_leaky = bucket * n_out

    from macbits.aot_proto import laot_receiver, laot_sender
    reset_hash_calls()
    pairs = [od.quad(A) for _ in range(n_leaky)]
    ca, cb = memory_pair(timeout=30.0)
    quads_s, quads_r = run_pair(
        lambda: run_side(ca, A, laot_sender(ca, bit_rows([p[0].x0 for p in pairs], 16),
                                            bit_rows([p[0].x1 for p in pairs], 16),
                                            bit_rows([p[0].kc for p in pairs], 16),
                                            bit_rows([p[0].kz for p in pairs], 16),
                                            od.delta[B], random.Random(1))),
        lambda: run_side(cb, B, laot_receiver(cb, bit_rows([p[1].c for p in pairs], 16),
                                              bit_rows([p[1].z for p in pairs], 16),
                                              bit_rows([p[1].kx0 for p in pairs], 16),
                                              bit_rows([p[1].kx1 for p in pairs], 16),
                                              od.delta[A])),
        timeout=30, channels=(ca, cb))
    ca, cb = memory_pair(timeout=30.0)
    (out_s, _), (out_r, _) = run_pair(
        lambda: run_side(ca, A, aot_combine_sender(ca, quads_s, bucket, MacAccumulator())),
        lambda: run_side(cb, B, aot_combine_receiver(cb, quads_r, bucket, od.delta[A],
                                                     random.Random(2), MacAccumulator())),
        timeout=30)
    assert len(out_s) == n_out
    per_aot = hash_calls("laot") / n_out

    from macbits.aand_proto import laand_key_side, laand_mac_side
    reset_hash_calls()
    trips = [od.triple(A) for _ in range(n_leaky)]
    ca, cb = memory_pair(timeout=30.0)
    macs, keys = run_pair(
        lambda: run_side(ca, A, laand_mac_side(ca, bit_rows([t[0].x for t in trips], 16),
                                               bit_rows([t[0].y for t in trips], 16),
                                               bit_rows([t[0].z for t in trips], 16),
                                               random.Random(3))),
        lambda: run_side(cb, B, laand_key_side(cb, bit_rows([t[1].kx for t in trips], 16),
                                               bit_rows([t[1].ky for t in trips], 16),
                                               bit_rows([t[1].kz for t in trips], 16),
                                               od.delta[A])),
        timeout=30, channels=(ca, cb))
    ca, cb = memory_pair(timeout=30.0)
    (out_m, _), (out_k, _) = run_pair(
        lambda: run_side(ca, A, aand_combine_mac(ca, macs, bucket, random.Random(4),
                                                 MacAccumulator())),
        lambda: run_side(cb, B, aand_combine_key(cb, keys, bucket, od.delta[A],
                                                 MacAccumulator())),
        timeout=30)
    assert len(out_m) == n_out
    per_aand = hash_calls("laand") / n_out

    c = random_circuit(rng, 60)
    sa, sb = oracle_store_pair(c, rng)
    xa, xb = random_inputs(c, rng)
    eval_two(c, sa, sb, xa, xb)
    h = c.header
    per_and_ok = True
    for store, mine in ((sa, h.inputs_a), (sb, h.inputs_b)):
        used = store.consumed()
        per_and_ok = per_and_ok and (
            used["aots_sender"] == used["aots_receiver"] == c.n_and
            and used["aands_mine"] == used["aands_theirs"] == c.n_and
            and used["abits_mine"] == mine + c.n_and
            and used["abits_theirs"] == (h.n_inputs - mine) + c.n_and)

    report("cost accounting",
           per_aot == 6 * bucket and per_aand == 3 * bucket and per_and_ok,
           f"hashes per bucketed OT {per_aot:.0f} (=6B), per bucketed AND "
           f"{per_aand:.0f} (=3B) at B={bucket}; online consumption per AND "
           f"gate = 2 bits + 2 ANDs + 2 OTs per party")


def _row(half) -> np.ndarray:
    """The store's row of a record half: MAC bytes then the bit, or key bytes."""
    if isinstance(half, AuthBitMac):
        return np.frombuffer(half.mac.to_bytes() + bytes((half.bit,)), np.uint8)
    return np.frombuffer(half.key.to_bytes(), np.uint8)


def _row_holds(mac_row, key_row, delta) -> bool:
    return np.array_equal(mac_row[:-1], key_row ^ mac_row[-1] * delta)


def test_share_algebra_exhaustive():
    rng = random.Random(1010)
    od = OracleDealer(16, rng)
    gk = od.delta[A]
    ok = True

    def abit_rows(owner, bit):
        m, k = od.abit_with(owner, bit)
        return _row(m), _row(k)

    for x in (0, 1):
        for y in (0, 1):
            xm, xk = abit_rows(A, x)
            ym, yk = abit_rows(A, y)
            s = xm ^ ym
            ok = ok and s[-1] == (x ^ y) and _row_holds(s, xk ^ yk, gk)

    for b in (0, 1):
        # a public constant: zero MAC and bit b; the peer's key is b*Delta
        cm, ck = _row(const_mac(b, 16)), _row(const_key(b, gk))
        ok = ok and not cm[:-1].any() and cm[-1] == b
        ok = ok and np.array_equal(ck, _row(AuthBitKey(delta_vec(gk).times(b))))
        ok = ok and _row_holds(cm, ck, gk)
        for x in (0, 1):
            xm, xk = abit_rows(A, x)
            ok = ok and _row_holds(xm ^ cm, xk ^ ck, gk)
            ok = ok and (xm ^ cm)[-1] == x ^ b

    recon = 0
    for va in (0, 1):
        for vb in (0, 1):
            am, ak = abit_rows(A, va)
            bm, bk = abit_rows(B, vb)
            # Alice's wire rows are (am, bk), Bob's (bm, ak)
            ok = ok and reconstruct_pair(am, bm) == va ^ vb
            ok = ok and _row_holds(am, ak, od.delta[A])
            ok = ok and _row_holds(bm, bk, od.delta[B])
            recon += 1
    # xor of shared wires reconstructs the xor of the values
    for va in (0, 1):
        for vb in (0, 1):
            for wa in (0, 1):
                for wb in (0, 1):
                    am, ak = abit_rows(A, va)
                    bm, bk = abit_rows(B, vb)
                    cm, ck = abit_rows(A, wa)
                    dm, dk = abit_rows(B, wb)
                    v_m, v_k = am ^ cm, bk ^ dk
                    w_m, w_k = bm ^ dm, ak ^ ck
                    ok = ok and reconstruct_pair(v_m, w_m) == va ^ vb ^ wa ^ wb
                    ok = ok and _row_holds(v_m, w_k, od.delta[A])
                    ok = ok and _row_holds(w_m, v_k, od.delta[B])
                    recon += 1

    report("share algebra", ok,
           f"xor homomorphism, constant bits, and {recon} share "
           f"reconstructions all hold")
