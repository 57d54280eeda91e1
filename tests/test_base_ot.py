import random
import time

import pytest

from helpers import counting_pair, run_side
from macbits.base_ot import (SEED_BITS, DealerOt, extend_ot_receive,
                             extend_ot_send, seed_ot_receive, seed_ot_send)
from macbits.bitlinalg import BitVec
from macbits.errors import UsageError
from macbits.ro_suite import expand, ro_hash
from macbits.transport import MsgType, Role, memory_pair, run_pair, run_sides

A, B = Role.ALICE, Role.BOB


def bv(s: str) -> BitVec:
    return BitVec.from_bits(int(c) for c in s)


def run_ot(pairs, choices, n_bits):
    a, b = memory_pair(timeout=30.0)
    rng = random.Random(0)
    _, got = run_pair(lambda: run_side(a, A, DealerOt(a, rng).send(pairs)),
                      lambda: run_side(b, B, DealerOt(b).receive(choices, n_bits)),
                      timeout=30)
    return got


class RecordingOt(DealerOt):
    """DealerOt that keeps the seed pairs it was asked to send."""

    def send(self, pairs):
        self.pairs = pairs
        yield from super().send(pairs)


def run_extended(offset, choices, offer_tamper=None):
    """Correlated OTs under offset. Returns (sender keys, received messages,
    seed pairs, frames the sender sent)."""
    a, b = counting_pair(timeout=60.0)
    rng = random.Random(0)
    backend = RecordingOt(a, rng)
    keys, got = run_pair(
        lambda: run_side(a, A, extend_ot_send(a, backend, offset, len(choices), rng,
                                              offer_tamper=offer_tamper)),
        lambda: run_side(b, B, extend_ot_receive(b, DealerOt(b), choices, offset.n)),
        timeout=60)
    return keys, got, backend.pairs, a.sent


def assert_one_correction_frame(sent, count, n_bits):
    """The seed OTs' frames, then one OT_MASKED1 frame of count*ceil(n/8) bytes."""
    seed = count * SEED_BITS // 8
    assert [(t, len(p)) for t, p in sent] == [
        (MsgType.OT_SETUP, 16), (MsgType.OT_MASKED0, seed), (MsgType.OT_MASKED1, seed),
        (MsgType.OT_MASKED1, count * ((n_bits + 7) // 8))]


def test_choice_zero_selects_first():
    assert run_ot([(bv("01"), bv("10"))], [0], 2) == [bv("01")]


def test_choice_one_selects_second():
    assert run_ot([(bv("01"), bv("10"))], [1], 2) == [bv("10")]


def test_correctness_identity_all_choices():
    # received == c*(m0 xor m1) xor m0, exhaustive over c per instance
    rng = random.Random(1)
    pairs = [(BitVec.random(16, rng), BitVec.random(16, rng)) for _ in range(32)]
    choices = [i & 1 for i in range(32)]
    got = run_ot(pairs, choices, 16)
    for (m0, m1), c, y in zip(pairs, choices, got):
        assert y == ((m0 ^ m1).times(c) ^ m0)


def test_640_seed_ots_under_a_second():
    rng = random.Random(2)
    pairs = [(BitVec.random(SEED_BITS, rng), BitVec.random(SEED_BITS, rng))
             for _ in range(640)]
    choices = [rng.getrandbits(1) for _ in range(640)]
    a, b = memory_pair(timeout=30.0)
    t0 = time.time()
    _, got = run_pair(lambda: run_side(a, A, seed_ot_send(DealerOt(a, rng), pairs)),
                      lambda: run_side(b, B, seed_ot_receive(DealerOt(b), choices)),
                      timeout=30)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    for (m0, m1), c, y in zip(pairs, choices, got):
        assert y == (m1 if c else m0)


def test_batch_sequencing_across_calls():
    # pads are positional: two sequential batches on one backend stay aligned
    rng = random.Random(3)
    p1 = [(BitVec.random(8, rng), BitVec.random(8, rng)) for _ in range(5)]
    p2 = [(BitVec.random(8, rng), BitVec.random(8, rng)) for _ in range(7)]
    c1 = [rng.getrandbits(1) for _ in range(5)]
    c2 = [rng.getrandbits(1) for _ in range(7)]
    a, b = memory_pair(timeout=30.0)

    def send():
        be = DealerOt(a, rng)
        run_side(a, A, be.send(p1))
        run_side(a, A, be.send(p2))

    def recv():
        be = DealerOt(b)
        return run_side(b, B, be.receive(c1, 8)), run_side(b, B, be.receive(c2, 8))

    _, (g1, g2) = run_pair(send, recv, timeout=30)
    assert g1 == [p[c] for p, c in zip(p1, c1)]
    assert g2 == [p[c] for p, c in zip(p2, c2)]


def test_extended_ot_kappa_sized():
    # a cheating sender may pick m1 freely: the receiver gets m0 ^ c*(m0 ^ m1),
    # and m0 is the sender's returned expansion of its branch-0 seed
    rng = random.Random(4)
    offset = BitVec.random(SEED_BITS, rng)
    choices = [i & 1 for i in range(8)]
    offered = []

    def any_m1(k, m0, m1):
        m1 = BitVec.random(SEED_BITS, rng) if k % 3 else m1
        offered.append((m0, m1))
        return m0, m1

    keys, got, seeds, sent = run_extended(offset, choices, offer_tamper=any_m1)
    assert keys == [m0 for m0, _ in offered]
    assert keys == [expand(ro_hash("otx", s0), SEED_BITS) for s0, _ in seeds]
    assert got == [m0 ^ (m0 ^ m1).times(c) for (m0, m1), c in zip(offered, choices)]
    assert offered[0][1] == keys[0] ^ offset
    assert_one_correction_frame(sent, 8, SEED_BITS)


def test_extended_ot_long_messages():
    n = 1 << 16
    offset = BitVec.random(n, random.Random(5))
    keys, got, _, sent = run_extended(offset, [0, 1])
    assert got == [keys[0], keys[1] ^ offset]
    assert_one_correction_frame(sent, 2, n)


def test_offer_tamper_cannot_change_branch_zero():
    rng = random.Random(7)
    offset = BitVec.random(16, rng)
    a, _ = memory_pair(timeout=5.0)
    with pytest.raises(UsageError):
        run_side(a, A, extend_ot_send(a, DealerOt(a, rng), offset, 4, rng,
                                      offer_tamper=lambda k, m0, m1: (m0 ^ BitVec(16, 1), m1)))


def test_nonchosen_message_guess_rate():
    """With c = 0 the receiver holds L and sees the masked L ^ offset; their
    XOR is the offset only when the unchosen seed's pad is zero, about 2^-16."""
    n, trials = 16, 1 << 16
    offset = BitVec.random(n, random.Random(6))
    _, got, _, sent = run_extended(offset, [0] * trials)
    frame = sent[-1][1]
    hits = sum(1 for k, m in enumerate(got)
               if m ^ BitVec.from_bytes(n, frame[2 * k : 2 * k + 2]) == offset)
    assert hits / trials <= 10 * 2**-16


def test_both_directions_side_by_side():
    # both endpoints send seed OTs in the same flight: each direction keeps
    # its own pads and counter, so a second batch stays aligned too
    rng = random.Random(8)

    def batch(n):
        return ([(BitVec.random(8, rng), BitVec.random(8, rng)) for _ in range(n)],
                [rng.getrandbits(1) for _ in range(n)])

    (pa, ca), (pb, cb), (pa2, ca2) = batch(6), batch(5), batch(3)
    a, b = memory_pair(timeout=30.0)

    def alice():
        be = DealerOt(a, random.Random(0))
        run_side(a, A, be.setup(mint=True))
        _, got = run_sides(a, A, be.send(pa), be.receive(cb, 8))
        run_side(a, A, be.send(pa2))
        return got

    def bob():
        be = DealerOt(b, random.Random(1))
        run_side(b, B, be.setup(mint=False))
        got, _ = run_sides(b, B, be.receive(ca, 8), be.send(pb))
        return got, run_side(b, B, be.receive(ca2, 8))

    got_a, (got_b, got_b2) = run_pair(alice, bob, timeout=30, channels=(a, b))
    assert got_a == [p[c] for p, c in zip(pb, cb)]
    assert got_b == [p[c] for p, c in zip(pa, ca)]
    assert got_b2 == [p[c] for p, c in zip(pa2, ca2)]
