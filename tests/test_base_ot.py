import random
import time

import numpy as np
import pytest

from helpers import (closing_pair, counting_pair, dealer_pads, ot_receive_all, ref_pad,
                     rewrite_sends, run_side, run_two)
from macbits import base_ot
from macbits.base_ot import SEED_BITS, DealerOt, extend_ot_send
from macbits.bitlinalg import random_rows
from macbits.errors import ProtocolError
from macbits.ro_suite import expand, hash_calls
from macbits.transport import MsgType, Role, memory_pair, run_pair, run_sides

A, B = Role.ALICE, Role.BOB
SID = bytes(range(16))


def message_pairs(n, n_bytes, rng):
    """n random pairs of n_bytes-byte messages, an (n, 2, n_bytes) array."""
    return random_rows(2 * n, 8 * n_bytes, rng).reshape(n, 2, n_bytes)


def chosen(pairs, choices):
    return pairs[np.arange(len(pairs)), choices]


def run_ot(pairs, choices, n_bits):
    ot_a, ot_b = DealerOt(SID, A), DealerOt(SID, A)
    _, got = run_two(lambda a: run_side(a, A, ot_a.send(pairs)),
                     lambda b: run_side(b, B, ot_b.receive(choices, n_bits)),
                     timeout=30)
    return got


class RecordingOt(DealerOt):
    """DealerOt that keeps the seed pairs it was asked to send."""

    def send(self, pairs):
        self.pairs = pairs
        yield from super().send(pairs)


def run_extended(offset, n_bits, choices, rewrite=None):
    """Correlated OTs under offset; a given rewrite changes the sender's
    frames (see `helpers.rewrite_sends`). Returns (sender keys, received
    messages, seed pairs, frames the sender sent)."""
    rng = random.Random(0)
    # the session id takes the rng's first draw, so the statistical tests'
    # trials draw what they drew when a dealer seed took it
    sid = rng.getrandbits(128).to_bytes(16, "little")
    backend, ot_b = RecordingOt(sid, A), DealerOt(sid, A)
    sender = extend_ot_send(backend, offset, n_bits, len(choices), rng)
    with closing_pair(counting_pair(timeout=60.0)) as (a, b):
        keys, got = run_pair(
            lambda: run_side(a, A, rewrite_sends(sender, rewrite) if rewrite else sender),
            lambda: run_side(b, B, ot_receive_all(ot_b, choices, n_bits)),
            timeout=60, channels=(a, b))
    return keys, got, backend.pairs, a.sent


def assert_correction_frames(sent, count, *batch_bits):
    """The seed OTs' frames, then one OT_MASKED1 frame of count*ceil(n/8)
    bytes per batch of n bits."""
    seed = count * SEED_BITS // 8
    assert [(t, len(p)) for t, p in sent] == [
        (MsgType.OT_MASKED0, seed), (MsgType.OT_MASKED1, seed),
        *((MsgType.OT_MASKED1, count * ((n + 7) // 8)) for n in batch_bits)]


def test_choice_zero_selects_first():
    assert run_ot(np.array([[[0b10], [0b01]]], np.uint8), [0], 2).tolist() == [[0b10]]


def test_choice_one_selects_second():
    assert run_ot(np.array([[[0b10], [0b01]]], np.uint8), [1], 2).tolist() == [[0b01]]


def test_correctness_identity_all_choices():
    # received == c*(m0 xor m1) xor m0, exhaustive over c per instance
    rng = random.Random(1)
    pairs = message_pairs(32, 2, rng)
    choices = [i & 1 for i in range(32)]
    got = run_ot(pairs, choices, 16)
    for (m0, m1), c, y in zip(pairs, choices, got):
        assert np.array_equal(y, (m0 ^ m1) * c ^ m0)


def test_640_seed_ots_under_a_second():
    rng = random.Random(2)
    pairs = message_pairs(640, SEED_BITS // 8, rng)
    choices = [rng.getrandbits(1) for _ in range(640)]
    ot_a, ot_b = DealerOt(SID, A), DealerOt(SID, A)
    t0 = time.time()
    _, got = run_two(lambda a: run_side(a, A, ot_a.send(pairs)),
                     lambda b: run_side(b, B, ot_b.receive(choices, SEED_BITS)),
                     timeout=30)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    assert np.array_equal(got, chosen(pairs, choices))


def test_batch_sequencing_across_calls():
    # pads are positional: two sequential batches on one backend stay aligned
    rng = random.Random(3)
    p1, p2 = message_pairs(5, 1, rng), message_pairs(7, 1, rng)
    c1 = [rng.getrandbits(1) for _ in range(5)]
    c2 = [rng.getrandbits(1) for _ in range(7)]
    def send(a):
        be = DealerOt(SID, A)
        run_side(a, A, be.send(p1))
        run_side(a, A, be.send(p2))

    def recv(b):
        be = DealerOt(SID, A)
        return run_side(b, B, be.receive(c1, 8)), run_side(b, B, be.receive(c2, 8))

    _, (g1, g2) = run_two(send, recv, timeout=30)
    assert np.array_equal(g1, chosen(p1, c1))
    assert np.array_equal(g2, chosen(p2, c2))


def test_extended_ot_kappa_sized():
    # a cheating sender may pick branch 1 freely: XORing rows E into its
    # correction frame offers keys ^ (offset ^ E), so the receiver gets
    # keys ^ c*(offset ^ E), where keys is the sender's returned expansion
    # of its branch-0 seeds
    rng = random.Random(4)
    offset = random_rows(1, SEED_BITS, rng)[0]
    choices = [i & 1 for i in range(8)]
    e = random_rows(8, SEED_BITS, rng).copy()
    e[0::3] = 0

    def add_e(flight, msg_type, payload):
        # flight 0 holds the seed OTs' own OT_MASKED1, flight 1 the correction
        if flight != 1:
            return payload
        return (np.frombuffer(payload, np.uint8).reshape(e.shape) ^ e).tobytes()

    keys, got, seeds, sent = run_extended(offset, SEED_BITS, choices, add_e)
    # one batch: each key is the expansion of its seed and batch index 0
    assert [k.tobytes() for k in keys] == [ref_pad("otx", s0.tobytes() + bytes(4), SEED_BITS)
                                           for s0 in seeds[:, 0]]
    assert np.array_equal(got, keys ^ (offset ^ e) * np.array(choices, np.uint8)[:, None])
    assert np.array_equal(got[3], keys[3] ^ offset)  # an untouched row with c = 1
    assert_correction_frames(sent, 8, SEED_BITS)


def test_extended_ot_long_messages():
    # 2**16 + 3 bits cross in two byte-aligned batches of 4,097 and 4,096
    # bytes; batch k of a key is the expansion of its seed and k
    n = (1 << 16) + 3
    offset = random_rows(1, n, random.Random(5))[0]
    keys, got, seeds, sent = run_extended(offset, n, [0, 1])
    assert np.array_equal(got, [keys[0], keys[1] ^ offset])
    assert base_ot.ot_batches(n) == [(0, 32776), (32776, 32763)]
    assert_correction_frames(sent, 2, 32776, 32763)
    for key, s0 in zip(keys, seeds[:, 0]):
        assert key.tobytes() == b"".join(ref_pad("otx", s0.tobytes() + k.to_bytes(4, "big"), bits)
                                         for k, bits in enumerate((32776, 32763)))


def test_correction_pad_bit_refused_whatever_the_choices():
    # the receiver parses the whole correction frame before its choice bits
    # pick rows: with all-zero choices it reads no row of it, yet a set pad
    # bit in the last 13-bit row is still a ProtocolError
    def set_pad(flight, msg_type, payload):
        return payload if flight != 1 else payload[:-1] + bytes([payload[-1] | 0x80])

    with pytest.raises(ProtocolError, match="pad bit"):
        run_extended(random_rows(1, 13, random.Random(7))[0], 13, [0] * 4, set_pad)


def test_nonchosen_message_guess_rate():
    """With c = 0 the receiver holds L and sees the masked L ^ offset; their
    XOR is the offset only when the unchosen seed's pad is zero, about 2^-16."""
    n, trials = 16, 1 << 16
    offset = random_rows(1, n, random.Random(6))[0]
    _, got, _, sent = run_extended(offset, n, [0] * trials)
    frame = np.frombuffer(sent[-1][1], np.uint8).reshape(trials, 2)
    hits = np.all(got ^ frame == offset, axis=1).sum()
    assert hits / trials <= 10 * 2**-16


def test_both_directions_side_by_side():
    # both endpoints send seed OTs in the same flight: each direction has
    # its own backend, keyed by its sender's role, so a second batch stays
    # aligned too
    rng = random.Random(8)

    def batch(n):
        return message_pairs(n, 1, rng), [rng.getrandbits(1) for _ in range(n)]

    (pa, ca), (pb, cb), (pa2, ca2) = batch(6), batch(5), batch(3)
    def alice(a):
        tx, rx = DealerOt(SID, A), DealerOt(SID, B)
        _, got = run_sides(a, A, tx.send(pa), rx.receive(cb, 8))
        run_side(a, A, tx.send(pa2))
        return got

    def bob(b):
        tx, rx = DealerOt(SID, B), DealerOt(SID, A)
        got, _ = run_sides(b, B, rx.receive(ca, 8), tx.send(pb))
        return got, run_side(b, B, rx.receive(ca2, 8))

    got_a, (got_b, got_b2) = run_two(alice, bob, timeout=30)
    assert np.array_equal(got_a, chosen(pb, cb))
    assert np.array_equal(got_b, chosen(pa, ca))
    assert np.array_equal(got_b2, chosen(pa2, ca2))


@pytest.mark.parametrize("sender", [A, B], ids=["alice", "bob"])
def test_batched_pads_follow_the_per_batch_stream(sender, monkeypatch):
    # Two batches of one direction, sent by one backend and received by
    # another built alike. Zero pairs go out as the send pads themselves,
    # and all-zero frames come back as the chosen branch's receive pads;
    # both are the reference stream of the session id, the sender's role
    # byte, the batch's first index and nb. Each batch derives both
    # branches' pads of all its instances with one expand call.
    calls = []

    def counted_expand(seed, out_bits):
        calls.append(out_bits)
        return expand(seed, out_bits)

    monkeypatch.setattr(base_ot, "expand", counted_expand)
    tx, rx = DealerOt(SID, sender), DealerOt(SID, sender)
    nb = 40
    rng = random.Random(1)
    with closing_pair(memory_pair(timeout=5.0)) as (a, b):

        def counted(side):
            calls.clear()
            before = hash_calls("prg")
            out = run_side(a, A, side)
            return out, calls[:], hash_calls("prg") - before

        for first, n in ((0, 3), (3, 5)):
            # one call of 16*n*nb bits: 1,920 and 3,200, neither a whole
            # number of 256-bit blocks
            one_stream = ([16 * n * nb], -(-16 * n * nb // 256))
            pads = dealer_pads(SID, sender, first, n, nb)
            _, *cost = counted(tx.send(np.zeros((n, 2, nb), np.uint8)))
            assert tuple(cost) == one_stream
            for branch, t in enumerate((MsgType.OT_MASKED0, MsgType.OT_MASKED1)):
                assert bytes(b.recv(t, n * nb)) == b"".join(p[branch] for p in pads)

            choices = [rng.getrandbits(1) for _ in range(n)]
            b.send(MsgType.OT_MASKED0, bytes(n * nb))
            b.send(MsgType.OT_MASKED1, bytes(n * nb))
            got, *cost = counted(rx.receive(choices, 8 * nb - 3))
            assert tuple(cost) == one_stream
            assert [row.tobytes() for row in got] == [p[c] for p, c in zip(pads, choices)]
    assert tx.instances == rx.instances == 8


def test_zero_instances_send_no_frame():
    ot_a, ot_b = DealerOt(SID, A), DealerOt(SID, A)
    with closing_pair(counting_pair(timeout=5.0)) as (a, b):
        _, got = run_pair(
            lambda: run_side(a, A, ot_a.send(np.zeros((0, 2, 4), np.uint8))),
            lambda: run_side(b, B, ot_b.receive([], 32)),
            timeout=5, channels=(a, b))
    assert got.shape == (0, 4)
    assert a.sent == b.sent == []
    assert ot_a.instances == ot_b.instances == 0
