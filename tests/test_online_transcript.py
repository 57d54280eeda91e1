"""The online phase's bytes on the wire, pinned.

A seeded kappa=128 deal followed by one evaluation of a fixed random circuit
must send exactly these frames, party by party: the type and the SHA-256 of
each payload. A change to how the evaluator lays out, batches or hashes its
reveals shows up here as a first differing frame. The payloads depend on
the dealt material; each party's frame count and bytes per message type do
not, and are pinned as well.
"""

import hashlib
import random

from helpers import closing_pair, counting_pair, random_circuit, random_inputs, run_two
from macbits.circuit import plain_eval
from macbits.dealer import DealerConfig, deal
from macbits.runtime_2pc import Runtime
from macbits.transport import FRAME_HEADER_BYTES, Role, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', '5e7b51337de8244e8efce939a5b1fb1c74c8d3ea78ebac19e3afab0e2136bc26'),
        ('RT_ANNOUNCE_BATCH', '1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd'),
        ('RT_REVEAL_BATCH', '516d272cb31ead733c4bac1c3ecdc346948258b4afae52d605d4f03fb7c09e3b'),
        ('RT_REVEAL_BATCH', '32674b6efc87a0c2f15e7b05f7fcefb1e725cd316d153e30cd0c62bfa17509b8'),
        ('RT_REVEAL_BATCH', 'c5e3e535a3440338558a9f070848ff1a4e5eb75d651d8b52755d98aa88894e44'),
        ('RT_REVEAL_BATCH', 'a6d4654fe12d36e633d1cb0516ebff8bccb1a8e4a74d6f96f20117dbeb4961fa'),
        ('RT_REVEAL_BATCH', '7c5bd2d144fdde498406edcb9fe60ce65b0dfa5f2dd7a7617f505e3d46d68bdb'),
        ('RT_REVEAL_BATCH', 'dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8'),
        ('RT_ACC_FLUSH', '3e80d4d512796dbba401157dc97d7d567ce9d01e6aeb525f33ceda62a4e9f5ec'),
        ('RT_OUTPUT', 'b1f764cfa2ec507c3db3b1a50a2dc2c44b70a5ff05c95ac9acf06f3d7133a1a2'),
    ],
    B: [
        ('HELLO', '8577f8360c89d207647a14c59a09c578dfa3b971b3e14bda2504355689355768'),
        ('RT_ANNOUNCE_BATCH', 'e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db'),
        ('RT_REVEAL_BATCH', '8bbbd92a94033296bdfce22840cee7f4fcbd7513f9266a0ab9faab3f4c8dacba'),
        ('RT_REVEAL_BATCH', 'e0cd8a88dcbc7ac6ac0e7d56bc71ee09851d959af6a18621c9c7c7f8099e5c27'),
        ('RT_REVEAL_BATCH', '54fdbd3560e04808c58974bd9fc790521906c55adc07ac47c2949a7c2badefca'),
        ('RT_REVEAL_BATCH', '70987475c71cd31ab828489be2599b5cf183c88df5b772019d2b04c9e83aba8b'),
        ('RT_REVEAL_BATCH', 'c19a797fa1fd590cd2e5b42d1cf5f246e29b91684e2f87404b81dc345c7a56a0'),
        ('RT_REVEAL_BATCH', 'dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986'),
        ('RT_ACC_FLUSH', 'c965f02444cb772c1564b4301d324ec22117fe3296538641500707171e260f73'),
        ('RT_OUTPUT', '33bf827f1207d07cd9c38108563911d71d6980d9b6934c7c153949e74178944a'),
    ],
}
# MsgType -> (frames, bytes with headers) per party; they do not depend on
# the dealt material.
TOTALS = {
    A: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 37), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 22), 'RT_REVEAL_BATCH': (6, 46)},
    B: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 37), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 22), 'RT_REVEAL_BATCH': (6, 46)},
}


def online_frames():
    rng = random.Random(2024)
    c = random_circuit(rng, 200, inputs_a=5, inputs_b=3, n_outputs=6)
    c = c.with_output_dest(("A", "B", "both", "both", "B", "A"))
    xa, xb = random_inputs(c, rng)
    h = c.header
    cfg = DealerConfig.for_gates(c.n_and, h.inputs_a, h.inputs_b,
                                 kappa=128, psi=40)
    sa, sb = run_two(lambda ca: deal(ca, A, cfg, random.Random(31)),
                     lambda cb: deal(cb, B, cfg, random.Random(32)), timeout=120.0)
    with closing_pair(counting_pair(timeout=60.0)) as (ea, eb):
        ra, rb = Runtime(ea, A, sa), Runtime(eb, B, sb)
        out_a, out_b = run_pair(lambda: ra.evaluate(c, xa),
                                lambda: rb.evaluate(c, xb),
                                timeout=60.0, channels=(ea, eb))
    want = plain_eval(c, xa, xb).bits()
    assert out_a.bits() == [want[i] for i in (0, 2, 3, 5)]
    assert out_b.bits() == [want[i] for i in (1, 2, 3, 4)]
    return {role: ch.sent for role, ch in ((A, ea), (B, eb))}


def test_online_frames_are_pinned():
    sent = online_frames()
    for role in (A, B):
        totals = {}
        for m, p in sent[role]:
            n, size = totals.get(m.name, (0, 0))
            totals[m.name] = (n + 1, size + FRAME_HEADER_BYTES + len(p))
        assert totals == TOTALS[role], role
        got = [(m.name, hashlib.sha256(p).hexdigest()) for m, p in sent[role]]
        assert got == EXPECTED[role], role
