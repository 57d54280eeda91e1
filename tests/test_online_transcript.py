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

from helpers import counting_pair, random_circuit, random_inputs
from macbits.circuit import plain_eval
from macbits.dealer import DealerConfig, deal
from macbits.runtime_2pc import Runtime
from macbits.transport import FRAME_HEADER_BYTES, Role, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', '6dad1bf3b09c6ca9cff5000dffd1d68440e670d8a02b7aaedbada33fa039260a'),
        ('RT_ANNOUNCE_BATCH', 'dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8'),
        ('RT_REVEAL_BATCH', '985e2e372c0b4c2d6066bb44c0c000abc563ec14cc20f2521d64e0a65e8998f7'),
        ('RT_REVEAL_BATCH', '955d6046620b1ee63a6b1325d24d6726235bd7d5786d27259d70f9c9647e7f27'),
        ('RT_REVEAL_BATCH', '639e480fa297e2383fbb854271f191c0db798106200e67149b1cf1ef92755037'),
        ('RT_REVEAL_BATCH', 'ddf11c2815c637c0fa5290b8670762c6e955559782ccdf98299a6163bb0fe84d'),
        ('RT_REVEAL_BATCH', '7e24f2afaf6d1927bed6eea7bf5bd03d7e364a16c1285c25df1485a14f774790'),
        ('RT_REVEAL_BATCH', 'e5ed0d1a0a3ead13dc848a4f16518252a4d9a15a182c64a272e56489cb7e58bb'),
        ('RT_ACC_FLUSH', '523f0d98bbdbd068acb2f604f1565d50506efc1669cbeb7291cd4a19535a259d'),
        ('RT_OUTPUT', '33f5966652eab165617f6453df21e3996d3600f88747643779b003585eab2d66'),
    ],
    B: [
        ('HELLO', 'ce60c95ff16eb7d21c4e9cc0a9e5acca19f5be8e60538d8661e818f117ce1e14'),
        ('RT_ANNOUNCE_BATCH', 'e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71'),
        ('RT_REVEAL_BATCH', 'f3327adba65f9b115dd21fa92dace37795de3492089c5d10f95bc0d6eefb97bb'),
        ('RT_REVEAL_BATCH', '37e730786decb159555c425fe60bd907affd35e2153fb1bf77341dbc1c5f05d9'),
        ('RT_REVEAL_BATCH', '8e813ec1fed324bf9e84710e003d0e14eefdb8ecf961c7f73daedbd6b745591e'),
        ('RT_REVEAL_BATCH', 'dfab84e13a3b00c17a55b0970d40bb2d738cb4e01889e739349a8dadd91644a8'),
        ('RT_REVEAL_BATCH', 'dd4cd38d97de1e3c95c97cc8d9ced5ea89f12c8f3eb5d6af4476a1fb1e63aace'),
        ('RT_REVEAL_BATCH', '2cf89d5fbd29ed850ae15e1e245d8ffce93da6a35f2cb4576b9099903f01e750'),
        ('RT_REVEAL_BATCH', 'c9165adce11b3199657396730b610be494d02a8cb3bb00b8b14c037242c12f74'),
        ('RT_REVEAL_BATCH', 'd2ab528393114dfffa2fc21fbee4d16fc2b483104a17533e0c0861091baf2d49'),
        ('RT_REVEAL_BATCH', '436cdc71af4caa25d5b96bdf0114bbd01dc14cf7c5a7aedd8a23b461c0017974'),
        ('RT_REVEAL_BATCH', '3e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d'),
        ('RT_REVEAL_BATCH', '77adfc95029e73b173f60e556f915b0cd8850848111358b1c370fb7c154e61fd'),
        ('RT_REVEAL_BATCH', '084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5'),
        ('RT_ACC_FLUSH', '9f05f723c0c0028f86b559ccd637541a6ca64f2d99f85ee973be952ed2796163'),
        ('RT_OUTPUT', '380e17b150998f696bd3e0e62e30fbdd385ea385c0aa77a12f73870e8b626867'),
    ],
}
# MsgType -> (frames, bytes with headers) per party; they do not depend on
# the dealt material.
TOTALS = {
    A: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 70), 'RT_REVEAL_BATCH': (6, 70)},
    B: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 70), 'RT_REVEAL_BATCH': (12, 101)},
}


def online_frames():
    rng = random.Random(2024)
    c = random_circuit(rng, 200, inputs_a=5, inputs_b=3, n_outputs=6)
    c = c.with_output_dest(("A", "B", "both", "both", "B", "A"))
    xa, xb = random_inputs(c, rng)
    h = c.header
    cfg = DealerConfig.for_gates(c.n_and, h.inputs_a, h.inputs_b,
                                 kappa=128, psi=40)
    ca, cb = memory_pair(timeout=120.0)
    sa, sb = run_pair(lambda: deal(ca, A, cfg, random.Random(31)),
                      lambda: deal(cb, B, cfg, random.Random(32)),
                      timeout=120.0, channels=(ca, cb))
    ea, eb = counting_pair(timeout=60.0)
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
