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
        ('HELLO', '6dad1bf3b09c6ca9cff5000dffd1d68440e670d8a02b7aaedbada33fa039260a'),
        ('RT_ANNOUNCE_BATCH', 'dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8'),
        ('RT_REVEAL_BATCH', '649ce13d188bd8f33533be5614328ae8108749a8b24edf8729b6684e0e217ef8'),
        ('RT_REVEAL_BATCH', '3d2a71c6e5432b0897ddf91da42518591b8e466528cd4ec6b3ea85caf5066f5e'),
        ('RT_REVEAL_BATCH', 'd023c3e72a85004dad154b8c94e7aad2d8f2adb16ef194c7f71084cd81945711'),
        ('RT_REVEAL_BATCH', 'ab32284785e2bd3791f63b483717d7ae523e5f5b28e6137ec6558f6bbfacc7b4'),
        ('RT_REVEAL_BATCH', '0f4570b7744dea14cb2d967871fe1129414db89e15ad26255fef24f2699a00f5'),
        ('RT_REVEAL_BATCH', '09aa597060b08e1c037a51e32cfb47f4f314ee4b8031ce8d3b3f56f43ea95929'),
        ('RT_ACC_FLUSH', 'c08525165a41ff308ea146c1fc1e53113d0eed72beccc04bf353bd585ca2abcc'),
        ('RT_OUTPUT', '284d42c4cd1738c43cf5eaefa4a0addf3f95d195a8b556d099be8e91a7a0fb07'),
    ],
    B: [
        ('HELLO', 'ce60c95ff16eb7d21c4e9cc0a9e5acca19f5be8e60538d8661e818f117ce1e14'),
        ('RT_ANNOUNCE_BATCH', 'e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71'),
        ('RT_REVEAL_BATCH', '018fa95c8ba1a873cd6d5ae9d415c11b6cbce59e2b7f7df032324e603c37a391'),
        ('RT_REVEAL_BATCH', '3f32bfca554ace1b435777706967fc3cabbeab7d8d5872aae61461cb694d05ed'),
        ('RT_REVEAL_BATCH', '34d59172c3abb47ce24823977d47e30629850b52f464153f764b8a7fea58ff28'),
        ('RT_REVEAL_BATCH', 'dc087fb08c039e877e74dde255a8490b591200dc9ef4acf0797a4df243e20e26'),
        ('RT_REVEAL_BATCH', '4915046ce77a7894b052ac8f6abe8bb160d8b86726d5f5e5e44a240def08b694'),
        ('RT_REVEAL_BATCH', '08dc6a1a955ff0fca0a047e27264c5c090bd2f3b98d64dcc4deb43cb770b4c0d'),
        ('RT_ACC_FLUSH', '5c94300f7fab6ea87cb2753dd736214628ec0c3fa819d58b751a67df8e91d6a7'),
        ('RT_OUTPUT', '4a1032ddd022172d7ec95bbec932d91399fdb169e929da08a08ed4bf4066b405'),
    ],
}
# MsgType -> (frames, bytes with headers) per party; they do not depend on
# the dealt material.
TOTALS = {
    A: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 70), 'RT_REVEAL_BATCH': (6, 70)},
    B: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 70), 'RT_REVEAL_BATCH': (6, 70)},
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
