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
        ('HELLO', 'dc2614c5603092c798bb84a63f4bc84d4cb80bd071762ac966d88c55bdb5214b'),
        ('RT_ANNOUNCE_BATCH', 'dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8'),
        ('RT_REVEAL_BATCH', '8d361e9de38103aad3a32c71fa47720bdc8b405daadfa8a65a15fe43cf12f911'),
        ('RT_REVEAL_BATCH', 'b936c58bc18f85838ac3707172897ae32b387f0d6b239973c7c3ad594592b3d9'),
        ('RT_REVEAL_BATCH', '7ea34e7a8cf060f85d1b5f0424dcf94b33a04ce6d630863a7a8403efba88091f'),
        ('RT_REVEAL_BATCH', '45808bec8c24fac8e4f48f0e99338ac02945670edb28f4ac44eee42f1c93655e'),
        ('RT_REVEAL_BATCH', 'ff82f05a384e1b5a3f068e8786fd6511549be20a5d2bf29538ba04502734b33b'),
        ('RT_REVEAL_BATCH', 'f3ddddf2d8832102525f7dff44ab8ba9eef925f5b83260c6886929c88effabb1'),
        ('RT_ACC_FLUSH', 'eb3dd3355137801d29de9b9d8a51ebf4fa3de2e608610047510797c7b2af853c'),
        ('RT_OUTPUT', 'd7658b6337246c68731f33ad487c7ccb24af00b3e325c008e1acd3228a83327e'),
    ],
    B: [
        ('HELLO', 'fec31f0b331f45a3139bfdf6bba155a1843202867d5b2edb362adc5ce36ac97f'),
        ('RT_ANNOUNCE_BATCH', 'e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db'),
        ('RT_REVEAL_BATCH', 'b1709ac5b3a1e14838eb12713b5d6228aeb02249aafbdc9a9e42f1132e98bf64'),
        ('RT_REVEAL_BATCH', '5133fb11bf817a31013281ec63bb8c5ce637ad3af916a1acd45f05d4b99f1b87'),
        ('RT_REVEAL_BATCH', '2ef91b2a98cc67294e8171f3cae68ad416ca5827e5c99307f307b3707c5b0675'),
        ('RT_REVEAL_BATCH', '5449942fb711b32b6c092dce3531a3c60435e56bf9d4a0047a4b414918b92dff'),
        ('RT_REVEAL_BATCH', 'e68f9fc5f6eba583210b29e59f8b222da00179ba7551ccd02139af8a64465884'),
        ('RT_REVEAL_BATCH', '67848a207e8e22e685bc2b4d62e9587487176d384bd2c819a01bb413e1c57213'),
        ('RT_ACC_FLUSH', 'e4633ea32c08d4e8a9df5d45387edacfb8d8fb0e9b4e6a978bc4ae6b9ed1bf01'),
        ('RT_OUTPUT', '24a6bc2ffdce04359d792df0c248efd57f9886ea0aca41d78fe2ced145f37b6e'),
    ],
}
# MsgType -> (frames, bytes with headers) per party; they do not depend on
# the dealt material.
TOTALS = {
    A: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 22), 'RT_REVEAL_BATCH': (6, 70)},
    B: {'HELLO': (1, 62), 'RT_ACC_FLUSH': (1, 45), 'RT_ANNOUNCE_BATCH': (1, 6),
        'RT_OUTPUT': (1, 22), 'RT_REVEAL_BATCH': (6, 70)},
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
