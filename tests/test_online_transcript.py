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
        ('RT_REVEAL_BATCH', 'bfc40c6f0e04d9d05b62557e4530076cf58ba710f9b04ed11eb1b57eba6cf360'),
        ('RT_REVEAL_BATCH', 'ff2003c6638f143d00db84664ceeb1a2b6b555cafee803f4bb893f472c6ef00a'),
        ('RT_REVEAL_BATCH', 'ee0f38439630851e8ee6b46e75a83e3644df6ac837385cf051e6c2433f519d29'),
        ('RT_REVEAL_BATCH', '56e12411e9a33cb869c88a92e98da1696c7ee1e6b8403d7516c4c79e5b14e5f2'),
        ('RT_REVEAL_BATCH', '60a76d1d5b05ec3c3fb3b079f44352f12111bee342e9c75423057b7d556045f5'),
        ('RT_REVEAL_BATCH', '5c6037e17112ad2502ced33a32a65e1df780e7996de2b65aff08f47c4c58a3d0'),
        ('RT_ACC_FLUSH', '5aae8d06082989133751cb012df035007353f6a44fd9097fed70f3a3b0461287'),
        ('RT_OUTPUT', '74aba2d5625dda63b064c56531743bd7ff161c2577b41efb75ecf0180b146b65'),
    ],
    B: [
        ('HELLO', 'fec31f0b331f45a3139bfdf6bba155a1843202867d5b2edb362adc5ce36ac97f'),
        ('RT_ANNOUNCE_BATCH', 'e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db'),
        ('RT_REVEAL_BATCH', 'c90f19c680323b4a8726c66ce72057058e215126f7ad7e515ca4b7c0a5d6b957'),
        ('RT_REVEAL_BATCH', '5f7e2eda2448602e8529d4a3efdc665082ffdc76282d847be10c71decce62192'),
        ('RT_REVEAL_BATCH', '9935e2155c36e85d17911b013b0cecd90b4acb7360f1039f3a562e34d1637d5b'),
        ('RT_REVEAL_BATCH', 'f37c861ff7174c6e8c3887a528aa3baf95f997398167bbcdf45841dc27d8252d'),
        ('RT_REVEAL_BATCH', 'e17b96f2baa3b0cb34a3578b7956b2e2a50373f0964679c20c2a02a952509c02'),
        ('RT_REVEAL_BATCH', '9037f92bc91fdcc764a89d9144c341d887ffc83351cc8cf0530555c89920a47d'),
        ('RT_ACC_FLUSH', 'c0e6aa0f01ef111ca626012fd29f7fcb429a3d7bbff8e6fc02b2f03d92a4e7ba'),
        ('RT_OUTPUT', 'a48d230d75ed4fecdf6669272861a4fa221f9871c5359bb57c307cd15930044e'),
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
