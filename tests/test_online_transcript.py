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
        ('HELLO', '21b614d202e5fe3c9ad7a098e16d9c52eddbcbd1474603a93fba73a750f0d6f9'),
        ('RT_ANNOUNCE_BATCH', 'dc0e9c3658a1a3ed1ec94274d8b19925c93e1abb7ddba294923ad9bde30f8cb8'),
        ('RT_REVEAL_BATCH', '21024b9399e221fa00bba69f53d8ee56d5a2d91c9734f55679973c72f4bf7fde'),
        ('RT_REVEAL_BATCH', 'a60461cc39479a30367492aa0d73e150d565867ddce634314d4b3ade0172a8a8'),
        ('RT_REVEAL_BATCH', '8beb839a5b451c3b3f479319ccf091af70ae8cbe2f3acdde0f7f5d1d2cdd4537'),
        ('RT_REVEAL_BATCH', '3c69b3d73e4f2488ff3de8b1bc7e6a9971b1ba45d39cf2a1502dc83ed37a4019'),
        ('RT_REVEAL_BATCH', '8b0ff73b76f5006b1390dc5aef450bce560607fbbcc498e24f82c3d5ce28bb14'),
        ('RT_REVEAL_BATCH', 'e9ef9cffb7adc5c2b9c93a5c2ec64ecfe2ab91680cd93a977f410c5febe8b770'),
        ('RT_ACC_FLUSH', '2bf2b58b1fe6753daeb7ee761074e08be8da7f470bbaf618fff016c2a23ef84d'),
        ('RT_OUTPUT', 'a9d94389309c83a446fb3869266429939d96f05c698282b5193d304014dac557'),
    ],
    B: [
        ('HELLO', 'e90a1e34c9cee7c1dc02407105865051afcc8d054afff3c94e952e820957a361'),
        ('RT_ANNOUNCE_BATCH', 'e52d9c508c502347344d8c07ad91cbd6068afc75ff6292f062a09ca381c89e71'),
        ('RT_REVEAL_BATCH', 'eb9c08c0c5bca897c4ef554e21a5125da8646496096eab2aafb0a5408f513544'),
        ('RT_REVEAL_BATCH', 'f1b22d723a52e9c594540d1e3fe35ee9aa840cee67087a7784848c57d21aa17b'),
        ('RT_REVEAL_BATCH', '1aa204ae63e47ba59392a5fd05292d7ab3124d17132b0ee69b0f20218d531fd6'),
        ('RT_REVEAL_BATCH', '77b1dcf1d146ea11353d1f84a5591102a919eaddd420b6efa38a1022e0f1d569'),
        ('RT_REVEAL_BATCH', '35758067193554d7b016d497c7c3e8580af69b3e3d004f57ffacc8073a9dd7b9'),
        ('RT_REVEAL_BATCH', '71da8eeef37375e151cabe4a5b61f15fc460b3257a592d1520d41dba84c7446c'),
        ('RT_REVEAL_BATCH', '153120e1fee1a26c64b636cb6b3534cd618daa78b0e7f9dca0ce6acbb28ccfd4'),
        ('RT_REVEAL_BATCH', 'b556211a90d0fab14dbcdfecea34ce84dc4010097918f5afcdbf3fd7816ce8d8'),
        ('RT_REVEAL_BATCH', 'a90648cc7894b37e690d6b58d5226d995aae8869a79d3edc2136e6dfdc108dda'),
        ('RT_REVEAL_BATCH', '68aa2e2ee5dff96e3355e6c7ee373e3d6a4e17f75f9518d843709c0c9bc3e3d4'),
        ('RT_REVEAL_BATCH', '6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b'),
        ('RT_REVEAL_BATCH', '9d1e0e2d9459d06523ad13e28a4093c2316baafe7aec5b25f30eba2e113599c4'),
        ('RT_ACC_FLUSH', '416bea381f147d8c1d7ac6a09967f1fa72823a51253e776b31b7c371a2772f1e'),
        ('RT_OUTPUT', 'c9a1998fbaafe6748d385efe8b485107693f45ba84cdfc5b73fb58b4c87a62ec'),
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
