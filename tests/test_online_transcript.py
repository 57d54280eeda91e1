"""The online phase's bytes on the wire, pinned.

A seeded kappa=128 deal followed by one evaluation of a fixed random circuit
must send exactly these frames, party by party: the type and the SHA-256 of
each payload. A change to how the evaluator lays out, batches or hashes its
reveals shows up here as a first differing frame.
"""

import hashlib
import random

from helpers import counting_pair, random_circuit, random_inputs
from macbits.circuit import plain_eval
from macbits.dealer import DealerConfig, deal
from macbits.runtime_2pc import Runtime
from macbits.transport import Role, memory_pair, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', '49eadeb13d9effe4fc2de5ace352a46745a8955d54a480b302881440c3f03d2e'),
        ('RT_ANNOUNCE_BATCH', '1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd'),
        ('RT_REVEAL_BATCH', 'dfd9da74cde7b3fbc818352219b2ff8af785485d9a70769f792efd27648f613d'),
        ('RT_REVEAL_BATCH', 'a18c6aa5e3136749a5ae84af878365691f76b632ec155104d7d90d635fb34ce5'),
        ('RT_REVEAL_BATCH', '05835811d726b70a4ec28c67badefd83566c6b30ab8ab8e6954e9c90c571ca69'),
        ('RT_REVEAL_BATCH', '85c502425666c24b3fbca9e0240e999a72d033f87251c1f3200cf8cf24e7cc54'),
        ('RT_REVEAL_BATCH', '775e1f9626c09c12ab25e32477342ba2ccd4f5a21ceac05f2e68625a02b26115'),
        ('RT_REVEAL_BATCH', 'a9baf9432b6b63595ff61fdd71ac2584f4d54adeabe199eb9d96fc39c18790fd'),
        ('RT_ACC_FLUSH', '03faac07ea1768eb5f6083ed09ea8123187c03b03127b47985935e546ee459f2'),
        ('RT_OUTPUT', '12a91bcddb8996d6f070ffb7ac11d464de799267aabb9f97be28a0b3220c603c'),
    ],
    B: [
        ('HELLO', '3bfc03e1c420fa94501452b1bc8c455e5d476f2419e9369f95b4ac6e9711d384'),
        ('RT_ANNOUNCE_BATCH', 'ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879'),
        ('RT_REVEAL_BATCH', 'f0d3cc4c76939b3d6415dac65d292159f9283a7dd03ef4756b84f1dd2e7df1c1'),
        ('RT_REVEAL_BATCH', '65d4f90b1d4c6da852667cbef41b26ba941e0b87aaf3901e7b15eb10bd482f2a'),
        ('RT_REVEAL_BATCH', '7e9c220708d4c4dae83ede9ce4c7c70caad5517e45ffa8ab76c637c374653e8b'),
        ('RT_REVEAL_BATCH', '60ee6ba0064248f5c540f3febbd6ce3c245cbb94cf5d8323a86065f0ee611465'),
        ('RT_REVEAL_BATCH', '2fd1c58bf24433d440376a2930803f07817873993f75f1d82932b2ef95300250'),
        ('RT_REVEAL_BATCH', '97f1d3fdf6efb141198fc1f5ed015ac5e9202efee7b5e992ee1034db4172a933'),
        ('RT_REVEAL_BATCH', '06b596636fde6d66e6be03e30cd08298e0a4802317a0203edd436a0ff28fb992'),
        ('RT_REVEAL_BATCH', '1b664ea7d5766e5cd184a0697244ef14b1ea182f146d6a139c08fb20c923ac4f'),
        ('RT_REVEAL_BATCH', 'be1329b7b8cdc1e775525ee1e331b481c59b70767aa9e59f93a0568f0f66da87'),
        ('RT_REVEAL_BATCH', '084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5'),
        ('RT_REVEAL_BATCH', '67586e98fad27da0b9968bc039a1ef34c939b9b8e523a8bef89d478608c5ecf6'),
        ('RT_REVEAL_BATCH', '084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5'),
        ('RT_ACC_FLUSH', 'f4617631f30849c69a98e9ce2fc7d4bd02b136f4029398c5cd36f696a8e11d29'),
        ('RT_OUTPUT', '318b8015c9990d1da934ee2b758d50e66463ec28c8910678505206e9bfceee92'),
    ],
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
    return {role: [(m.name, hashlib.sha256(p).hexdigest()) for m, p in ch.sent]
            for role, ch in ((A, ea), (B, eb))}


def test_online_frames_are_pinned():
    got = online_frames()
    for role in (A, B):
        assert got[role] == EXPECTED[role], role
