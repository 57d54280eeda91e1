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
        ('HELLO', '6fabaeb94d697a60d5d173cf0955413ba2fa37a64b13333c3e6a90d680d312ad'),
        ('RT_ANNOUNCE_BATCH', '1f18d650d205d71d934c3646ff5fac1c096ba52eba4cf758b865364f4167d3cd'),
        ('RT_REVEAL_BATCH', 'cca0d64fea20310929df9b2acbef8d17801925b2ebd62acffc385d29e5394cf8'),
        ('RT_REVEAL_BATCH', 'df7adf2554018eb08c52743019b6b6697bb35d52fc878a0425e7d03ce48896f2'),
        ('RT_REVEAL_BATCH', 'a66b40dcba29683e4d7c3d7aa4ef2e64cd96e5c9591beee934dfc01536d21f90'),
        ('RT_REVEAL_BATCH', '30e38ef19c682f77f995a3bb5fcead713b596ca35d2130abf05696b4998e431d'),
        ('RT_REVEAL_BATCH', '3cf6a9203e384bf9656e01569ee1a22dad9b03e563ae3b5fcaff20e8e4086651'),
        ('RT_REVEAL_BATCH', '0fb03959f2e2abba6a4d42f2e1ab6ce4578e1f7a419ea0731b61705f4adb05f4'),
        ('RT_ACC_FLUSH', '479410984f6fb158ba2a6a1037dc9a34ff90a80cc24e1a8374e2fd5dd2ab798c'),
        ('RT_OUTPUT', 'ea466e26a5ede4b40718f6615bb2a315a44aecc418104c1909ecd78c6d69b0aa'),
    ],
    B: [
        ('HELLO', 'ea579a989137e8e82ccbbac5ddddeebad3ee09ca309e2fd3b05f9c95fdc874dd'),
        ('RT_ANNOUNCE_BATCH', 'e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db'),
        ('RT_REVEAL_BATCH', 'd86116a0b0c3889ce55a2a4f32ef6b694aec9dac7a37f9106cdbbc4db8e2db9a'),
        ('RT_REVEAL_BATCH', 'afc3bf6ee4e34254c3503cb1524017f21fc1ec9a534e6ab5aef4f051b3b7a3a0'),
        ('RT_REVEAL_BATCH', '500bc273019ff37bea91fe5a9a8f62c7cd251a4653ac9587b395350a82542271'),
        ('RT_REVEAL_BATCH', '2a5274001805b41bb5a1d05627d6691eddd0b250ea19b8628effaa5e0b77cb8e'),
        ('RT_REVEAL_BATCH', '26e79681db0af86bffad013ad484b43aefeffcc31978c668b1031bc2a52a2f1e'),
        ('RT_REVEAL_BATCH', '33b67cb5385ceddad93d0ee960679041613bed34b8b4a5e6362fe7539ba2d3ce'),
        ('RT_ACC_FLUSH', '7cfc97e1430355cfe7d570008d96b94e72ab9b7b3d4e668e28cdfc61f5e8689e'),
        ('RT_OUTPUT', '92f57faadc77add880e8acbc2b378ea6a49e2002f64bee7fdd8a415a64e1ca35'),
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
