"""The offline phase's bytes on the wire and on disk, pinned.

A seeded kappa=128 deal must send exactly these frames, party by party: the
type and the SHA-256 of each payload, followed by the SHA-256 of each saved
store. The demand ell = 12,908 bits per owner is not a multiple of 8, so the
packed pad bits of every frame are covered too. A change to how laOT, laAND,
the combiners or the aBit pipeline lay out, order or hash their frames shows
up here as a first differing frame. Per party, the frame count and bytes of
each message type are pinned as well; they do not depend on the order in
which the side-by-side schedule sends the frames.
"""

import hashlib
import random

from helpers import closing_pair, counting_pair
from macbits.dealer import DealerConfig, deal
from macbits.transport import FRAME_HEADER_BYTES, Role, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', 'abd32c5befcc0cc03b94fe87e748a2c00ea33e6c9e1e25e5d7872ca5aad43bc3'),
        ('OT_MASKED0', '17010ad038e237aecc030a54b03d5c25e4f79d7b7a1a0bf7bd96b8c938dc2c2a'),
        ('OT_MASKED1', 'cd69dde73d32840dbbdcd02b4bdbe8a1d023e6bbc9bcecfd2610a5f902041b52'),
        ('OT_MASKED1', '6f56e266f2b18d440ae9724da74a990cef375773a874f1f685f384cc38820fea'),
        ('LABIT_PAIRING', '52e490afec25405de332e4b9514ea1d9469baa90ea6f4f3036bf525742e4e96c'),
        ('LABIT_D', '41d4db38d676918fda5d06cec601d6896600d24e4771eb54144c68e76b98d256'),
        ('EQ_COMMIT', 'cf8a2068ca507e0e409a68e3c2f9142558b521b8b32ccdc45015b8065a0e9a68'),
        ('EQ_VALUE', '309754f2dc17d852714a4b817c518dece3af39060ca9106d4d591bd4fb751f07'),
        ('EQ_OPEN', '1b498286835efbf52360451b6167565ff81d6ab45b89e5463d5fab228fcda0d3'),
        ('AMPLIFY_MATRIX', '67182bde9dfc66522b6712bbb7fdc3fb0f9182688246c10ba420253589c9ae98'),
        ('LAAND_D', '3081a520071545b13479babbb81fb430d09d741b7e5bc4e8540681f9f3cb6069'),
        ('LAOT_X0', '883bceda4207a216f8850641a89bbef4a53edcbf301756424c72491bc4f31805'),
        ('LAOT_X1', '78edcb6a02d3702f3c5684d361ebdf9ccdf5f3c91f1ef8e91c00c21c6812c8df'),
        ('LAAND_U', '2bba47611d137b3341af4ee90cfff4bc50a97f9bd05b0756cb3533b16f1ed471'),
        ('LAOT_D', '791c560ae8b676d1cec363901c2771b1a2f1e49e8585fff91ac28e1e0462a8c2'),
        ('EQ_COMMIT', '2bfdb432b423530506a962e707c95389e3ca0143ec70e3fafb67047d284fbf4b'),
        ('LAOT_I0', '32498988a7bc957994e863bdbaeef1a495b73872ad1d138feaf069c8b3475634'),
        ('LAOT_I1', 'd1db5b0a250edeaf4c01f4c3b3b593993bba620c8d4c278b02b91240b5634403'),
        ('EQ_VALUE', '377a69aa9134c3c6cabf6fd17ab3c2b132d3378420d1abc7dd4267749890cbed'),
        ('EQ_COMMIT', 'a97652a7db44a76e24cd9e4c253134d8b1164378b7bdcad3780e2aa350878e6d'),
        ('EQ_OPEN', '69d140d9e36e10bdb962f8824b3b37f96cb72dcbeca1f2b94bf0501f62c1e750'),
        ('EQ_VALUE', '844a8402f9c3075a90201e767627a1012346459f4aec85d0f27f755cb83b1efd'),
        ('COMB_PERM', '9a4df2a2eceea90863d89bd2d78e7aaca3d45377935aff3bd8c32fee194074df'),
        ('EQ_OPEN', '109447e8fee256cd16ac8b646929e7684d50c3e67ab881600b2a2fceafa8e05c'),
        ('COMB_D', 'cf1d4f851cc37a0992d7b77909e9a0ef939fce3410586572ee2d8de479dc336e'),
        ('COMB_PERM', '957b4464fd2de3923b9cf1cf7703186c9897c40e23d6e775a735dd7071afb062'),
        ('COMB_D', '097adb747abeb488f69f95d0f114cceb80a163c35ce5470e378ac742109442d7'),
        ('BEAVER_OPEN', 'fa90fecb2c95c4400b7430e0733ac9fc7f9894a2a33c5b10547a8812a80acb5d'),
        ('RT_ACC_FLUSH', 'b7f92d5d42c2ff04d2994fc80d018f1e53625ce28bd98ab5080684f6c3b2deaf'),
    ],
    B: [
        ('HELLO', 'c6cd0662c55273033e22eb4ee27b31a0446612ec6e3bcf35971654bd23a88360'),
        ('OT_MASKED0', '99bed5917bd545a16c0c7d152bb6931662217d73f63d4c2cc72349d44201fbc1'),
        ('OT_MASKED1', '2c52a53c055e5053fe3ef86d98a0f87e0b8c7d08de8780fa11d2bd31990872fc'),
        ('OT_MASKED1', '47d3044aa8ea725c98464c23377c37f0c0d929248cce3f665e0b58f35faab0f3'),
        ('LABIT_PAIRING', '420a59700cea3c1e689adba5e4c048cde437bb63aa0e1c341f24022ed0298dfd'),
        ('LABIT_D', 'fa9c94cd1ab164686ea34b7693aa620f2944cc798560dc1cf90e9accc24cf70a'),
        ('EQ_COMMIT', '85822fcc7bcc898502c9874e77ba46d2179902fe9d10b570d71a06f0282a9432'),
        ('EQ_VALUE', 'f7242dfab7bdf9e2da874bd091ea826201299ac49c3ea3b60563cc67a9fab1fc'),
        ('EQ_OPEN', '46e9c83480be27744aa263fc8dd7d9025391d6c0947ca2c5bae48bf18a00f0ae'),
        ('AMPLIFY_MATRIX', '02a15d6e6699ab8fe0b2b37c30d7ad1261ab234ac13d0fa7f012dacec17aa367'),
        ('LAAND_D', '36c6f6b5b48a6cbff1d242ff16f773b01c81ed88743de9fa503566d436487863'),
        ('LAOT_X0', '819e32e54f43e80b203d8c3bd661f7ed26809326f64dba0d87530e2b5d136296'),
        ('LAOT_X1', '88817191300e87633ff343fb99d0f47e442543d03c7d51866b10ac0fda200e57'),
        ('LAAND_U', '64c006242bf4e2d1c93a40cc5f6d4b38eac85b1f910e19cb7300f7731334518b'),
        ('LAOT_D', '5666539aa91139de84495c73eca423bbab1dc1df7da079763687ded7b296bf63'),
        ('EQ_COMMIT', '09a9047989b251e0047f681f1a948db80f8de2249bdb97fa0ac0030ad6b6ba65'),
        ('LAOT_I0', '8b4450cf2e038c9e0c12058ce451edaae7aee6e9de2e40210f73da77f4cac57d'),
        ('LAOT_I1', '60ee5056952d3db7b66699e258ca6cef9890bed2e633a323987d39407e5d96d6'),
        ('EQ_VALUE', 'f808fca5ac810f49d6db89a12f3bd50a277e463a5a76a2380bafdffb173d3e8b'),
        ('EQ_COMMIT', 'db8c62a63269a7e5e8c384f1aa930ce6efa46898238adecaeb43656d739e0459'),
        ('EQ_OPEN', '8cd94914458ce5b079d0d4a3282bc7f444fb943f2f5ff5fb2cc32c3fca90e515'),
        ('EQ_VALUE', '00be90b22b42146ec5c08092601ca6428dde7273580ddbc27591e408148b3bf9'),
        ('COMB_PERM', '7ee794975488069e02927dc00f143c755e0da9aa61ff275ec455d7022a1865e5'),
        ('EQ_OPEN', 'cd32a1093540dc2c204352da05ea6534df59e3584e476a74b6ec5c072f41eb40'),
        ('COMB_D', '7f1c6f7b8e3e7244a663462bba19e937808a50d8f72e5f971e696308003322b3'),
        ('COMB_PERM', '8058b1ca626694fb32098f9f8d9bc8937a14a2f39b6770163f70933e4b26dad5'),
        ('COMB_D', 'c35727f85fff233ade9c668f8cd95221fea84eac7206b05b91e0db8a6d41364e'),
        ('BEAVER_OPEN', '034a6bcb49037acca93eab77892fa7862d0ccd69b2a9a6ba2a399f0f88f58edb'),
        ('RT_ACC_FLUSH', '1bdde62e5842b1d00c30452e433c48bcb9c523bfe60d4d8c20a9979d790f0ab5'),
    ],
}
EXPECTED_STORES = {
    A: "cfa4a70a5b196431fda3ced1da1162ff663ce6f8b48b6fe90f07332028548bba",
    B: "f30ffb6ed7051ede0a737c9b0129ea17aec8836d46527f75ef4a07db4fb70f44",
}
# MsgType -> (frames, bytes with headers) per party. Each combiner sends its
# bucketing in one COMB_PERM and all its (B - 1) * n_and reveal bits in one
# COMB_D, so a party sends two of each; running the sides side by side moves
# frames, it adds none.
TOTALS = {
    A: {'AMPLIFY_MATRIX': (1, 15109), 'BEAVER_OPEN': (1, 118), 'COMB_D': (2, 386),
        'COMB_PERM': (2, 14410),
        'EQ_COMMIT': (3, 63), 'EQ_OPEN': (3, 159), 'EQ_VALUE': (3, 111),
        'HELLO': (1, 30), 'LAAND_D': (1, 230), 'LAAND_U': (1, 57605), 'LABIT_D': (1, 123),
        'LABIT_PAIRING': (1, 7517), 'LAOT_D': (1, 230), 'LAOT_I0': (1, 28805),
        'LAOT_I1': (1, 28805), 'LAOT_X0': (1, 59405), 'LAOT_X1': (1, 59405),
        'OT_MASKED0': (1, 30053), 'OT_MASKED1': (2, 3061150), 'RT_ACC_FLUSH': (1, 37)},
    B: {'AMPLIFY_MATRIX': (1, 15109), 'BEAVER_OPEN': (1, 118), 'COMB_D': (2, 386),
        'COMB_PERM': (2, 14410),
        'EQ_COMMIT': (3, 63), 'EQ_OPEN': (3, 159), 'EQ_VALUE': (3, 111),
        'HELLO': (1, 30), 'LAAND_D': (1, 230), 'LAAND_U': (1, 57605), 'LABIT_D': (1, 123),
        'LABIT_PAIRING': (1, 7517), 'LAOT_D': (1, 230), 'LAOT_I0': (1, 28805),
        'LAOT_I1': (1, 28805), 'LAOT_X0': (1, 59405), 'LAOT_X1': (1, 59405),
        'OT_MASKED0': (1, 30053), 'OT_MASKED1': (2, 3061150), 'RT_ACC_FLUSH': (1, 37)},
}


def offline_transcript(tmp_path):
    cfg = DealerConfig.for_gates(300, 8, 8, kappa=128, psi=40)
    assert cfg.abit_demand(A) == cfg.abit_demand(B) == 12_908
    with closing_pair(counting_pair(timeout=120.0)) as (ca, cb):
        sa, sb = run_pair(lambda: deal(ca, A, cfg, random.Random(41)),
                          lambda: deal(cb, B, cfg, random.Random(42)),
                          timeout=120.0, channels=(ca, cb))
    frames, totals, stores = {}, {}, {}
    for role, ch, store in ((A, ca, sa), (B, cb, sb)):
        frames[role] = [(m.name, hashlib.sha256(p).hexdigest()) for m, p in ch.sent]
        totals[role] = {}
        for m, p in ch.sent:
            n, size = totals[role].get(m.name, (0, 0))
            totals[role][m.name] = (n + 1, size + FRAME_HEADER_BYTES + len(p))
        path = tmp_path / f"{role}.mat"
        store.save(path)
        stores[role] = hashlib.sha256(path.read_bytes()).hexdigest()
    return frames, totals, stores


def test_offline_frames_and_stores_are_pinned(tmp_path):
    frames, totals, stores = offline_transcript(tmp_path)
    for role in (A, B):
        assert totals[role] == TOTALS[role], role
        assert frames[role] == EXPECTED[role], role
        assert stores[role] == EXPECTED_STORES[role], role
