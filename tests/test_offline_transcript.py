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
        ('OT_SETUP', 'b0c21cd49a13ed28b5d577c787acae4ae1d398220b5337d428b897fab892ee24'),
        ('OT_MASKED0', '1c512f2c0de7b5521a75b590eeaa2464bd8c62889ddcde0880e99a7e73bd5c1b'),
        ('OT_MASKED1', '2b146b4fed8a1d077d0849b64ddfde81815b0c38be0248962dbc81e1be87ca6b'),
        ('OT_MASKED1', 'fa77a5bc747982dbdbb916a38567712cedab4c43363081263ab2b8b53509f506'),
        ('LABIT_PAIRING', '966934dd05beb683b17758923d7b6754f32f715a7b87dd891741e6040c06b60b'),
        ('LABIT_D', '68ad859512b68f186b7de3b28329e62a383d0aea8375b368dcb3bda83a18a12f'),
        ('EQ_COMMIT', 'b3ab899cea6805a444746fb770bab3ab9fe1861d4c84dd6d3b47a8395eaafe7b'),
        ('EQ_VALUE', '04103512cea70e895a5fc8224711342addf75e6b384c036671064c2eaefc2949'),
        ('EQ_OPEN', '2394ac7ff467a6e72197a9500dc4b824b3815271dfa3f9d3642ace6ff2d3cea4'),
        ('AMPLIFY_MATRIX', '1c3107299effe321ad5fa5cb11c176d019d68dbdd03bda2df24b93dd7539ebd4'),
        ('LAAND_D', '6c13fbf4cbab1c051b575f8576cb416bf88b3aba61026d2fd9b9bd13d17490ca'),
        ('LAOT_X0', 'bde387b01c07b894781e1716118d406c56aa267c9fbd1994feed8beb0d526eda'),
        ('LAOT_X1', '0515e6fb99943aa416980c47ad3bfd07db10e3ec64d2dfe11c6bec3d50abc18d'),
        ('LAAND_U', 'ce70dc8fa1eb7b8b7ce4b78134bd5c43ad04b03fc0203b37453031098249004f'),
        ('LAOT_D', '4a7cb6ce112cab4092b737fa0a1e9e7fc80e5fb11873f47eb02e77a6ed4735ed'),
        ('EQ_COMMIT', '54a54322d38b6dc33f2529f031867f6270cd620a7eb1d4788825b4ed57229a3b'),
        ('LAOT_I0', '00aa5c90e885b3afd8aaac5b2bfe737267770a27e64c1141e4cc52d1af7dc65f'),
        ('LAOT_I1', '6ff0f350cd5b2ec8ec28b51ad235a95f0dbc872f28b4a820a73199f6ac4ba82c'),
        ('EQ_VALUE', '2ce5f78c6bbb28677a3bca99fd860cc2324d9e070d4dfd31202f71f9a69fc5ef'),
        ('EQ_COMMIT', 'd221376432ef59330101923a67d884b81c0c25afaf7492ebe392cc8e7f09b6f0'),
        ('EQ_OPEN', '1eb6e11c7e1806002f550e62129ab7d01cdd0fc651e724d1af05602e5c38d784'),
        ('EQ_VALUE', '844a8402f9c3075a90201e767627a1012346459f4aec85d0f27f755cb83b1efd'),
        ('EQ_OPEN', '360fae3cfb7c8ec967b41c00bf4c899cf3ac8eafd1343d8971dd85551e3cf3ee'),
        ('COMB_PERM', '957b4464fd2de3923b9cf1cf7703186c9897c40e23d6e775a735dd7071afb062'),
        ('COMB_D', 'cd4693b569b84e98d1378635ab620cffc96a8f935688c63184897f3e3b619dfb'),
        ('COMB_D', '16494bfcf7b2975c42dd37d7e4c5bf44fb06561e67678a0df7bffef814032667'),
        ('COMB_D', '9c26d6e6177fbcb8a2a80e9966d54d541759b0cb2a6381d89ebcb6a7b78a65cd'),
        ('COMB_D', 'd272525bb99f3cd653f0378eb7cae9f1cc5c3a4519521bb9ce4394faa15c8516'),
        ('COMB_D', '1fcf872b657a0cf5afd0d7abd93a19a779add1efe6aab228b7b189583f89c601'),
        ('COMB_D', '80db842b442df97a5bb909bc93954afd743473b44f1f614e6fdbbcf431ef61e6'),
        ('COMB_D', 'c8a9521190b3f5035893fc878639e02a60bf17beb6533d65de0f31eae20955c2'),
        ('COMB_D', 'a3ac475d3a41a8b45312afd8356a93e9dd240c1257be887bf4ab88dc35d41ab3'),
        ('COMB_D', 'fd55744b2763bbbfa827ae2ed37a4c1fd52fe01615ce1d6392d6fb74e911743a'),
        ('COMB_D', 'dd351cfa5ae52796dba27b7938e2d7aa3c1c1f5027b85ec4763740f0b07c21ff'),
        ('COMB_PERM', '20c7207e9dc6404b2f2a32d35a00bcad76b3324f34875db6455b15efe756f3fd'),
        ('RT_ACC_FLUSH', 'aaf177a6d22d5b2cb8e1110a74fd9721896533e3155f6d29ce6bbbdba932c05a'),
        ('GK_COMMIT', 'b531cf6bf1c7fb95f534f62d55ca3535804120fe9d592036dfc5d816e5522f17'),
    ],
    B: [
        ('HELLO', 'c6cd0662c55273033e22eb4ee27b31a0446612ec6e3bcf35971654bd23a88360'),
        ('OT_MASKED0', '03384143ebc11745161230ac186bf599a777f3f316e5a38e05db1151b6c9a497'),
        ('OT_MASKED1', 'c6d44a3e5f31c0a1706f034e4d82fd59f30a42d7635e0e36a2f150457fbaf6aa'),
        ('OT_MASKED1', '47d3044aa8ea725c98464c23377c37f0c0d929248cce3f665e0b58f35faab0f3'),
        ('LABIT_PAIRING', '420a59700cea3c1e689adba5e4c048cde437bb63aa0e1c341f24022ed0298dfd'),
        ('LABIT_D', 'fa9c94cd1ab164686ea34b7693aa620f2944cc798560dc1cf90e9accc24cf70a'),
        ('EQ_COMMIT', 'bc567b23a2b8d27b5266543024da66ac8d574cda8e2495f53e0c38705747ac45'),
        ('EQ_VALUE', '4e3b45c07d5bb0893b9e6f48777862d4b683c683bfd6b5c43f6801193c1b05d8'),
        ('EQ_OPEN', 'a1a1e6530276feb0230807f6c8c92ec67eeb6810cc0a7b94657d343792774b94'),
        ('AMPLIFY_MATRIX', '02a15d6e6699ab8fe0b2b37c30d7ad1261ab234ac13d0fa7f012dacec17aa367'),
        ('LAAND_D', '36c6f6b5b48a6cbff1d242ff16f773b01c81ed88743de9fa503566d436487863'),
        ('LAOT_X0', 'b79637a6ca6e68619ae720eec385e80ab6c2d61e45d3ba0002c4428b84b66002'),
        ('LAOT_X1', '898151cd2e72b014b2e5e7993bad343500c0d781741a8bb4898dc3ca3d5008a0'),
        ('LAAND_U', '5c6b08701ace5ba4d8389fa9489d5b1d94f22bbb57f448a2cea763e62b251e27'),
        ('LAOT_D', 'ed542e57ba748329768de8c4a3b389ab3304ed249e756820d1ca8a855d7a3416'),
        ('EQ_COMMIT', 'fbcc064fa381c1655c83f6d2c95bccf4a97ac8aff3784f821e133f48bb8ff242'),
        ('LAOT_I0', '866f95bd95abc8115555b8a4cf01c2b90550c361596cc036ef61623634f80a2f'),
        ('LAOT_I1', '6df89bf2a8782930150be4a9a05aa1d0ae7ffa19bf929f758512f96cab8cb14d'),
        ('EQ_VALUE', '8d3c9c1f1c2dcb926ca5aee7f31b403432fe86743fa6710f8e180a321623ca65'),
        ('EQ_COMMIT', 'db8c62a63269a7e5e8c384f1aa930ce6efa46898238adecaeb43656d739e0459'),
        ('EQ_OPEN', 'b9fa2040d5902f543685fb9a645388afe918ed878e339ae4062690488fedcde2'),
        ('EQ_VALUE', 'f5bb643de28c85cdadd522b81e4c1b58dfee562d165330cda800e470d5c19b4e'),
        ('EQ_OPEN', 'cd32a1093540dc2c204352da05ea6534df59e3584e476a74b6ec5c072f41eb40'),
        ('COMB_PERM', '7ee794975488069e02927dc00f143c755e0da9aa61ff275ec455d7022a1865e5'),
        ('COMB_D', 'e7f3c559aca6edf477dfa6da685bb4aaecd15613f95585b4f143578f60234cbb'),
        ('COMB_D', 'f9de8a4875c3a9a5853d484658ee1b6dc30159bbe13fc858384a730e38d5706d'),
        ('COMB_D', 'c605e6906b46c1a1e1fbbcff18a0bcc74cf73054d6e0d6eb414e47132e695181'),
        ('COMB_D', 'bbe44cbcaa489cf7dfd0604dfa73d50edb106fe587d22cf0958a3fa183aa2674'),
        ('COMB_D', 'c0ba3e84a45c143967acf4005f480298d9aad1f8c456001859da7cbd7bf2e1f8'),
        ('COMB_PERM', '8058b1ca626694fb32098f9f8d9bc8937a14a2f39b6770163f70933e4b26dad5'),
        ('COMB_D', '4e645006915c803eaa16648fde68e015c0124afdcea58c2a06db5d1a5d00d49c'),
        ('COMB_D', '0088c28198128fc34273119058b2741c897c5cc118fece97763e276a50f04420'),
        ('COMB_D', '19f0c69e1601b724dd0e1864c1a3d385ce66ff855696b96d4165e86594d2a91b'),
        ('COMB_D', 'e62ae1effb68e37415d9e5c01aab910e5c580746a80bb1e34c33b20a96554830'),
        ('COMB_D', '38304330bfe172c8c3d2849ebefae7f7f6a42df7a51ecef00f022b269f6a92ca'),
        ('RT_ACC_FLUSH', 'dc1430fb6bb9da7444288735f91723505967c44952ef2e73ac7e05d7e4052a0e'),
        ('GK_COMMIT', '4d36d99b7426aa45dc7c349d58778a5aa5195799d13b52a0897765957474caf0'),
    ],
}
EXPECTED_STORES = {
    A: "8deec70aaa1810b1d5ea6afbe382cb417bb20ebfe41d8fecc0f9139e33902f83",
    B: "96ea7622d29f99555057508568d9ffdf47b4734b7b5456f58d055c2772cd8b10",
}
# MsgType -> (frames, bytes with headers) per party. They are the totals of
# the one-owner-at-a-time schedule: running the sides side by side moves
# frames, it adds none.
TOTALS = {
    A: {'AMPLIFY_MATRIX': (1, 15109), 'COMB_D': (10, 430), 'COMB_PERM': (2, 14410),
        'EQ_COMMIT': (3, 63), 'EQ_OPEN': (3, 159), 'EQ_VALUE': (3, 111), 'GK_COMMIT': (1, 37),
        'HELLO': (1, 30), 'LAAND_D': (1, 230), 'LAAND_U': (1, 57605), 'LABIT_D': (1, 123),
        'LABIT_PAIRING': (1, 7517), 'LAOT_D': (1, 230), 'LAOT_I0': (1, 28805),
        'LAOT_I1': (1, 28805), 'LAOT_X0': (1, 59405), 'LAOT_X1': (1, 59405),
        'OT_MASKED0': (1, 30053), 'OT_MASKED1': (2, 3061150), 'OT_SETUP': (1, 21),
        'RT_ACC_FLUSH': (1, 45)},
    B: {'AMPLIFY_MATRIX': (1, 15109), 'COMB_D': (10, 430), 'COMB_PERM': (2, 14410),
        'EQ_COMMIT': (3, 63), 'EQ_OPEN': (3, 159), 'EQ_VALUE': (3, 111), 'GK_COMMIT': (1, 37),
        'HELLO': (1, 30), 'LAAND_D': (1, 230), 'LAAND_U': (1, 57605), 'LABIT_D': (1, 123),
        'LABIT_PAIRING': (1, 7517), 'LAOT_D': (1, 230), 'LAOT_I0': (1, 28805),
        'LAOT_I1': (1, 28805), 'LAOT_X0': (1, 59405), 'LAOT_X1': (1, 59405),
        'OT_MASKED0': (1, 30053), 'OT_MASKED1': (2, 3061150), 'RT_ACC_FLUSH': (1, 45)},
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
