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
        ('OT_SETUP', 'e3286f0cc0a6204d7548bd96bba39e1d96924a218b48ca2664633d54cdb3037e'),
        ('OT_MASKED0', '1c512f2c0de7b5521a75b590eeaa2464bd8c62889ddcde0880e99a7e73bd5c1b'),
        ('OT_MASKED1', '2b146b4fed8a1d077d0849b64ddfde81815b0c38be0248962dbc81e1be87ca6b'),
        ('OT_MASKED1', 'fa77a5bc747982dbdbb916a38567712cedab4c43363081263ab2b8b53509f506'),
        ('LABIT_PAIRING', '966934dd05beb683b17758923d7b6754f32f715a7b87dd891741e6040c06b60b'),
        ('LABIT_D', '68ad859512b68f186b7de3b28329e62a383d0aea8375b368dcb3bda83a18a12f'),
        ('EQ_COMMIT', '075fdf67252774dfc8a41f068653f0bf4f6497d14cf294abbe21d7bcf36c03ca'),
        ('EQ_VALUE', 'cecf63a02ff6f37dc2584443af7df88d3d713202f1b10cd87002ce10291226be'),
        ('EQ_OPEN', 'e4f704df475127ec5c313d95580c6d726666f9de02f0e05dd8de001e178e4209'),
        ('AMPLIFY_MATRIX', '1c3107299effe321ad5fa5cb11c176d019d68dbdd03bda2df24b93dd7539ebd4'),
        ('LAAND_D', '6c13fbf4cbab1c051b575f8576cb416bf88b3aba61026d2fd9b9bd13d17490ca'),
        ('LAOT_X0', '6667af159798f14c01af491b3876317aae1c95d4014bdfc354bd2b202fd00085'),
        ('LAOT_X1', '8dfb92b7c946583b636d2c46f9cd00939d732a2935d546213724b39ef8e13d46'),
        ('LAAND_U', 'b0535dcfa128c628a29ad7d8d05dbcc8a4568ca876b3831b976c628a6a4ecc40'),
        ('LAOT_D', '4a7cb6ce112cab4092b737fa0a1e9e7fc80e5fb11873f47eb02e77a6ed4735ed'),
        ('EQ_COMMIT', 'bbe9e9feb025ebd28499a231be11497dd9bf9641e7349fcfc2f7c77dd4ba7573'),
        ('LAOT_I0', '509260d0d277b67abf37ba8a28e04a183b508c64801ba865447294e589a86da7'),
        ('LAOT_I1', 'fc23f65f5a2126b9fc947c31a1a2f4043c1f5c33a5ed1dcee276f0598a80f1fa'),
        ('EQ_VALUE', '948a4aa141e968c90efc856b02fba7f36c3e86e1ac1fdbb9dda571ccc77fcc3c'),
        ('EQ_COMMIT', 'e7d1b3ab30f0d9115c3ba363418cf5a680b3e41aea7b7c92cd308b843f0144a6'),
        ('EQ_OPEN', '20a1f395cfd969c0588350b98663f519de73800d7d349fc5ccfc089290cb8c79'),
        ('EQ_VALUE', '705b8faefe9239d1abbeeee60ed4ce9538288fbbde1ac83251c310e7f4c1b718'),
        ('EQ_OPEN', '966cd35df846ac161d95fc9d17f3b1a77406ea3e92eeb44ae75716d0084d1fb4'),
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
        ('HELLO', '6f3a29f81540750c330b02b65b46781ab9fd82919cd2beabb0a4e2aba070ce5d'),
        ('OT_MASKED0', '03384143ebc11745161230ac186bf599a777f3f316e5a38e05db1151b6c9a497'),
        ('OT_MASKED1', 'c6d44a3e5f31c0a1706f034e4d82fd59f30a42d7635e0e36a2f150457fbaf6aa'),
        ('OT_MASKED1', '47d3044aa8ea725c98464c23377c37f0c0d929248cce3f665e0b58f35faab0f3'),
        ('LABIT_PAIRING', '420a59700cea3c1e689adba5e4c048cde437bb63aa0e1c341f24022ed0298dfd'),
        ('LABIT_D', 'fa9c94cd1ab164686ea34b7693aa620f2944cc798560dc1cf90e9accc24cf70a'),
        ('EQ_COMMIT', 'a23c59b8d4d034d5b33899621b321cf3a59f07ad74c2804b22480b8db06725ab'),
        ('EQ_VALUE', '3875457305380c5ee5a1657852826103300bdc524896536eacd793e3be73546d'),
        ('EQ_OPEN', 'c3af5a4d20675da636bbc629dc00b0ba90ebc3744cb787fa0510d11915f4af17'),
        ('AMPLIFY_MATRIX', '02a15d6e6699ab8fe0b2b37c30d7ad1261ab234ac13d0fa7f012dacec17aa367'),
        ('LAAND_D', '36c6f6b5b48a6cbff1d242ff16f773b01c81ed88743de9fa503566d436487863'),
        ('LAOT_X0', '76cb2bcca5d0b05181294795ac263f063bd94b2b0774774a57288574e19adde6'),
        ('LAOT_X1', '54922c7d50cb65311ff1de5041e6f35f819383ac94c62ff5c949f51fa11e3e05'),
        ('LAAND_U', '8d947dc6cf4eda949a770108dddf5fc1a9f40e54d571d1d112ea621fa291dcd8'),
        ('LAOT_D', 'ed542e57ba748329768de8c4a3b389ab3304ed249e756820d1ca8a855d7a3416'),
        ('EQ_COMMIT', '7eedc5791aeb62dff6a90a6c216da38f292d928dc09d0bdd8f9de311a55ce2de'),
        ('LAOT_I0', 'afdc83219c2a37fcb20c4746407409d32fbea38c74404c198fc38232d16a8421'),
        ('LAOT_I1', 'ee208341e588dc4ffd8ee4467e0464c23e9760b552ea6931609e7446e1974e42'),
        ('EQ_VALUE', '4482c74adf245d029bcea2ac8dac88ac66534585d14b3471a7fc244ee7661d22'),
        ('EQ_COMMIT', '58d24c9f62ec63b618beee1cba4f25b78b6eb7cbc96311d5232c65ef191d163b'),
        ('EQ_OPEN', 'c673ed2b0b8bf52c412fa81211d420b83cbe46b8be4fb929323f7ed9bcb3b2b6'),
        ('EQ_VALUE', 'e1766cff39cd367d5a1903c804a05e0c6c56dc7beac21f2a1b9712c5af973bb8'),
        ('EQ_OPEN', '5080fab36ade4b777a95737ed65d89da7633a556a3b5834bb5b9974a2d6cda52'),
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
