"""The offline phase's bytes on the wire and on disk, pinned.

A seeded kappa=128 deal must send exactly these frames, party by party: the
type and the SHA-256 of each payload, followed by the SHA-256 of each saved
store. The demand ell = 12,908 bits per owner is not a multiple of 8, so the
packed pad bits of every frame are covered too. A change to how laOT, laAND,
the combiners or the aBit pipeline lay out, order or hash their frames shows
up here as a first differing frame.
"""

import hashlib
import random

from helpers import counting_pair
from macbits.dealer import DealerConfig, deal
from macbits.transport import Role, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', 'abd32c5befcc0cc03b94fe87e748a2c00ea33e6c9e1e25e5d7872ca5aad43bc3'),
        ('OT_SETUP', '7c349bd908e6a2a0c6e03a16e89d0d3513d9024a5b05a61e0d73a18478aa8222'),
        ('OT_MASKED0', 'ecbf9ceb3079b88e13bdf32a8eeb1fc607beb1fc2dd6611b9c1f1e878ee82ed1'),
        ('OT_MASKED1', '10efb0c408a841c24e1f3d6f1adba6ddbf3477376a9fc7598d106775e0752346'),
        ('OT_MASKED1', '876236d61bcb465df7d7d504a92650be1f7d0722a56285c901c0f927aa745d8e'),
        ('EQ_COMMIT', '31b81d232c5708b1f6d5df0ef19b160f5d1169f788dbcd3257e85f68a5f53d03'),
        ('EQ_OPEN', 'b80e4d1ee01597acea82c76c7e9ebc96644ef6c266e0700e7d3ec5d772cc4027'),
        ('LABIT_PAIRING', 'cb71f0b9ad8b8084fb3791e40367045587a31340aec3ea8ac89e8072159b2ac5'),
        ('LABIT_D', '5ac3a1b2ea98c359403a13f1daa8466fc16ecdcb06ef9f6fcdd273c2350cbda3'),
        ('EQ_VALUE', 'cf902d205efe7b3a9d032371ec0cadd360fb4862fc011334594370dae0f453af'),
        ('AMPLIFY_MATRIX', 'ae9e114d1049376c356f6b334e9ec446e0fa2a2527c24f97a7c7797aa79a2946'),
        ('LAAND_D', '3081a520071545b13479babbb81fb430d09d741b7e5bc4e8540681f9f3cb6069'),
        ('EQ_COMMIT', '3da0ea90c67d6b8227f40e8319169edaaf1b95b256728227955982b99787d135'),
        ('EQ_OPEN', 'f70c0fc49ab424c723701baf4d914f1b267e707163d9fe8270eaeb85f310727b'),
        ('COMB_PERM', '134daec6c326993c31fb5efbd7d390ddb20337f21aebd4a8690c9dee60645240'),
        ('COMB_D', 'a8a1e2f01dbde326d244ad766cb83114cc85e08e4646d9061da05d59a90fe6b1'),
        ('COMB_D', 'acd36b276c0a2a29e2abc670029643056483da9150546eec8849eea19656c810'),
        ('COMB_D', '2d4243440c528185b334f8ad70c31e68c120ae7a629b2d76639f22552c4f80b8'),
        ('COMB_D', 'd206b90c2eec32f7a848f6a190e4e018db531c36c947b8b53f750b3c78a8f559'),
        ('COMB_D', '0e4b6dc249c099743b5e83c29406869d1fb7b4077a8b9f758676868a74debdde'),
        ('LAAND_U', 'd419375acf13c059b58d3b7c686ffc794528edc3fa1793e0bf71cbb4c214261a'),
        ('EQ_VALUE', 'efff498dd90d14019a4f4674cd148ea2419daa36bcf0890a018732f366a8b477'),
        ('LAOT_X0', '429054f2d8ff1a83dd0815a49bd3d0e3a8c3c94bfe1acfa65411eec81a37c38e'),
        ('LAOT_X1', 'cd2de2eba55138a34487e2920cbf65b497fc584e98ed8a3053f3963d08cd180c'),
        ('LAOT_I0', '879535062e65f3a6e0e4ac3ac806c7c0689dabd9fe546a402a402901287bd857'),
        ('LAOT_I1', '19a3272707a7742891a40f5082a1f25d799c42d2ecf6af7c04917c11cbb5223f'),
        ('EQ_COMMIT', '324547e4eeccb6bb63f7f6ea9bc759e88e0f9b64cf3cb5bc7cd582c5efda5bd2'),
        ('EQ_OPEN', '300755efe83262034f13202343b4b25daa6f5a465a02bc1c5df25c5cdf98665c'),
        ('COMB_D', '4745b192be0c52322faab4de0e78b321595f6de962aa1105403611d4089b923c'),
        ('COMB_D', '4a42fc691320b32963e9d82fcabb8eecf8ba100b9c1a242a990294e19051a3c2'),
        ('COMB_D', 'a1176b0dafb47dde535a81fa596a277d46c86e6e3e55964a8635bf142941ae57'),
        ('COMB_D', '26c3229b1ba57617eee9bd5c5f9004257a43d48710ad99f418837867d7aaa49e'),
        ('COMB_D', '6c6c1feae2af782966f5086905df0718284e2cac62fe312c5056cd9fc539df4d'),
        ('LAOT_D', '631e7bcfdcc86c77e5a3d96b82f2e49f5b0eac36947ef0e9c664ed1eff9fa0b1'),
        ('EQ_VALUE', '69785c15a52dab79ef79e4b0340ce3f9deba865e9158425ce3e232361a7127d6'),
        ('COMB_PERM', 'ff328937070c0736aca2c0303de415b00ef46fd9eb0c4e3292dd4a69593928a8'),
        ('RT_ACC_FLUSH', 'c6d485dd5937f74d6e7218db94c15791c67de51f819def8b05700b5f913f4e94'),
        ('GK_COMMIT', '2f9ae42067354ee627ce32e048b57a529836633a3d242aafecf81b487b9882a9'),
    ],
    B: [
        ('HELLO', '6f3a29f81540750c330b02b65b46781ab9fd82919cd2beabb0a4e2aba070ce5d'),
        ('LABIT_PAIRING', '5137ee91cd6ceecb859fe536471543230a0d4934c8fe519a54eff5ed645532f2'),
        ('LABIT_D', '65ddc9a5057b046fa971005c8239eec1ce40fb57ac0bd8cfd85817831e2d9fed'),
        ('EQ_VALUE', '8cf6fcdb824579067859d6499d077b25001a1e1e0808e464d14fd24551840ab7'),
        ('AMPLIFY_MATRIX', 'c2d0564cec189e25c4607d134927325f24eff4aba8d134d6ab1632639cdb4d55'),
        ('OT_MASKED0', '4feadc8b078921f9ea9415a3e0e6eeb097980b10db13106633da4d34408a8887'),
        ('OT_MASKED1', '9ffd0f767d0d5b4c0ba42e8b804f19aaba237754ff9b329c03c2afafd9c3ef8f'),
        ('OT_MASKED1', 'c6cb9f7fd95047b0bd3f05dcf6c17d8b2ab7d744847bd4d840bd92a1c1adb665'),
        ('EQ_COMMIT', 'd7dfe8af00cf994f662a9d8f14cb820e708524f0c5a74d381eb57f6aa0aea556'),
        ('EQ_OPEN', '8c43bccb485cdb772eacef2b79b0b249ce58faf31f203e2346e43c6957d68c2d'),
        ('LAAND_U', '9c22e05b0042fc4015f14031066518ab3db6dbf61b3197fdb233490d4fa5bdbc'),
        ('EQ_VALUE', 'b328962d9c54bfedfdc9b494e8a6d98c3fffc43a8dc426120b92ee17f021a550'),
        ('LAAND_D', 'd49de026f9ea5a940a00c6f46d95781b4a473d8ef7d0ca1cc7e3b07ad2ec392c'),
        ('EQ_COMMIT', '7a49724155a272aa859ffead74dd5e5ca389d61bda0aacd58b9e1337d90f2bb1'),
        ('EQ_OPEN', '1db68361e78626f6d9a0437cf6e0543e875fa13b9d07918b7c173db3dd41b5d9'),
        ('COMB_PERM', '9e2a46046b36bf51da52c24776c35a22e461316bf1b4574f2488cb8bb5a749a1'),
        ('COMB_D', '61fd1f64f2e9bb4e484a14e6d8eed4353a9bd155b64b59429e79476f839efd63'),
        ('COMB_D', 'fa6cd947094f23e4c3a48062ff9d013e2e42c304e68598f73d763a984629900c'),
        ('COMB_D', 'ad67a80f5c9aa2d5cb467c0f7c94d07ffd664c7764b96cdcec1f56d98201c3c3'),
        ('COMB_D', '49172bf6173327521395ddd68e526cf9d79481b2812c983daea444c942be4e1c'),
        ('COMB_D', 'a2c8c59df6a387d8e48942c1bab7f5bcf27cdd491afef3b7abfdb6d4b6677d28'),
        ('LAOT_D', '4af1f6fd71b72b8967b0daf0f5cd5213c7c7a4508210a137cfbbba9c60a28888'),
        ('EQ_VALUE', '7ec8899f635c9dc96538ddb92b609346aade4c53801cd970c927daec43b8c9ed'),
        ('COMB_PERM', 'ece2c9cd250e99c845b06a97c2a970ad5356319a13b25152da9cbd5cece0a583'),
        ('LAOT_X0', 'e543120b5bcb9fd24335a7621acf25d20f31b769813afa246ae28e18622cdb89'),
        ('LAOT_X1', '12f8ce92c48e2b65b49796b42e8d9678c575048e6830bd181af0ca29e483d6aa'),
        ('LAOT_I0', '7b4504ee20ff2705975193c97d6b0885930326437672e62c418a16577f9084b5'),
        ('LAOT_I1', '078411e931e3806c55a44e3d5588e9a6ca46f290e68d1d27c5313a5e5f985dc5'),
        ('EQ_COMMIT', 'b2aa1cd574b2379c9137935f331997052b9373a10c9a62d49ed654039927afb2'),
        ('EQ_OPEN', '5f1c5ac9df1d3bfd8c803c255b142bcc23ee675833c9ef6e6f10ccb4437d1fd0'),
        ('COMB_D', '73d5cb0401b3fafdcf89357352b8ddc8ae3c5ebd9b43d74926279523b2729a09'),
        ('COMB_D', '0a2df18c1b5774153ab09baefa551b8a1838d364c394a5826b45e413c07faa73'),
        ('COMB_D', 'c4169678a179265e6fae9e4890b66ec0bd1562ed8ae9d71f952be0b84aeb7e95'),
        ('COMB_D', 'a853226c32fd4a8e43f97d564398d8525cd0c50ce6e0564bde585c988a6a2c8a'),
        ('COMB_D', '2b3ec23c81df4481ec680df295a97c09bc8cb0d3c43b68309f77c9aeca6d0416'),
        ('RT_ACC_FLUSH', '1dee8c38e41fb9cf210f00d41f16ff61de15708f57f34ebb2c74c6a3437fc29c'),
        ('GK_COMMIT', '87f6be0ce1b9b55ccb0b53e326e7642c9f0d84fcbc8126efae2652587a2e2c30'),
    ],
}
EXPECTED_STORES = {
    A: "df67252f7b9cbd3e2b99342d37ebaa5bd9778f511b03f2cd9a206f22c16cf275",
    B: "cc893d950b258d9827a648dce9bca1893c1d05cae6dcde5b5a38a8bc06dbfbcb",
}


def offline_transcript(tmp_path):
    cfg = DealerConfig.for_gates(300, 8, 8, kappa=128, psi=40)
    assert cfg.abit_demand(A) == cfg.abit_demand(B) == 12_908
    ca, cb = counting_pair(timeout=120.0)
    sa, sb = run_pair(lambda: deal(ca, A, cfg, random.Random(41)),
                      lambda: deal(cb, B, cfg, random.Random(42)),
                      timeout=120.0, channels=(ca, cb))
    frames, stores = {}, {}
    for role, ch, store in ((A, ca, sa), (B, cb, sb)):
        frames[role] = [(m.name, hashlib.sha256(p).hexdigest()) for m, p in ch.sent]
        path = tmp_path / f"{role}.mat"
        store.save(path)
        stores[role] = hashlib.sha256(path.read_bytes()).hexdigest()
    return frames, stores


def test_offline_frames_and_stores_are_pinned(tmp_path):
    frames, stores = offline_transcript(tmp_path)
    for role in (A, B):
        assert frames[role] == EXPECTED[role], role
        assert stores[role] == EXPECTED_STORES[role], role
