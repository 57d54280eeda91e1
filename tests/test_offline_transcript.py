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

from helpers import counting_pair
from macbits.dealer import DealerConfig, deal
from macbits.transport import FRAME_HEADER_BYTES, Role, run_pair

A, B = Role.ALICE, Role.BOB

EXPECTED = {
    A: [
        ('HELLO', 'abd32c5befcc0cc03b94fe87e748a2c00ea33e6c9e1e25e5d7872ca5aad43bc3'),
        ('OT_SETUP', 'e3286f0cc0a6204d7548bd96bba39e1d96924a218b48ca2664633d54cdb3037e'),
        ('OT_MASKED0', 'cd0b9f2cc77e9133a635daac6ba06273736fce896c04b5bbd712998c573404a5'),
        ('OT_MASKED1', 'd9d499d03fbe4016d1fd14d151998f97dba8f2b00d0d4444ef38d4672affa9db'),
        ('OT_MASKED1', '757dfae2239cb4bdbb091dbf1a51395e74f5b4ea894e4ab49f9ce4e699bdd734'),
        ('LABIT_PAIRING', '3965d4e7eeb3e8f73314f4b1b952ecfd29dceb4d435a22cc06d4bdd61f53819e'),
        ('LABIT_D', '1d9cfefc64c5c6e7530845a1f5ec6b8ff016adb9825ec1a4d03eeb18f69038c3'),
        ('EQ_COMMIT', 'adddc4c631d4a61bc9b661cbe799627154c67b84dbbf8b170fc2df1587690b48'),
        ('EQ_VALUE', '43b02324878e931b163c7b6d0b41ce25e55fbbbc7461ffd3058cb5067cc417ea'),
        ('EQ_OPEN', '08b617354375fa120b01857f248225122ea4bcb55faa10031f84d74d0471ed2f'),
        ('AMPLIFY_MATRIX', '8baea09351a1738a0e871e446b837a3cd9f956ca2840f322c22d32e3587f2e32'),
        ('LAAND_D', '6c13fbf4cbab1c051b575f8576cb416bf88b3aba61026d2fd9b9bd13d17490ca'),
        ('LAOT_X0', 'e579806f3a4c02fb6749eef8fbc7c69df92a6dae5a5c29f07065dbef09c9c970'),
        ('LAOT_X1', '4626f66b97861ce75532b6c0fe314dc7db878d9b0c38d317832debdd7c571a4d'),
        ('LAAND_U', '2b9054582a6c65b4667e741397c73a22e91d0b656ea5573d4aff4cf62a56c586'),
        ('LAOT_D', '4fb3d13f110ab0cbf0860757497aad9d3e0733c7b3bbab61e75aacc260855b17'),
        ('EQ_COMMIT', 'bf5026eb480d651d4497d559efdc295aeebe443b1d6c15b654e6e0e9a11f9aac'),
        ('LAOT_I0', '792f1e70471cfbba87ecbb670cbe3eb2ea42f2d5804640c79965036fdc8c525a'),
        ('LAOT_I1', 'af98f8b25f5da38e960357d7b6febfa9b9c3842d94c27f9f4b469e2299e442ba'),
        ('EQ_VALUE', '2c2f58e823d421684d4ec1a938e34b031c1d97794e135d3340a33dc86bfdeb8c'),
        ('EQ_COMMIT', 'a733105ad9c4aa8cb5cd8a9f4898a81996b071f0c36b379368c3f19770fc82ef'),
        ('EQ_OPEN', 'f2599d797e907e83c8faaa07c8aa132312bd9d28c6119b185154672751d9fe9e'),
        ('EQ_VALUE', 'a0eecbd8a39876a2c992e364b4e26eec6a92a2f2fe0860e886f6c5d527671631'),
        ('EQ_OPEN', '6f29d27dbe36bea32b96f5d1f8f0588bea6e3185d2570d55e03f94d9e51fb6aa'),
        ('COMB_PERM', '8b7bb65568ba9b866f3cf7984759c424ad6752c5e19a8e445638ada24a5093ff'),
        ('COMB_D', '16a416364e8ee4049cdbc0e5811a3c17047236fb2eefc75067c8a796adc08507'),
        ('COMB_D', '915b768757604b0c1de6b8ce4c72764cf00ba85f1c6d97f538f01a5bdbb04f5e'),
        ('COMB_D', 'db17a273fb770a0b4a721d180ef529d60fb1b1f108daea2b8f32d54cb5b6db8d'),
        ('COMB_D', 'ef8a25958b10d4fd8359206aa073cb9c274a9a735151948200619dfb60b8a975'),
        ('COMB_D', 'cd9940b1b2d3ba9316b9a4bc2050b84788f256cd797e274a36b28b32d6d0c70a'),
        ('COMB_D', '6d62fc0db535c27cae5eed47d254c67d17ab7112b6b24b6ad2c021bf5ce959ad'),
        ('COMB_D', '006c42d595aeaf95e1428c49c9f4d15fbc8475f29cdefc49b843bf62792eaf5d'),
        ('COMB_D', 'a057e3ea656f50a554f3a162c2fb94987da201ea4b0c6c9d0381f9036416c32d'),
        ('COMB_D', 'd7246f0988028e5071928516ba53181a098897179911851e336774a09ed1c4a0'),
        ('COMB_D', '1f56b6b304fa093a9bd15291b7b2ffe0d8e2563fe9e448371ac0ca95b24f1a96'),
        ('COMB_PERM', '5d8645c78891397f9f28ccef32335537d170a5fff520d1272f040ab0c3e2fcb2'),
        ('RT_ACC_FLUSH', '894182b4daf32ed59fa9cdcc054aad41e51a3e388cb896d38e05bb3bb65e3bc3'),
        ('GK_COMMIT', '36423b6150058e576f11d5401f6251dc1a0c5d3e9f75d26a85de0ffada6ac3d1'),
    ],
    B: [
        ('HELLO', '6f3a29f81540750c330b02b65b46781ab9fd82919cd2beabb0a4e2aba070ce5d'),
        ('OT_MASKED0', '599534817cd320880d68ffc064d5d38bcbc27fea42959c2ade0a595d103f8f96'),
        ('OT_MASKED1', '85978e53974eee01da7897424ae9544f684342f1ef91d35832d34b229634a0e0'),
        ('OT_MASKED1', '41af9a378a83986f871ee83416166bd00e2cdc5fdcc54be87fca22dcdd81ffad'),
        ('LABIT_PAIRING', '163faa6beb2792dc7566342390c875972cb02ad99d102285124f56636e52180e'),
        ('LABIT_D', 'e2b92c76a3c05e58c7af27db840c95da4cf5bd8f94747fb59b5c06b353b4da66'),
        ('EQ_COMMIT', '90e963c2065456de79f8ee75f844411a893ab97ad6ef6a9309fd916cb446180b'),
        ('EQ_VALUE', 'a2898d35ecd0ed5f59ce1f90850eed5ef82f40a858d0fa2a1d444d162194d612'),
        ('EQ_OPEN', '2452290c74c241711dccb4238cf5c4fc0805bdff59447440ab291289f6a9d3ae'),
        ('AMPLIFY_MATRIX', 'c7a97e7b998328407c16f8a4d0c5404c84864ffbbf092f8fb825710bd5c2e460'),
        ('LAAND_D', 'c6f1ce78f73442d6a77033825be3a99aa7ba2ad6b96848c61d1913daf74f7f91'),
        ('LAOT_X0', 'c5113b0798ee27340d7893c1adac927dc45d0cf6a8794d1ba108b30cf588832d'),
        ('LAOT_X1', '2ea1d98ffb73e56beaa74174e6dd7dd4dba0b5726536430dfcba8d273f5acb68'),
        ('LAAND_U', 'c98c935aa32409897c4eabc701137cae8f679eaedc7c882bab8ed720972ce760'),
        ('LAOT_D', '4170a63ba835eac16b440f085b9ef955449be375ebf2b6cdd2ac15142c492063'),
        ('EQ_COMMIT', 'a64d7698752080c0643ee909722956b0ee32e16d1b2ce260915a9eaae49976b6'),
        ('LAOT_I0', 'df3c11290a476775d08cfe2a0f023c99008c6e94c741c9dde88612024176a502'),
        ('LAOT_I1', '2f619544db128c5549a33143cac656b892bb3d4355c2c9f1a34f6746552afa8c'),
        ('EQ_VALUE', '09584b499c89dc6fae6e151ebae05963a65d3fcb3e4d80290218b3832677f46e'),
        ('EQ_COMMIT', '37991ff1975d6080a11d7a300cfb804bafdae9dc1c31b8cb0d6103048b07446a'),
        ('EQ_OPEN', '601ad2ad127367c5758f21f3d066bb8a034f5afc6fde9ee3a0209273acf1d610'),
        ('EQ_VALUE', '5a14cc58a7b2ef60b4f245eb4c2024efda76826ceb67c21ff7f9738138c2d593'),
        ('EQ_OPEN', 'a39f51112239e4a79b31af4463191c4907d5f786d33e7544ea6a0ee3a491c706'),
        ('COMB_PERM', '91646c43feef29a983bf9a6c058d03c33a7b02e4c45581f835c98f7562e5cd73'),
        ('COMB_D', 'be59feff6ec99f9ae7bff1662636f10f6c8e7c181e2f36df315da957d635f271'),
        ('COMB_D', '91bc062e12b832cc86a0348ee78491749e6f45b74bfc2a9d7ae3609e4e1e2958'),
        ('COMB_D', '37df31bca691eafd63e18517eca89f11fef6dd3f15820c6f0e4e0d111cc8b9ac'),
        ('COMB_D', '91dd35d8e53013d22c820e475d8e77ce1b5f1b9f5c95d0e5e697faddf0d79062'),
        ('COMB_D', 'e802c9815e14f5526c24f97340fe759506ff3f0ef50383690801c3bc22cfd43c'),
        ('COMB_PERM', 'fe8a22c2c5ec8ddbc31fc9603ede7da2a8d9223505c2af6380712127a2fd6581'),
        ('COMB_D', '0bfd547a220d1ed935d069c5cc00e7252c1913ed5286cd91346d7cba040f405d'),
        ('COMB_D', 'ec822694c7b140a52b29c65eeda13d4542bb692699fe1708f7e4b4a57712a53a'),
        ('COMB_D', '7ea6f0fec860ac993c2b7ddf1cab4697b81c4f1ac17c9636551bec0823bb013f'),
        ('COMB_D', '54cc1e9325115b91cfa3fe98d4588f123cce0568a1924d9c6a4b3bfe6c781c4d'),
        ('COMB_D', 'f71e20825dbe7d6b2fa78bc872d210862b99f5395727dccd112500aa88bb6b45'),
        ('RT_ACC_FLUSH', '0ed14b4c2d5213b293a8243739e12a8ebb7e8ee1f1b9c1a13361beb63edc16cc'),
        ('GK_COMMIT', 'bef4895dff712eefc84c05d231cc8d47a0ab8ce66225b6bd262a8e6ecb415341'),
    ],
}
EXPECTED_STORES = {
    A: "6743a1e704644ea9e8f6a056745fd07ad5600eccb1150135b32e5b7430f73ee6",
    B: "7ec6a68ba11aa39170e214410b2b6d6acb25eb8da811cc327aec4d6a609d7882",
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
    ca, cb = counting_pair(timeout=120.0)
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
