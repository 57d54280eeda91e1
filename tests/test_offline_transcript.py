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
        ('OT_MASKED1', '22193e97e86f49cba4f24bb4966cd1f56c63a4593ef6dcf423d43b4e312e8dcf'),
        ('LABIT_PAIRING', '6950c32f34d6a630d7dd5095d222f90a7b0c9d449a39a3f12b77ad658e27134e'),
        ('LABIT_D', '694daf7b3c99d710d577550700b8ad8a74d3c9f1f41574808b69ae0c7548cd69'),
        ('EQ_COMMIT', '9ef2d85d29b231d87805f7d533570052c34866f179ada3f84e5ab096afe7dc94'),
        ('EQ_VALUE', '1e0e57fb821bf9bfa80bc10ab904a082b018fafd84e160079d1e9677de02d034'),
        ('EQ_OPEN', '14761234b6a7af351700b8ff31681facb4325f85006ecfcbced0c8ff3def6e19'),
        ('AMPLIFY_MATRIX', '6a87dccdb8372ffaf3b3552823c717957fc1f785fd88abacca46557e99842adb'),
        ('LAAND_D', '6c13fbf4cbab1c051b575f8576cb416bf88b3aba61026d2fd9b9bd13d17490ca'),
        ('LAOT_X0', 'a256113d366a3c991796f7e5406e1c00219c7d793243517d295449f84f2ff543'),
        ('LAOT_X1', '217da0e55f36d9115577d6b428cb42e242fef7d351965ac982a2ae8aaee0286a'),
        ('LAAND_U', 'a297e0cca53d35a1ef36b297f95ce7892949be22f086cac9663f6f8ce99265a0'),
        ('LAOT_D', '4fb3d13f110ab0cbf0860757497aad9d3e0733c7b3bbab61e75aacc260855b17'),
        ('EQ_COMMIT', 'b4d3c97cfef84aed47414ed847d6ccc24b96d84d188031054a87ef9625ce07ed'),
        ('LAOT_I0', '75e04243424fd768d45269f34c9825d72aee2eb4a6d271d32e8bb4011e3cef70'),
        ('LAOT_I1', '49d8ad28625d0c991e3791bbdf2f69bfa82103d07586bd62d8ae959f852df5f9'),
        ('EQ_VALUE', 'a1791a6de92ba5bc6214dcfa2a0ab98861593668c6cde84e12136b542e43ae49'),
        ('EQ_COMMIT', 'e7d1b3ab30f0d9115c3ba363418cf5a680b3e41aea7b7c92cd308b843f0144a6'),
        ('EQ_OPEN', '64ca81bf619798d65c45c074cb38ff722cfb1d38c76d23316454c40cd4a588d2'),
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
        ('RT_ACC_FLUSH', '0bf10e0241e13beae1bdb9fc9c05ad0d12b3ad70dc800ba245c3dc8d4976b9e0'),
        ('GK_COMMIT', 'dbbe2fb84a44690b743891375cbedcee6d26b278fe59a1ec4bff60cb574c7554'),
    ],
    B: [
        ('HELLO', '6f3a29f81540750c330b02b65b46781ab9fd82919cd2beabb0a4e2aba070ce5d'),
        ('OT_MASKED0', 'c8b90dfbc40471b7b39b8ae277e6f201db3a7a2b4e523bd1a8c5b3252a089ae2'),
        ('OT_MASKED1', '3a8437bd95d6859f84e9e62c84ee058c31b1878a7c0a50dfdd7e4630db2f6df7'),
        ('OT_MASKED1', 'c4cba7bc6e13a9a07f61da3163adb353653efed026296162176b7a2966dc312f'),
        ('LABIT_PAIRING', '643516040e98deec984d7315cac2eba65eef90da2713f0be4ff0500d3bdac5ec'),
        ('LABIT_D', 'c071d1ec9e5b2099db0b0cab7fda650bf29022168f14fa42345665aeb40724fc'),
        ('EQ_COMMIT', '48dc532c1a00b4c3aae8e47e087b43fd13d8d8be6786ff725867cc70712cd1cd'),
        ('EQ_VALUE', '27880cac1c2604e8ee831a4e79c344fe11aaac1b016d8d18f2ac966ec1682693'),
        ('EQ_OPEN', '416b8893e0fc9e66fc4f7d9b7f5a13551a6264e0154e89bf1eeac8318166b8ad'),
        ('AMPLIFY_MATRIX', '6921904f149c56377699e348a4d6a8804d85612037289e73fb2e0b04a556d09f'),
        ('LAAND_D', 'c6f1ce78f73442d6a77033825be3a99aa7ba2ad6b96848c61d1913daf74f7f91'),
        ('LAOT_X0', '3a3177f801d3506a5eefea25f124d6f291cf4615ef5094bd875f3486375319c5'),
        ('LAOT_X1', '4dc729bb5e7ec6545ce391ba9240f2f84fc389af91b0568889eb32777df884cf'),
        ('LAAND_U', 'e157b9d3f0709a83a3a0899771e610b92233625df33dbf7ae73bb7e1ad6b635c'),
        ('LAOT_D', '4170a63ba835eac16b440f085b9ef955449be375ebf2b6cdd2ac15142c492063'),
        ('EQ_COMMIT', 'e19e8a1b64533ed503470215ab776f2d7a659e9c3e4621464cb26fa16b66e5a1'),
        ('LAOT_I0', '362a658579e4b6c3292b5e2ed34fe1f06ccf8e040c8ad66f48e1bfc1674d6e85'),
        ('LAOT_I1', '9109debe7ab9df6414048ce2d4861a4710248a3f09711450cc55e6eea935d129'),
        ('EQ_VALUE', '1b350a77b887e3842dc13ae342e81d85082aaf871a86d0d9d986ef573a3c275f'),
        ('EQ_COMMIT', '58d24c9f62ec63b618beee1cba4f25b78b6eb7cbc96311d5232c65ef191d163b'),
        ('EQ_OPEN', 'dbe66688574c9cbb28d189eb52776feb6c996e4d8097870f15817459ae580d9b'),
        ('EQ_VALUE', 'e1766cff39cd367d5a1903c804a05e0c6c56dc7beac21f2a1b9712c5af973bb8'),
        ('EQ_OPEN', '5080fab36ade4b777a95737ed65d89da7633a556a3b5834bb5b9974a2d6cda52'),
        ('COMB_PERM', '7ee794975488069e02927dc00f143c755e0da9aa61ff275ec455d7022a1865e5'),
        ('COMB_D', '3c55bd11db283fcc21a1d8a5e8c07a3eb43930844cfd0e90533ae13f4ac3bea2'),
        ('COMB_D', '78b8d679faa80de2dea6459cb414352953e003fe1e129e87d18fc2f49ec40006'),
        ('COMB_D', '8901d21e3e146ac69218d876ab084f60f226e0afbfeda4981ac3ee9a6c5578e1'),
        ('COMB_D', '6e87db7786e2f8fc236be855ddef46e688c30c7e284f88f81cd591fa928a71e2'),
        ('COMB_D', '15d29ac05bf43e00720a84cd26553bb2b095c92c48dddd1ae0fac7879b197ad5'),
        ('COMB_PERM', '8058b1ca626694fb32098f9f8d9bc8937a14a2f39b6770163f70933e4b26dad5'),
        ('COMB_D', '3d6a031e58c50c860366d45e101b0749d12bc5b8a8ec4722e8b239bbe55b57cd'),
        ('COMB_D', '348b4399842170bccf4fc4551f68707d6fde4889311c8ba880591c526f87623f'),
        ('COMB_D', 'ae220c490bbb6406cd04f649bdf9cfb3618e03a870898c16d4c8801ccccaa6f2'),
        ('COMB_D', '3ffce3dc8a1d84a83ab5e240e1bb75faf22a30270cd2fbbe3302d7772b81ffd8'),
        ('COMB_D', 'cb2c31ec1f6ba5c47178a3fa7ac33b9b803eace7e8f2a2989038041ba1048ad4'),
        ('RT_ACC_FLUSH', 'efd2469aec6695dd08dfd3266de98065d19c70c2f1f18fb288856e07cad051e6'),
        ('GK_COMMIT', '35ca7d6f9ec109671c895f8baad331921ae3d87aca76a7fa3352a7d8acc37f6c'),
    ],
}
EXPECTED_STORES = {
    A: "56799c43612de2f128155899ac52e5bd8589fefc65a8429f8e39adeb5ba89012",
    B: "ee15f5cb4a0bd7e14150de75838e080205f482764a294709a6347fad02cb81e0",
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
