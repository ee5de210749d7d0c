"""The canonical JSON of every graded family and of the block pairs, pinned
by sha256, each family at its default-grid parameters and at larger ones.
A change of any basis matrix, basis order, index set, layout, involution or
certificate changes the JSON digest.  The JSON writes the int 1 and
Fraction(1) alike, so a second digest over the (type name, str) of every
basis entry, matrix by matrix and row by row, pins the entry types too."""

import hashlib

import pytest

from cartanext import catalog, io

PAIR_DIGESTS = [
    ("sl_block", {"p": 1, "q": 1}, "4e5bff15647bd85bc42f3a61ea82e2c4b87adda783939e8a3ebcbb7898674e4e"),
    ("sl_block", {"p": 2, "q": 1}, "fc4dc4a22338cf92e27eb18bb7b8ce6aa7a40ab04c57b6bfe3511c75b0de5a63"),
    ("sl_block", {"p": 3, "q": 3}, "7b1c91aab9d660c4ee1199bc0afe32bc17c441e42a6422ecb657bd0ab27b17c5"),
    ("so_block", {"a": 1, "b": 1, "c": 1, "d": 1},
     "643073e2639b174c2341731ff2ea5d00aae30b484a7794f32dea1983822675fa"),
    ("so_block", {"a": 2, "b": 1, "c": 1, "d": 1},
     "8c0cf97ad4d330eeb598d0a73edc25a77454e3ed21cb20f7f5c86199f55dfb11"),
    ("so_block", {"a": 2, "b": 2, "c": 0, "d": 1},
     "9554849cf18674ff97a9ad2ac1c54e1b3618c71ad6a033ff24d398837e336523"),
    ("su_block", {"a": 1, "b": 1, "c": 0, "d": 0},
     "7bcb0ce896a8d0f3460048037877827dd367b49d4083d71c8bc461f8ce155d66"),
    ("su_block", {"a": 1, "b": 1, "c": 1, "d": 0},
     "97d397fa23925e9e52ec4dbce76d411e672d9dee45c0b4e903db106bfa13fbbc"),
    ("su_block", {"a": 2, "b": 1, "c": 1, "d": 0},
     "85b078a429c9064fdb6532b6336217c1d47a14db2f4a34dcaf636c37b1e10e7f"),
    ("sp1_block", {"p": 1, "q": 1}, "d56e52a45c13d1078a2a0893465c34d0f6c0ce4df5a336b7836a04e31b1e82ac"),
    ("sp1_block", {"p": 1, "q": 0}, "85086599499c685a764b255cba19e3696bd6af849811766495c7158ea6465037"),
    ("sp1_block", {"p": 2, "q": 1}, "d0e406324c4e6aa89ae8438d249ee2afac82c9ebdea7e57a8683f98df62bd7a8"),
    ("so_star", {"n": 1}, "e3e3509e05fc1d8fc33d1ff7f53030f54643c102b60146fd558fc86d4fbb8f76"),
    ("so_star", {"n": 2}, "b19223d08739e26e0b36acb38e5c87c9585f5f81addaf6a321f629411bea440f"),
    ("so_star", {"n": 3}, "5f9219143e6b60df4a268b20748539d99f13a1b3c99ee417f6aabcde2eb92a15"),
    ("conformal_model", {"k": 1, "l": 1},
     "fb5cd718a9e58cba10ff5fb0274f240e57235e8527dcb88084ec179eeb65398f"),
    ("conformal_model", {"k": 2, "l": 1},
     "d9bb4b03daeeae2be68aa1a5a5d4f7d32aea6be72afd77d8a62967917e64eac7"),
    ("sp_block", {"p": 1, "q": 1}, "7e5c0a1a486c7cc0284b5305e30abf6555d1e2b33b1f52bac76ce3388ce4a38c"),
    ("sp_block", {"p": 2, "q": 1}, "a60a93089d870bc88adcad9637e5315ba19a78a6f3db4e70ca28510ebe218dd2"),
    ("so_complex", {"n": 2}, "cacc5a801d7abc59aaf9848dcf1f49cc7a59675ae8e2eeb29ef579af29dcffcb"),
    ("so_complex", {"n": 3}, "bc22726b5b5d9194b5feb76a8c9033a0f4482cbd4d7777504570b3b59556d046"),
]

# (family, parameters, sha256 of the canonical JSON, sha256 of the
# (type name, str) of every basis entry)
GRADED_DIGESTS = [
    ("projective", {"n": 1},
     "1db4386efdba28e47b6d4500adb2591bde4834e7917634ff010bfcac464a309d",
     "0d6245c563ce9d51142c98ccdab87e03304ff385b8deeed3534d44a46cf4c81e"),
    ("projective", {"n": 2},
     "379e26d4b17a24f2585c10ba07f72accbde39d5d837525802278e9dd04374162",
     "166249bf7e824fa9a1b07cad153ace97f74a25165c38ab250bad48e71ff404b3"),
    ("projective", {"n": 5},
     "787bb8c0f7503462ef33b93d86c0b237f6c1680e315417e20608897bcc97256b",
     "e6bfc21f9cd62eaf20ad015ed3438c8f2048805d2d6a65573222ecc1d84098a7"),
    ("projective", {"n": 10},
     "039953f5eb4529687e72b30c2bb1131348f871c674654913f4c481c6993a16f1",
     "df8cd7a1de0c6147497e8075b223954eaa751024146e8a188476462e63ab81ad"),
    ("h_projective", {"n": 1},
     "80947d428b75c8bce5e8b87f8a9048cd0ae05a6104476efbcae2314be5accc5a",
     "d8b9f54b5b9d9b1910827da6d69d6e8da5d97e1a8729ea54bddb3dcf524cf4df"),
    ("h_projective", {"n": 2},
     "994bf84388894067cffb082d22bcfe3a969ae84769e6db45043feb8139b97e70",
     "772cba59f4907e8b53f7c498d05556ebdf5b78c908e2928b4619d672832f2f58"),
    ("h_projective", {"n": 3},
     "ee80c1a77a28aeb6df7911367a1eea5f0b5e58b8e491f91d70806ea0c93e28c6",
     "cbdfda015906da961259924bcb21fa53d531e3371795e11d7c32249f0f8d5399"),
    ("h_projective", {"n": 4},
     "e204c867e2603131dde9a2f7c6539d8f7997ab0e4479372db699e3776ffa6244",
     "3882f1aa0b002cf9eca7d100ec1334a38980ec6c7a34f9672b220f9a60a97083"),
    ("conformal", {"p": 1, "q": 0},
     "5a5e5f290450e4a0b265297365aa2be242445ae0a39246378dbca815b03d4d03",
     "63632c4b80faaf54b29eb6638c98fc7464a71983323c2d0819879af7ac7a2a31"),
    ("conformal", {"p": 1, "q": 1},
     "6afce1032b246a7970b12c6666673f133208ff91b0e9b29166e7e76a6aa910f3",
     "5d8e976db6ec46d0a2c1f42a85dad5683354e07c1df401d54ebf97268e2a6d52"),
    ("conformal", {"p": 2, "q": 1},
     "3c0cfb399901f42ba30e7e001c296cd017c82b1e1f9c5accd2d06826661f63fc",
     "37a6ab2ad3008213dc52af0a1ae235132235708ff7d0d509129e9aa84847b25c"),
    ("conformal", {"p": 3, "q": 2},
     "b4a1a0436f2716dca2ddb5cc463d88725420c53d63f42c8d041db34ed16624cc",
     "6fb9497a0a9c0820085f4f82959693cc80cf19528ab01a5ede7580c5484e0693"),
    ("conformal", {"p": 0, "q": 3},
     "53a0566d6368e2485780eb06ea27d520a4b21993c8c806570cb85ba8130bfab6",
     "3db158cc71274d61a0650a2e8425dade2bb22243445580e59c4e17f4d710ff09"),
    ("complex_conformal", {"n": 1},
     "00c46befe612afab62e24bfd5f6de5e6e0d078238b8358944c8881f71186274d",
     "95ddaad47e9f09f954a72c6f1277b6f1cdfa0b67a07e91d1334b7efaf4145e13"),
    ("complex_conformal", {"n": 2},
     "7ea31d7aaa5af119c08da1fa4a44c54eeb4d44dcdca413df1fd96bb51dd51d11",
     "07f2c833becd33c363cfcc3f8162ef7ff78edffd539df0713882ee013da7e766"),
    ("complex_conformal", {"n": 3},
     "b5807942432187a959994d7aabbc01c6d2018c8d1b4467c4ef28d5702aff49e8",
     "b1df6fef16bbccfdb16ca3f993d3f2de8e500014888093806f228f5b5fbcc6fe"),
    ("quaternionic", {"n": 1},
     "12eaa3cc782b9c39fdd3eeb3ade0fa63e446c01b98b3f57446c2f940b875c462",
     "4530655d4eca8bf7427a1aaf67cb21d75aa1923043a7d037bb9fa65f02dd50e7"),
    ("quaternionic", {"n": 2},
     "76c8b06c52fb9c017cbeebde13c39ea0783dde3e08c5024238eebbd254a31e44",
     "3b9a85f67e8b56f4541d47da391a9af7f8b000aa94828e43feb515f37ff1a219"),
    ("quaternionic", {"n": 3},
     "1784799d2ebb9c338d2d2242c27ec9106341755a31d54ef7c059ec947bbb15a1",
     "1c640eaec2e24027e00043647ef42403934bf6af37c517093212cdde83bd2408"),
    ("para_quaternionic", {"n": 2},
     "9bd671a9ba84e84ec55b4ceb15358c36430a7294ac136f96ad76b434da3a3058",
     "c8a464c60ff7c2288ad3f91385e263d334bc5d73ad3c02935bcdf81c0bbafd5e"),
    ("para_quaternionic", {"n": 3},
     "ea23cf44ce9a3f97c4c1c41ea53d9e2549a5131782db699d680b3392f2e4f24b",
     "4f47f696a468805c1e852b60a4e2f41a76e8823c3f2b9c85a3cf71cff5df0404"),
    ("para_quaternionic", {"n": 4},
     "336b0ac25850aa36d68ed3c5641a60496f50bffb364521c43488fb477e06797d",
     "b59b6b3e91491e8603f288d6b106e4b07cf0b8bdf35d2dd71a9044b8985dabc1"),
    ("grassmannian", {"p": 2, "q": 2},
     "e503dfe189fada8889ef0af5e539d7039fd19923cd3c3a83ea6f91eb9f1a4170",
     "c8a464c60ff7c2288ad3f91385e263d334bc5d73ad3c02935bcdf81c0bbafd5e"),
    ("grassmannian", {"p": 2, "q": 3},
     "0d0f6a7015ca2b09ccecc6d63fc29f77f4b2ae579528e0075a73d2f96320fd7d",
     "4f47f696a468805c1e852b60a4e2f41a76e8823c3f2b9c85a3cf71cff5df0404"),
    ("grassmannian", {"p": 3, "q": 2},
     "1f8e2c738b81a483d112be163ff46421ce7bc673b8af4a5dcd630abac30c624b",
     "4f47f696a468805c1e852b60a4e2f41a76e8823c3f2b9c85a3cf71cff5df0404"),
    ("grassmannian", {"p": 3, "q": 3},
     "03075d66390815807d9bca7cb64c9b4fb74536056fdf529ac10442620e581911",
     "218e8983c8531473212f40536e821ff007be6ed844a6523333b87cd36648c2ee"),
    ("lagrangean", {"n": 1},
     "ee30eaa497a0739fd2ada68f4ddc89c95f3e8b526275717eaefc6a6cc801935d",
     "b2756b3221f3df0c248a5051d6af6aa4b4cc8d60c2b9500a3c6f6d65f8d1cd55"),
    ("lagrangean", {"n": 2},
     "957eeaa835b34049d8f268a8a514625525ed7edbb39bcf76e5f22267faa812c2",
     "e4da9036a66aa4461aeb99fe596c3028ddd37fd0d1f5f2d2a43a666ca52496ec"),
    ("lagrangean", {"n": 3},
     "92e61f8376205d4a37725253f26acfc583bc15c5f821e61782a12b375836d342",
     "4c968fde23a540fdb4ba353a3bd5b12a274f1df1ca7ca286532ce9d74143877c"),
    ("lagrangean", {"n": 4},
     "dff141207700446e884f855b8dccdf3b25f819731077dc223df82e7828119a38",
     "c5f1718a1a025583d4ff423b5c847f4aa2edd34857c9013851d2f5806ddfa180"),
    ("spinorial", {"n": 3},
     "fcf52841fdfca1833b4ddfb9e82a445bda75f983196755fc60acecc45156a62c",
     "abae29ac282e58f1f87d26af6a8ea712bd438a08f37dcdbdf36d62c600c768d6"),
    ("spinorial", {"n": 4},
     "d4336cc640bfe4eda8952f501211d86ea011a9e6ddb034d87a53c522b4b6cb0a",
     "6663ecf9feff4403b89c9ebf0766037469f1ecc1e449b9f6ddfc2a2fd5973e92"),
    ("spinorial", {"n": 5},
     "68dec56bf1956a20f83b10fa77c2526024289730a36ff96d555c56681c24fc0b",
     "1b113be6e7ae57853e2a0ff1974e4df26ba061417719b6a13459fb86235c6481"),
    ("su_pp", {"p": 1},
     "c81bb521c090ffeb3f35a001102183e0ee248bca1c62735f3ed22ada9b85b49d",
     "99feb51c348fd56053346439324275d808704cf12b06893bffc3b88aa74f928b"),
    ("su_pp", {"p": 2},
     "b563bb9565960b915faf0059ce8df40b2ef5e6cb29f1887a1b28bf7591c357a7",
     "b97cc858d10b8521d662918b4d607c151d97b856c666f7b0e98fc6d202f2a6a4"),
    ("su_pp", {"p": 3},
     "4056cfe389b5065e10aa401356c7240eb1d9f341c367afefcede42a4e84bf622",
     "6e63e18aa1d75d532eed4c93cb83ec9c6a55398fa013f98ab73b91e76a7ccbf8"),
]

# sha256 of the (type name, str) of every basis entry of each pair above
PAIR_ENTRY_DIGESTS = [
    ("sl_block", {"p": 1, "q": 1},
     "91881271079960de00eea988a8909053b55e0a4d6fe6da5034d8683ff0e01383"),
    ("sl_block", {"p": 2, "q": 1},
     "2ef59f295eddeeecbe5f9ecbfb9d2a779dba56aec029a861c548c10075255388"),
    ("sl_block", {"p": 3, "q": 3},
     "fce7ad1c738397d34ca175d9a5756370d27bdad46aa316195e9dab31eda39816"),
    ("so_block", {"a": 1, "b": 1, "c": 1, "d": 1},
     "f1de65d80c7cfbbb8b02b8a10c684fd87737055864224b8247f32f1e45035bc4"),
    ("so_block", {"a": 2, "b": 1, "c": 1, "d": 1},
     "8197a486ac5cc066a9e4f7c9b8a206fb78f6dc89857eff3b4174ac7289bfa3b4"),
    ("so_block", {"a": 2, "b": 2, "c": 0, "d": 1},
     "9515d2e2f1558983493cb908ff0848e6a7c692cbf6757745e788bd2566dda0fd"),
    ("su_block", {"a": 1, "b": 1, "c": 0, "d": 0},
     "1b25e8e36c11b35c368a22a801ab8a7caf708f2f988e5704b0c63e7477803995"),
    ("su_block", {"a": 1, "b": 1, "c": 1, "d": 0},
     "b993ea8dce73983b6cbe57c6210e02efaebb160559834838b33ef1f0a72e6fd1"),
    ("su_block", {"a": 2, "b": 1, "c": 1, "d": 0},
     "9fe8b8adb10aa6b8f874d469b1f354ff5bdcc27ccb2029a82e3eba5d51bbe7a9"),
    ("sp1_block", {"p": 1, "q": 1},
     "8a1356d1955e4dda30e51acf8eb2790fddca774dd2b4bb942ad366b71c17448b"),
    ("sp1_block", {"p": 1, "q": 0},
     "e408a3a5ca80c86629711eba633e4be45b14a33f0645c6054aa471f6f360636d"),
    ("sp1_block", {"p": 2, "q": 1},
     "9bf30db22339a884066ad8f0cf48b14de4d90d14c6f0db00fd6914c83102eae7"),
    ("so_star", {"n": 1}, "9dff15f0fce39c2226b00c8fc6fdff5f1b46de83d2a17d18caa62444021b513a"),
    ("so_star", {"n": 2}, "ae7520776631cc3d88b9d0f850ed58adc2e01fc755736d738830ffde92951faf"),
    ("so_star", {"n": 3}, "8e79741b3d2427ae258b75e23a7a738ef51f5e80567b04a5dd85b719a21f942a"),
    ("conformal_model", {"k": 1, "l": 1},
     "5d8e976db6ec46d0a2c1f42a85dad5683354e07c1df401d54ebf97268e2a6d52"),
    ("conformal_model", {"k": 2, "l": 1},
     "9515d2e2f1558983493cb908ff0848e6a7c692cbf6757745e788bd2566dda0fd"),
    ("sp_block", {"p": 1, "q": 1},
     "2ca77e6949ecc7335d78da4f806f12d7f5c2107b14438b10fa40d6901f6f6c9a"),
    ("sp_block", {"p": 2, "q": 1},
     "51985191bc28cfa80367b98c412baf6ba206c06b3d9f907a57b70c19bd6d9d8f"),
    ("so_complex", {"n": 2}, "eeec242678d170db92fd4bac4cf3619b58cdb31e2330515f834ae3cac1d74a3b"),
    ("so_complex", {"n": 3}, "37d14e452661931812bf92eecc07a22ac9bff2a41a75ea2cd5849b4eea8e77e9"),
]


def _digest(obj: dict) -> str:
    return hashlib.sha256(io.canonical_dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("family,params,digest", PAIR_DIGESTS)
def test_pair_json_digest(family, params, digest):
    assert _digest(io.pair_to_json(catalog.build_pair(family, params))) == digest


def _entry_digest(basis) -> str:
    entries = [(type(v).__name__, str(v)) for b in basis
               for r in sorted(b.sparse) for c, v in sorted(b.sparse[r].items())]
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.mark.parametrize("family,params,digest,entries", GRADED_DIGESTS)
def test_graded_json_digest(family, params, digest, entries):
    g = catalog.build_graded(family, params)
    assert _digest(io.graded_to_json(g)) == digest
    assert _entry_digest(g.algebra.basis) == entries


@pytest.mark.parametrize("family,params,entries", PAIR_ENTRY_DIGESTS)
def test_pair_entry_types_digest(family, params, entries):
    assert _entry_digest(catalog.build_pair(family, params).k_algebra.basis) == entries
