"""The canonical JSON of the block pairs and of the h-projective and
Lagrangean targets, pinned by sha256: each family at its default-grid
parameters and at larger ones.  A change of any basis matrix, basis order,
index set, involution or certificate changes the digest."""

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

GRADED_DIGESTS = [
    ("h_projective", 1, "80947d428b75c8bce5e8b87f8a9048cd0ae05a6104476efbcae2314be5accc5a"),
    ("h_projective", 2, "994bf84388894067cffb082d22bcfe3a969ae84769e6db45043feb8139b97e70"),
    ("h_projective", 3, "ee80c1a77a28aeb6df7911367a1eea5f0b5e58b8e491f91d70806ea0c93e28c6"),
    ("h_projective", 4, "e204c867e2603131dde9a2f7c6539d8f7997ab0e4479372db699e3776ffa6244"),
    ("lagrangean", 1, "ee30eaa497a0739fd2ada68f4ddc89c95f3e8b526275717eaefc6a6cc801935d"),
    ("lagrangean", 2, "957eeaa835b34049d8f268a8a514625525ed7edbb39bcf76e5f22267faa812c2"),
    ("lagrangean", 3, "92e61f8376205d4a37725253f26acfc583bc15c5f821e61782a12b375836d342"),
    ("lagrangean", 4, "dff141207700446e884f855b8dccdf3b25f819731077dc223df82e7828119a38"),
]


def _digest(obj: dict) -> str:
    return hashlib.sha256(io.canonical_dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize("family,params,digest", PAIR_DIGESTS)
def test_pair_json_digest(family, params, digest):
    assert _digest(io.pair_to_json(catalog.build_pair(family, params))) == digest


@pytest.mark.parametrize("family,n,digest", GRADED_DIGESTS)
def test_graded_json_digest(family, n, digest):
    assert _digest(io.graded_to_json(catalog.build_graded(family, {"n": n}))) == digest
