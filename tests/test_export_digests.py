"""Golden digests of the exports, so a rewrite of the typing path cannot
change a byte of them unnoticed.

For every corpus entry, at the entry's tier cap: the SHA-256 of the DIMACS
text of `encode` in the sealed and in the positive mode, and, when the
entry types, of the JSON of the inferred derivation and of two audit
reports of it, one under the inferred environment and one under an
environment with every tier moved up by one, modulo 3, which makes the
audit report violations.  An entry that does not type has None for the
last two.
"""

import hashlib
import json

import pytest

from tierlang.corpus import load_corpus
from tierlang.inference import encode, infer, to_dimacs
from tierlang.tiers import audit_derivation

GOLDEN = {
    "skip": (
        "8adb0a652d70e71e4b662ec447680b622c59abdf8ba56169dcdccda3479f2b08",
        "80176f0de6b9bea4d01f61fbb380e928ab873c051f9675ee030e50254e487e29",
        "3450b85e4f0a289eb31337f5ef0222f2c3a68bf6e101b6e8528b79c30c01053b",
        "5ef9d2fb7618f3377ca4497bb291e3ac0889b8b576d4f97fd3f54f5b0993c9fa",
    ),
    "add": (
        "11363da52ae65e552f07310e81473f389ec067ebe7ceba6bea21148b2dbe962c",
        "84977216cbb4012c66b75d0001034070a056ee881cbb9774fb802c3991bd4348",
        "0b90f78d7e7e13824f170128a6fc3a803f038ca6f42fd8c26a9d1df8ac7ac9ef",
        "0be22b250e60d6bf337c895d6ce3d029d411b612bf6d058d418c103320924b56",
    ),
    "exp_blowup": (
        "8ea5966bbedb37b0a4d0906a81fa903c430d2d5bac66c6c442bd11a2e8fd0239",
        "826174467e77561705710bc9edd50b8400873d1393ad236fc7cbe3a7893df16b",
        None,
        None,
    ),
    "three_tiers": (
        "14b950db92957b168036f722bfd2002eec80263bb531154316e85209a3d4939a",
        "958dcc4fdcd2f837db8037f8e6d901f96dbc0aee0a23b93befd2d6107007e839",
        "e1e44c5a7eeb74446b40c8da78117cfa9bc517c11a123d732dc2e2e844853abd",
        "9f0947457d3fb172042b8b1b307f5d586710e5407645e00a2e4d8c838a4d177f",
    ),
    "three_tiers_low": (
        "27cc7c6093e954a09b4aaa968c8e984a6a858206a3717212a1163b087e062a09",
        "c7b628044cdcbdf08f2d50136dbaaeccb8047a6392a7da6c9d423a1de4358f3c",
        None,
        None,
    ),
    "oracle_search": (
        "f2108eb7c6a57ee958ce100bcf887613a9c9a8495bbb5aab43d5dbedb05ab8a5",
        "811fbeae9c77853f066de54f463eda57da35b2eb5a63dd2b0c1178e94896da65",
        "beeeb0a4bba008fff69fddc28ec19b277b02fd8747bf82c3d6c679e85fc49c62",
        "586b025da071ce162a54d1b58169c84df4fc499bcd8be31f3a8938550a55d639",
    ),
    "oracle_search_swapped": (
        "0a3da8c535f995fab98426abde945f08eea78832ca22bbbb8ad54ee5c7aeeee9",
        "ded15b267fa210a6e2707053f0ef75999c2d2d87d81e006aa2510aa15a38afa2",
        None,
        None,
    ),
    "oracle_increasing": (
        "654f259045db02e322707042e669d64fdbb7d6b71313cc346e38ee2d6455f268",
        "4edb61e9eecf2d0fb51982fb7dea5bd267487485bbc65693883f65e45bb8e506",
        None,
        None,
    ),
    "oracle_scan_tally": (
        "16653f6f2e1e32a63e9564914771f7de195e37425a0eafa6b3a236dd916bd344",
        "b20eb847017169d615945fba81979be69d4a429476364066c8243568be89a646",
        "b4f18673d5de12c6ee40faaf1b4cc5caf9902c457d3ab12fb06ed966b3a5ffcb",
        "636687fd8625c9161fbf0e025eb8f5cff739e9516de31955c090b6afef8ed250",
    ),
    "iterate": (
        "e86b79d785c1e9db5da904a9450b10afbeb7fa07ecd2ea200869386dcf653bf2",
        "8e37d596eb4849628e16e46942a1034ca1dfca727d5a2ffb52e4c9e7ede3f620",
        "49d9660d60f13517da55948754f9954ed752f2a095220dbd7f479bbcf08c191b",
        "be4d9e0d7e549c32823a2d09c5c82df10a8d4c2882ef870dfeebcbb58015d2be",
    ),
    "shared_bound": (
        "f4c9b92a6b838cd12996162fe4b241c1bdad9a8ff63bfb65dbb6e406fd3640ed",
        "8685b38f89d059a49484e380398a88520f84702c705f4262a7ba6ece983273ef",
        "787f4b1b92ed295ae7251dad90fa6c3925b4bc863e14c871b108bd0ba4c47caf",
        "7f4069e784b8d4e363fb0bde5f45da4ef4381f7597d9e59f6f65e37ba2e16d26",
    ),
    "nested_copy": (
        "467b4257181f292855db8667a639101dda9808630be333c25d7505153b7e3431",
        "0bbe836e4fa3912082b27a4cd4190944e806e94bd92666c42c6d63e48a5ddf7c",
        "ac4852d47baab8fe6f761f67a6e6b0a099617e483373452b361d0cc5a0ef9da2",
        "0f141bde4e9d1103694002cc3825f2d89609756dbe46b068c43ce2737935204d",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(entry) -> tuple:
    p = entry.program()
    cnf = [_sha(to_dimacs(encode(p, t_max=entry.t_max, outer_zero=sealed)))
           for sealed in (True, False)]
    result = infer(p, t_max=entry.t_max)
    if result is None:
        return (*cnf, None, None)
    forged = {x: (t + 1) % 3 for x, t in result.gamma.items()}
    reports = [audit_derivation(result.derivation, gamma).to_json()
               for gamma in (result.gamma, forged)]
    return (*cnf, _sha(json.dumps(result.derivation.to_json())),
            _sha(json.dumps(reports)))


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
def test_exports_match_their_golden_digests(entry):
    assert digests(entry) == GOLDEN[entry.name]


def test_every_corpus_entry_has_golden_digests():
    assert sorted(GOLDEN) == sorted(entry.name for entry in load_corpus())
