"""Golden digests of the exports, so a rewrite of the typing path cannot
change a byte of them unnoticed.

For every corpus entry, at the entry's tier cap: the SHA-256 of the DIMACS
text of `encode` in the sealed and in the positive mode, and, when the
entry types, of the JSON of the inferred derivation and of two audit
reports of it, one under the inferred environment and one under an
environment with every tier moved up by one, modulo 3, which makes the
audit report violations.  An entry that does not type has None for the
last two.

`PINNED_GOLDEN` pins the DIMACS text of `encode` with its knobs pinned,
in the sealed and in the positive mode: at the inferred environment and
triple when the entry types, else with every variable at tier 1 and the
triple (1, 1, 0).  The triple's outer component picks the mode: 0 for the
sealed one, the inferred outer channel or 1, whichever is higher, for the
positive one.  The pins' clauses come last, in a fixed order, so these
digests pin that order too.

`ANALYZE_GOLDEN` pins the JSON of the runtime reports the same way: the
sweep report at scales 1 to 12, with every variable scaled and a table
oracle drawn from seed 0 for a program that calls one, and, when the entry
types, the non-interference reports at every level of the inferred
environment and of the forged one, 20 trials each from seed 0.  The forged
environment makes some trials fail, so the failures are pinned too.
"""

import hashlib
import json
import random

import pytest

from tierlang.analysis import (
    noninterference_test,
    random_table_oracle,
    sweep,
    unary_inputs,
)
from tierlang.corpus import load_corpus
from tierlang.inference import encode, infer, to_dimacs
from tierlang.syntax import has_oracle_call, variables_of
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

ANALYZE_GOLDEN = {
    "skip": (
        "2beea202cba9a7a8dee8f6b904f915f5a34425b5831f15636d19c732f3362b15",
        "5187b73479c6380455eb99ed0bdff0b511eb08958103bf2839e7b7a125613780",
    ),
    "add": (
        "af9ff5e8aa55baaa6849473703e06b1f3f6ec3f2c4c10282ac580a4be50c4544",
        "4141d2ac2dca7b3d6b0c952639f262414a9f9e24f5cb5c543fe8bd7104092615",
    ),
    "exp_blowup": (
        "3bf34d704e32190882cbf55fbf5403997b0daa82d02a57f9ac1a6c2f2bad3700",
        None,
    ),
    "three_tiers": (
        "5846e8f17ff8b731b67547e2595abfd09fbb0b0eaf5fa87c4b5d3ecd0fd586b7",
        "67a94edadfb524ae7d8772434d248d1420f7931261a527ba7a4e1ea9d42da083",
    ),
    "three_tiers_low": (
        "5846e8f17ff8b731b67547e2595abfd09fbb0b0eaf5fa87c4b5d3ecd0fd586b7",
        None,
    ),
    "oracle_search": (
        "6efbfd304d9b8d183eb2dac127f134ca1a9015a605ef636f901bdf7e4130f85d",
        "4141d2ac2dca7b3d6b0c952639f262414a9f9e24f5cb5c543fe8bd7104092615",
    ),
    "oracle_search_swapped": (
        "6efbfd304d9b8d183eb2dac127f134ca1a9015a605ef636f901bdf7e4130f85d",
        None,
    ),
    "oracle_increasing": (
        "75fbbf9d4ed4377ef14db1303582ac7c9fe1398e7422ce06f2920dedce26f961",
        None,
    ),
    "oracle_scan_tally": (
        "0fee1eba6c2ce78e13413059c49fb569abe6f74613c2845f6b7ce304f804731a",
        "d9c6993368c5f636cbc8549eddd16c4a03f4daefab32e8fd8dd632265e191ab2",
    ),
    "iterate": (
        "08ebdefa36962f6acaad5f456a7d3e701eece90fee8ed5a9bff8515ee6a2d234",
        "4141d2ac2dca7b3d6b0c952639f262414a9f9e24f5cb5c543fe8bd7104092615",
    ),
    "shared_bound": (
        "5ffd19f59ee171295b4fdec8ba12e328148afbe7c16c46a03e8fce471f9bc4ab",
        "239bda8c5ee79728c0e04a4b4b62e0e58be6d50fb86f748ebb0b5ae546a8ca15",
    ),
    "nested_copy": (
        "c0096c72c5381f02b7074f763b2c797d457c1134e7d4cf2f913a3ee05066af7f",
        "4141d2ac2dca7b3d6b0c952639f262414a9f9e24f5cb5c543fe8bd7104092615",
    ),
}

PINNED_GOLDEN = {
    "skip": (
        "45d417ce92cfdee00e554da5e20812ef17c1c57e1adf35d86d2418f5ce16aa18",
        "b378d2dfb8657918d1aa8c4e0acb19c10f1c9a09a2340fade39bc6985e293f79",
    ),
    "add": (
        "fbf56d46ca6708d1ca1fa18fee1197f0e61ba4b38af6fc8961acbe683da337d0",
        "7235a19f0a6dc3529f5106fb90467152926ca65fc0f87e7dda7ff1087c504e68",
    ),
    "exp_blowup": (
        "8584377f56d97ed00d32c22179f339f137d7afdff8ef5f626f6f8dbdd76c6329",
        "3d11c7b8cba949b28f966d4cc40ea89405292fc0ba4a6096276b5dc3dfad95f6",
    ),
    "three_tiers": (
        "f2789be37127cf1a0607e1c2c60327338706977b4318e9f64ca55f1abc740c79",
        "45d0b90313d65489608f12ea0601dc22a02134a1fe341cb19365e1ea8645e28c",
    ),
    "three_tiers_low": (
        "b00c61e5f6c4db30cc78aa714c78a992181d3f704eb2903a86939a4890dab023",
        "3d7eddade33fc296a1db290d3ed7b5502d52bc75f4b05cce1b893a1fbf246348",
    ),
    "oracle_search": (
        "eceb6be9b9018e4a015e5d4cfcbd0fd4af7e282fac3b5757ba1a1f80eedb370e",
        "9c59ccf8c3a05cf0d225f4f80f623579f1c4b67fb2f7e15ee74f3f69a8172e11",
    ),
    "oracle_search_swapped": (
        "ce113b7737362127aa15a9072a3e6a963ee63cc659812085f29870befdab2f71",
        "1dd2507c3376f0d0897427c820a5f21cbf506fe70e0abc397ee9f7446c050ed2",
    ),
    "oracle_increasing": (
        "b9d6da82e5d56a00eb5a66dde1884c6d0a8ab50048355f89b8d5647158079c67",
        "a74001f3c0ecdd8d81b8b159424e7a1752bb80d667395feec30802c32dc5017c",
    ),
    "oracle_scan_tally": (
        "61c442f886a4ac6457dd66bb6fa73365bdfe98998fbeef8eb6d2afcb9793dd08",
        "fdf94f0d13840c6c49ed8e82e0491fa950dae37779117526029990744dd0a086",
    ),
    "iterate": (
        "31b7bf2125f21a50262c7e57a956dd81cf7013f450aadeacac4b6ab8e2d364ae",
        "e1fd7d8022352ddc27dab4c39cbfa975e0cd5c77452c884cf5f0b73dbacd789f",
    ),
    "shared_bound": (
        "adafd7c20329903fedece5f071896406f24e3e86be6957ed062ad99a393c0e43",
        "9cbf8bc58c9502c08856a4c520c2019165c6bbe13fe2f4e7e2a9f9d6d106efd5",
    ),
    "nested_copy": (
        "c592c97583d17c90ff1aea1f84294a2a0c1dbe82adba15875dadeebf63fa5ff9",
        "bcb697d2b37cd991c1eda4c27e41eccb66c37fcd6ebdf5dd31a824a5f4f604cc",
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


def pinned_digests(entry) -> tuple:
    p = entry.program()
    result = infer(p, t_max=entry.t_max)
    if result is None:
        gamma, (tier, inner, outer) = dict.fromkeys(variables_of(p), 1), (1, 1, 0)
    else:
        gamma, (tier, inner, outer) = result.gamma, result.triple
    return tuple(
        _sha(to_dimacs(encode(p, t_max=entry.t_max, gamma=gamma,
                              triple=(tier, inner, mode_outer))))
        for mode_outer in (0, max(outer, 1)))


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
def test_pinned_encodes_match_their_golden_digests(entry):
    assert pinned_digests(entry) == PINNED_GOLDEN[entry.name]


def test_every_corpus_entry_has_pinned_digests():
    assert sorted(PINNED_GOLDEN) == sorted(entry.name for entry in load_corpus())


def analyze_digests(entry) -> tuple:
    p = entry.program()
    oracle = random_table_oracle(random.Random(0)) if has_oracle_call(p) else None
    report = sweep(p, unary_inputs(*variables_of(p)), oracle, range(1, 13))
    result = infer(p, t_max=entry.t_max)
    if result is None:
        return _sha(json.dumps(report.to_json())), None
    forged = {x: (t + 1) % 3 for x, t in result.gamma.items()}
    reports = [noninterference_test(p, gamma, level, trials=20, seed=0).to_json()
               for gamma in (result.gamma, forged)
               for level in sorted(set(gamma.values()))]
    return _sha(json.dumps(report.to_json())), _sha(json.dumps(reports))


@pytest.mark.parametrize("entry", load_corpus(), ids=lambda entry: entry.name)
def test_analyze_reports_match_their_golden_digests(entry):
    assert analyze_digests(entry) == ANALYZE_GOLDEN[entry.name]


def test_every_corpus_entry_has_analyze_digests():
    assert sorted(ANALYZE_GOLDEN) == sorted(entry.name for entry in load_corpus())
