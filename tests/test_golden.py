"""Golden pins: exact decodes and negatives on a fixed tiny split.

The other tests check that reruns agree with each other; these check
that the strings themselves stay the same from one version to the next.
The model is untrained with its parameters scaled up, so that decodes
vary and replacement deltas clear the threshold. Its vocabulary covers
only the first four examples, so the last two carry out-of-vocabulary
answer tokens, which token replacement must keep in their surface form.
"""

import pytest

from inferbench.backend import GreedyDecode, TopKDecode, ToyBackend, derive_seed
from inferbench.negatives import (
    ReplaceConfig,
    generate_nonoptimal,
    token_replace,
    train_mcq_scorer,
)
from inferbench.objective import build_vocabulary, encode_inputs
from inferbench.synth import build_split

GREEDY = [
    "sure b about announced announced announced announced announced",
    "sure hear get get get doctor doctor will",
    "sure b about announced announced announced announced announced",
    "sure hear get get any will will will",
    "sure b about announced announced announced announced announced",
    "sure hear get get any or earlier guitar",
]
TOP_K = [
    "friday doctor following doctor following hear get sure",
    "hear hear the will utterance will following the",
    "sounds sure hear about , announced announced told",
    "sure , hear b told will will will",
    "hear guitar sure get will set set cause",
    "sounds told hear get we news coffee hear",
]
NON_OPTIMAL = {
    "golden-0000": (
        ["doctor following utterance sure was earlier b earlier",
         "friday doctor doctor get sure sure announced announced"],
        [6787702649243021548, 6950176373360951139],
    ),
    "golden-0005": (
        ["sure meeting b told utterance they they coffee",
         "sounds hear hear guitar hear guitar get utterance"],
        [1864875874103216092, 4051363060004731583],
    ),
}
REPLACE = {
    "zs": [
        ["was movie was will will .", "was movie was be will ."],
        ["following will following for ready ready will .", "be will be for , ready following ."],
        ["talk will talk be about following will .", "ready will talk talk about announced will ."],
        ["ready ready about following about be sure ready",
         "sure about ready following about sure doctor following"],
        ["be doctor be ready doctor . doctor . doctor ready",
         "coffee should ready be doctor coffee be . be coffee"],
        ["event listener feels curious be coffee garden event",
         "coffee listener feels curious soon event garden coffee"],
    ],
    "mcq": [
        ["the movie news announced earlier .", "the movie others announced earlier ."],
        ["others will talk coffee us guitar together .",
         "is will us coffee others guitar together ."],
        ["b what talk b about tell coffee .", "others what talk talk about tell others ."],
        ["someone told talk speaker about others what .",
         "someone told us speaker about was what ."],
        ["the us wants to share news about the train .",
         "the is wants to share news about the train ."],
        ["the us is is about the us .", "the b talk others about the is ."],
    ],
}


@pytest.fixture(scope="module")
def split():
    return build_split("golden", 6, 7)


@pytest.fixture(scope="module")
def model(split):
    be = ToyBackend(build_vocabulary(split[:4]), d=8, seed=5)
    be.E *= 20.0
    be.U *= 20.0
    return be


def test_greedy_and_top_k_decodes(split, model):
    inputs = encode_inputs(model.vocab, split)
    greedy = [" ".join(model.generate(ids, GreedyDecode(max_len=8))) for ids in inputs]
    top_k = [
        " ".join(model.generate(ids, TopKDecode(k=5, seed=seed, max_len=8)))
        for seed, ids in zip([derive_seed(3, ex.id, "decode") for ex in split], inputs)
    ]
    assert greedy == GREEDY
    assert top_k == TOP_K


def test_nonoptimal_negatives_and_provenance(split, model):
    for ex in (split[0], split[5]):
        ns = generate_nonoptimal(model, ex, m=2, k=5, attempts=3, seed=11, max_len=8)
        negatives, seeds = NON_OPTIMAL[ex.id]
        assert ns.negatives == negatives
        assert ns.provenance == [
            {"slot": slot, "dropped": False, "attempts": 1, "sample_seed": seed, "k": 5}
            for slot, seed in enumerate(seeds)
        ]


@pytest.mark.parametrize("mode", ["zs", "mcq"])
def test_token_replace_negatives(split, model, mode):
    if mode == "zs":
        scorer, threshold = model, 0.75
    else:
        scorer, threshold = train_mcq_scorer(split[:4], d=8, seed=11, lr=20.0), 0.3
    cfg = ReplaceConfig(threshold=threshold, k=5, mode=mode, seed=11)
    assert [token_replace(scorer, ex, cfg, m=2).negatives for ex in split] == REPLACE[mode]
