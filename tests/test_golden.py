"""Golden pins: exact decodes, negatives and evaluation reports on fixed
tiny splits.

The other tests check that reruns agree with each other; these check
that the strings themselves stay the same from one version to the next.
The model is untrained with its parameters scaled up, so that decodes
vary and replacement deltas clear the threshold. Its vocabulary covers
only the first four examples, so the last two carry out-of-vocabulary
answer tokens, which token replacement must keep in their surface form.
The reports are pinned by the sha256 of their canonical JSON plus a few
of their fields.
"""

import hashlib
import json
import warnings

import pytest

from inferbench.analysis import compare_metric_scores, stratified_compare
from inferbench.backend import ToyBackend, derive_seed
from inferbench.negatives import replace_sets, train_mcq_scorer
from inferbench.jsonio import canonical_dumps
from inferbench.metrics import score_corpus
from inferbench.objective import LossConfig, build_vocabulary, encode, forward
from inferbench.synth import build_judgments, build_split

from reference_model import generate, generate_nonoptimal

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
    inputs = encode(split, vocab=model.vocab).inputs
    greedy = [" ".join(generate(model, ids, 8)) for ids in inputs]
    top_k = [
        " ".join(generate(model, ids, 8, k=5, seed=seed))
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
        # the recipe scorer's 5 per-sample steps at lr 20, so that the
        # deltas clear the threshold
        examples = split[:4]
        enc = encode(examples, [ex.counterfactuals for ex in examples])
        scorer = ToyBackend(enc.vocab, d=8, seed=derive_seed(11, "mcq_scorer"))
        config = LossConfig(tau_s=0.5, lambda_b=0.0, lambda_s=1.0)
        for _ in range(5):
            scorer.E -= 20.0 * forward(scorer, enc, config, nll=False).grads.E
        threshold = 0.3
    cfg = dict(threshold=threshold, k=5, m=2, seed=11, mode=mode)
    sets = replace_sets(scorer, split, encode(split, vocab=scorer.vocab), **cfg)
    got = [ns.negatives for ns in sets]
    assert got == REPLACE[mode]


# the recipe scorer's deltas clear no 0.75 threshold: each slot falls back
# to the position of the largest delta, so the pin follows its weights
RECIPE_MCQ = [
    (["the movie was announced earlier about", "the movie was announced earlier friday"], 5),
    (["they about plan for the guitar together .", "they should plan for the guitar together ."],
     1),
    (["speaker will talk more about the library .", "about will talk more about the library ."],
     0),
    (["someone told the speaker speaker the soup .", "someone told the speaker b the soup ."], 4),
    (["the b wants to share news about the train .",
      "the get wants to share news about the train ."], 1),
    (["the listener feels curious about the garden b",
      "the listener feels curious about the garden talk"], 7),
]


def test_recipe_mcq_scorer_replacements(split):
    examples = split[:4]
    scorer = train_mcq_scorer(encode(examples, [ex.counterfactuals for ex in examples]),
                              d=8, seed=11)
    sets = replace_sets(scorer, split, encode(split, vocab=scorer.vocab),
                        threshold=0.75, k=5, m=2, seed=11, mode="mcq")
    assert [ns.negatives for ns in sets] == [negatives for negatives, _ in RECIPE_MCQ]
    assert [[(p["replaced_positions"], p["fallback"]) for p in ns.provenance] for ns in sets] == [
        [([position], True)] * 2 for _, position in RECIPE_MCQ
    ]


# --- evaluation reports -------------------------------------------------------
# build_split("golden", 8, 7) stratified by question type: two strata of
# two items and four of one, where CIDEr is skipped and no t-test runs.

@pytest.fixture(scope="module")
def report_split():
    split = build_split("golden", 8, 7)
    ids = [ex.id for ex in split]
    labels = {ex.id: ex.question.value for ex in split}
    pairs_a = [(ex.counterfactuals[0], ex.answer) for ex in split]
    # B is the gold answer, A's hypothesis or a truncated answer in turn,
    # so that the comparison has wins, ties and losses
    pairs_b = [
        ([ex.answer, ex.counterfactuals[0], " ".join(ex.answer.split()[:4])][i % 3], ex.answer)
        for i, ex in enumerate(split)
    ]
    return ids, labels, pairs_a, pairs_b


def _canonical(report) -> tuple[str, dict]:
    text = canonical_dumps(report.to_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), json.loads(text)


def test_stratified_score_report(report_split):
    ids, labels, pairs_a, _ = report_split
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_corpus(pairs_a, ids=ids, strata_labels=labels, with_per_example=True)
    digest, payload = _canonical(report)
    assert digest == "6c26e500fb5161758cd49de854863147ac6ecd052184a00f6bda5bdab4b4a29d"
    assert payload["cider"] == 5.38319613583
    assert payload["bleu"]["bleu_2"] == 0.782881361259
    strata = payload["strata"]
    assert {k: v["n_examples"] for k, v in strata.items()} == {
        "cause": 2, "motivation": 1, "prerequisite": 1, "reaction": 1,
        "subsequent_event": 2, "subsequent_event_clipped": 1,
    }
    assert strata["motivation"]["cider"] is None
    assert strata["motivation"]["per_example"]["golden-0004"]["cider"] is None
    assert strata["cause"]["cider"] == 0.0
    assert payload["per_example"]["golden-0000"]["cider"] == 3.65234765235


def test_metric_comparison_report(report_split):
    ids, labels, pairs_a, pairs_b = report_split
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = score_corpus(pairs_a, ids=ids, with_per_example=True).per_example
        b = score_corpus(pairs_b, ids=ids, with_per_example=True).per_example
    report = compare_metric_scores(
        {i: a[i]["meteor"] for i in ids}, {i: b[i]["meteor"] for i in ids}, labels
    )
    digest, payload = _canonical(report)
    assert digest == "af0761d15adaee4f08a83d3074818515bd53d47a54173599de2a15fcbf41a222"
    overall = payload["overall"]
    assert (overall["win"], overall["tie"], overall["lose"]) == (25.0, 37.5, 37.5)
    assert overall["t_statistic"] == 0.278384057157
    assert payload["strata"]["cause"]["degenerate"] is True


def test_judgment_comparison_report(report_split):
    ids, labels, _, _ = report_split
    report = stratified_compare(build_judgments(ids), labels)
    digest, payload = _canonical(report)
    assert digest == "a73af5f2008f4044d424eac2328052c9d66eb1c6a53aa0a9455d1a5691f2ce11"
    assert payload["overall"]["kappa"] == 0.626943005181
    assert payload["strata"]["subsequent_event"]["kappa"] == -0.2
    assert payload["strata"]["motivation"]["p_value"] is None
