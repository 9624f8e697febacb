import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferbench import metrics
from inferbench.metrics import (
    MetricReport,
    _align,
    _chunk_lower_bound,
    bleu,
    cider,
    meteor_lite,
    pair_scores,
    rouge_l,
    score_corpus,
    tokenize,
)
from inferbench.porter import stem

from bruteforce import bf_alignment, bf_bleu, bf_cider, bf_meteor, bf_rouge_l

WORDS = [
    "the", "cat", "dog", "sat", "ran", "on", "mat", "rug", "fast", "slow",
    "big", "red",
]


def random_sentence(rng, min_len=3, max_len=7):
    n = int(rng.integers(min_len, max_len + 1))
    return [WORDS[int(i)] for i in rng.integers(0, len(WORDS), size=n)]


def random_pairs(seed, n_pairs=20):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        ref = random_sentence(rng)
        if rng.random() < 0.5:
            hyp = list(ref)
            for _ in range(int(rng.integers(1, 3))):
                hyp[int(rng.integers(len(hyp)))] = WORDS[int(rng.integers(len(WORDS)))]
        else:
            hyp = random_sentence(rng)
        pairs.append((hyp, ref))
    return pairs


# --- tokenizer ---------------------------------------------------------------

def test_tokenize_detaches_punctuation():
    assert tokenize("The cat's mat.") == ["the", "cat", "'s", "mat", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_idempotent_on_joined_output():
    rng = np.random.default_rng(0)
    texts = ["Hello, world!", "don't stop-me now...", "A B;C 3x"]
    for text in texts:
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
    for _ in range(50):
        tokens = random_sentence(rng)
        assert tokenize(" ".join(tokens)) == tokens


def test_tokenize_case_and_whitespace_invariance():
    assert tokenize("  The CAT sat.  ") == tokenize("the cat sat.")


# --- BLEU --------------------------------------------------------------------

def test_bleu_hand_anchor():
    hyp = tokenize("the cat sat on the mat")
    ref = tokenize("the cat is on the mat")
    scores = bleu([hyp], [ref], max_n=2)
    assert scores[1] == pytest.approx(5 / 6, abs=1e-12)
    assert scores[2] == pytest.approx(math.sqrt((5 / 6) * (3 / 5)), abs=1e-12)
    assert scores[2] == pytest.approx(0.70711, abs=5e-6)


def test_bleu_identity_corpus():
    refs = [tokenize("a small dog ran fast today"), tokenize("the red cat sat")]
    scores = bleu(refs, refs)
    for n in range(1, 5):
        assert scores[n] == pytest.approx(1.0, abs=1e-12)


def test_bleu_disjoint_vocabulary():
    scores = bleu([["aa", "bb"]], [["cc", "dd"]])
    assert scores[1] == 0.0


def test_bleu_brevity_penalty():
    hyp = [["the", "cat"]]
    ref = [["the", "cat", "sat", "on"]]
    scores = bleu(hyp, ref, max_n=1)
    assert scores[1] == pytest.approx(math.exp(1 - 4 / 2) * 1.0, abs=1e-12)


def test_bleu_requires_aligned_lists():
    with pytest.raises(ValueError):
        bleu([["a"]], [])


def test_bleu_matches_bruteforce():
    pairs = random_pairs(seed=101)
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    ours = bleu(hyps, refs)
    oracle = bf_bleu(hyps, refs)
    for n in range(1, 5):
        assert ours[n] == pytest.approx(oracle[n], abs=1e-9)


def test_bleu_permutation_invariant():
    pairs = random_pairs(seed=5, n_pairs=8)
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    base = bleu(hyps, refs)
    perm = np.random.default_rng(3).permutation(len(pairs))
    shuffled = bleu([hyps[i] for i in perm], [refs[i] for i in perm])
    for n in range(1, 5):
        assert base[n] == pytest.approx(shuffled[n], abs=1e-12)


# --- ROUGE-L -----------------------------------------------------------------

def test_rouge_hand_anchor():
    hyp = tokenize("the cat sat")
    ref = tokenize("the cat sat on the mat")
    # LCS=3, P=1, R=0.5 -> (1+1.44)*0.5 / (0.5+1.44) = 1.22/1.94
    assert rouge_l(hyp, ref) == pytest.approx(1.22 / 1.94, abs=1e-12)


def test_rouge_identity_and_disjoint():
    s = tokenize("a fine day")
    assert rouge_l(s, s) == pytest.approx(1.0, abs=1e-12)
    assert rouge_l(["aa"], ["bb"]) == 0.0


def test_rouge_empty_scores_zero_with_warning():
    with pytest.warns(UserWarning):
        assert rouge_l([], ["a"]) == 0.0


def test_rouge_matches_bruteforce():
    for hyp, ref in random_pairs(seed=77):
        assert rouge_l(hyp, ref) == pytest.approx(bf_rouge_l(hyp, ref), abs=1e-9)


# --- METEOR-lite -------------------------------------------------------------

def test_meteor_identity_anchor():
    s = ["a", "b", "c", "d"]
    assert meteor_lite(s, s) == pytest.approx(1 - 0.5 * (1 / 4) ** 3, abs=1e-12)
    assert meteor_lite(s, s) == 0.9921875


def test_meteor_disjoint():
    assert meteor_lite(["aa", "bb"], ["cc", "dd"]) == 0.0


def test_meteor_stem_stage_matches_inflection():
    hyp = tokenize("he runs fast")
    ref = tokenize("he running fast")
    # all three unigrams align (runs/running via stems), one chunk
    assert meteor_lite(hyp, ref) == pytest.approx(1 - 0.5 * (1 / 3) ** 3, abs=1e-12)


def test_meteor_prefers_fewer_chunks():
    # both alignments have m=2; (b,a) contiguous beats the crossing one
    hyp = ["a", "b", "a"]
    ref = ["b", "a"]
    p, r = 2 / 3, 2 / 2
    f_mean = p * r / (0.9 * p + 0.1 * r)
    assert meteor_lite(hyp, ref) == pytest.approx(f_mean * (1 - 0.5 * (1 / 2) ** 3), abs=1e-12)


def test_meteor_matches_bruteforce():
    for hyp, ref in random_pairs(seed=303):
        assert meteor_lite(hyp, ref) == pytest.approx(bf_meteor(hyp, ref), abs=1e-9)


def test_meteor_alignment_matches_exhaustive_on_duplicates():
    # duplicate-heavy and stem-class-heavy inputs stress the min-chunk search
    rng = np.random.default_rng(99)
    for vocab in (["a", "b", "c"], ["run", "runs", "running", "cat", "cats", "dog"]):
        for _ in range(60):
            hyp = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=rng.integers(1, 8))]
            ref = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=rng.integers(1, 8))]
            assert meteor_lite(hyp, ref) == pytest.approx(bf_meteor(hyp, ref), abs=1e-12)


def _stems(tokens):
    return [stem(t) for t in tokens]


# one word repeated against a reference that holds it 6 times, never adjacent
THE_X16 = (["the"] * 16, "the man saw the dog near the river while the sun lit the hills by the sea".split())


def test_meteor_repeated_token_is_certified_within_the_budget(monkeypatch):
    hyp, ref = THE_X16
    assert len(ref) == 17
    assert _align(_stems(hyp), _stems(ref)) == (6, 6, True)
    # the unpruned search spent all 500 000 nodes here; the pruned one
    # certifies the minimum within a fiftieth of that
    monkeypatch.setattr(metrics, "_ALIGN_NODE_BUDGET", 10_000)
    assert _align(_stems(hyp), _stems(ref)) == (6, 6, True)
    monkeypatch.undo()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        meteor_lite(hyp, ref)


def test_meteor_warns_when_the_search_budget_runs_out(monkeypatch):
    # greedy aligns a->1, b->0 (2 chunks); proving 1 chunk needs more than 2 nodes
    hyp, ref = ["a", "b", "a"], ["b", "a"]
    monkeypatch.setattr(metrics, "_ALIGN_NODE_BUDGET", 2)
    assert _align(hyp, ref) == (2, 2, False)
    with pytest.warns(UserWarning, match="not certified minimal"):
        meteor_lite(hyp, ref)
    monkeypatch.undo()
    assert _align(hyp, ref) == (2, 1, True)


# (length, generator seed, matches, chunks of the unpruned search), the
# latter after that search spent its budget on the pair
BUDGET_PAIRS = [(22, 3, 16, 12), (26, 1, 22, 18)]


@pytest.mark.parametrize("length, seed, matches, old_chunks", BUDGET_PAIRS)
def test_meteor_search_never_does_worse_than_the_unpruned_search(length, seed, matches, old_chunks):
    rng = np.random.default_rng(seed)
    alphabet = ["a", "b", "c", "d", "e"]
    hyp = [alphabet[i] for i in rng.integers(0, 5, size=length)]
    ref = [alphabet[i] for i in rng.integers(0, 5, size=length)]
    m, chunks, _ = _align(hyp, ref)
    assert m == matches
    assert chunks <= old_chunks


@st.composite
def repeated_token_pairs(draw):
    """A (hypothesis, reference) pair of 1-7 tokens each over an alphabet
    of 3-5 words, two of which share a stem."""
    alphabet = ["cat", "cats", "the", "sat", "mat"][: draw(st.integers(3, 5))]
    tokens = st.lists(st.sampled_from(alphabet), min_size=1, max_size=7)
    return draw(tokens), draw(tokens)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(repeated_token_pairs())
def test_meteor_matches_bruteforce_on_repeated_tokens(pair):
    hyp, ref = pair
    assert math.isclose(meteor_lite(hyp, ref), bf_meteor(hyp, ref), rel_tol=0, abs_tol=1e-9)


def test_meteor_repeated_token_is_certified_by_the_bound(monkeypatch):
    hyp, ref = map(_stems, THE_X16)
    # no hypothesis bigram is a reference bigram, so each of the 6 matches opens a chunk
    assert _chunk_lower_bound(hyp, ref, 6) == 6
    monkeypatch.setattr(metrics, "_ALIGN_NODE_BUDGET", 2)
    assert _align(hyp, ref) == (6, 6, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        meteor_lite(*THE_X16)


def test_chunk_lower_bound_counts_shared_bigrams():
    # the budget pair above: (b, a) is the one shared bigram, greedy opens 2 chunks
    assert _chunk_lower_bound(["a", "b", "a"], ["b", "a"], 2) == 1
    # one chunk at least, however many bigrams are shared
    assert _chunk_lower_bound(["a", "a", "a"], ["a", "a", "a"], 3) == 1
    assert _chunk_lower_bound(["a", "b"], ["b", "a"], 2) == 2


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(repeated_token_pairs())
def test_chunk_lower_bound_is_at_most_the_minimal_chunk_count(pair):
    hyp, ref = pair
    m, chunks = bf_alignment(hyp, ref)
    if m:
        assert 1 <= _chunk_lower_bound(_stems(hyp), _stems(ref), m) <= chunks


@st.composite
def longer_repeated_token_pairs(draw):
    """A (hypothesis, reference) pair of 1-14 tokens each over 2-4 words,
    so that greedy often misses the bound and the search stops at it."""
    alphabet = ["cat", "cats", "the", "sat"][: draw(st.integers(2, 4))]
    tokens = st.lists(st.sampled_from(alphabet), min_size=1, max_size=14)
    return draw(tokens), draw(tokens)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(longer_repeated_token_pairs())
def test_align_with_the_certificate_equals_the_search_alone(pair):
    hyp, ref = map(_stems, pair)
    # a bound of 0 is never met: the search runs to its end, as with no bound
    with mock.patch.object(metrics, "_chunk_lower_bound", return_value=0):
        searched = _align(hyp, ref)
    assert _align(hyp, ref) == searched


# --- CIDEr -------------------------------------------------------------------

def test_cider_identity_unique_ngrams():
    docs = [
        tokenize("alpha beta gamma delta"),
        tokenize("epsilon zeta eta theta"),
    ]
    corpus_score, per_pair = cider(docs, docs)
    assert corpus_score == pytest.approx(10.0, abs=1e-12)
    assert per_pair == [pytest.approx(10.0, abs=1e-12)] * 2


def test_cider_disjoint_pairs():
    hyps = [tokenize("one two three four")]
    refs = [tokenize("five six seven eight")]
    idf = refs + [tokenize("nine ten eleven twelve")]
    _, per_pair = cider(hyps, refs, idf_corpus=idf)
    assert per_pair[0] == 0.0


def test_cider_single_document_corpus_errors():
    with pytest.raises(ValueError, match="distinct reference"):
        cider([["a"]], [["a"]])


def test_cider_matches_bruteforce():
    pairs = random_pairs(seed=909)
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    ours_corpus, ours_pairs = cider(hyps, refs)
    oracle_corpus, oracle_pairs = bf_cider(hyps, refs)
    assert ours_corpus == pytest.approx(oracle_corpus, abs=1e-9)
    for a, b in zip(ours_pairs, oracle_pairs):
        assert a == pytest.approx(b, abs=1e-9)


def test_cider_permutation_invariant():
    pairs = random_pairs(seed=11, n_pairs=6)
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    base, _ = cider(hyps, refs)
    perm = [3, 1, 5, 0, 4, 2]
    shuffled, _ = cider([hyps[i] for i in perm], [refs[i] for i in perm])
    assert base == pytest.approx(shuffled, abs=1e-12)


# --- score_corpus ------------------------------------------------------------

def _text_pairs(pairs):
    return [(" ".join(h), " ".join(r)) for h, r in pairs]


def test_score_corpus_single_stratum_equals_unstratified():
    pairs = _text_pairs(random_pairs(seed=21, n_pairs=6))
    ids = [f"id{i}" for i in range(len(pairs))]
    plain = score_corpus(pairs, ids=ids)
    strat = score_corpus(pairs, ids=ids, strata_labels={i: "only" for i in ids})
    sub = strat.strata["only"]
    assert sub.bleu == plain.bleu
    assert sub.meteor == plain.meteor
    assert sub.rouge_l == plain.rouge_l
    assert sub.cider == plain.cider


def test_score_corpus_strata_equal_subset_runs():
    pairs = _text_pairs(random_pairs(seed=22, n_pairs=6))
    ids = [f"id{i}" for i in range(6)]
    labels = {ids[i]: ("easy" if i < 3 else "hard") for i in range(6)}
    report = score_corpus(pairs, ids=ids, strata_labels=labels)
    assert set(report.strata) == {"easy", "hard"}
    for label, idxs in [("easy", range(3)), ("hard", range(3, 6))]:
        subset = score_corpus([pairs[i] for i in idxs], ids=[ids[i] for i in idxs])
        sub = report.strata[label]
        assert sub.n_examples == 3
        assert sub.bleu == subset.bleu
        assert sub.meteor == pytest.approx(subset.meteor, abs=1e-12)
        assert sub.cider == pytest.approx(subset.cider, abs=1e-12)


def test_score_corpus_three_difficulty_strata():
    pairs = _text_pairs(random_pairs(seed=23, n_pairs=6))
    ids = [f"id{i}" for i in range(6)]
    labels = {ids[i]: ["sufficient", "likely", "conceivable"][i % 3] for i in range(6)}
    report = score_corpus(pairs, ids=ids, strata_labels=labels)
    assert set(report.strata) == {"sufficient", "likely", "conceivable"}
    assert all(s.n_examples == 2 for s in report.strata.values())


def test_score_corpus_unknown_id_errors():
    pairs = [("a b", "a b"), ("c d", "c d")]
    with pytest.raises(ValueError, match="unknown id"):
        score_corpus(pairs, ids=["x", "y"], strata_labels={"x": "a", "y": "a", "z": "a"})


def test_score_corpus_repeated_id_errors():
    pairs = [("a b", "a b"), ("c d", "a b"), ("e f", "e f")]
    with pytest.raises(ValueError, match="repeated id 'y'"):
        score_corpus(pairs, ids=["x", "y", "y"], with_per_example=True)


def test_score_corpus_raw_string_invariance():
    pairs = [("The Cat sat  ", "the cat sat"), ("A dog RAN", "a dog ran today")]
    a = score_corpus(pairs)
    b = score_corpus([(h.lower().strip(), r) for h, r in pairs])
    assert a.bleu == b.bleu
    assert a.meteor == b.meteor
    assert a.rouge_l == b.rouge_l


def test_score_corpus_tolerates_empty_hypotheses():
    # undertrained generators emit empty strings; scoring must not crash
    pairs = [("", "the cat sat"), ("a dog ran", "a dog ran away")]
    with pytest.warns(UserWarning):
        report = score_corpus(pairs, with_per_example=True)
    assert report.bleu[1] > 0.0
    assert report.per_example["0"]["rouge_l"] == 0.0


def test_score_corpus_stems_each_token_once(monkeypatch):
    # METEOR aligns the stems of the pair tables CIDEr reads
    calls = []
    monkeypatch.setattr(metrics, "stem", lambda t: calls.append(t) or stem(t))
    pairs = [(" ".join(h), " ".join(r)) for h, r in random_pairs(4, n_pairs=6)]
    report = score_corpus(pairs, with_per_example=True)
    assert len(calls) == sum(len(tokenize(h)) + len(tokenize(r)) for h, r in pairs)
    monkeypatch.undo()
    assert [row["meteor"] for row in report.per_example.values()] == [
        meteor_lite(tokenize(h), tokenize(r)) for h, r in pairs
    ]


def test_meteor_warnings_point_at_the_caller():
    with pytest.warns(UserWarning, match="empty sequence") as caught:
        meteor_lite([], ["a"])
    with pytest.warns(UserWarning, match="empty sequence") as from_report:
        score_corpus([("", "the cat sat"), ("a dog", "a dog")])
    assert caught[0].filename == __file__
    assert from_report[0].filename == metrics.__file__


def test_pair_scores_rejects_an_unknown_metric_and_an_empty_corpus():
    with pytest.raises(ValueError, match="unknown metric 'bleu_5'"):
        pair_scores([("a", "a")], "bleu_5")
    with pytest.raises(ValueError, match="empty corpus"):
        pair_scores([], "meteor")


def test_pair_scores_skip_cider_on_one_reference_document():
    with pytest.warns(UserWarning, match="cider skipped"):
        assert pair_scores([("a cat", "the cat"), ("cat", "the cat")], "cider") == [None, None]


def test_report_ranges():
    pairs = _text_pairs(random_pairs(seed=31))
    report = score_corpus(pairs, with_per_example=True)
    assert all(0.0 <= v <= 1.0 for v in report.bleu.values())
    assert 0.0 <= report.meteor <= 1.0
    assert 0.0 <= report.rouge_l <= 1.0
    assert 0.0 <= report.cider <= 10.0
    assert isinstance(report, MetricReport)
    for scores in report.per_example.values():
        assert 0.0 <= scores["rouge_l"] <= 1.0
