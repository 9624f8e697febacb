import re
import tracemalloc

import numpy as np
import pytest

from inferbench.backend import (
    BOS_ID, EOS_ID, MASKED_WINDOWS, SPECIALS, ToyBackend, Vocabulary, derive_seed, pool,
)
from inferbench.corpus import load_dataset, normalize_answer
from inferbench.metrics import tokenize
from inferbench.negatives import (
    NegativeSet,
    nonoptimal_sets,
    pick_counterfactuals,
    replace_sets,
    train_mcq_scorer,
)
from inferbench.objective import LossConfig, encode, forward
from inferbench.trainer import build_vocabulary

from bruteforce import bf_replace_positions, bf_total_loss
from conftest import make_example, replace_one
from reference_model import (
    generate, generate_nonoptimal, masked_logits_ids, replacement_deltas,
)


def context_sensitive_scorer(example, scale=20.0, seed=5, d=8):
    vocab = build_vocabulary([example])
    scorer = ToyBackend(vocab, d=d, seed=seed)
    scorer.E *= scale
    scorer.U *= scale
    return scorer


# --- counterfactuals ----------------------------------------------------------

def test_full_set_in_stored_order(example):
    ns = pick_counterfactuals(example, m=4, seed=0)
    assert ns.negatives == list(example.counterfactuals)
    assert [p["source_index"] for p in ns.provenance] == [0, 1, 2, 3]


def test_subset_deterministic(example):
    a = pick_counterfactuals(example, m=2, seed=11)
    b = pick_counterfactuals(example, m=2, seed=11)
    assert a.negatives == b.negatives
    assert len(a.negatives) == 2
    assert set(a.negatives) <= set(example.counterfactuals)


def test_subset_varies_with_seed(example):
    draws = {tuple(pick_counterfactuals(example, m=1, seed=s).negatives) for s in range(12)}
    assert len(draws) > 1


def test_m_larger_than_available_errors(example):
    with pytest.raises(ValueError):
        pick_counterfactuals(example, m=5, seed=0)
    short = make_example(counterfactuals=("only one .",))
    with pytest.raises(ValueError, match="counterfactuals"):
        pick_counterfactuals(short, m=2, seed=0)


# --- non-optimal generation ------------------------------------------------------

def gold_only_backend():
    """Rigged so every sample is exactly the gold answer 'alpha'."""
    vocab = Vocabulary(["alpha"])
    be = ToyBackend(vocab, d=2, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    K = 400.0
    be.E[vocab.encode(["alpha"])[0]] = [1.0, 0.0]
    be.E[BOS_ID] = [0.0, 1.0]
    be.U[vocab.encode(["alpha"])[0]] = [-K, K]
    be.U[EOS_ID] = [K, 0.0]
    return be


def test_total_collision_drops_slots():
    be = gold_only_backend()
    ex = make_example(
        turns=(("A", "zzz zzz"),), target_index=1, answer="alpha", counterfactuals=()
    )
    ns = generate_nonoptimal(be, ex, m=3, k=2, attempts=5, seed=0)
    assert ns.negatives == []
    assert all(p["dropped"] and p["attempts"] == 5 for p in ns.provenance)
    assert len(ns.provenance) == 3


def loop_nonoptimal(backend, example, m, k, attempts, seed, max_len):
    """non_optimal sampling as a loop over slots, then attempts, one
    ``generate`` call each: the reference for the batched rounds. A
    sample is kept when it is not empty and its tokens are not the gold's."""
    gold = tokenize(example.answer)
    input_ids = encode([example], vocab=backend.vocab).inputs[0]
    negatives, provenance = [], []
    for slot in range(m):
        for attempt in range(attempts):
            sample_seed = derive_seed(seed, example.id, "non_optimal", slot, attempt)
            text = " ".join(generate(backend, input_ids, max_len, k=k, seed=sample_seed))
            if text and tokenize(text) != gold:
                negatives.append(text)
                provenance.append({"slot": slot, "dropped": False, "attempts": attempt + 1,
                                   "sample_seed": sample_seed, "k": k})
                break
        else:
            provenance.append({"slot": slot, "dropped": True, "attempts": attempts})
    return NegativeSet(example.id, "non_optimal", negatives, provenance)


def test_rounds_retry_and_drop_like_the_slot_loop(data_dir):
    examples = load_dataset(data_dir / "train.jsonl")[:20]
    be = ToyBackend(build_vocabulary(examples), d=4, seed=1)
    be.b[EOS_ID] += 2.2  # about half the first draws are EOS-first, hence empty
    args = dict(m=4, k=10, attempts=3, seed=0, max_len=16)
    got = nonoptimal_sets(be, examples, encode(examples, vocab=be.vocab), **args)
    expected = [loop_nonoptimal(be, ex, **args) for ex in examples]
    assert [ns.to_dict() for ns in got] == [ns.to_dict() for ns in expected]
    rows = [p for ns in got for p in ns.provenance]
    retried = sum(p["attempts"] > 1 for p in rows)
    assert 0.3 * len(rows) <= retried <= 0.7 * len(rows)
    assert any(p["dropped"] for p in rows)
    assert any(not p["dropped"] and p["attempts"] == 3 for p in rows)


def test_total_collision_drops_every_slot_of_every_example():
    be = gold_only_backend()
    examples = [
        make_example(ex_id=f"ex-{i}", turns=(("A", "zzz " * (i + 1)),), target_index=1,
                     answer="alpha", counterfactuals=())
        for i in range(4)
    ]
    enc = encode(examples, vocab=be.vocab)
    sets = nonoptimal_sets(be, examples, enc, m=3, k=2, attempts=5, seed=0, max_len=16)
    assert [ns.example_id for ns in sets] == [ex.id for ex in examples]
    for ns in sets:
        assert ns.negatives == []
        assert ns.provenance == [{"slot": s, "dropped": True, "attempts": 5} for s in range(3)]


def test_uniform_backend_yields_m_samples(example):
    vocab = build_vocabulary([example])
    be = ToyBackend(vocab, d=4, seed=1)
    ns = generate_nonoptimal(be, example, m=4, k=10, seed=3, max_len=8)
    assert len(ns.negatives) == 4
    gold = normalize_answer(example.answer)
    for neg in ns.negatives:
        assert normalize_answer(neg) != gold
        assert len(tokenize(neg)) <= 8


def test_nonoptimal_deterministic(example):
    vocab = build_vocabulary([example])
    be = ToyBackend(vocab, d=4, seed=1)
    a = generate_nonoptimal(be, example, m=3, seed=9)
    b = generate_nonoptimal(be, example, m=3, seed=9)
    assert a.negatives == b.negatives
    assert a.provenance == b.provenance


def test_nonoptimal_provenance_replays(example):
    from inferbench.corpus import prepare_input_text

    vocab = build_vocabulary([example])
    be = ToyBackend(vocab, d=4, seed=1)
    ns = generate_nonoptimal(be, example, m=3, k=10, seed=9, max_len=16)
    input_tokens = tokenize(prepare_input_text(example))
    for neg, prov in zip(ns.negatives, ns.provenance):
        replayed = generate(
            be, vocab.encode(input_tokens), 16, k=prov["k"], seed=prov["sample_seed"]
        )
        assert " ".join(replayed) == neg


def test_nonoptimal_round_pools_each_input_once(monkeypatch):
    """A round decodes m rows per example from its one input array and
    pools that array once; each kept sample is the one-row decode of its
    seed."""
    examples = [
        make_example(ex_id=f"ex-{i}", turns=(("A", "the rain " * (1 + i)), ("B", "yes .")))
        for i in range(12)
    ]
    be = ToyBackend(build_vocabulary(examples), d=4, seed=3)
    enc = encode(examples, vocab=be.vocab)
    pooled = []

    def counting_pool(E, segments):
        pooled.append(len(segments))
        return pool(E, segments)

    monkeypatch.setattr("inferbench.backend.pool", counting_pool)
    sets = nonoptimal_sets(be, examples, enc, m=4, k=5, attempts=1, seed=2, max_len=8)
    assert pooled == [len(examples)]
    monkeypatch.undo()
    for ids, ns in zip(enc.inputs, sets):
        seeds = [p["sample_seed"] for p in ns.provenance if not p["dropped"]]
        assert [a.tolist() for a in ns.ids] == [
            be.generate_batch([ids], 8, 5, [seed])[0] for seed in seeds
        ]
    assert sum(map(len, (ns.ids for ns in sets))) > len(examples)


@pytest.mark.parametrize("answer", ["She asked how he was.", "she asked how he was ."])
def test_a_sample_with_the_gold_ids_is_rejected_however_the_gold_is_spaced(answer):
    """The gold's attached punctuation and capitals do not make a sample
    of its ids distinct from it: every slot is dropped."""
    example = make_example(answer=answer)
    be = ToyBackend(build_vocabulary([example]), d=4, seed=0)
    enc = encode([example], vocab=be.vocab)
    gold = enc.answers[0][:-1].tolist()
    be.generate_batch = lambda inputs, max_len, k, seeds: [list(gold) for _ in inputs]
    [ns] = nonoptimal_sets(be, [example], enc, m=3, k=2, attempts=2, seed=0, max_len=16)
    assert " ".join(be.vocab.decode(gold)) == "she asked how he was ."
    assert ns.negatives == [] and ns.ids == []
    assert ns.provenance == [{"slot": s, "dropped": True, "attempts": 2} for s in range(3)]


# --- token replacement ------------------------------------------------------------

def test_forced_fallback_single_replacement(example):
    scorer = context_sensitive_scorer(example)
    ns = replace_one(scorer, example, threshold=1e9, k=10, m=1, seed=4, mode="zs")
    gold_tokens = tokenize(example.answer)
    out_tokens = tokenize(ns.negatives[0])
    assert len(out_tokens) == len(gold_tokens)
    diff = [i for i, (a, b) in enumerate(zip(out_tokens, gold_tokens)) if a != b]
    assert len(diff) == 1
    assert ns.provenance[0]["fallback"] is True
    assert ns.provenance[0]["replaced_positions"] == diff


@pytest.mark.parametrize("bad,message", [
    ({"threshold": 0.0}, "threshold must be positive"),
    ({"threshold": -0.5}, "threshold must be positive"),
    ({"k": 0}, "k must be >= 1"),
    ({"mode": "fs"}, "unknown replace mode 'fs'"),
])
def test_replace_rejects_bad_arguments(example, bad, message):
    scorer = context_sensitive_scorer(example)
    args = {"threshold": 0.75, "k": 10, "m": 1, "seed": 0, "mode": "zs", **bad}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace_one(scorer, example, **args)


def test_replace_names_the_position_with_no_candidate():
    # "yes" is the one non-special token: as gold it leaves no candidate,
    # while the out-of-vocabulary "cat" (UNK) has "yes"
    examples = [make_example(ex_id="ex-1", answer="cat"), make_example(ex_id="ex-2", answer="yes")]
    scorer = ToyBackend(Vocabulary(["yes"]), d=2, seed=0)
    enc = encode(examples, vocab=scorer.vocab)
    with pytest.raises(ValueError, match="^example ex-2: no replacement candidates at 0$"):
        replace_sets(scorer, examples, enc, threshold=0.75, k=3, m=1, seed=0, mode="zs")
    [ns] = replace_sets(scorer, examples[:1], enc.take([0]), threshold=0.75, k=3, m=2, seed=0,
                        mode="zs")
    assert ns.negatives == ["yes", "yes"]


def test_zero_scorer_fallback_picks_position_zero(example):
    vocab = build_vocabulary([example])
    scorer = ToyBackend(vocab, d=4, seed=0)
    scorer.E[:] = 0.0
    scorer.U[:] = 0.0
    scorer.b[:] = 0.0
    deltas = replacement_deltas(scorer, example)
    assert np.allclose(deltas, 0.0)
    ns = replace_one(scorer, example, threshold=0.75, k=10, m=2, seed=0, mode="zs")
    assert bf_replace_positions(scorer, example, 0.75) == [0]
    for prov in ns.provenance:
        assert prov["replaced_positions"] == [0] and prov["fallback"]


def test_positions_match_bruteforce(example):
    scorer = context_sensitive_scorer(example)
    for threshold in (0.25, 0.5, 0.75, 1.0):
        ns = replace_one(scorer, example, threshold=threshold, k=10, m=1, seed=1, mode="zs")
        expected = bf_replace_positions(scorer, example, threshold)
        assert ns.provenance[0]["replaced_positions"] == expected


def test_positions_of_a_ragged_set_match_bruteforce(monkeypatch):
    """One ``replace_sets`` call on 30 examples of 1-10 answer tokens and
    ragged contexts, whose masked windows fill several runs of
    ``MASKED_WINDOWS`` cut to 64: each example's positions are its own
    brute-force selection, and its whole NegativeSet (texts, ids and
    provenance) is its one-example call's. Threshold 0.5 selects several
    positions, 1e9 none (every answer falls back), and at k 1 gold fills
    the top k at some selected position, so the second token steps in."""
    monkeypatch.setattr("inferbench.backend.MASKED_WINDOWS", 64)
    words = "the rain was announced earlier yes is set for friday did you hear".split()
    examples = [
        make_example(
            ex_id=f"ex-{i}",
            turns=(("A", " ".join(words[: 1 + i % 12])), ("B", "yes the rain is set .")),
            answer=" ".join(words[i % 3 : i % 3 + 1 + i % 10]),
        )
        for i in range(30)
    ]
    assert 2 * sum(len(tokenize(ex.answer)) for ex in examples) > 2 * 64
    scorer = ToyBackend(build_vocabulary(examples), d=8, seed=5)
    scorer.E *= 20.0
    scorer.U *= 20.0
    enc = encode(examples, vocab=scorer.vocab)
    assert len(list(scorer.masked_log_probs([a[:-1] for a in enc.answers], enc.inputs))) > 2
    for threshold, k in ((0.5, 10), (1e9, 10), (0.5, 1)):
        args = {"threshold": threshold, "k": k, "m": 3, "seed": 1, "mode": "zs"}
        sets = replace_sets(scorer, examples, enc, **args)
        positions = [ns.provenance[0]["replaced_positions"] for ns in sets]
        assert positions == [bf_replace_positions(scorer, ex, threshold) for ex in examples]
        for ex, ns in zip(examples, sets):
            alone = replace_one(scorer, ex, **args)
            assert ns == alone
            assert [ids.tolist() for ids in ns.ids] == [ids.tolist() for ids in alone.ids]
        fallbacks = [ns.provenance[0]["fallback"] for ns in sets]
        if threshold > 1:
            assert all(fallbacks)
        else:
            assert max(map(len, positions)) > 1 and not all(fallbacks)
        if k == 1:
            # the answer-only ranking's top non-special token is gold
            gold_on_top = [
                (ex.id, j)
                for ex, answer, ns in zip(examples, enc.answers, sets)
                for j in ns.provenance[0]["replaced_positions"]
                if np.argmax(masked_logits_ids(scorer, list(answer[:-1]), j)[len(SPECIALS) :])
                + len(SPECIALS) == answer[j]
            ]
            assert gold_on_top


def test_replace_on_an_empty_set_gives_no_sets(example):
    scorer = context_sensitive_scorer(example)
    args = {"threshold": 0.75, "k": 10, "m": 2, "seed": 0, "mode": "zs"}
    assert replace_sets(scorer, [], encode([], vocab=scorer.vocab), **args) == []


def test_replace_sets_peak_stays_within_a_run_not_the_set(data_dir):
    """On the 200 examples of ``train.jsonl`` (3196 windows, 7 runs), what
    ``replace_sets`` holds at its traced peak beyond the sets it returns
    stays within three times one run's log-probabilities plus the
    context table: the log-probability rows of the whole set (2.5 MB)
    are never held at once."""
    examples = load_dataset(data_dir / "train.jsonl")
    vocab = build_vocabulary(examples)
    scorer = ToyBackend(vocab, d=16, seed=3)
    enc = encode(examples, vocab=vocab)
    windows = 2 * sum(len(answer) - 1 for answer in enc.answers)
    assert windows > 6 * MASKED_WINDOWS
    tracemalloc.start()
    try:
        sets = replace_sets(scorer, examples, enc, threshold=0.75, k=10, m=4, seed=0, mode="zs")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sets) == len(examples)
    run = MASKED_WINDOWS * len(vocab) * 8
    table = (len(vocab) + len(examples)) * scorer.d * 8
    assert peak - held <= 3 * (run + table)
    assert peak - held < windows * len(vocab) * 8


def test_threshold_monotonicity(example):
    scorer = context_sensitive_scorer(example)
    deltas = replacement_deltas(scorer, example)
    previous = None
    for threshold in (0.25, 0.5, 0.75, 1.0):
        prov = replace_one(scorer, example, threshold=threshold, k=10, m=1, seed=1,
                           mode="zs").provenance[0]
        assert prov["replaced_positions"] == bf_replace_positions(scorer, example, threshold)
        raw = {j for j, delta in enumerate(deltas) if delta > threshold}
        assert prov["fallback"] == (not raw)
        if previous is not None:
            assert raw <= previous
        previous = raw
    # the fixture scorer keeps the first two thresholds non-trivial
    assert len(bf_replace_positions(scorer, example, 0.25)) > len(
        bf_replace_positions(scorer, example, 1.0)
    )


def test_replaced_positions_differ_and_count_preserved(example):
    scorer = context_sensitive_scorer(example)
    ns = replace_one(scorer, example, threshold=0.75, k=10, m=3, seed=2, mode="zs")
    gold_tokens = tokenize(example.answer)
    positions = set(ns.provenance[0]["replaced_positions"])
    for neg, prov in zip(ns.negatives, ns.provenance):
        out_tokens = tokenize(neg)
        assert len(out_tokens) == len(gold_tokens)
        diff = {i for i, (a, b) in enumerate(zip(out_tokens, gold_tokens)) if a != b}
        assert diff == positions
        assert normalize_answer(neg) != normalize_answer(example.answer)
        assert prov["mode"] == "zs"


def test_replace_deterministic_and_seed_sensitive(example):
    scorer = context_sensitive_scorer(example)
    cfg = dict(threshold=0.5, k=10, m=2, mode="zs")
    a = replace_one(scorer, example, seed=3, **cfg)
    b = replace_one(scorer, example, seed=3, **cfg)
    assert a.negatives == b.negatives
    c = replace_one(scorer, example, seed=4, **cfg)
    assert a.negatives != c.negatives


def test_replacement_never_emits_specials_or_gold(example):
    scorer = context_sensitive_scorer(example)
    gold_tokens = tokenize(example.answer)
    ns = replace_one(scorer, example, threshold=0.25, k=3, m=4, seed=6, mode="zs")
    for neg in ns.negatives:
        for i, tok in enumerate(tokenize(neg)):
            assert not tok.startswith("<")
            if i in set(ns.provenance[0]["replaced_positions"]):
                assert tok != gold_tokens[i]


def test_replace_mcq_scorer_stands_in(example):
    others = [
        make_example(ex_id=f"mcq-{i}", answer=f"the {fact} was announced earlier .",
                     counterfactuals=tuple(
                         f"the {o} was announced earlier ."
                         for o in ("soup", "beach", "movie", "train") if o != fact
                     )[:4])
        for i, fact in enumerate(("rain", "exam", "garden"))
    ]
    scorer = train_mcq_scorer(encode(others, [ex.counterfactuals for ex in others]), d=8, seed=0)
    ns = replace_one(scorer, example, threshold=0.75, k=10, m=1, seed=1, mode="mcq")
    assert ns.strategy == "replace_mcq"
    assert len(ns.negatives) == 1


# --- in-batch -----------------------------------------------------------------

def test_inbatch_keeps_duplicate_golds():
    # the in-batch negatives are the other golds of forward's n x n
    # similarity matrix: a gold repeated in the batch counts every time
    batch = [
        make_example(ex_id="a", answer="same answer ."),
        make_example(ex_id="b", answer="same answer ."),
        make_example(ex_id="c", answer="other answer ."),
    ]
    enc = encode(batch)
    be = ToyBackend(enc.vocab, d=4, seed=3)
    config = LossConfig(lambda_s=0.0)
    _, cl_b, _, _ = bf_total_loss(be, enc, config)
    assert forward(be, enc, config, grads=False).cl_b == pytest.approx(cl_b, rel=1e-12)


# --- shared invariants -----------------------------------------------------------

def test_all_strategies_emit_distinct_from_gold(example):
    vocab = build_vocabulary([example])
    sampler = ToyBackend(vocab, d=4, seed=2)
    scorer = context_sensitive_scorer(example)
    sets = [
        pick_counterfactuals(example, m=4, seed=0),
        generate_nonoptimal(sampler, example, m=2, seed=0),
        replace_one(scorer, example, threshold=0.75, k=10, m=2, seed=0, mode="zs"),
    ]
    gold = normalize_answer(example.answer)
    for ns in sets:
        assert isinstance(ns, NegativeSet)
        for neg in ns.negatives:
            assert normalize_answer(neg) != gold
