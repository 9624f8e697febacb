import numpy as np
import pytest

from inferbench.backend import ToyBackend, Vocabulary
from inferbench.corpus import normalize_answer
from inferbench.metrics import tokenize
from inferbench.negatives import (
    NegativeSet,
    ReplaceConfig,
    generate_nonoptimal,
    inbatch_negatives,
    pick_counterfactuals,
    replacement_deltas,
    select_positions,
    token_replace,
    train_mcq_scorer,
)
from inferbench.trainer import build_vocabulary

from bruteforce import bf_replace_positions
from conftest import make_example


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
    be.E[vocab.id_of("alpha")] = [1.0, 0.0]
    be.E[vocab.bos_id] = [0.0, 1.0]
    be.U[vocab.id_of("alpha")] = [-K, K]
    be.U[vocab.eos_id] = [K, 0.0]
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
    from inferbench.backend import TopKDecode
    from inferbench.corpus import prepare_input_text

    vocab = build_vocabulary([example])
    be = ToyBackend(vocab, d=4, seed=1)
    ns = generate_nonoptimal(be, example, m=3, k=10, seed=9, max_len=16)
    input_tokens = tokenize(prepare_input_text(example))
    for neg, prov in zip(ns.negatives, ns.provenance):
        replayed = be.generate(
            vocab.encode(input_tokens),
            TopKDecode(k=prov["k"], seed=prov["sample_seed"], max_len=16),
        )
        assert " ".join(replayed) == neg


# --- token replacement ------------------------------------------------------------

def test_forced_fallback_single_replacement(example):
    scorer = context_sensitive_scorer(example)
    cfg = ReplaceConfig(threshold=1e9, k=10, mode="zs", seed=4)
    ns = token_replace(scorer, example, cfg)
    gold_tokens = tokenize(example.answer)
    out_tokens = tokenize(ns.negatives[0])
    assert len(out_tokens) == len(gold_tokens)
    diff = [i for i, (a, b) in enumerate(zip(out_tokens, gold_tokens)) if a != b]
    assert len(diff) == 1
    assert ns.provenance[0]["fallback"] is True
    assert ns.provenance[0]["replaced_positions"] == diff


def test_zero_scorer_fallback_picks_position_zero(example):
    vocab = build_vocabulary([example])
    scorer = ToyBackend(vocab, d=4, seed=0)
    scorer.E[:] = 0.0
    scorer.U[:] = 0.0
    scorer.b[:] = 0.0
    deltas = replacement_deltas(scorer, example)
    assert np.allclose(deltas, 0.0)
    positions, fallback = select_positions(deltas, 0.75)
    assert positions == [0] and fallback


def test_positions_match_bruteforce(example):
    scorer = context_sensitive_scorer(example)
    for threshold in (0.25, 0.5, 0.75, 1.0):
        cfg = ReplaceConfig(threshold=threshold, k=10, mode="zs", seed=1)
        ns = token_replace(scorer, example, cfg)
        expected = bf_replace_positions(scorer, example, threshold)
        assert ns.provenance[0]["replaced_positions"] == expected


def test_threshold_monotonicity(example):
    scorer = context_sensitive_scorer(example)
    deltas = replacement_deltas(scorer, example)
    previous = None
    for threshold in (0.25, 0.5, 0.75, 1.0):
        selected, fallback = select_positions(deltas, threshold)
        raw = set() if fallback else set(selected)
        if previous is not None:
            assert raw <= previous
        previous = raw
    # the fixture scorer keeps the first two thresholds non-trivial
    assert len(select_positions(deltas, 0.25)[0]) > len(select_positions(deltas, 1.0)[0])


def test_replaced_positions_differ_and_count_preserved(example):
    scorer = context_sensitive_scorer(example)
    cfg = ReplaceConfig(threshold=0.75, k=10, mode="zs", seed=2)
    ns = token_replace(scorer, example, cfg, m=3)
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
    cfg = ReplaceConfig(threshold=0.5, k=10, mode="zs", seed=3)
    a = token_replace(scorer, example, cfg, m=2)
    b = token_replace(scorer, example, cfg, m=2)
    assert a.negatives == b.negatives
    c = token_replace(scorer, example, ReplaceConfig(threshold=0.5, k=10, mode="zs", seed=4), m=2)
    assert a.negatives != c.negatives


def test_replacement_never_emits_specials_or_gold(example):
    scorer = context_sensitive_scorer(example)
    cfg = ReplaceConfig(threshold=0.25, k=3, mode="zs", seed=6)
    gold_tokens = tokenize(example.answer)
    ns = token_replace(scorer, example, cfg, m=4)
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
    scorer = train_mcq_scorer(others, d=8, seed=0)
    cfg = ReplaceConfig(threshold=0.75, k=10, mode="mcq", seed=1)
    ns = token_replace(scorer, example, cfg)
    assert ns.strategy == "replace_mcq"
    assert len(ns.negatives) == 1


# --- in-batch -----------------------------------------------------------------

def test_inbatch_order_and_exclusion():
    batch = [make_example(ex_id=f"e{i}", answer=f"answer number {i} .") for i in range(3)]
    for i in range(3):
        negs = inbatch_negatives(batch, i)
        assert negs == [ex.answer for j, ex in enumerate(batch) if j != i]
        assert len(negs) == 2


def test_inbatch_keeps_duplicate_golds():
    batch = [
        make_example(ex_id="a", answer="same answer ."),
        make_example(ex_id="b", answer="same answer ."),
        make_example(ex_id="c", answer="other answer ."),
    ]
    assert inbatch_negatives(batch, 2) == ["same answer .", "same answer ."]


def test_inbatch_batch_of_one_errors(example):
    with pytest.raises(ValueError):
        inbatch_negatives([example], 0)


# --- shared invariants -----------------------------------------------------------

def test_all_strategies_emit_distinct_from_gold(example):
    vocab = build_vocabulary([example])
    sampler = ToyBackend(vocab, d=4, seed=2)
    scorer = context_sensitive_scorer(example)
    sets = [
        pick_counterfactuals(example, m=4, seed=0),
        generate_nonoptimal(sampler, example, m=2, seed=0),
        token_replace(scorer, example, ReplaceConfig(seed=0), m=2),
    ]
    gold = normalize_answer(example.answer)
    for ns in sets:
        assert isinstance(ns, NegativeSet)
        for neg in ns.negatives:
            assert normalize_answer(neg) != gold
