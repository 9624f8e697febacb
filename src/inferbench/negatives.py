"""Automatic negative-sample procedures with per-negative provenance.

Four strategies feed the per-sample contrastive loss, each a row of
:data:`STRATEGIES`, the one table the trainer, ``perturb`` and the
config check read:

* ``counterfactual`` -- dataset-provided wrong-but-plausible candidates;
* ``non_optimal``    -- top-k sampled generations from a model, with
  gold collisions resampled;
* ``replace_zs`` / ``replace_mcq`` -- gold answers with the most
  context-sensitive tokens swapped using a masked scorer (zero-shot or
  fine-tuned to separate gold from counterfactuals).

The in-batch term's negatives, the gold answers of the other examples,
need no procedure (:func:`inbatch_negatives`).

Every draw is seeded per (seed, example id, slot), so any emitted
negative can be replayed from its provenance alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backend import SPECIALS, TopKDecode, ToyBackend, Vocabulary, derive_seed
from .corpus import InferenceExample, normalize_answer
from .metrics import tokenize
from .objective import LossConfig, build_vocabulary, encode_inputs, encode_set, forward


@dataclass(frozen=True)
class ReplaceConfig:
    threshold: float = 0.75
    k: int = 10
    mode: str = "zs"  # "zs" | "mcq"; records which scorer produced the set
    seed: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in ("zs", "mcq"):
            raise ValueError(f"unknown replace mode {self.mode!r}")


@dataclass
class NegativeSet:
    example_id: str
    strategy: str
    negatives: list[str]
    provenance: list[dict]

    def to_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "strategy": self.strategy,
            "negatives": self.negatives,
            "provenance": self.provenance,
        }


def pick_counterfactuals(example: InferenceExample, m: int, seed: int = 0) -> NegativeSet:
    """m dataset counterfactuals; the full set keeps stored order, a
    strict subset is a seeded uniform draw without replacement."""
    if not 1 <= m <= 4:
        raise ValueError("m must be in 1..4")
    if len(example.counterfactuals) < m:
        raise ValueError(
            f"example {example.id}: {m} counterfactuals requested, "
            f"{len(example.counterfactuals)} available"
        )
    if m == len(example.counterfactuals):
        chosen = list(range(m))
    else:
        rng = np.random.default_rng(derive_seed(seed, example.id, "counterfactual"))
        chosen = sorted(rng.choice(len(example.counterfactuals), size=m, replace=False))
    return NegativeSet(
        example_id=example.id,
        strategy="counterfactual",
        negatives=[example.counterfactuals[i] for i in chosen],
        provenance=[{"slot": s, "source_index": int(i), "seed": seed} for s, i in enumerate(chosen)],
    )


def generate_nonoptimal(
    backend: ToyBackend,
    example: InferenceExample,
    m: int = 4,
    k: int = 10,
    attempts: int = 5,
    seed: int = 0,
    max_len: int = 16,
    template_id: str = "default",
) -> NegativeSet:
    """Sample m negatives by top-k generation from the current model.

    A sample that normalizes to the gold answer (or to nothing) is
    rejected and redrawn up to ``attempts`` times; a slot whose draws
    all collide is dropped and recorded in provenance.
    """
    gold = normalize_answer(example.answer)
    input_ids = encode_inputs(backend.vocab, [example], template_id)[0]
    negatives: list[str] = []
    provenance: list[dict] = []
    for slot in range(m):
        accepted = None
        used_attempts = 0
        for attempt in range(attempts):
            used_attempts = attempt + 1
            slot_seed = derive_seed(seed, example.id, "non_optimal", slot, attempt)
            sample_tokens = backend.generate(
                input_ids, TopKDecode(k=k, seed=slot_seed, max_len=max_len)
            )
            text = " ".join(sample_tokens)
            if text and normalize_answer(text) != gold:
                accepted = (text, slot_seed)
                break
        if accepted is None:
            provenance.append({"slot": slot, "dropped": True, "attempts": used_attempts})
        else:
            negatives.append(accepted[0])
            provenance.append(
                {
                    "slot": slot,
                    "dropped": False,
                    "attempts": used_attempts,
                    "sample_seed": accepted[1],
                    "k": k,
                }
            )
    return NegativeSet(
        example_id=example.id,
        strategy="non_optimal",
        negatives=negatives,
        provenance=provenance,
    )


def replacement_deltas(
    scorer: ToyBackend, example: InferenceExample, template_id: str = "default"
) -> np.ndarray:
    """|log p(a_j | context + answer\\j) - log p(a_j | answer\\j)| per
    gold-answer position, from the masked scorer."""
    enc = encode_set(scorer, [example], template_id=template_id)
    return _deltas(scorer, enc.answers[0][:-1], enc.inputs[0])


def _deltas(scorer: ToyBackend, answer_ids, context_ids) -> np.ndarray:
    """:func:`replacement_deltas` of an answer and an input already encoded."""
    deltas = np.empty(len(answer_ids))
    for j, gold_id in enumerate(answer_ids):
        with_ctx = scorer.masked_logits_ids(answer_ids, j, context_ids)[gold_id]
        answer_only = scorer.masked_logits_ids(answer_ids, j, None)[gold_id]
        deltas[j] = abs(with_ctx - answer_only)
    return deltas


def select_positions(deltas: np.ndarray, threshold: float) -> tuple[list[int], bool]:
    """Positions with delta above threshold; falls back to the argmax
    (lowest index on ties) when nothing clears it."""
    selected = [int(j) for j in np.flatnonzero(deltas > threshold)]
    if selected:
        return selected, False
    return [int(np.argmax(deltas))], True


def token_replace(
    scorer: ToyBackend,
    example: InferenceExample,
    cfg: ReplaceConfig,
    m: int = 1,
    template_id: str = "default",
) -> NegativeSet:
    """Swap the most context-sensitive gold tokens using the scorer's
    masked distributions.

    Replacements are seeded-uniform draws from the top-k tokens of the
    answer-only masked distribution at each selected position, excluding
    the gold token and the special tokens; when gold fills the whole
    top-k, the (k+1)-th ranked token steps in. Output token count always
    equals the gold token count.
    """
    answer_tokens = tokenize(example.answer)  # an out-of-vocabulary token keeps its surface form
    if not answer_tokens:
        raise ValueError(f"example {example.id}: empty answer")
    answer_ids = scorer.vocab.encode(answer_tokens)
    deltas = _deltas(scorer, answer_ids, encode_inputs(scorer.vocab, [example], template_id)[0])
    positions, fallback = select_positions(deltas, cfg.threshold)

    special_ids = {scorer.vocab.id_of(t) for t in SPECIALS}
    candidates_at: dict[int, list[int]] = {}
    for j in positions:
        dist = scorer.masked_logits_ids(answer_ids, j, None)
        order = np.lexsort((np.arange(len(dist)), -dist))
        ranked = [int(t) for t in order if int(t) not in special_ids]
        top = [t for t in ranked[: cfg.k] if t != answer_ids[j]]
        if not top:
            top = [t for t in ranked[cfg.k : cfg.k + 1] if t != answer_ids[j]]
        if not top:
            raise ValueError(f"example {example.id}: no replacement candidates at {j}")
        candidates_at[j] = top

    strategy = f"replace_{cfg.mode}"
    negatives: list[str] = []
    provenance: list[dict] = []
    for slot in range(m):
        slot_seed = derive_seed(cfg.seed, example.id, strategy, slot)
        rng = np.random.default_rng(slot_seed)
        out_tokens = list(answer_tokens)
        for j in positions:
            out_tokens[j] = scorer.vocab.tokens[int(rng.choice(candidates_at[j]))]
        negatives.append(" ".join(out_tokens))
        provenance.append(
            {
                "slot": slot,
                "seed": slot_seed,
                "replaced_positions": positions,
                "fallback": fallback,
                "mode": cfg.mode,
                "threshold": cfg.threshold,
                "k": cfg.k,
            }
        )
    return NegativeSet(
        example_id=example.id,
        strategy=strategy,
        negatives=negatives,
        provenance=provenance,
    )


def inbatch_negatives(batch: list[InferenceExample], i: int) -> list[str]:
    """Gold answers of the other batch members, batch order preserved.
    Duplicate golds are kept."""
    if len(batch) < 2:
        raise ValueError("in-batch negatives need batch size >= 2")
    if not 0 <= i < len(batch):
        raise IndexError(f"index {i} outside batch of {len(batch)}")
    return [ex.answer for j, ex in enumerate(batch) if j != i]


def train_mcq_scorer(
    examples: list[InferenceExample],
    vocab: Vocabulary | None = None,
    d: int = 16,
    seed: int = 0,
    epochs: int = 5,
    lr: float = 1.0,
    tau: float = 0.5,
    template_id: str = "default",
) -> ToyBackend:
    """Stand-in for a scorer fine-tuned on the multiple-choice task:
    contrastive updates pull input embeddings toward gold answers and
    away from the dataset counterfactuals."""
    usable = [ex for ex in examples if ex.counterfactuals]
    if not usable:
        raise ValueError("no examples with counterfactuals to train on")
    if vocab is None:
        vocab = build_vocabulary(usable, template_id)
    scorer = ToyBackend(vocab, d=d, seed=derive_seed(seed, "mcq_scorer"))
    encoded = encode_set(
        scorer, usable, [list(ex.counterfactuals) for ex in usable], template_id
    )
    # the per-sample term alone, its gradient a mean over the examples
    config = LossConfig(tau_s=tau, lambda_b=0.0, lambda_s=1.0)
    for _ in range(epochs):
        scorer.E -= lr * forward(scorer, encoded, config, nll=False).grads.E
    return scorer


# --- strategy table --------------------------------------------------------------
#
# A builder takes (model, examples, config, seed) and returns one
# NegativeSet per example, in order. ``config`` is a TrainConfig: m, k,
# threshold, attempts, max_gen_len and template_id come from it. The
# builders look the procedures up by module-level name at call time, so
# a wrapper installed on those names sees every call.


@dataclass(frozen=True)
class Strategy:
    build: Callable[..., list[NegativeSet]]
    needs_model: bool  # samples or scores with ``model``
    per_epoch: bool  # rebuilt from the live model every training epoch


def _counterfactual(model, examples, config, seed):
    return [pick_counterfactuals(ex, config.m, seed) for ex in examples]


def _non_optimal(model, examples, config, seed):
    return [
        generate_nonoptimal(
            model, ex, m=config.m, k=config.k, attempts=config.attempts, seed=seed,
            max_len=config.max_gen_len, template_id=config.template_id,
        )
        for ex in examples
    ]


def _replace_zs(model, examples, config, seed, mode="zs"):
    cfg = ReplaceConfig(threshold=config.threshold, k=config.k, mode=mode, seed=seed)
    return [
        token_replace(model, ex, cfg, m=config.m, template_id=config.template_id)
        for ex in examples
    ]


def _replace_mcq(model, examples, config, seed):
    scorer = train_mcq_scorer(
        examples, vocab=model.vocab, d=model.d, seed=seed, template_id=config.template_id
    )
    return _replace_zs(scorer, examples, config, seed, mode="mcq")


STRATEGIES = {
    "counterfactual": Strategy(_counterfactual, needs_model=False, per_epoch=False),
    "non_optimal": Strategy(_non_optimal, needs_model=True, per_epoch=True),
    "replace_zs": Strategy(_replace_zs, needs_model=True, per_epoch=False),
    "replace_mcq": Strategy(_replace_mcq, needs_model=True, per_epoch=False),
}
DEFAULT_STRATEGY = "counterfactual"


def untrained_model(vocab: Vocabulary, d: int, seed: int) -> ToyBackend:
    """The model a strategy samples or scores with when none is given."""
    return ToyBackend(vocab, d=d, seed=derive_seed(seed, "zs_scorer"))
