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

The in-batch term's negatives, the gold answers of the other examples
(duplicate golds included), need no procedure: they are the off-diagonal
entries of :func:`~inferbench.objective.forward`'s n x n similarity
matrix.

Every draw is seeded per (seed, example id, slot), so any emitted
negative can be replayed from its provenance alone. A replacement
negative's slot seed s draws one candidate per selected position, in
position order: the p-th takes the (p + 1)-th
``default_rng(s).integers(n)``, n the position's candidate count, as
:func:`~inferbench.backend._integers` computes it for every slot of a
set at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Collection

import numpy as np

from .backend import SPECIALS, ToyBackend, Vocabulary, _integers, derive_seed
from .corpus import MAX_COUNTERFACTUALS, InferenceExample
from .metrics import tokenize
from .objective import EncodedSet, LossConfig, forward


@dataclass
class NegativeSet:
    example_id: str
    strategy: str
    negatives: list[str]
    provenance: list[dict]
    # the token ids of ``negatives`` under the model's vocabulary, as a
    # strategy builder returns them; not serialized
    ids: list[np.ndarray] | None = field(default=None, repr=False, compare=False)

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
    if not 1 <= m <= MAX_COUNTERFACTUALS:
        raise ValueError(f"m must be in 1..{MAX_COUNTERFACTUALS}")
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


def nonoptimal_sets(
    backend: ToyBackend,
    examples: list[InferenceExample],
    enc: EncodedSet,
    m: int,
    k: int,
    attempts: int,
    seed: int,
    max_len: int,
) -> list[NegativeSet]:
    """Sample m negatives per example by top-k generation from the
    current model; ``enc`` holds the examples' ids under the model's
    vocabulary.

    A sample that is empty or whose ids are the gold answer's (without
    EOS) is rejected and redrawn up to ``attempts`` times; a slot whose
    draws all collide is dropped and recorded in provenance. Attempts run
    in rounds, each decoding every pending (example, slot) in one batch;
    every attempt has its own seed, so a sample does not depend on the
    other rows of its round. Each set keeps its samples' decoded ids
    (``NegativeSet.ids``, views of one array per round): the decoder
    emits no PAD/BOS/UNK/MASK and :func:`tokenize` is idempotent on
    space-joined tokens, so they are the ids of the sample texts.
    """
    golds = [answer[:-1].tolist() for answer in enc.answers]
    texts: dict[tuple[int, int], str] = {}
    sample_ids: dict[tuple[int, int], np.ndarray] = {}
    provenance: dict[tuple[int, int], dict] = {}
    pending = [(i, slot) for i in range(len(examples)) for slot in range(m)]
    rounds = 0
    for attempt in range(attempts):
        if not pending:
            break
        rounds = attempt + 1
        seeds = [
            derive_seed(seed, examples[i].id, "non_optimal", slot, attempt) for i, slot in pending
        ]
        samples = backend.generate_batch([enc.inputs[i] for i, _ in pending], max_len, k, seeds)
        ends = np.cumsum([len(ids) for ids in samples]).tolist()
        flat = np.fromiter(chain.from_iterable(samples), np.intp, ends[-1])
        rejected = []
        for (i, slot), slot_seed, ids, end in zip(pending, seeds, samples, ends):
            if ids and ids != golds[i]:
                texts[i, slot] = " ".join(backend.vocab.decode(ids))
                sample_ids[i, slot] = flat[end - len(ids) : end]
                provenance[i, slot] = {
                    "slot": slot, "dropped": False, "attempts": rounds,
                    "sample_seed": slot_seed, "k": k,
                }
            else:
                rejected.append((i, slot))
        pending = rejected
    for i, slot in pending:
        provenance[i, slot] = {"slot": slot, "dropped": True, "attempts": rounds}
    kept = [[slot for slot in range(m) if (i, slot) in texts] for i in range(len(examples))]
    return [
        NegativeSet(
            example_id=ex.id,
            strategy="non_optimal",
            negatives=[texts[i, slot] for slot in kept[i]],
            provenance=[provenance[i, slot] for slot in range(m)],
            ids=[sample_ids[i, slot] for slot in kept[i]],
        )
        for i, ex in enumerate(examples)
    ]


def select_positions(deltas: np.ndarray, threshold: float) -> tuple[list[int], bool]:
    """Positions with delta above threshold; falls back to the argmax
    (lowest index on ties) when nothing clears it."""
    selected = [int(j) for j in np.flatnonzero(deltas > threshold)]
    if selected:
        return selected, False
    return [int(np.argmax(deltas))], True


def replacement_candidates(
    dist: np.ndarray, gold: int, k: int, special_ids: Collection[int]
) -> list[int]:
    """The non-special tokens among the top k of ``dist`` (ranked by
    descending value, ties by lower id), gold left out; the (k+1)-th
    when gold fills the whole top k. Only the first k + 1 + |specials|
    ranks are read: they hold the first k + 1 non-special tokens."""
    order = np.lexsort((np.arange(len(dist)), -dist))[: k + 1 + len(special_ids)]
    ranked = [int(t) for t in order if int(t) not in special_ids]
    return [t for t in ranked[:k] if t != gold] or [t for t in ranked[k : k + 1] if t != gold]


def replace_sets(
    scorer: ToyBackend,
    examples: list[InferenceExample],
    enc: EncodedSet,
    *,
    threshold: float,
    k: int,
    m: int,
    seed: int,
    mode: str,
) -> list[NegativeSet]:
    """Swap the most context-sensitive gold tokens of each example using
    the scorer's masked distributions; ``enc`` holds the examples' ids
    under the scorer's vocabulary. ``m`` negatives are drawn per example,
    and ``mode`` ("zs" or "mcq") records which scorer produced them.

    A position is context-sensitive when |log p(a_j | context +
    answer\\j) - log p(a_j | answer\\j)| exceeds ``threshold``; every
    masked window of the set is scored in one
    :meth:`~inferbench.backend.ToyBackend.masked_log_probs` call.
    Replacements are seeded-uniform draws from the top-k tokens of the
    answer-only masked distribution at each selected position, excluding
    the gold token and the special tokens; when gold fills the whole
    top-k, the (k+1)-th ranked token steps in. Output token count always
    equals the gold token count, and each negative's ids are the gold
    answer's ids with the replacements swapped in.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("zs", "mcq"):
        raise ValueError(f"unknown replace mode {mode!r}")
    answers = [ids[:-1] for ids in enc.answers]  # without EOS
    scored = scorer.masked_log_probs(answers, enc.inputs)
    strategy = f"replace_{mode}"
    tokens = scorer.vocab.tokens
    specials = range(len(SPECIALS))
    picks = []  # (positions, fallback, candidates at each position) per example
    for example, answer_ids, (with_ctx, answer_only) in zip(examples, answers, scored):
        at_gold = (np.arange(len(answer_ids)), answer_ids)
        deltas = np.abs(with_ctx[at_gold] - answer_only[at_gold])
        positions, fallback = select_positions(deltas, threshold)
        candidates = []
        for j in positions:
            top = replacement_candidates(answer_only[j], answer_ids[j], k, specials)
            if not top:
                raise ValueError(f"example {example.id}: no replacement candidates at {j}")
            candidates.append(top)
        picks.append((positions, fallback, candidates))
    slot_seeds = [derive_seed(seed, ex.id, strategy, slot) for ex in examples for slot in range(m)]
    width = max((len(c) for _, _, c in picks), default=0)
    # a row per slot: the candidate counts, padded with 1 (integers(1) draws nothing)
    bounds = [[len(top) for top in c] + [1] * (width - len(c)) for _, _, c in picks for _ in range(m)]
    drawn = zip(slot_seeds, _integers(slot_seeds, np.reshape(bounds, (len(slot_seeds), width))).tolist())
    sets = []
    for example, answer_ids, (positions, fallback, candidates) in zip(examples, answers, picks):
        # an out-of-vocabulary token keeps its surface form
        answer_tokens = tokenize(example.answer)
        negatives, ids, provenance = [], [], []
        for slot in range(m):
            slot_seed, indices = next(drawn)
            out_tokens, out_ids = list(answer_tokens), answer_ids.copy()
            for j, top, index in zip(positions, candidates, indices):
                out_ids[j] = top[index]
                out_tokens[j] = tokens[out_ids[j]]
            negatives.append(" ".join(out_tokens))
            ids.append(out_ids)
            provenance.append({
                "slot": slot, "seed": slot_seed, "replaced_positions": positions,
                "fallback": fallback, "mode": mode, "threshold": threshold, "k": k,
            })
        sets.append(NegativeSet(example.id, strategy, negatives, provenance, ids))
    return sets


def train_mcq_scorer(enc: EncodedSet, d: int, seed: int) -> ToyBackend:
    """Stand-in for a scorer fine-tuned on the multiple-choice task: 5
    full-batch contrastive steps at lr 1 (tau_s 0.5) pull input
    embeddings toward gold answers and away from the dataset
    counterfactuals. ``enc`` holds the examples' ids with their
    counterfactuals as negatives; the rows that have any are trained
    on, in a scorer over ``enc.vocab``."""
    usable = [i for i, negs in enumerate(enc.negatives or []) if negs]
    if not usable:
        raise ValueError("no examples with counterfactuals to train on")
    scorer = ToyBackend(enc.vocab, d=d, seed=derive_seed(seed, "mcq_scorer"))
    encoded = enc.take(usable)
    # the per-sample term alone, its gradient a mean over the examples
    config = LossConfig(tau_s=0.5, lambda_b=0.0, lambda_s=1.0)
    for _ in range(5):
        scorer.E -= forward(scorer, encoded, config, nll=False).grads.E
    return scorer


# --- strategy table --------------------------------------------------------------
#
# A builder takes (model, examples, enc, config, seed) and returns one
# NegativeSet per example, in order, each with the ids of its negatives.
# ``enc`` is the examples' EncodedSet under the model's vocabulary (for
# counterfactual, which has no model, the training vocabulary) with each
# example's dataset counterfactuals, in stored order, as its negatives;
# no builder tokenizes an input or a counterfactual again. The replace
# builders take the answer ids from ``enc`` too; they tokenize the answer
# text only to keep the surface form of out-of-vocabulary tokens. Every
# model-based builder calls its model on the whole set. ``config`` is a
# TrainConfig: m, k, threshold, attempts and max_gen_len come from it.
# The builders look the procedures up by module-level name at call time,
# so a wrapper installed on those names sees every call.


@dataclass(frozen=True)
class Strategy:
    build: Callable[..., list[NegativeSet]]
    needs_model: bool  # samples or scores with ``model``
    per_epoch: bool  # rebuilt from the live model every training epoch
    max_m: int | None = None  # the most negatives per example it can give


def _counterfactual(model, examples, enc, config, seed):
    sets = [pick_counterfactuals(ex, config.m, seed) for ex in examples]
    for ns, counterfactual_ids in zip(sets, enc.negatives):
        ns.ids = [counterfactual_ids[p["source_index"]] for p in ns.provenance]
    return sets


def _non_optimal(model, examples, enc, config, seed):
    return nonoptimal_sets(
        model, examples, enc, m=config.m, k=config.k, attempts=config.attempts,
        seed=seed, max_len=config.max_gen_len,
    )


def _replace_zs(model, examples, enc, config, seed, mode="zs"):
    return replace_sets(
        model, examples, enc, threshold=config.threshold, k=config.k, m=config.m, seed=seed,
        mode=mode,
    )


def _replace_mcq(model, examples, enc, config, seed):
    scorer = train_mcq_scorer(enc, d=model.d, seed=seed)
    return _replace_zs(scorer, examples, enc, config, seed, mode="mcq")


STRATEGIES = {
    "counterfactual": Strategy(
        _counterfactual, needs_model=False, per_epoch=False, max_m=MAX_COUNTERFACTUALS
    ),
    "non_optimal": Strategy(_non_optimal, needs_model=True, per_epoch=True),
    "replace_zs": Strategy(_replace_zs, needs_model=True, per_epoch=False),
    "replace_mcq": Strategy(_replace_mcq, needs_model=True, per_epoch=False),
}
DEFAULT_STRATEGY = "counterfactual"


def untrained_model(vocab: Vocabulary, d: int, seed: int) -> ToyBackend:
    """The model a strategy samples or scores with when none is given."""
    return ToyBackend(vocab, d=d, seed=derive_seed(seed, "zs_scorer"))
