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
from typing import Callable

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


def rank_candidates(rows: np.ndarray, gold: np.ndarray, k: int):
    """The replacement candidates at each row of log-probabilities, row by
    row: the top k of the row's ranking without ``gold[r]``, or the
    (k+1)-th token when gold fills the whole top k. The ranking is by
    value descending, ties by lower id, with the special tokens (the
    first ids) left out.

    Returns the first k + 1 ranked ids of each row, each row's candidate
    count (0 when it has none) and gold's column among the top k (k when
    gold is not there): candidate c is column c, or c + 1 from gold's
    column on."""
    order = np.argsort(-rows[:, len(SPECIALS) :], axis=1, kind="stable")
    ranked = order[:, : k + 1] + len(SPECIALS)  # a copy, so the whole ranking is let go
    is_gold = ranked[:, :k] == gold[:, None]
    count = is_gold.shape[1] - is_gold.sum(axis=1)
    # gold is the whole top k only at k 1, and the (k+1)-th then is column 1
    count[(count == 0) & (ranked.shape[1] > k)] = 1
    return ranked, count, np.where(is_gold.any(axis=1), is_gold.argmax(axis=1), k)


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
    answer\\j) - log p(a_j | answer\\j)| exceeds ``threshold``; an answer
    with none falls back to its largest delta (lowest position on ties).
    Replacements are seeded-uniform draws from the top-k tokens of the
    answer-only masked distribution at each selected position, excluding
    the gold token and the special tokens; when gold fills the whole
    top-k, the (k+1)-th ranked token steps in. Output token count always
    equals the gold token count, and each negative's ids are the gold
    answer's ids with the replacements swapped in.

    The set is scored in one
    :meth:`~inferbench.backend.ToyBackend.masked_log_probs` call. Each
    run, while its log-probability rows are held, takes the deltas, the
    selection and its fallback for all its answers at once and ranks the
    answer-only rows of its selected positions row-wise
    (:func:`rank_candidates`). The rest is set-level and reads no
    log-probability: one draw for every slot of the set, then every
    slot's ids and tokens gathered at once from the gold answers with the
    draws swapped in, so each example's m id rows are views of one array.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("zs", "mcq"):
        raise ValueError(f"unknown replace mode {mode!r}")
    if not examples:
        return []
    answers = [ids[:-1] for ids in enc.answers]  # without EOS
    strategy = f"replace_{mode}"
    # every answer position of the set, answer by answer
    lengths = np.fromiter(map(len, answers), np.intp, len(answers))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    owner = np.repeat(np.arange(len(answers)), lengths)  # each position's answer
    column = np.arange(len(owner)) - starts[owner]  # and its place in that answer
    gold = np.concatenate(answers)
    selected = np.zeros(len(gold), dtype=bool)
    fallback = np.zeros(len(answers), dtype=bool)
    picks = []  # rank_candidates of each run's selected positions
    for run, with_ctx, answer_only in scorer.masked_log_probs(answers, enc.inputs):
        lo, hi = starts[run.start], ends[run.stop - 1]
        at_gold = (np.arange(hi - lo), gold[lo:hi])
        deltas = np.abs(with_ctx[at_gold] - answer_only[at_gold])
        by_answer = np.full((len(run), lengths[run].max()), -np.inf)
        by_answer[owner[lo:hi] - run.start, column[lo:hi]] = deltas
        falls = ~(by_answer > threshold).any(axis=1)
        fallback[run] = falls
        selected[lo:hi] = deltas > threshold
        selected[starts[run][falls] + by_answer[falls].argmax(axis=1)] = True
        chosen = np.flatnonzero(selected[lo:hi])
        picks.append(rank_candidates(answer_only[chosen], gold[lo + chosen], k))
    chosen = np.flatnonzero(selected)
    ranked, count, gold_column = (np.concatenate(part) for part in zip(*picks))
    if not count.all():
        p = chosen[np.argmin(count)]
        raise ValueError(
            f"example {examples[owner[p]].id}: no replacement candidates at {column[p]}"
        )

    # one row of draws per slot, m slots per answer: the candidate counts
    # of the answer's chosen positions, padded with 1 (integers(1) draws
    # nothing)
    slots = np.repeat(np.arange(len(answers)), m)
    n_chosen = np.bincount(owner[chosen], minlength=len(answers))
    first = np.cumsum(n_chosen) - n_chosen
    bounds = np.ones((len(answers), n_chosen.max()), dtype=np.int64)
    bounds[owner[chosen], np.arange(len(chosen)) - first[owner[chosen]]] = count
    slot_seeds = [derive_seed(seed, ex.id, strategy, s) for ex in examples for s in range(m)]
    drawn = _integers(slot_seeds, bounds[slots])
    taken = np.arange(bounds.shape[1]) < n_chosen[slots, None]
    slot, nth = np.nonzero(taken)
    at = first[slots[slot]] + nth  # the chosen position each draw is at
    drawn = drawn[taken]
    replacements = ranked[at, drawn + (drawn >= gold_column[at])]

    # answer e's slots are m rows of its length from m * starts[e] on,
    # its gold ids and tokens with the replacements swapped in
    of = np.repeat(np.arange(len(answers)), m * lengths)
    source = starts[of] + (np.arange(len(of)) - m * starts[of]) % lengths[of]
    target = m * starts[slots[slot]] + slot % m * lengths[slots[slot]] + column[chosen[at]]
    ids = gold[source]
    ids[target] = replacements
    # an out-of-vocabulary token keeps its surface form
    words = np.array([w for ex in examples for w in tokenize(ex.answer)], dtype=object)[source]
    words[target] = np.array(scorer.vocab.tokens, dtype=object)[replacements]
    words = words.tolist()
    sets = []
    for e, example in enumerate(examples):
        n, lo = lengths[e], m * starts[e]
        positions = column[chosen[first[e] : first[e] + n_chosen[e]]].tolist()
        provenance = [
            {
                "slot": s, "seed": slot_seed, "replaced_positions": positions,
                "fallback": bool(fallback[e]), "mode": mode, "threshold": threshold, "k": k,
            }
            for s, slot_seed in enumerate(slot_seeds[e * m : (e + 1) * m])
        ]
        negatives = [" ".join(words[row : row + n]) for row in range(lo, lo + m * n, n)]
        rows = list(ids[lo : lo + m * n].reshape(m, n))
        sets.append(NegativeSet(example.id, strategy, negatives, provenance, rows))
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
