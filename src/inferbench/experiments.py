"""Desk-scale stand-in for the contrastive-improvement experiment.

Trains ToyBackend on the synthetic fixture corpus twice per seed, with
and without the contrastive terms, and measures the validation margin

    sim(h_X, h_gold) - max over negatives of sim(h_X, h_neg)

where the negatives are the fact-swapped counterfactuals. Contrastive
training must widen this margin; the NLL-only run is the control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .backend import ToyBackend, pool
from .corpus import InferenceExample
from .objective import LossConfig, _unit, _zero_embedding, encode
from .synth import build_corpus
from .trainer import TrainConfig, train


def validation_margin(backend: ToyBackend, examples: list[InferenceExample]) -> float:
    """Mean gold-vs-hardest-negative cosine margin of input embeddings,
    on the unit vectors :func:`~inferbench.objective.forward` gives its
    InfoNCE terms: inputs, answers without EOS and counterfactuals pooled
    in one call."""
    if not examples:
        raise ValueError("validation margin of an empty set")
    enc = encode(examples, [ex.counterfactuals for ex in examples], vocab=backend.vocab)
    counts = np.array([len(negs) for negs in enc.negatives])
    if not counts.all():
        raise ValueError(f"example {enc.example_ids[np.argmin(counts)]} has no counterfactual")
    n = len(enc)
    segments = [*enc.inputs, *(a[:-1] for a in enc.answers)]
    segments += [ids for negs in enc.negatives for ids in negs]
    H, _ = _unit(pool(backend.E, segments), lambda row: _zero_embedding(enc, row))
    gold = np.einsum("ij,ij->i", H[:n], H[n : 2 * n])
    negative = np.einsum("ij,ij->i", np.repeat(H[:n], counts, axis=0), H[2 * n :])
    return float(np.mean(gold - np.maximum.reduceat(negative, np.cumsum(counts) - counts)))


@dataclass
class MarginExperimentResult:
    margins_contrastive: list[float]
    margins_nll_only: list[float]

    @property
    def mean_contrastive(self) -> float:
        return float(np.mean(self.margins_contrastive))

    @property
    def mean_nll_only(self) -> float:
        return float(np.mean(self.margins_nll_only))

    @property
    def improvement(self) -> float:
        return self.mean_contrastive - self.mean_nll_only


def contrastive_benefit_experiment(
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> MarginExperimentResult:
    """Paired runs per seed, 3 epochs each of 200 training examples at
    batch 16 and lr0 0.05: the recipe's objective and negatives (the
    :class:`TrainConfig` and :class:`LossConfig` defaults, with
    counterfactual negatives) against NLL-only, margins measured on 50
    validation examples at the best validation checkpoints."""
    train_set, valid_set, _ = build_corpus(n_train=200, n_valid=50, n_test=0)
    margins_cl: list[float] = []
    margins_nll: list[float] = []
    for seed in seeds:
        cfg_cl = TrainConfig(effective_batch=16, lr0=0.05, max_epochs=3, seed=seed)
        cfg_nll = replace(cfg_cl, loss=LossConfig(lambda_b=0.0, lambda_s=0.0))
        result_cl = train(cfg_cl, train_set, valid_set)
        result_nll = train(cfg_nll, train_set, valid_set)
        margins_cl.append(validation_margin(result_cl.best_backend, valid_set))
        margins_nll.append(validation_margin(result_nll.best_backend, valid_set))
    return MarginExperimentResult(margins_contrastive=margins_cl, margins_nll_only=margins_nll)
