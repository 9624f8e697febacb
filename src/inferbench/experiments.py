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

from .backend import ToyBackend
from .corpus import InferenceExample
from .objective import LossConfig, encode
from .synth import build_corpus
from .trainer import TrainConfig, train


def validation_margin(backend: ToyBackend, examples: list[InferenceExample]) -> float:
    """Mean gold-vs-hardest-negative cosine margin of input embeddings."""
    enc = encode(examples, [ex.counterfactuals for ex in examples], vocab=backend.vocab)
    total = 0.0
    for input_ids, answer_ids, negatives in zip(enc.inputs, enc.answers, enc.negatives):
        h_x = backend.embed_ids(input_ids)
        h_gold = backend.embed_ids(answer_ids[:-1])  # the answer without EOS
        neg_sims = [float(h_x @ backend.embed_ids(ids)) for ids in negatives]
        total += float(h_x @ h_gold) - max(neg_sims)
    return total / len(examples)


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
