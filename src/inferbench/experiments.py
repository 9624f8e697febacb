"""Desk-scale stand-in for the contrastive-improvement experiment.

Trains ToyBackend on the synthetic fixture corpus twice per seed, with
and without the contrastive terms, and measures the validation margin

    sim(h_X, h_gold) - max over negatives of sim(h_X, h_neg)

where the negatives are the fact-swapped counterfactuals. Contrastive
training must widen this margin; the NLL-only run is the control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import ToyBackend
from .corpus import InferenceExample
from .objective import LossConfig, encode_set
from .synth import build_corpus
from .trainer import TrainConfig, train


def validation_margin(
    backend: ToyBackend,
    examples: list[InferenceExample],
    template_id: str = "default",
) -> float:
    """Mean gold-vs-hardest-negative cosine margin of input embeddings."""
    enc = encode_set(backend, examples, [list(ex.counterfactuals) for ex in examples], template_id)
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
    n_train: int = 200,
    n_valid: int = 50,
    epochs: int = 3,
    effective_batch: int = 16,
    micro_batch: int = 8,
    lr0: float = 0.05,
    d: int = 16,
) -> MarginExperimentResult:
    """Paired runs per seed: full objective (tau_b 0.1, tau_s 2.5,
    lambda_b = lambda_s = 0.5, m = 4 counterfactual negatives) against
    NLL-only, margins measured on the best validation checkpoints."""
    train_set, valid_set, _ = build_corpus(n_train=n_train, n_valid=n_valid, n_test=0)
    margins_cl: list[float] = []
    margins_nll: list[float] = []
    for seed in seeds:
        common = dict(
            effective_batch=effective_batch,
            micro_batch=micro_batch,
            lr0=lr0,
            max_epochs=epochs,
            m=4,
            d=d,
            seed=seed,
        )
        cfg_cl = TrainConfig(
            loss=LossConfig(tau_b=0.1, tau_s=2.5, lambda_b=0.5, lambda_s=0.5), **common
        )
        cfg_nll = TrainConfig(
            loss=LossConfig(tau_b=0.1, tau_s=2.5, lambda_b=0.0, lambda_s=0.0), **common
        )
        result_cl = train(cfg_cl, train_set, valid_set)
        result_nll = train(cfg_nll, train_set, valid_set)
        margins_cl.append(validation_margin(result_cl.best_backend, valid_set))
        margins_nll.append(validation_margin(result_nll.best_backend, valid_set))
    return MarginExperimentResult(
        margins_contrastive=margins_cl, margins_nll_only=margins_nll
    )
