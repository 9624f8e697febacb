#!/usr/bin/env python3
"""Contrastive benefit on the synthetic corpus: train with and without
the contrastive terms and compare the gold-vs-hardest-negative margin
of validation input embeddings, the unit pooled vectors the InfoNCE
terms train (two seeds here; the acceptance suite runs five)."""

from dataclasses import replace

import numpy as np

from inferbench.objective import LossConfig, validation_margin
from inferbench.synth import build_corpus
from inferbench.trainer import TrainConfig, train

train_set, valid_set, _ = build_corpus(n_train=200, n_valid=50, n_test=0)
cl, nll = [], []
print("validation margin sim(h_X, gold) - max_neg sim(h_X, neg):")
for seed in (0, 1):
    config = TrainConfig(effective_batch=16, lr0=0.05, max_epochs=3, seed=seed)
    nll_only = replace(config, loss=LossConfig(lambda_b=0.0, lambda_s=0.0))
    for margins, cfg in ((cl, config), (nll, nll_only)):
        margins.append(validation_margin(train(cfg, train_set, valid_set).best_backend, valid_set))
    print(f"  seed {seed}:  nll-only {nll[-1]:+.4f}   with contrastive {cl[-1]:+.4f}")

improvement = float(np.mean(cl)) - float(np.mean(nll))
print(f"\nmean improvement: {improvement:+.4f} (acceptance gate: >= +0.05)")
