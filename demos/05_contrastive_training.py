#!/usr/bin/env python3
"""Contrastive benefit on the synthetic corpus: train with and without
the contrastive terms and compare the gold-vs-hardest-negative margin
of validation input embeddings, the unit pooled vectors the InfoNCE
terms train (two seeds here; the acceptance suite runs five)."""

from inferbench.experiments import contrastive_benefit_experiment

result = contrastive_benefit_experiment(seeds=(0, 1))

print("validation margin sim(h_X, gold) - max_neg sim(h_X, neg):")
for seed, (cl, nll) in enumerate(
    zip(result.margins_contrastive, result.margins_nll_only)
):
    print(f"  seed {seed}:  nll-only {nll:+.4f}   with contrastive {cl:+.4f}")

print(f"\nmean improvement: {result.improvement:+.4f} (acceptance gate: >= +0.05)")
