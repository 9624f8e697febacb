#!/usr/bin/env python3
"""The composite objective on a tiny batch: loss components, the
total = nll + lambda_b*cl_b + lambda_s*cl_s identity, and the
complex-step gradient gate over every parameter."""

from inferbench.backend import ToyBackend
from inferbench.negatives import pick_counterfactuals
from inferbench.objective import LossConfig, encode, finite_diff_check, forward
from inferbench.synth import build_split
from inferbench.trainer import build_vocabulary

batch = build_split("demo", 4, seed=3)
negatives = [pick_counterfactuals(ex, m=4, seed=0).negatives for ex in batch]
backend = ToyBackend(build_vocabulary(batch), d=8, seed=1)
enc = encode(batch, negatives, vocab=backend.vocab)  # token ids, encoded once

config = LossConfig()  # tau_b=0.1, tau_s=2.5, lambda_b=lambda_s=0.5
breakdown = forward(backend, enc, config)
print(f"nll   = {breakdown.nll:.6f}")
print(f"cl_b  = {breakdown.cl_b:.6f}")
print(f"cl_s  = {breakdown.cl_s:.6f}")
print(f"total = {breakdown.total:.6f}")
recomposed = breakdown.nll + 0.5 * breakdown.cl_b + 0.5 * breakdown.cl_s
print(f"identity residual = {abs(breakdown.total - recomposed):.2e}")

ablation = forward(backend, enc, LossConfig(lambda_b=0.0, lambda_s=0.0))
print(f"\nwithout contrastive terms the total collapses to the nll: "
      f"{ablation.total:.6f} == {ablation.nll:.6f}")

report = finite_diff_check(backend, enc, config, tol=1e-4)
print(f"\ngradient gate: passed={report.passed} "
      f"checked={report.n_checked} max_error={report.max_error:.3e}")
