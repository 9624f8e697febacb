#!/usr/bin/env python3
"""The four negative-sample routes on one example, with the provenance
each one records."""

import json

from inferbench.backend import ToyBackend
from inferbench.negatives import (
    nonoptimal_sets,
    pick_counterfactuals,
    replace_sets,
)
from inferbench.objective import encode
from inferbench.synth import build_split
from inferbench.trainer import build_vocabulary

batch = build_split("demo", 4, seed=3)
ex = batch[0]
print(f"example {ex.id}")
print(f"gold: {ex.answer}\n")

ns = pick_counterfactuals(ex, m=2, seed=7)
print("counterfactual (dataset candidates):")
for neg, prov in zip(ns.negatives, ns.provenance):
    print(f"  {neg}   <- stored index {prov['source_index']}")

sampler = ToyBackend(build_vocabulary(batch), d=8, seed=5)
enc = encode([ex], vocab=sampler.vocab)
ns = nonoptimal_sets(sampler, [ex], enc, m=2, k=10, attempts=5, seed=7, max_len=10)[0]
print("\nnon_optimal (top-k sampled from the model, gold collisions resampled):")
for neg, prov in zip(ns.negatives, ns.provenance):
    print(f"  {neg}   <- attempts={prov['attempts']}")

scorer = ToyBackend(build_vocabulary(batch), d=8, seed=5)
scorer.E *= 20.0
scorer.U *= 20.0  # wider logit range makes the 0.75 threshold meaningful
ns = replace_sets(scorer, [ex], encode([ex], vocab=scorer.vocab),
                  threshold=0.75, k=10, m=2, seed=7, mode="zs")[0]
print("\nreplace_zs (context-sensitive tokens swapped):")
for neg, prov in zip(ns.negatives, ns.provenance):
    print(f"  {neg}   <- positions {prov['replaced_positions']} fallback={prov['fallback']}")

# the in-batch term needs no procedure: its negatives are the other
# examples' golds, the off-diagonal of forward's n x n similarity matrix
print("\nin_batch (gold answers of the other batch members):")
for other in batch[1:]:
    print(f"  {other.answer}")

print("\nfull provenance of the last replace negative:")
print(json.dumps(ns.provenance[-1], indent=2))
