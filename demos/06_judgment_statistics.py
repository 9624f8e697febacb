#!/usr/bin/env python3
"""Human-evaluation statistics over the shipped judgments: win/tie/lose
ratios, winning rates with a paired t-test, Fleiss kappa, and the
difficulty-stratified comparison report."""

from pathlib import Path

from inferbench.analysis import (
    Judgment,
    fleiss_kappa,
    plausibility_stub,
    stratified_compare,
    win_tie_lose,
    winning_rate,
)
from inferbench.corpus import load_dataset
from inferbench.jsonio import read_jsonl

DATA = Path(__file__).parent.parent / "data"

judgments = [
    Judgment(item_id=r["item_id"], rater_id=r["rater_id"], choice=r["choice"])
    for r in read_jsonl(DATA / "judgments.jsonl")
]
print(f"{len(judgments)} judgments over {len({j.item_id for j in judgments})} items")

ratios = win_tie_lose(judgments, "option_1")
print(f"win/tie/lose: {ratios['win']:.1f} / {ratios['tie']:.1f} / {ratios['lose']:.1f}")
rate_1, _ = winning_rate(judgments, "option_1")
rate_2, _ = winning_rate(judgments, "option_2")
print(f"winning rates: option_1 {rate_1:.3f}, option_2 {rate_2:.3f}")
print(f"fleiss kappa: {fleiss_kappa(judgments):.4f}")

examples = load_dataset(DATA / "test.jsonl")
labels = {ex.id: ex.difficulty.value for ex in examples}
report = stratified_compare(judgments, labels)
overall = report.overall
print(f"\npaired t-test: t={overall.t_statistic:.3f} df={overall.df} "
      f"p={overall.p_value:.4f} significant={overall.significant_at_005}")
for label, stats in report.strata.items():
    print(f"  {label:12s} n={stats.n_items:2d} win={stats.win:.1f}% p={stats.p_value:.3f}")

ex = examples[0]
score = plausibility_stub(ex.answer, " ".join(u.text for u in ex.dialogue))
print(f"\nplausibility stub for {ex.id}: {score:.2f} "
      "(stemmed content-word recall against the dialogue)")
