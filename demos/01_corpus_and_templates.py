#!/usr/bin/env python3
"""Data model walkthrough: load a dataset, clip a dialogue for the
clipped subsequent-event setting, and serialize inputs with templates."""

from pathlib import Path

from inferbench.corpus import (
    QuestionType,
    clip_dialogue,
    load_dataset,
    prepare_input_text,
)
from inferbench.metrics import tokenize

DATA = Path(__file__).parent.parent / "data"

examples = load_dataset(DATA / "valid.jsonl")
print(f"loaded {len(examples)} validated examples")

ex = examples[0]
print(f"\nexample {ex.id}: question={ex.question.value} difficulty={ex.difficulty.value}")
print(f"gold answer:      {ex.answer}")
print(f"counterfactual 0: {ex.counterfactuals[0]}")

# the clipped view drops everything after the target turn
clipped_example = next(
    e for e in examples if e.question is QuestionType.SUBSEQUENT_EVENT_CLIPPED
)
clipped = clip_dialogue(clipped_example)
print(
    f"\n{clipped_example.id}: {len(clipped_example.dialogue)} turns "
    f"-> {len(clipped.dialogue)} after clipping at t={clipped.target_index}"
)

# serialization is deterministic and versioned by template id
flat = prepare_input_text(clipped, "default")
print(f"\ndefault template ({len(tokenize(flat))} tokens):\n{flat}")

anon = prepare_input_text(clipped, "speaker_ids")
print(f"\nspeaker_ids template:\n{anon}")
