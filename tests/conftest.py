import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from inferbench.corpus import (
    Difficulty,
    InferenceExample,
    QuestionType,
    Utterance,
)
from inferbench.negatives import replace_sets
from inferbench.objective import encode

DATA_DIR = Path(__file__).parent.parent / "data"


def make_example(
    ex_id="ex-1",
    turns=(("A", "did you hear about the rain ?"), ("B", "yes the rain is set for friday .")),
    target_index=2,
    question=QuestionType.CAUSE,
    answer="the rain was announced earlier .",
    counterfactuals=(
        "the picnic was announced earlier .",
        "the guitar was announced earlier .",
        "the doctor was announced earlier .",
        "the train was announced earlier .",
    ),
    difficulty=Difficulty.SUFFICIENT,
):
    example = InferenceExample(
        id=ex_id,
        dialogue=tuple(
            Utterance(speaker=s, text=t, index=i) for i, (s, t) in enumerate(turns, 1)
        ),
        target_index=target_index,
        question=question,
        answer=answer,
        counterfactuals=tuple(counterfactuals),
        difficulty=difficulty,
    )
    example.validate()
    return example


def replace_one(scorer, example, **args):
    """``replace_sets`` on one example, encoded under the scorer's vocabulary."""
    return replace_sets(scorer, [example], encode([example], vocab=scorer.vocab), **args)[0]


@pytest.fixture
def example():
    return make_example()


@pytest.fixture
def data_dir():
    return DATA_DIR
