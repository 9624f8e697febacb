"""Data model for dialogue-inference examples: ingestion, validation,
dialogue clipping and input-text serialization.

Canonical on-disk format is one JSON object per line with keys
``id, dialogue (array of {speaker, text}), target_index, question,
answer, counterfactuals, difficulty`` (difficulty nullable). A converter
accepts the upstream multiple-choice record shape (``ID``, ``Dialogue``
turns as "Speaker: text" strings, ``Target``, ``Question``, ``Choices``
plus a correct-answer index).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path


class QuestionType(Enum):
    CAUSE = "cause"
    SUBSEQUENT_EVENT = "subsequent_event"
    SUBSEQUENT_EVENT_CLIPPED = "subsequent_event_clipped"
    PREREQUISITE = "prerequisite"
    MOTIVATION = "motivation"
    REACTION = "reaction"

    @property
    def question_text(self) -> str:
        return _QUESTION_TEXT[self]


_QUESTION_TEXT = {
    QuestionType.CAUSE: "What is or could be the cause of the target utterance?",
    QuestionType.SUBSEQUENT_EVENT: (
        "What subsequent event happens or could happen following the target?"
    ),
    QuestionType.SUBSEQUENT_EVENT_CLIPPED: (
        "What subsequent event happens or could happen following the target?"
    ),
    QuestionType.PREREQUISITE: "What is or could be the prerequisite of target?",
    QuestionType.MOTIVATION: "What is or could be the motivation of target?",
    QuestionType.REACTION: (
        "What is the possible emotional reaction of the listener in response to target?"
    ),
}


class Difficulty(Enum):
    SUFFICIENT = "sufficient"
    LIKELY = "likely"
    CONCEIVABLE = "conceivable"


class DatasetError(ValueError):
    """Malformed record or invariant violation during ingestion."""


@dataclass(frozen=True)
class Utterance:
    speaker: str
    text: str
    index: int  # 1-based turn position

    def validate(self) -> None:
        if not self.text.strip():
            raise DatasetError(f"utterance {self.index} has empty text")
        if self.index < 1:
            raise DatasetError(f"utterance index {self.index} is not 1-based")


def normalize_answer(text: str) -> str:
    """Lowercase + whitespace collapse; the distinct-from-gold relation."""
    return re.sub(r"\s+", " ", text.strip().lower())


@dataclass(frozen=True)
class InferenceExample:
    id: str
    dialogue: tuple[Utterance, ...]
    target_index: int
    question: QuestionType
    answer: str
    counterfactuals: tuple[str, ...] = ()
    difficulty: Difficulty | None = None

    def validate(self) -> None:
        if not self.dialogue:
            raise DatasetError(f"example {self.id}: empty dialogue")
        for i, utt in enumerate(self.dialogue, start=1):
            utt.validate()
            if utt.index != i:
                raise DatasetError(
                    f"example {self.id}: utterance indices not contiguous at {i}"
                )
        if not 1 <= self.target_index <= len(self.dialogue):
            raise DatasetError(
                f"example {self.id}: target_index {self.target_index} out of "
                f"range 1..{len(self.dialogue)}"
            )
        if not self.answer.strip():
            raise DatasetError(f"example {self.id}: empty answer")
        if len(self.counterfactuals) > 4:
            raise DatasetError(f"example {self.id}: more than 4 counterfactuals")
        gold = normalize_answer(self.answer)
        seen = set()
        for cf in self.counterfactuals:
            norm = normalize_answer(cf)
            if norm == gold:
                raise DatasetError(
                    f"example {self.id}: counterfactual equals gold answer"
                )
            if norm in seen:
                raise DatasetError(
                    f"example {self.id}: duplicate counterfactual {cf!r}"
                )
            seen.add(norm)

    @property
    def target(self) -> Utterance:
        return self.dialogue[self.target_index - 1]


def clip_dialogue(example: InferenceExample) -> InferenceExample:
    """Drop every utterance after the target turn; idempotent."""
    if len(example.dialogue) <= example.target_index:
        return example
    return replace(example, dialogue=example.dialogue[: example.target_index])


# --- serialization templates ---------------------------------------------

def _template_default(example: InferenceExample) -> str:
    context = "\n".join(f"{u.speaker}: {u.text}" for u in example.dialogue)
    return (
        f"{example.question.question_text}\n"
        f"target: {example.target.text}\n"
        f"context: {context}"
    )


def _template_speaker_ids(example: InferenceExample) -> str:
    names = {}
    for u in example.dialogue:
        names.setdefault(u.speaker, f"speaker_{len(names) + 1}")
    context = "\n".join(f"{names[u.speaker]}: {u.text}" for u in example.dialogue)
    return (
        f"{example.question.question_text}\n"
        f"target: {example.target.text}\n"
        f"context: {context}"
    )


TEMPLATES = {
    "default": _template_default,
    "speaker_ids": _template_speaker_ids,
}


def prepare_input_text(example: InferenceExample, template_id: str = "default") -> str:
    """Flatten an example into model input text, deterministically;
    clipped-subsequent-event examples are clipped at the target first."""
    if template_id not in TEMPLATES:
        raise ValueError(f"unknown template_id {template_id!r}")
    if example.question is QuestionType.SUBSEQUENT_EVENT_CLIPPED:
        example = clip_dialogue(example)
    return TEMPLATES[template_id](example)


# --- loading / saving ------------------------------------------------------

def _example_from_canonical(obj: dict, where: str) -> InferenceExample:
    try:
        dialogue = tuple(
            Utterance(speaker=str(t["speaker"]), text=str(t["text"]), index=i)
            for i, t in enumerate(obj["dialogue"], start=1)
        )
        example = InferenceExample(
            id=str(obj["id"]),
            dialogue=dialogue,
            target_index=int(obj["target_index"]),
            question=QuestionType(obj["question"]),
            answer=str(obj["answer"]),
            counterfactuals=tuple(str(c) for c in obj.get("counterfactuals") or ()),
            difficulty=(
                Difficulty(obj["difficulty"]) if obj.get("difficulty") else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{where}: malformed record ({exc})") from exc
    example.validate()
    return example


_QUESTION_BY_TEXT = {}
for _qt in QuestionType:
    _QUESTION_BY_TEXT.setdefault(_qt.question_text.lower(), _qt)


def _split_turn(turn: str) -> tuple[str, str]:
    speaker, sep, text = turn.partition(":")
    if not sep or not text.strip():
        return "speaker", turn.strip()
    return speaker.strip(), text.strip()


def _example_from_cicero(obj: dict, where: str) -> InferenceExample:
    try:
        ex_id = str(obj["ID"])
        turns = [_split_turn(t) for t in obj["Dialogue"]]
        dialogue = tuple(
            Utterance(speaker=s, text=t, index=i)
            for i, (s, t) in enumerate(turns, start=1)
        )
        target_text = str(obj["Target"]).strip()
        target_index = None
        for u in dialogue:
            if u.text == target_text or f"{u.speaker}: {u.text}" == target_text:
                target_index = u.index
                break
        if target_index is None:
            raise DatasetError(f"{where}: Target not found in Dialogue (id {ex_id})")

        q_raw = str(obj["Question"]).strip()
        question = _QUESTION_BY_TEXT.get(q_raw.lower())
        if question is None:
            question = QuestionType(q_raw.lower())
        if question is QuestionType.SUBSEQUENT_EVENT and obj.get("Clipped"):
            question = QuestionType.SUBSEQUENT_EVENT_CLIPPED

        choices = [str(c) for c in obj["Choices"]]
        answer_index = obj.get("Human Written Answer", obj.get("AnswerIndex"))
        if isinstance(answer_index, list):
            answer_index = answer_index[0]
        answer = choices[int(answer_index)]
        gold_norm = normalize_answer(answer)
        counterfactuals = []
        seen = set()
        extra = [str(n) for n in obj.get("Negatives", [])]
        for cand in [c for i, c in enumerate(choices) if i != int(answer_index)] + extra:
            norm = normalize_answer(cand)
            if norm == gold_norm or norm in seen:
                continue
            seen.add(norm)
            counterfactuals.append(cand)
        example = InferenceExample(
            id=ex_id,
            dialogue=dialogue,
            target_index=target_index,
            question=question,
            answer=answer,
            counterfactuals=tuple(counterfactuals[:4]),
            difficulty=(
                Difficulty(str(obj["Difficulty"]).lower())
                if obj.get("Difficulty")
                else None
            ),
        )
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DatasetError(f"{where}: malformed record ({exc})") from exc
    example.validate()
    return example


def load_dataset(path: str | Path, format: str = "canonical_jsonl") -> list[InferenceExample]:
    """Load and validate a dataset; order and count match the file."""
    path = Path(path)
    examples: list[InferenceExample] = []
    if format == "canonical_jsonl":
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{path}:{line_no}: invalid JSON ({exc})") from exc
                examples.append(_example_from_canonical(obj, f"{path}:{line_no}"))
    elif format == "cicero_json":
        with open(path, encoding="utf-8") as fh:
            try:
                records = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(records, list):
            raise DatasetError(f"{path}: expected a JSON array of records")
        for i, obj in enumerate(records):
            examples.append(_example_from_cicero(obj, f"{path}[{i}]"))
    else:
        raise ValueError(f"unknown dataset format {format!r}")
    return examples


def example_to_dict(example: InferenceExample) -> dict:
    return {
        "id": example.id,
        "dialogue": [{"speaker": u.speaker, "text": u.text} for u in example.dialogue],
        "target_index": example.target_index,
        "question": example.question.value,
        "answer": example.answer,
        "counterfactuals": list(example.counterfactuals),
        "difficulty": example.difficulty.value if example.difficulty else None,
    }


def save_dataset(examples: list[InferenceExample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), ensure_ascii=False) + "\n")
