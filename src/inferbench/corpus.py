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

import functools
import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path


# dataset counterfactuals an example may carry (CICERO has four wrong choices)
MAX_COUNTERFACTUALS = 4


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


def jsonl_records(path: str | Path):
    """``(where, record)`` for each non-blank line N of the JSONL file at
    ``path``, ``where`` being ``path:N``: every JSONL input is read here.
    A line that does not parse or is not a JSON object raises
    DatasetError starting with ``where``, as a caller's record errors do."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                where = f"{path}:{line_no}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"{where}: invalid JSON: {exc.msg}") from None
                if not isinstance(record, dict):
                    raise DatasetError(f"{where}: not a JSON object: {record!r}")
                yield where, record


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
    """Lowercase + whitespace collapse; the distinct-from-gold relation.
    ``str.split`` breaks on the characters ``re``'s ``\\s`` matches."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class InferenceExample:
    id: str
    dialogue: tuple[Utterance, ...]
    target_index: int
    question: QuestionType
    answer: str
    counterfactuals: tuple[str, ...] = ()
    difficulty: Difficulty | None = None

    def validate(self, normalize=normalize_answer, turns=None) -> None:
        """Raise DatasetError at the first rule the example breaks. A load
        shares work between its records: ``normalize`` may be a memo of
        :func:`normalize_answer`, and ``turns``, when given, holds the
        1-based positions whose utterance is checked itself (a load's
        shared utterances passed in the record that first used them)."""
        if not self.dialogue:
            raise DatasetError(f"example {self.id}: empty dialogue")
        for i, utt in enumerate(self.dialogue, start=1):
            if turns is None or i in turns:
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
        if len(self.counterfactuals) > MAX_COUNTERFACTUALS:
            raise DatasetError(f"example {self.id}: more than {MAX_COUNTERFACTUALS} counterfactuals")
        gold = normalize(self.answer)
        seen = set()
        for cf in self.counterfactuals:
            norm = normalize(cf)
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

def _speaker_ids(example: InferenceExample) -> dict[str, str]:
    names: dict[str, str] = {}
    for u in example.dialogue:
        names.setdefault(u.speaker, f"speaker_{len(names) + 1}")
    return names


# template id -> the name each speaker of an example is written under
TEMPLATES = {
    "default": lambda example: {u.speaker: u.speaker for u in example.dialogue},
    "speaker_ids": _speaker_ids,
}


def prepare_input_text(example: InferenceExample, template_id: str = "default") -> str:
    """Flatten an example into model input text, deterministically;
    clipped-subsequent-event examples are clipped at the target first."""
    if template_id not in TEMPLATES:
        raise ValueError(f"unknown template_id {template_id!r}")
    if example.question is QuestionType.SUBSEQUENT_EVENT_CLIPPED:
        example = clip_dialogue(example)
    names = TEMPLATES[template_id](example)
    context = "\n".join(f"{names[u.speaker]}: {u.text}" for u in example.dialogue)
    return f"{example.question.question_text}\ntarget: {example.target.text}\ncontext: {context}"


# --- loading / saving ------------------------------------------------------

# the scalar fields a canonical record must give in one JSON type (a bool
# is not an integer here)
_FIELD_TYPES = {"id": str, "target_index": int, "answer": str}


def _check_types(obj: dict, where: str) -> None:
    """Reject the field types that converting would silently change: a
    number read as id, answer, speaker or turn text, a float or bool
    target index truncated, a string of counterfactuals read as its
    characters."""
    for key, kind in _FIELD_TYPES.items():
        if key in obj and type(obj[key]) is not kind:
            name = "an integer" if kind is int else "a string"
            raise DatasetError(f"{where}: {key} must be {name}, got {obj[key]!r}")
    counterfactuals = obj.get("counterfactuals")
    if counterfactuals is not None and not (
        isinstance(counterfactuals, list) and all(isinstance(c, str) for c in counterfactuals)
    ):
        raise DatasetError(
            f"{where}: counterfactuals must be a list of strings, got {counterfactuals!r}"
        )
    dialogue = obj.get("dialogue")
    for i, turn in enumerate(dialogue if isinstance(dialogue, list) else [], start=1):
        if isinstance(turn, dict) and not (
            isinstance(turn.get("speaker", ""), str) and isinstance(turn.get("text", ""), str)
        ):
            raise DatasetError(f"{where}: turn {i} speaker and text must be strings, got {turn!r}")


_QUESTION_BY_VALUE = {q.value: q for q in QuestionType}
_DIFFICULTY_BY_VALUE = {d.value: d for d in Difficulty}


def _member(enum: type[Enum], by_value: dict, value) -> Enum:
    """``enum(value)`` through a value -> member dict; a miss (or an
    unhashable value) takes the Enum call, so its error text is kept."""
    try:
        return by_value[value]
    except (KeyError, TypeError):
        return enum(value)


def _example_from_canonical(obj: dict, where: str, utterances: dict, normalize) -> InferenceExample:
    """One canonical record; ``utterances`` holds the load's distinct
    utterances by (speaker, text, index), shared between examples, and
    ``normalize`` is the load's memo of :func:`normalize_answer`."""
    _check_types(obj, where)
    try:
        dialogue, new_turns = [], set()
        for i, t in enumerate(obj["dialogue"], start=1):
            key = (t["speaker"], t["text"], i)
            utt = utterances.get(key)
            if utt is None:
                utt = utterances[key] = Utterance(*key)
                new_turns.add(i)
            dialogue.append(utt)
        difficulty = obj.get("difficulty")
        example = InferenceExample(
            id=obj["id"],
            dialogue=tuple(dialogue),
            target_index=obj["target_index"],
            question=_member(QuestionType, _QUESTION_BY_VALUE, obj["question"]),
            answer=obj["answer"],
            counterfactuals=tuple(obj.get("counterfactuals") or ()),
            difficulty=(
                None if difficulty is None
                else _member(Difficulty, _DIFFICULTY_BY_VALUE, difficulty)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"{where}: malformed record ({exc})") from exc
    example.validate(normalize, new_turns)
    return example


_QUESTION_BY_TEXT = {}
for _qt in QuestionType:
    _QUESTION_BY_TEXT.setdefault(_qt.question_text.lower(), _qt)


def _split_turn(turn: str) -> tuple[str, str]:
    speaker, sep, text = turn.partition(":")
    if not sep or not text.strip():
        return "speaker", turn.strip()
    return speaker.strip(), text.strip()


def _example_from_cicero(obj: dict, where: str, normalize) -> InferenceExample:
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
        gold_norm = normalize(answer)
        counterfactuals = []
        seen = set()
        extra = [str(n) for n in obj.get("Negatives", [])]
        for cand in [c for i, c in enumerate(choices) if i != int(answer_index)] + extra:
            norm = normalize(cand)
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
            counterfactuals=tuple(counterfactuals[:MAX_COUNTERFACTUALS]),
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
    example.validate(normalize)
    return example


def load_dataset(path: str | Path, format: str = "canonical_jsonl") -> list[InferenceExample]:
    """Load and validate a dataset; order and count match the file. A
    repeated example id raises DatasetError. Each distinct answer or
    counterfactual string is normalized once per load."""
    path = Path(path)
    examples: list[InferenceExample] = []
    seen: set[str] = set()
    utterances: dict[tuple[str, str, int], Utterance] = {}
    normalize = functools.cache(normalize_answer)

    def add(example: InferenceExample, where: str) -> None:
        if example.id in seen:
            raise DatasetError(f"{where}: duplicate example id {example.id!r}")
        seen.add(example.id)
        examples.append(example)

    if format == "canonical_jsonl":
        for where, obj in jsonl_records(path):
            add(_example_from_canonical(obj, where, utterances, normalize), where)
    elif format == "cicero_json":
        with open(path, encoding="utf-8") as fh:
            try:
                records = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(records, list):
            raise DatasetError(f"{path}: expected a JSON array of records")
        for i, obj in enumerate(records):
            where = f"{path}[{i}]"
            if not isinstance(obj, dict):
                raise DatasetError(f"{where}: not a JSON object: {obj!r}")
            add(_example_from_cicero(obj, where, normalize), where)
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
