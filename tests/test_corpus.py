import json

import pytest

from inferbench import corpus
from inferbench.corpus import (
    DatasetError,
    Difficulty,
    QuestionType,
    clip_dialogue,
    example_to_dict,
    load_dataset,
    normalize_answer,
    prepare_input_text,
    save_dataset,
)

from conftest import make_example


def test_question_types_complete():
    assert len(QuestionType) == 6
    assert (
        QuestionType.CAUSE.question_text
        == "What is or could be the cause of the target utterance?"
    )


def test_normalize_answer():
    assert normalize_answer("  The   Rain\tcame ") == "the rain came"


# --- validation --------------------------------------------------------------

def test_valid_example_passes(example):
    example.validate()


def test_target_index_out_of_range():
    with pytest.raises(DatasetError, match="target_index"):
        make_example(target_index=9)


def test_empty_answer_rejected():
    with pytest.raises(DatasetError, match="empty answer"):
        make_example(answer="   ")


def test_counterfactual_equal_to_gold_rejected():
    with pytest.raises(DatasetError, match="equals gold"):
        make_example(
            counterfactuals=("THE RAIN  was announced earlier .",)
        )


def test_duplicate_counterfactuals_rejected():
    with pytest.raises(DatasetError, match="duplicate"):
        make_example(counterfactuals=("a cat .", "A cat ."))


def test_empty_utterance_rejected():
    with pytest.raises(DatasetError, match="empty text"):
        make_example(turns=(("A", "hello ."), ("B", "   ")))


# --- clipping ----------------------------------------------------------------

def test_clip_definition():
    ex = make_example(
        turns=tuple(("A", f"turn number {i} .") for i in range(1, 8)),
        target_index=4,
        question=QuestionType.SUBSEQUENT_EVENT_CLIPPED,
        counterfactuals=(),
    )
    clipped = clip_dialogue(ex)
    assert len(clipped.dialogue) == 4
    assert clipped.target_index == 4
    assert clipped.answer == ex.answer
    assert clipped.counterfactuals == ex.counterfactuals
    assert clipped.difficulty == ex.difficulty


def test_clip_identity_when_target_is_last(example):
    assert clip_dialogue(example) is example


def test_clip_idempotent():
    ex = make_example(
        turns=tuple(("A", f"turn number {i} .") for i in range(1, 6)),
        target_index=2,
        counterfactuals=(),
    )
    once = clip_dialogue(ex)
    twice = clip_dialogue(once)
    assert once == twice


# --- serialization -----------------------------------------------------------

def test_serialize_default_template_exact():
    ex = make_example(
        turns=(("A", "shall we go ?"), ("B", "yes let us go .")),
        target_index=2,
        question=QuestionType.MOTIVATION,
        answer="they want to leave .",
        counterfactuals=(),
    )
    out = prepare_input_text(ex, "default")
    assert out == (
        "What is or could be the motivation of target?\n"
        "target: yes let us go .\n"
        "context: A: shall we go ?\n"
        "B: yes let us go ."
    )


def test_serialize_deterministic(example):
    a = prepare_input_text(example)
    b = prepare_input_text(example)
    assert a == b


def test_serialize_unknown_template(example):
    with pytest.raises(ValueError, match="template_id"):
        prepare_input_text(example, "nope")


def test_serialize_requires_pre_clipped():
    ex = make_example(
        turns=(("A", "one ."), ("B", "two ."), ("A", "three .")),
        target_index=2,
        question=QuestionType.SUBSEQUENT_EVENT_CLIPPED,
        counterfactuals=(),
    )
    clipped = clip_dialogue(ex)
    text = prepare_input_text(clipped)
    assert "three" not in text
    assert "two" in text


def test_prepare_input_text_clips_automatically():
    ex = make_example(
        turns=(("A", "one ."), ("B", "two ."), ("A", "three .")),
        target_index=2,
        question=QuestionType.SUBSEQUENT_EVENT_CLIPPED,
        counterfactuals=(),
    )
    assert "three" not in prepare_input_text(ex)


def test_speaker_ids_template():
    ex = make_example(
        turns=(("alice", "hello there ."), ("bob", "hi alice .")),
        target_index=2,
        counterfactuals=(),
    )
    text = prepare_input_text(ex, "speaker_ids")
    assert "speaker_1: hello there ." in text
    assert "speaker_2: hi alice ." in text
    assert "alice:" not in text


# --- loading / saving --------------------------------------------------------

def test_load_canonical_fixture(tmp_path, example):
    path = tmp_path / "two.jsonl"
    save_dataset([example, make_example(ex_id="ex-2")], path)
    loaded = load_dataset(path)
    assert [ex.id for ex in loaded] == ["ex-1", "ex-2"]


def test_round_trip_identity(tmp_path):
    examples = [
        make_example(ex_id=f"rt-{i}", difficulty=d)
        for i, d in enumerate([Difficulty.SUFFICIENT, Difficulty.LIKELY, None])
    ]
    path = tmp_path / "rt.jsonl"
    save_dataset(examples, path)
    loaded = load_dataset(path)
    assert loaded == examples
    path2 = tmp_path / "rt2.jsonl"
    save_dataset(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_load_reports_line_number(tmp_path, example):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(example_to_dict(example)) + "\nnot json\n")
    with pytest.raises(DatasetError, match=":2"):
        load_dataset(path)


def test_load_validation_error_names_id(tmp_path, example):
    record = example_to_dict(example)
    record["target_index"] = 9
    path = tmp_path / "bad2.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetError, match="ex-1"):
        load_dataset(path)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("counterfactuals", "abc", "counterfactuals must be a list of strings"),
        ("counterfactuals", ["a", 5], "counterfactuals must be a list of strings"),
        ("target_index", 1.5, "target_index must be an integer"),
        ("target_index", True, "target_index must be an integer"),
        ("target_index", None, "target_index must be an integer"),
        ("answer", 5, "answer must be a string"),
        ("answer", None, "answer must be a string"),
        ("id", 5, "id must be a string"),
        ("dialogue", [{"speaker": "A", "text": 7}], "turn 1 speaker and text must be strings"),
        ("difficulty", False, "malformed record"),
        ("difficulty", "", "malformed record"),
    ],
)
def test_canonical_field_types_rejected(tmp_path, example, field, value, message):
    record = example_to_dict(example)
    record[field] = value
    path = tmp_path / "typed.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(DatasetError, match=rf"typed.jsonl:1: {message}"):
        load_dataset(path)


def test_canonical_counterfactuals_may_be_null_or_absent(tmp_path, example):
    record = example_to_dict(example)
    record["counterfactuals"] = None
    path = tmp_path / "nocf.jsonl"
    path.write_text(json.dumps(record) + "\n")
    del record["counterfactuals"]
    with open(path, "a") as fh:
        fh.write(json.dumps({**record, "id": "ex-2"}) + "\n")
    assert [ex.counterfactuals for ex in load_dataset(path)] == [(), ()]


def shared_records(third):
    """Two valid records on one dialogue, then ``third`` over record 1's
    fields."""
    turns = [{"speaker": "A", "text": "did it rain ?"}, {"speaker": "B", "text": "yes ."}]
    first = {"id": "e1", "dialogue": turns, "target_index": 2, "question": "cause",
             "answer": "the rain came .", "counterfactuals": ["the sun came .", "a cat came ."]}
    return [first, {**first, "id": "e2"}, {**first, "id": "e3", **third}]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("third,message", [
    # record 1's utterances, and a counterfactual that normalizes like another
    ({"counterfactuals": ["the sun came .", "The  SUN came ."]},
     "example e3: duplicate counterfactual 'The  SUN came .'"),
    ({"counterfactuals": ["The rain came ."]}, "example e3: counterfactual equals gold answer"),
    # record 1's utterances, and a new empty one after them
    ({"dialogue": [{"speaker": "A", "text": "did it rain ?"}, {"speaker": "B", "text": "yes ."},
                   {"speaker": "A", "text": "  "}]}, "utterance 3 has empty text"),
])
def test_a_record_sharing_utterances_fails_as_alone(tmp_path, third, message):
    path = write_jsonl(tmp_path / "shared.jsonl", shared_records(third))
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:3: {message}"
    # the same record alone fails with the same text, at its own line
    write_jsonl(path, shared_records(third)[2:])
    with pytest.raises(DatasetError) as alone:
        load_dataset(path)
    assert str(alone.value) == f"{path}:1: {message}"


def test_a_malformed_record_is_reported_before_its_empty_utterance(tmp_path):
    records = shared_records({"question": "nope", "dialogue": [{"speaker": "A", "text": " "}]})
    path = write_jsonl(tmp_path / "both.jsonl", records)
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path}:3: malformed record ('nope' is not a valid QuestionType)"


def test_a_load_checks_each_distinct_utterance_and_normalizes_each_string_once(
    tmp_path, monkeypatch
):
    normalized, checked = [], []
    normalize, check = corpus.normalize_answer, corpus.Utterance.validate
    monkeypatch.setattr(corpus, "normalize_answer",
                        lambda text: normalized.append(text) or normalize(text))
    monkeypatch.setattr(corpus.Utterance, "validate",
                        lambda utt: checked.append(utt) or check(utt))
    third = {"dialogue": [{"speaker": "A", "text": "did it rain ?"},
                          {"speaker": "B", "text": "no ."}], "answer": "a cat came .",
             "counterfactuals": ["the rain came ."]}
    examples = load_dataset(write_jsonl(tmp_path / "shared.jsonl", shared_records(third)))
    assert len(examples) == 3
    assert sorted(normalized) == sorted(
        ["the rain came .", "the sun came .", "a cat came ."])
    assert [(u.text, u.index) for u in checked] == [
        ("did it rain ?", 1), ("yes .", 2), ("no .", 2)]
    # every example's own check still covers all of them
    checked.clear()
    for ex in examples:
        ex.validate()
    assert len(checked) == 6


CICERO_RECORD = {
    "ID": "cic-1",
    "Dialogue": [
        "A: did you hear about the rain ?",
        "B: yes the rain is set for friday .",
    ],
    "Target": "yes the rain is set for friday .",
    "Question": "What is or could be the cause of the target utterance?",
    "Choices": [
        "the picnic was announced earlier .",
        "the rain was announced earlier .",
        "the guitar was announced earlier .",
        "the doctor was announced earlier .",
    ],
    "Human Written Answer": [1],
}


def test_cicero_converter(tmp_path):
    path = tmp_path / "cic.json"
    path.write_text(json.dumps([CICERO_RECORD]))
    loaded = load_dataset(path, format="cicero_json")
    assert len(loaded) == 1
    ex = loaded[0]
    # hand-converted expectation: gold is choice 1, others become negatives
    assert ex.id == "cic-1"
    assert ex.target_index == 2
    assert ex.question is QuestionType.CAUSE
    assert ex.answer == "the rain was announced earlier ."
    assert ex.counterfactuals == (
        "the picnic was announced earlier .",
        "the guitar was announced earlier .",
        "the doctor was announced earlier .",
    )
    assert all(
        normalize_answer(c) != normalize_answer(ex.answer) for c in ex.counterfactuals
    )


def test_cicero_converter_clipped_flag(tmp_path):
    record = dict(CICERO_RECORD)
    record["Question"] = (
        "What subsequent event happens or could happen following the target?"
    )
    record["Clipped"] = True
    path = tmp_path / "cic_clipped.json"
    path.write_text(json.dumps([record]))
    ex = load_dataset(path, format="cicero_json")[0]
    assert ex.question is QuestionType.SUBSEQUENT_EVENT_CLIPPED
    record["Clipped"] = False
    path.write_text(json.dumps([record]))
    ex = load_dataset(path, format="cicero_json")[0]
    assert ex.question is QuestionType.SUBSEQUENT_EVENT


def test_cicero_converter_extra_negatives(tmp_path):
    record = dict(CICERO_RECORD)
    record["Negatives"] = ["the train was announced earlier ."]
    path = tmp_path / "cic2.json"
    path.write_text(json.dumps([record]))
    ex = load_dataset(path, format="cicero_json")[0]
    assert len(ex.counterfactuals) == 4
    assert "the train was announced earlier ." in ex.counterfactuals


def test_cicero_duplicate_id_rejected(tmp_path):
    path = tmp_path / "cic3.json"
    path.write_text(json.dumps([CICERO_RECORD, CICERO_RECORD]))
    with pytest.raises(DatasetError, match=r"\[1\]: duplicate example id 'cic-1'"):
        load_dataset(path, format="cicero_json")


def test_unknown_format(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("{}")
    with pytest.raises(ValueError, match="format"):
        load_dataset(path, format="parquet")


def test_shipped_fixtures_load(data_dir):
    for name, count in [("train.jsonl", 200), ("valid.jsonl", 50), ("test.jsonl", 50)]:
        examples = load_dataset(data_dir / name)
        assert len(examples) == count
        for ex in examples:
            ex.validate()
            assert len(ex.counterfactuals) == 4
            assert ex.difficulty is not None


def test_shipped_fixtures_match_generator(data_dir, tmp_path):
    """Guards the committed data files against drift from the generator."""
    from inferbench.synth import build_corpus, build_judgments

    train, valid, test = build_corpus()
    for name, examples in [("train.jsonl", train), ("valid.jsonl", valid), ("test.jsonl", test)]:
        save_dataset(examples, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
        assert load_dataset(data_dir / name) == examples, name
    regenerated = [
        json.dumps({"item_id": j.item_id, "rater_id": j.rater_id, "choice": j.choice})
        for j in build_judgments([ex.id for ex in test])
    ]
    shipped = (data_dir / "judgments.jsonl").read_text().splitlines()
    assert regenerated == shipped
