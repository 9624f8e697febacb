import base64
import dataclasses
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import inferbench.objective
import inferbench.trainer
from inferbench import cli
from inferbench.backend import ToyBackend, load_checkpoint, save_checkpoint
from inferbench.cli import build_parser, load_run_config, main
from inferbench.corpus import DatasetError, load_dataset, save_dataset
from inferbench.jsonio import config_digest, read_jsonl
from inferbench.metrics import tokenize
from inferbench.objective import LossConfig
from inferbench.synth import build_judgments, build_split
from inferbench.trainer import TrainConfig, build_vocabulary, train

from bruteforce import bf_replace_positions
from conftest import DATA_DIR


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    train = build_split("train", 24, seed=5)
    valid = build_split("valid", 8, seed=5)
    save_dataset(train, root / "train.jsonl")
    save_dataset(valid, root / "valid.jsonl")
    judgments = build_judgments([ex.id for ex in valid])
    with open(root / "judgments.jsonl", "w") as fh:
        for j in judgments:
            fh.write(
                json.dumps(
                    {"item_id": j.item_id, "rater_id": j.rater_id, "choice": j.choice}
                )
                + "\n"
            )
    return root


FAST = [
    "--set", "train.max_epochs=1",
    "--set", "train.effective_batch=8",
    "--set", "train.micro_batch=4",
    "--set", "model.d=4",
]


def run(argv):
    return main([str(a) for a in argv])


# --- config ---------------------------------------------------------------------

def test_defaults_match_training_recipe():
    config, _, _ = load_run_config(None)
    assert config["loss"] == {"tau_b": 0.1, "tau_s": 2.5, "lambda_b": 0.5, "lambda_s": 0.5}
    assert config["negatives"]["m"] == 4
    assert config["negatives"]["k"] == 10
    assert config["negatives"]["threshold"] == 0.75
    assert config["train"]["effective_batch"] == 64
    assert config["train"]["max_epochs"] == 10
    assert config["train"]["lr0"] == 1e-4


RECIPE_CONFIG = {
    "config_version": "1",
    "seed": 0,
    "template_id": "default",
    "model": {"d": 16},
    "loss": {"tau_b": 0.1, "tau_s": 2.5, "lambda_b": 0.5, "lambda_s": 0.5},
    "train": {
        "effective_batch": 64,
        "micro_batch": 8,
        "lr0": 1e-4,
        "max_epochs": 10,
        "warmup_steps": 0,
    },
    "negatives": {
        "strategy": "counterfactual",
        "m": 4,
        "k": 10,
        "threshold": 0.75,
        "attempts": 5,
    },
    "decode": {"method": "greedy", "k": 10, "max_len": 16, "seed": 0},
    "report": {"stratify_by": None},
    "sweep": {"lambda_b": None, "lambda_s": None, "m": None, "strategy": None},
}


def test_default_config_is_the_recipe():
    assert cli.DEFAULT_CONFIG == RECIPE_CONFIG
    digest = "d913a1f78121dd042b30181259f82a7f18a6cf7f2cb9be778b704e0441ab26bb"
    assert load_run_config(None)[1] == digest
    assert config_digest(cli.DEFAULT_CONFIG) == digest


def test_default_config_gives_the_default_dataclasses():
    assert cli._train_config(cli.DEFAULT_CONFIG) == TrainConfig()
    assert LossConfig(**cli.DEFAULT_CONFIG["loss"]) == LossConfig()


# every field a run-config key sets, each with its key, default and bound in its metadata
CONFIG_FIELDS = [f for cls in (LossConfig, TrainConfig) for f in dataclasses.fields(cls)
                 if f.metadata]
# the first value outside each bound
OUTSIDE = {">= 1": 0, ">= 0": -1, "> 0": 0}


@pytest.mark.parametrize("field", [f for f in CONFIG_FIELDS if f.metadata["bound"]],
                         ids=lambda f: f.metadata["key"])
def test_a_value_outside_its_bound_is_json_error_naming_the_key(tmp_path, capsys, field):
    key, bound = field.metadata["key"], field.metadata["bound"]
    missing = tmp_path / "missing.jsonl"
    assert run(["train", "--train", missing, "--valid", missing, "--out-dir", tmp_path / "model",
                "--set", f"{key}={OUTSIDE[bound]}"]) == 2
    assert json_error(capsys, "train") == f"{key} must be {bound}"
    assert not list(tmp_path.iterdir())


def test_readme_states_each_config_key_with_its_default_and_rule():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    expected = [f'| `config_version` | `"{cli.CONFIG_VERSION}"` | `"{cli.CONFIG_VERSION}"` |']
    for f in CONFIG_FIELDS:
        rule = ", ".join(filter(None, [f.type.replace(" | None", " or null"), f.metadata["bound"]]))
        expected.append(f"| `{f.metadata['key']}` | `{json.dumps(f.default)}` | {rule} |")
    for axis, (name, _) in cli.SWEEP_AXES.items():
        expected.append(
            f"| `sweep.{axis}` | `null` | null, or a list of distinct `{cli._KEYS[name]}` values |"
        )
    assert rows == expected


def test_model_width_one_is_accepted(tmp_path, small_data):
    assert TrainConfig(d=1).d == 1
    assert run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", tmp_path,
                *FAST, "--set", "model.d=1"]) == 0
    assert load_checkpoint(tmp_path / "best.json").d == 1


def test_unknown_key_named(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"loss": {"tau_q": 1.0}}))
    with pytest.raises(ValueError, match="tau_q"):
        load_run_config(str(cfg))


def test_override_unknown_key_named():
    with pytest.raises(ValueError, match="train.max_epoch"):
        load_run_config(None, ["train.max_epoch=3"])


def test_overrides_change_digest():
    _, digest_a, _ = load_run_config(None)
    _, digest_b, _ = load_run_config(None, ["train.max_epochs=1"])
    assert digest_a != digest_b


def test_help_enumerates_subcommands(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"])
    out = capsys.readouterr().out
    for cmd in ("ingest", "train", "generate", "perturb", "score", "agree",
                "compare", "gradcheck", "sweep"):
        assert cmd in out


@pytest.mark.parametrize(
    "cmd,flags",
    [
        ("ingest", ["--in", "--format", "--out"]),
        ("train", ["--train", "--valid", "--out-dir", "--config", "--set"]),
        ("generate", ["--ckpt", "--in", "--out"]),
        ("perturb", ["--strategy", "--m", "--threshold", "--k", "--seed", "--in", "--out"]),
        ("score", ["--hyp", "--ref", "--stratify-by", "--out"]),
        ("agree", ["--judgments", "--out"]),
        ("compare", ["--a", "--b", "--judgments", "--ref", "--stratify-by", "--out"]),
        ("gradcheck", ["--config", "--seed", "--tol", "--out"]),
        ("sweep", ["--train", "--valid", "--out-dir", "--dry-run"]),
    ],
)
def test_help_enumerates_flags(capsys, cmd, flags):
    with pytest.raises(SystemExit):
        build_parser().parse_args([cmd, "--help"])
    out = capsys.readouterr().out
    for flag in flags:
        assert flag in out


def test_one_parser_serves_every_call_of_a_process(tmp_path, small_data, capsys):
    """Calls sharing the process's parser write what calls with a fresh
    parser write: no ``--set`` value, help request or failed call reaches
    the next call."""
    valid = small_data / "valid.jsonl"
    judgments = small_data / "judgments.jsonl"
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(
        json.dumps({"id": ex.id, "generated": ex.counterfactuals[0]}) + "\n"
        for ex in load_dataset(valid)
    ))

    def calls(out):
        score = ["score", "--hyp", hyp, "--ref", valid]
        return [
            [*score, "--out", out / "strata.json", "--set", "report.stratify_by=difficulty",
             "--set", "seed=3"],
            [*score, "--out", out / "failed.json", "--set", "train.max_epoch=3"],
            [*score, "--out", out / "plain.json"],
            ["score", "--help"],
            ["agree", "--judgments", judgments, "--out", out / "agree_seed.json", "--set", "seed=5"],
            ["score", "--hyp", hyp, "--out", out / "no_ref.json"],
            ["agree", "--judgments", judgments, "--out", out / "agree.json"],
        ]

    def call(argv):
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code

    fresh, shared = tmp_path / "fresh", tmp_path / "shared"
    fresh.mkdir()
    shared.mkdir()
    fresh_codes = []
    for argv in calls(fresh):
        cli._parser.cache_clear()
        fresh_codes.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls(shared)] == fresh_codes == [0, 2, 0, 0, 0, 2, 0]
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()

    names = sorted(p.name for p in fresh.iterdir())
    assert names == sorted(p.name for p in shared.iterdir())
    assert names == ["agree.json", "agree_seed.json", "plain.json", "strata.json"]
    for name in names:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name
    _, default_digest, _ = load_run_config(None)
    plain = json.loads((shared / "plain.json").read_text())
    assert "strata" not in plain
    assert plain["meta"]["config_digest"] == default_digest
    assert json.loads((shared / "agree.json").read_text())["meta"]["seed"] == 0


# --- ingest -----------------------------------------------------------------------

def test_ingest_round_trip(tmp_path, small_data):
    out = tmp_path / "canon.jsonl"
    assert run(["ingest", "--in", small_data / "train.jsonl", "--out", out]) == 0
    assert len(load_dataset(out)) == 24
    assert out.with_suffix(".jsonl.meta.json").exists()


def test_ingest_invalid_record_fails(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    code = run(["ingest", "--in", bad, "--out", tmp_path / "out.jsonl"])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err)["command"] == "ingest"


@pytest.mark.parametrize(
    "field,value",
    [("counterfactuals", "abc"), ("target_index", 1.5), ("target_index", True), ("answer", 5)],
)
def test_ingest_wrong_field_type_is_json_error(tmp_path, capsys, field, value):
    record = json.loads((DATA_DIR / "test.jsonl").read_text().splitlines()[0])
    bad = tmp_path / "typed.jsonl"
    bad.write_text(json.dumps({**record, field: value}) + "\n")
    out = tmp_path / "out.jsonl"
    assert run(["ingest", "--in", bad, "--out", out]) == 2
    assert f"typed.jsonl:1: {field} must be" in json_error(capsys, "ingest")
    assert not out.exists()


def test_ingest_duplicate_id_is_json_error(tmp_path, small_data, capsys):
    lines = (small_data / "train.jsonl").read_text().splitlines(keepends=True)
    bad = tmp_path / "dup.jsonl"
    bad.write_text(lines[0] + lines[1] + lines[0])
    out = tmp_path / "out.jsonl"
    assert run(["ingest", "--in", bad, "--out", out]) == 2
    ex_id = json.loads(lines[0])["id"]
    assert f"dup.jsonl:3: duplicate example id {ex_id!r}" in json_error(capsys, "ingest")
    assert not out.exists()
    assert not out.with_suffix(".jsonl.meta.json").exists()


# --- pipeline ---------------------------------------------------------------------

def test_full_pipeline_and_determinism(tmp_path, small_data):
    def pipeline(root: Path):
        model = root / "model"
        assert run(["train", "--train", small_data / "train.jsonl",
                    "--valid", small_data / "valid.jsonl", "--out-dir", model, *FAST]) == 0
        assert run(["generate", "--ckpt", model / "best.json",
                    "--in", small_data / "valid.jsonl", "--out", root / "gen.jsonl", *FAST]) == 0
        assert run(["perturb", "--strategy", "counterfactual", "--m", "4", "--seed", "7",
                    "--in", small_data / "valid.jsonl", "--out", root / "negs.jsonl"]) == 0
        assert run(["score", "--hyp", root / "gen.jsonl", "--ref", small_data / "valid.jsonl",
                    "--stratify-by", "difficulty", "--out", root / "score.json"]) == 0
        assert run(["compare", "--judgments", small_data / "judgments.jsonl",
                    "--ref", small_data / "valid.jsonl", "--stratify-by", "difficulty",
                    "--out", root / "compare.json"]) == 0

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir(), run_b.mkdir()
    pipeline(run_a)
    pipeline(run_b)
    for rel in ("model/best.json", "model/steps.jsonl", "model/checkpoint_info.json",
                "gen.jsonl", "negs.jsonl", "score.json", "compare.json"):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel

    score = json.loads((run_a / "score.json").read_text())
    assert set(score["strata"]) == {"sufficient", "likely", "conceivable"}
    assert score["meta"]["config_digest"]
    steps = [json.loads(l) for l in (run_a / "model/steps.jsonl").read_text().splitlines()]
    for rec in steps:
        assert rec["total"] == pytest.approx(
            rec["nll"] + 0.5 * rec["cl_b"] + 0.5 * rec["cl_s"], abs=1e-9
        )


def test_perturb_replace_strategies(tmp_path, small_data):
    for strategy in ("replace_zs", "replace_mcq"):
        out = tmp_path / f"{strategy}.jsonl"
        assert run(["perturb", "--strategy", strategy, "--m", "2", "--threshold", "0.75",
                    "--k", "5", "--seed", "3", "--in", small_data / "valid.jsonl",
                    "--out", out, "--set", "model.d=4"]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 8
        assert all(r["strategy"] == strategy for r in records)
        assert all(len(r["negatives"]) == 2 for r in records)


def test_perturb_replace_zs_selects_by_the_threshold(tmp_path, small_data):
    # an untrained model with E and U widened 20x, as demo 04 builds one:
    # its masked deltas clear the recipe's 0.75 threshold, which a trained
    # toy checkpoint's never do
    examples = load_dataset(small_data / "valid.jsonl")
    model = ToyBackend(build_vocabulary(examples), d=8, seed=5)
    model.E *= 20.0
    model.U *= 20.0
    save_checkpoint(model, tmp_path / "wide.json")
    out = tmp_path / "negs.jsonl"
    assert run(["perturb", "--strategy", "replace_zs", "--ckpt", tmp_path / "wide.json",
                "--m", "2", "--k", "5", "--seed", "3", "--in", small_data / "valid.jsonl",
                "--out", out]) == 0
    records = {r["example_id"]: r for r in map(json.loads, out.read_text().splitlines())}
    fallbacks = []
    for ex in examples:
        expected = bf_replace_positions(model, ex, 0.75)
        for prov in records[ex.id]["provenance"]:
            assert prov["threshold"] == 0.75
            assert prov["replaced_positions"] == expected
            fallbacks.append(prov["fallback"])
    assert not all(fallbacks)


@pytest.mark.parametrize("strategy", ["counterfactual", "replace_zs", "replace_mcq"])
def test_trainer_and_perturb_build_the_same_negatives(tmp_path, small_data, monkeypatch, strategy):
    out = tmp_path / "negs.jsonl"
    assert run(["perturb", "--strategy", strategy, "--m", "2", "--k", "5", "--seed", "3",
                "--in", small_data / "valid.jsonl", "--out", out, "--set", "model.d=4"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]

    # the negative ids of every batch the trainer's objective sees
    seen = {}
    forward = inferbench.trainer.forward

    def spy(backend, batch, *args, **kwargs):
        if batch.negatives is not None:
            seen.update(zip(batch.example_ids, batch.negatives))
        return forward(backend, batch, *args, **kwargs)

    monkeypatch.setattr(inferbench.trainer, "forward", spy)
    examples = load_dataset(small_data / "valid.jsonl")
    config = TrainConfig(effective_batch=8, micro_batch=4, max_epochs=1, negative_strategy=strategy,
                         m=2, k=5, d=4, seed=3)
    train(config, examples, examples)
    vocab = build_vocabulary(examples)
    assert sorted(seen) == sorted(r["example_id"] for r in records)
    for r in records:
        expected = [vocab.encode(tokenize(text)) for text in r["negatives"]]
        assert [ids.tolist() for ids in seen[r["example_id"]]] == expected


@pytest.mark.parametrize("command, flags, sets", [
    ("perturb", ["--strategy", "replace_zs", "--m", "2", "--k", "5", "--threshold", "0.5",
                 "--seed", "3"],
     ["negatives.strategy=replace_zs", "negatives.m=2", "negatives.k=5", "negatives.threshold=0.5",
      "seed=3"]),
    ("score", ["--stratify-by", "difficulty"], ["report.stratify_by=difficulty"]),
    ("compare", ["--stratify-by", "difficulty"], ["report.stratify_by=difficulty"]),
    ("gradcheck", ["--seed", "1"], ["seed=1"]),
], ids=["perturb", "score", "compare", "gradcheck"])
def test_a_flag_is_a_set_of_its_config_key(tmp_path, small_data, command, flags, sets):
    """A config-setting flag acts as a ``--set`` of its key placed after
    the user's: the flag form and the ``--set`` form write the same
    bytes, config digest included, and the flag wins over a ``--set``."""
    valid = small_data / "valid.jsonl"
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(
        json.dumps({"id": ex.id, "generated": ex.counterfactuals[0]}) + "\n"
        for ex in load_dataset(valid)
    ))
    inputs = {
        "perturb": ["--in", valid, "--set", "model.d=4"],
        "score": ["--hyp", hyp, "--ref", valid],
        "compare": ["--judgments", small_data / "judgments.jsonl", "--ref", valid],
        "gradcheck": ["--set", "model.d=2"],
    }[command]

    def written(name, *argv):
        out = tmp_path / name
        out.mkdir()
        assert run([command, *inputs, "--out", out / "artifact", *argv]) in (0, 1)
        return {p.name: p.read_bytes() for p in out.iterdir()}

    by_flag = written("flags", *flags)
    assert by_flag == written("sets", *(arg for key in sets for arg in ("--set", key)))
    key = sets[0].split("=")[0]
    assert by_flag == written("both", "--set", f"{key}=null", *flags)


def test_two_strategies_stamp_two_digests(tmp_path, small_data):
    digests = set()
    for strategy in ("counterfactual", "replace_zs"):
        out = tmp_path / f"{strategy}.jsonl"
        assert run(["perturb", "--strategy", strategy, "--in", small_data / "valid.jsonl",
                    "--out", out, "--set", "model.d=4"]) == 0
        meta = json.loads(out.with_suffix(".jsonl.meta.json").read_text())
        digests.add(meta["config_digest"])
    assert len(digests) == 2


def test_score_plain_text_mode(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat\na small dog ran\n")
    ref.write_text("the cat is on the mat\na small dog ran away\n")
    assert run(["score", "--hyp", hyp, "--ref", ref, "--out", tmp_path / "r.json"]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["n_examples"] == 2


@pytest.mark.parametrize("renamed", ["hyp", "ref", "both"])
def test_jsonl_inputs_are_read_by_content_not_by_name(tmp_path, renamed):
    """JSONL generations and canonical references named ``.json`` score
    to the bytes their ``.jsonl`` originals score to."""
    paths = {"hyp": tmp_path / "gen.jsonl", "ref": tmp_path / "test.jsonl"}
    paths["hyp"].write_text("".join(
        json.dumps({"id": ex.id, "generated": ex.counterfactuals[0]}) + "\n"
        for ex in load_dataset(DATA_DIR / "test.jsonl")
    ))
    paths["ref"].write_bytes((DATA_DIR / "test.jsonl").read_bytes())

    def score(hyp, ref, out):
        assert run(["score", "--hyp", hyp, "--ref", ref, "--stratify-by", "difficulty",
                    "--per-example", "--out", out]) == 0
        return out.read_bytes()

    original = score(paths["hyp"], paths["ref"], tmp_path / "original.json")
    for side in ("hyp", "ref") if renamed == "both" else (renamed,):
        paths[side] = paths[side].rename(paths[side].with_suffix(".json"))
    assert score(paths["hyp"], paths["ref"], tmp_path / "renamed.json") == original


def test_plain_text_is_read_as_lines_whatever_its_name(tmp_path, capsys):
    hyp = tmp_path / "hyp.jsonl"
    ref = tmp_path / "ref.json"
    hyp.write_text("the cat sat on the mat\na small dog ran\n")
    ref.write_text("the cat is on the mat\na small dog ran away\n")
    assert run(["score", "--hyp", hyp, "--ref", ref, "--per-example",
                "--out", tmp_path / "r.json"]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert list(report["per_example"]) == ["0", "1"]
    # plain-text hypotheses against canonical references share no id
    test_json = tmp_path / "test.json"
    test_json.write_bytes((DATA_DIR / "test.jsonl").read_bytes())
    assert run(["score", "--hyp", hyp, "--ref", test_json, "--out", tmp_path / "x.json"]) == 2
    assert json_error(capsys, "score") == (
        f"{hyp}: hypotheses without references: ['0', '1']"
    )
    assert not (tmp_path / "x.json").exists()


def test_agree_command(tmp_path, small_data):
    out = tmp_path / "agree.json"
    assert run(["agree", "--judgments", small_data / "judgments.jsonl", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert -1.0 <= payload["kappa"] <= 1.0
    wtl = payload["win_tie_lose_option_1"]
    assert wtl["win"] + wtl["tie"] + wtl["lose"] == pytest.approx(100.0)


def test_compare_automatic_mode(tmp_path, small_data):
    model = tmp_path / "model"
    assert run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", model, *FAST]) == 0
    gen_a, gen_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(["generate", "--ckpt", model / "best.json", "--in", small_data / "valid.jsonl",
                "--out", gen_a, *FAST]) == 0
    assert run(["generate", "--ckpt", model / "best.json", "--in", small_data / "valid.jsonl",
                "--out", gen_b, "--set", "decode.method=top_k", "--set", "decode.k=5", *FAST]) == 0
    assert run(["compare", "--a", gen_a, "--b", gen_b, "--ref", small_data / "valid.jsonl",
                "--metric", "rouge_l", "--out", tmp_path / "cmp.json"]) == 0
    report = json.loads((tmp_path / "cmp.json").read_text())
    assert report["aggregation_rule"] == "score_order"


def test_compare_judgments_needs_no_ref(tmp_path, small_data):
    judgments = small_data / "judgments.jsonl"
    with_ref, without_ref = tmp_path / "with_ref.json", tmp_path / "without_ref.json"
    assert run(["compare", "--judgments", judgments, "--ref", small_data / "valid.jsonl",
                "--out", with_ref]) == 0
    assert run(["compare", "--judgments", judgments, "--out", without_ref]) == 0
    assert without_ref.read_bytes() == with_ref.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--a", "a.jsonl", "--b", "b.jsonl"],
    ["--judgments", "judgments.jsonl", "--stratify-by", "difficulty"],
], ids=["a_b", "stratified_judgments"])
def test_compare_without_needed_ref_is_json_error(tmp_path, capsys, flags):
    # the inputs do not exist: the missing --ref is reported before any read
    out = tmp_path / "cmp.json"
    assert run(["compare", *flags, "--out", out]) == 2
    assert "compare needs --ref" in json_error(capsys, "compare")
    assert not out.exists()


def test_compare_cider_without_scores_is_json_error(tmp_path, capsys):
    # one reference is fewer than the 2 distinct documents CIDEr needs,
    # so no pair has a score to compare
    texts = {"a.txt": "the cat sat", "b.txt": "a dog ran", "ref.txt": "the cat ran"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text + "\n")
    out = tmp_path / "cmp.json"
    with pytest.warns(UserWarning, match="cider skipped"):
        code = run(["compare", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt",
                    "--ref", tmp_path / "ref.txt", "--metric", "cider", "--out", out])
    assert code == 2
    assert "item '0' has no finite score pair, got None and None" in json_error(capsys, "compare")
    assert not out.exists()


def test_gradcheck_command(tmp_path):
    out = tmp_path / "grad.json"
    assert run(["gradcheck", "--seed", "3", "--tol", "1e-4", "--out", out,
                "--set", "model.d=4"]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_error"] < 1e-4


@pytest.mark.parametrize("seed", [1, 17])
def test_gradcheck_passes_at_every_parameter(tmp_path, seed):
    """Seeds where a central difference's rounding failed correct gradients."""
    out = tmp_path / "grad.json"
    assert run(["gradcheck", "--seed", seed, "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    vocab = build_vocabulary(build_split("gradcheck", 4, seed))
    assert payload["n_checked"] == len(vocab) * (2 * cli.DEFAULT_CONFIG["model"]["d"] + 1)


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "1e308"])
def test_gradcheck_tol_outside_0_1_is_json_error(tmp_path, capsys, monkeypatch, tol):
    def no_forward(*args, **kwargs):
        raise AssertionError("forward ran")

    monkeypatch.setattr(inferbench.objective, "forward", no_forward)
    out = tmp_path / "grad.json"
    assert run(["gradcheck", "--seed", "3", "--tol", tol, "--out", out]) == 2
    assert json_error(capsys, "gradcheck") == "tol must be in (0, 1)"
    assert not out.exists()


def test_sweep_dry_run_shapes(tmp_path, small_data):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "sweep": {"m": [1, 2, 3, 4], "strategy": ["counterfactual", "non_optimal",
                                                   "replace_zs", "replace_mcq"]}
    }))
    out_dir = tmp_path / "sweep"
    assert run(["sweep", "--config", cfg, "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", out_dir, "--dry-run"]) == 0
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    assert len(summary["runs"]) == 16
    assert {r["m"] for r in summary["runs"]} == {1, 2, 3, 4}
    assert len({r["strategy"] for r in summary["runs"]}) == 4


@pytest.mark.parametrize("overrides", [
    ["negatives.m=8", "sweep.m=[1,2]"],
    ["negatives.strategy=none", "sweep.lambda_s=[0.0]"],
])
def test_sweep_replaces_an_invalid_base_value(tmp_path, small_data, overrides):
    """A sweep is checked run by run: a base value that every swept value
    replaces need not be valid on its own."""
    out_dir = tmp_path / "sweep"
    flags = [arg for item in overrides for arg in ("--set", item)]
    assert run(["sweep", *flags, "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", out_dir, "--dry-run"]) == 0
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    assert summary["meta"]["seed"] == 0


def test_sweep_dry_run_names_each_run(tmp_path, small_data):
    """A run's name is the directory a real sweep trains it in."""
    out_dir = tmp_path / "sweep"
    assert run(["sweep", "--set", "sweep.lambda_b=[0.5,1.0]",
                "--set", 'sweep.strategy=["counterfactual","replace_zs"]',
                "--train", small_data / "train.jsonl", "--valid", small_data / "valid.jsonl",
                "--out-dir", out_dir, "--dry-run"]) == 0
    rows = json.loads((out_dir / "sweep_summary.json").read_text())["runs"]
    assert [row["run"] for row in rows] == [
        "lb0.5_ls0.5_m4_counterfactual", "lb0.5_ls0.5_m4_replace_zs",
        "lb1.0_ls0.5_m4_counterfactual", "lb1.0_ls0.5_m4_replace_zs",
    ]
    assert rows[3] == {"run": "lb1.0_ls0.5_m4_replace_zs", "lambda_b": 1.0, "lambda_s": 0.5,
                       "m": 4, "strategy": "replace_zs"}
    assert all(set(row) == set(rows[3]) for row in rows)


@pytest.mark.parametrize(
    "command", ["ingest", "train", "generate", "perturb", "score", "agree", "compare", "gradcheck"]
)
def test_every_subcommand_but_sweep_checks_the_base_config(tmp_path, capsys, command):
    """Only ``sweep`` runs the swept values: every other subcommand runs
    on the base config, and rejects it before it opens a file."""
    missing, out = tmp_path / "missing.jsonl", tmp_path / "out"
    paths = {
        "ingest": ["--in", missing, "--out", out],
        "train": ["--train", missing, "--valid", missing, "--out-dir", out],
        "generate": ["--ckpt", missing, "--in", missing, "--out", out],
        "perturb": ["--in", missing, "--out", out],
        "score": ["--hyp", missing, "--ref", missing, "--out", out],
        "agree": ["--judgments", missing, "--out", out],
        "compare": ["--a", missing, "--b", missing, "--ref", missing, "--out", out],
        "gradcheck": ["--out", out],
    }[command]
    assert run([command, *paths, "--set", "negatives.m=8", "--set", "sweep.m=[1,2]"]) == 2
    assert "negatives.m must be <= 4" in json_error(capsys, command)
    assert not list(tmp_path.iterdir())


def test_each_run_builds_its_train_config_once(tmp_path, small_data, monkeypatch):
    """A call with no sweep set builds one TrainConfig; ``sweep`` builds
    one per grid point."""
    built = []
    post_init = TrainConfig.__post_init__

    def counted(tc):
        built.append(tc)
        post_init(tc)

    monkeypatch.setattr(TrainConfig, "__post_init__", counted)
    hyp = tmp_path / "gen.jsonl"
    hyp.write_text("".join(json.dumps({"id": ex.id, "generated": ex.answer}) + "\n"
                           for ex in load_dataset(small_data / "valid.jsonl")))
    assert run(["score", "--hyp", hyp, "--ref", small_data / "valid.jsonl",
                "--out", tmp_path / "score.json"]) == 0
    assert len(built) == 1
    built.clear()
    assert run(["sweep", "--set", "sweep.m=[1,2]", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", tmp_path / "sweep",
                "--dry-run"]) == 0
    assert len(built) == 2


def test_sweep_single_run_executes(tmp_path, small_data):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "train": {"max_epochs": 1, "effective_batch": 8, "micro_batch": 4},
        "model": {"d": 4},
        "sweep": {"m": [2]},
    }))
    out_dir = tmp_path / "runs"
    assert run(["sweep", "--config", cfg, "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", out_dir]) == 0
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    assert len(summary["runs"]) == 1
    assert "bleu_2" in summary["runs"][0]
    assert summary["runs"][0]["validation_perplexity"] > 0


def test_console_entry_point():
    # the subprocess imports the package the suite imported, not an installed copy
    src = str(Path(inferbench.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run(
        [sys.executable, "-m", "inferbench.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert "inferbench" in out.stdout


# --- bad inputs end in the JSON error, exit 2 -------------------------------------

def json_error(capsys, command):
    err = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(err[-1])
    assert payload["command"] == command
    return payload["error"]


def test_diverging_training_is_json_error(tmp_path, small_data, capsys):
    code = run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", tmp_path / "m",
                *FAST, "--set", "train.lr0=1e9"])
    assert code == 2
    assert "non-finite" in json_error(capsys, "train")


def test_short_checkpoint_is_json_error(tmp_path, small_data, capsys):
    model = tmp_path / "model"
    assert run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", model, *FAST]) == 0
    payload = json.loads((model / "best.json").read_text())
    payload["E"] = base64.b64encode(base64.b64decode(payload["E"])[:-8]).decode("ascii")
    short = tmp_path / "short.json"
    short.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["generate", "--ckpt", short, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl"])
    assert code == 2
    assert "checkpoint E has shape" in json_error(capsys, "generate")


def _without_e(payload):
    del payload["E"]
    return payload


@pytest.mark.parametrize("corrupt, message", [
    (_without_e, "checkpoint has no 'E' field"),
    (lambda payload: list(payload.values()), "checkpoint must be a JSON object, got list"),
    (lambda payload: {**payload, "vocab": 7}, "checkpoint vocab must be a list of strings"),
], ids=["no_E", "list", "vocab_not_list"])
def test_malformed_checkpoint_is_json_error(tmp_path, small_data, capsys, corrupt, message):
    good = tmp_path / "good.json"
    save_checkpoint(ToyBackend(build_vocabulary(build_split("train", 4, seed=5)), d=4), good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(good.read_text()))))
    capsys.readouterr()
    code = run(["generate", "--ckpt", bad, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl"])
    assert code == 2
    assert message in json_error(capsys, "generate")


def _e_bytes(payload, edit):
    raw = edit(base64.b64decode(payload["E"]))
    return {**payload, "E": base64.b64encode(raw).decode("ascii")}


def _float_list(text):
    """A format-2 parameter string as the decimal float list of format 1."""
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


NAN_BYTES = struct.pack("<d", float("nan"))
INF_BYTES = struct.pack("<d", float("inf"))


@pytest.mark.parametrize("corrupt, message", [
    (lambda p: {**p, "E": _float_list(p["E"])}, "checkpoint E must be a base64 string"),
    (lambda p: {**p, "U": p["U"][:4] + "*" + p["U"][4:]}, "checkpoint U is not base64"),
    (lambda p: {**p, "b": p["b"][:-1]}, "checkpoint b is not base64 (Incorrect padding)"),
    (lambda p: _e_bytes(p, lambda raw: raw[:-3]), "checkpoint E holds"),
    (lambda p: _e_bytes(p, lambda raw: raw[:-8]), "checkpoint E has shape"),
    (lambda p: _e_bytes(p, lambda raw: INF_BYTES + raw[8:]), "checkpoint E holds non-finite"),
    (lambda p: _e_bytes(p, lambda raw: raw[:-8] + NAN_BYTES), "checkpoint E holds non-finite"),
    (lambda p: {**p, "format_version": 1, **{n: _float_list(p[n]) for n in "EUb"}},
     "unsupported checkpoint version 1"),
], ids=["E_list", "non_base64_char", "bad_padding", "not_whole_float64", "one_value_short",
        "inf", "nan", "format_1"])
def test_corrupt_checkpoint_parameters_are_json_error(
    tmp_path, small_data, capsys, corrupt, message
):
    good = tmp_path / "good.json"
    save_checkpoint(ToyBackend(build_vocabulary(build_split("train", 4, seed=5)), d=4), good)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(good.read_text()))))
    with pytest.raises(ValueError) as info:
        load_checkpoint(bad)
    assert message in str(info.value)
    capsys.readouterr()
    code = run(["generate", "--ckpt", bad, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl"])
    assert code == 2
    assert message in json_error(capsys, "generate")


def _overflowing_checkpoint(path):
    """A loadable checkpoint whose finite parameters overflow every logit."""
    be = ToyBackend(build_vocabulary(build_split("train", 4, seed=5)), d=4)
    be.E[:] = be.U[:] = 1e200
    save_checkpoint(be, path)
    return path


@pytest.mark.parametrize("method", ["greedy", "top_k"])
def test_overflowing_logits_are_json_error(tmp_path, small_data, capsys, method):
    ckpt = _overflowing_checkpoint(tmp_path / "overflow.json")
    capsys.readouterr()
    code = run(["generate", "--ckpt", ckpt, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl", "--set", f"decode.method={method}"])
    assert code == 2
    assert json_error(capsys, "generate") == "logits are not finite"
    assert not (tmp_path / "gen.jsonl").exists()


@pytest.mark.parametrize("command", [
    ["generate", "--set", "decode.method=greedy"],
    ["generate", "--set", "decode.method=top_k"],
    ["perturb", "--strategy", "non_optimal"],
    ["perturb", "--strategy", "replace_zs"],
], ids=["generate_greedy", "generate_top_k", "perturb_non_optimal", "perturb_replace_zs"])
def test_overflowing_logits_leave_only_the_json_error_on_stderr(tmp_path, small_data, command):
    """Decoding and masked scoring check their logits themselves, so numpy
    prints no overflow warning before the JSON error."""
    ckpt = _overflowing_checkpoint(tmp_path / "overflow.json")
    name, *flags = command
    out = tmp_path / "out.jsonl"
    src = str(Path(inferbench.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "inferbench.cli", name, "--ckpt", str(ckpt),
         "--in", str(small_data / "valid.jsonl"), "--out", str(out), *flags],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    payload = json.loads(line)
    assert payload["command"] == name and payload["error"] == "logits are not finite"
    assert not out.exists()


def _capped_address_space():
    # 3 GiB of address space: an allocation the size max_len asks for fails at once
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize("method", ["greedy", "top_k"])
def test_an_absurd_max_len_fails_before_drawing_uniforms(tmp_path, small_data, method):
    """Both methods allocate the token buffer before any work that grows
    with max_len, so 10**12 ends at once in the JSON error, in a child
    process whose address space is capped."""
    ckpt = tmp_path / "model.json"
    save_checkpoint(ToyBackend(build_vocabulary(build_split("train", 4, seed=5)), d=4), ckpt)
    out = tmp_path / "gen.jsonl"
    src = str(Path(inferbench.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "inferbench.cli", "generate", "--ckpt", str(ckpt),
         "--in", str(small_data / "valid.jsonl"), "--out", str(out),
         "--set", f"decode.method={method}", "--set", "decode.max_len=1000000000000"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_capped_address_space,
    )
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    payload = json.loads(line)
    assert payload["command"] == "generate" and "Unable to allocate" in payload["error"]
    assert not out.exists()


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 364. TiB"), "Unable to allocate 364. TiB"),
    (MemoryError(), "MemoryError"),
], ids=["numpy_message", "bare"])
def test_memory_error_is_json_error(
    tmp_path, small_data, small_checkpoint, capsys, monkeypatch, exc, message
):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ToyBackend, "generate_batch", exhausted)
    capsys.readouterr()
    code = run(["generate", "--ckpt", small_checkpoint, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl"])
    assert code == 2
    assert json_error(capsys, "generate") == message


def test_judgment_without_rater_is_json_error(tmp_path, small_data, capsys):
    lines = (small_data / "judgments.jsonl").read_text().splitlines()
    broken = json.loads(lines[1])
    del broken["rater_id"]
    bad = tmp_path / "judgments.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(broken), *lines[2:]]) + "\n")
    code = run(["agree", "--judgments", bad, "--out", tmp_path / "agree.json"])
    assert code == 2
    error = json_error(capsys, "agree")
    assert ":2:" in error and "rater_id" in error


@pytest.mark.parametrize("text, flags, message", [
    ("{'seed': 1}", ["--config", "{bad}", "--judgments", "{judgments}"],
     "{bad}: Expecting property name enclosed in double quotes: line 1 column 2"),
    ('{"item_id": "a", "rater_id": "r", "choice": "maybe"}', ["--judgments", "{bad}"],
     "{bad}:1: unknown choice 'maybe'"),
], ids=["config_not_json", "unknown_choice"])
def test_bad_input_file_is_json_error_naming_it(tmp_path, small_data, capsys, text, flags, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text + "\n")
    paths = {"bad": bad, "judgments": small_data / "judgments.jsonl"}
    code = run(["agree", *(flag.format(**paths) for flag in flags), "--out", tmp_path / "a.json"])
    assert code == 2
    assert json_error(capsys, "agree").startswith(message.format(**paths))
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize(
    "override,message",
    [("train.micro_batch=\"8\"", "micro_batch must be int"), ("model.d=0", "d must be >= 1")],
)
def test_bad_train_config_is_json_error(tmp_path, small_data, capsys, override, message):
    code = run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", tmp_path / "m",
                "--set", override])
    assert code == 2
    assert message in json_error(capsys, "train")


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory, small_data):
    model = tmp_path_factory.mktemp("cli_model")
    assert run(["train", "--train", small_data / "train.jsonl",
                "--valid", small_data / "valid.jsonl", "--out-dir", model, *FAST]) == 0
    return model / "best.json"


BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "command,overrides,message",
    [
        ("sweep --dry-run", ['sweep.strategy=["bogus"]'], "unknown negative strategy 'bogus'"),
        ("sweep --dry-run", ['sweep.lambda_s=["x"]'], "lambda_s must be float"),
        ("sweep --dry-run", ['sweep.strategy=["none"]'], "lambda_s > 0 needs a negative strategy"),
        ("sweep --dry-run", ['sweep.m="12"'], "sweep.m must be a list or null"),
        ("sweep", ["sweep.m=5"], "sweep.m must be a list or null"),
        ("generate", ['decode.max_len="5"'], "decode.max_len must be int"),
        ("perturb", ['negatives.m="2"'], "m must be int"),
        ("generate", ["decode.method=top_k", 'decode.seed="x"'], "seed must be int"),
        ("gradcheck", ["model.d=0"], "d must be >= 1"),
        ("train", ['loss.tau_b="a"'], "tau_b must be float"),
        ("gradcheck", ['loss.tau_b="a"'], "tau_b must be float"),
        ("train", ["template_id=[1]"], "unknown template_id [1]"),
        ("sweep --dry-run", ["sweep.m=[2,2]"], "sweep.m repeats the value 2"),
        ("train", ["negatives.strategy=non_optimal", "negatives.k=0"], "negatives.k must be >= 1"),
        ("train", ["negatives.strategy=non_optimal", "negatives.attempts=0"],
         "negatives.attempts must be >= 1"),
        ("train", ["negatives.strategy=non_optimal", "negatives.m=0"], "negatives.m must be >= 1"),
        ("train", ["negatives.strategy=non_optimal", "decode.max_len=0"],
         "decode.max_len must be >= 1"),
        ("train", ["negatives.threshold=0"], "negatives.threshold must be > 0"),
        ("train", ["train.warmup_steps=-3"], "train.warmup_steps must be >= 0"),
        ("generate", ["decode.method=top_k", "decode.k=0"], "decode.k must be >= 1"),
        ("sweep --dry-run", ["sweep.lambda_s=[0.5,-1]"],
         "sweep run lb0.5_ls-1_m4_counterfactual: loss.lambda_s must be >= 0"),
        ("train", ["negatives.m=5"], "negatives.m must be <= 4"),
        ("sweep --dry-run", ["sweep.m=[1,5]"],
         "sweep run lb0.5_ls0.5_m5_counterfactual: negatives.m must be <= 4"),
        ("generate", ['decode.k="5"'], "decode.k must be int, got '5'"),
        ("train", ["loss.tau_b=0"], "loss.tau_b must be > 0"),
        ("train", ["loss.lambda_s=-0.5"], "loss.lambda_s must be >= 0"),
        ("train", ["train.effective_batch=0"], "train.effective_batch must be >= 1"),
        ("sweep --dry-run", ["sweep.m=[]"], "sweep.m must not be an empty list"),
        ("sweep --dry-run", ["train=5"], "config key 'train' must be an object"),
        ("sweep --dry-run", ["loss=[1]"], "config key 'loss' must be an object"),
        ("sweep --dry-run", ["decode=null"], "config key 'decode' must be an object"),
        ("sweep --dry-run", ["report=1"], "config key 'report' must be an object"),
        ("sweep --dry-run", ["sweep=5"], "config key 'sweep' must be an object"),
        ("train", ["loss.tau_b.x=1"], "config key 'loss.tau_b' must not be an object"),
        ("train", ["loss.tau_b=NaN"], "loss.tau_b must be finite, got nan"),
        # integers no float holds (BIG is 10**400)
        ("gradcheck", [f"loss.tau_b={BIG}"], "loss.tau_b must be finite, got 1000"),
        ("train", [f"negatives.threshold={BIG}"], "negatives.threshold must be finite, got 1000"),
        ("sweep --dry-run", [f"sweep.lambda_b=[0.5, {BIG}]"],
         "000_ls0.5_m4_counterfactual: loss.lambda_b must be finite, got 1000"),
    ],
)
def test_bad_config_is_json_error_at_load(
    tmp_path, small_data, small_checkpoint, capsys, command, overrides, message
):
    name, *flags = command.split()
    paths = {
        "sweep": ["--train", small_data / "train.jsonl", "--valid", small_data / "valid.jsonl",
                  "--out-dir", tmp_path / "sweep"],
        "generate": ["--ckpt", small_checkpoint, "--in", small_data / "valid.jsonl",
                     "--out", tmp_path / "gen.jsonl"],
        "perturb": ["--in", small_data / "valid.jsonl", "--out", tmp_path / "negs.jsonl"],
        "gradcheck": ["--out", tmp_path / "grad.json"],
        "train": ["--train", small_data / "train.jsonl", "--valid", small_data / "valid.jsonl",
                  "--out-dir", tmp_path / "model"],
    }[name]
    sets = [arg for override in overrides for arg in ("--set", override)]
    capsys.readouterr()
    assert run([name, *flags, *paths, *sets]) == 2
    assert message in json_error(capsys, name)
    assert not list(tmp_path.iterdir())


def test_a_set_of_a_section_merges_like_a_config_file(tmp_path, small_data, small_checkpoint):
    """``--set`` of a partial section changes only the keys it holds: it
    writes what ``--set`` of each of those keys writes, digest included."""
    def written(name, override):
        out = tmp_path / name
        out.mkdir()
        assert run(["generate", "--ckpt", small_checkpoint, "--in", small_data / "valid.jsonl",
                    "--out", out / "gen.jsonl", "--set", override]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    assert written("section", 'decode={"method":"top_k"}') == written("key", "decode.method=top_k")


@pytest.mark.parametrize(
    "override,message",
    [('decode.method="beam"', "unknown decode method 'beam'"),
     ('report.stratify_by="speaker"', "unknown report.stratify_by 'speaker'")],
)
def test_load_run_config_checks_every_section(override, message):
    with pytest.raises(ValueError, match=message):
        load_run_config(None, [override])


@pytest.mark.parametrize("lines, message", [
    (['{"id": "test-0000", "generated": 5}', '{"id": "test-0001", "generated": null}'],
     ":1: generated must be a string, got 5"),
    (['{"id": "test-0000", "generated": "a b"}', "5"], ":2: not a JSON object: 5"),
    (['{"id": "test-0000", "generated": "a b"}', "", '{"id": "test-0001", "generated": '],
     ":3: invalid JSON: Expecting value"),
    (['{"id": "test-0000", "generated": "a"}', '{"id": "test-0001", "generated": "b"}',
      '{"id": "test-0000", "generated": "z"}'], ":3: duplicate id 'test-0000'"),
], ids=["non_string_generated", "non_object_line", "truncated_line", "duplicate_id"])
def test_bad_generation_record_is_json_error(tmp_path, capsys, lines, message):
    hyp = tmp_path / "gen.jsonl"
    hyp.write_text("\n".join(lines) + "\n")
    code = run(["score", "--hyp", hyp, "--ref", DATA_DIR / "test.jsonl",
                "--out", tmp_path / "r.json"])
    assert code == 2
    assert message in json_error(capsys, "score")
    assert not (tmp_path / "r.json").exists()


# the argv of each CLI input read line by line, by its command
JSONL_INPUTS = {
    "ingest": lambda path, out: ["ingest", "--in", path, "--out", out / "o.jsonl"],
    "score": lambda path, out: ["score", "--hyp", path, "--ref", DATA_DIR / "test.jsonl",
                                "--out", out / "r.json"],
    "agree": lambda path, out: ["agree", "--judgments", path, "--out", out / "a.json"],
}


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "not a JSON object: [1, 2]"),
    ('{"id": ', "invalid JSON: Expecting value"),
], ids=["non_object", "truncated"])
@pytest.mark.parametrize("reader", [*JSONL_INPUTS, "read_jsonl"])
def test_every_jsonl_reader_names_a_bad_line_alike(tmp_path, capsys, reader, line, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n" + line + "\n")
    if reader == "read_jsonl":
        with pytest.raises(DatasetError) as info:
            read_jsonl(bad)
        error = str(info.value)
    else:
        assert run(JSONL_INPUTS[reader](bad, tmp_path)) == 2
        error = json_error(capsys, reader)
    assert error.startswith(f"{bad}:2: {message}")


# objects json.loads refuses for other reasons than bad syntax (ValueError past
# the 4300-digit integer limit, RecursionError), and two of them on two lines
UNPARSABLE = {
    "huge_int": '{"id": 1%s}' % ("0" * 5000),
    "deep": '{"id": %s}' % ("[" * 100_000),
    "two_lines": '{"id": 1}\n{"id": 2}',
}

# each JSON input: its argv for the file at path (a --set value is the file's
# text) and the start of its error, which names the file or the key
JSON_INPUTS = {
    **{reader: (argv, "{path}:1: invalid JSON: ") for reader, argv in JSONL_INPUTS.items()},
    "cicero": (lambda path, out: ["ingest", "--in", path, "--format", "cicero_json",
                                  "--out", out / "o.jsonl"], "{path}: invalid JSON ("),
    "config": (lambda path, out: ["gradcheck", "--config", path, "--out", out / "g.json"],
               "{path}: "),
    "set": (lambda path, out: ["gradcheck", "--set", f"loss.tau_b={path.read_text()}",
                               "--out", out / "g.json"], "loss.tau_b: "),
    "checkpoint": (lambda path, out: ["generate", "--ckpt", path, "--in", DATA_DIR / "test.jsonl",
                                      "--out", out / "g.jsonl"], "{path}: "),
}


@pytest.mark.parametrize("reader, value", [
    *((reader, value) for reader in JSON_INPUTS for value in ("huge_int", "deep")),
    ("checkpoint", "two_lines"),  # a JSONL file given as a checkpoint
])
def test_json_that_does_not_parse_is_json_error_naming_its_file_or_key(
    tmp_path, capsys, reader, value
):
    make_argv, start = JSON_INPUTS[reader]
    path, out = tmp_path / "input.jsonl", tmp_path / "out"
    path.write_text(UNPARSABLE[value])
    out.mkdir()
    argv = make_argv(path, out)
    assert run(argv) == 2
    assert json_error(capsys, argv[0]).startswith(start.format(path=path))
    assert not list(out.iterdir())


@pytest.mark.parametrize("element", [[1, 2], "x", 3])
def test_a_cicero_element_that_is_not_an_object_is_json_error(tmp_path, capsys, element):
    bad = tmp_path / "cic.json"
    bad.write_text(json.dumps([element]))
    out = tmp_path / "out.jsonl"
    assert run(["ingest", "--in", bad, "--format", "cicero_json", "--out", out]) == 2
    assert json_error(capsys, "ingest") == f"{bad}[0]: not a JSON object: {element!r}"
    assert not out.exists()


def test_an_invalid_example_is_json_error_at_its_record(tmp_path, capsys):
    records = [json.loads(line) for line in (DATA_DIR / "test.jsonl").read_text().splitlines()[:2]]
    records[1]["dialogue"][0]["text"] = "  "
    bad = tmp_path / "blank.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out.jsonl"
    assert run(["ingest", "--in", bad, "--out", out]) == 2
    assert json_error(capsys, "ingest") == f"{bad}:2: utterance 1 has empty text"
    assert not out.exists()


def test_an_invalid_cicero_example_is_json_error_at_its_element(tmp_path, capsys):
    record = {"ID": "c1", "Dialogue": ["A: hi .", ""], "Target": "hi .",
              "Question": "cause", "Choices": ["x .", "y ."], "AnswerIndex": 0}
    bad = tmp_path / "cic.json"
    bad.write_text(json.dumps([{**record, "Dialogue": ["A: hi ."]}, {**record, "ID": "c2"}]))
    out = tmp_path / "out.jsonl"
    assert run(["ingest", "--in", bad, "--format", "cicero_json", "--out", out]) == 2
    assert json_error(capsys, "ingest") == f"{bad}[1]: utterance 2 has empty text"
    assert not out.exists()


def test_score_warns_about_references_without_hypothesis(tmp_path):
    refs = load_dataset(DATA_DIR / "test.jsonl")
    hyp = tmp_path / "gen.jsonl"
    hyp.write_text("".join(
        json.dumps({"id": ex.id, "generated": ex.answer}) + "\n" for ex in refs[:2]
    ))
    with pytest.warns(UserWarning, match=f"{len(refs) - 2} of {len(refs)} reference ids"):
        code = run(["score", "--hyp", hyp, "--ref", DATA_DIR / "test.jsonl",
                    "--out", tmp_path / "r.json"])
    assert code == 0
    assert json.loads((tmp_path / "r.json").read_text())["n_examples"] == 2
