import json
import subprocess
import sys
from pathlib import Path

import pytest

import inferbench.trainer
from inferbench.cli import build_parser, load_run_config, main
from inferbench.corpus import load_dataset, save_dataset
from inferbench.synth import build_judgments, build_split
from inferbench.trainer import TrainConfig, train

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
    config, _ = load_run_config(None)
    assert config["loss"] == {"tau_b": 0.1, "tau_s": 2.5, "lambda_b": 0.5, "lambda_s": 0.5}
    assert config["negatives"]["m"] == 4
    assert config["negatives"]["k"] == 10
    assert config["negatives"]["threshold"] == 0.75
    assert config["train"]["effective_batch"] == 64
    assert config["train"]["max_epochs"] == 10
    assert config["train"]["lr0"] == 1e-4


def test_unknown_key_named(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"loss": {"tau_q": 1.0}}))
    with pytest.raises(ValueError, match="tau_q"):
        load_run_config(str(cfg))


def test_override_unknown_key_named():
    with pytest.raises(ValueError, match="train.max_epoch"):
        load_run_config(None, ["train.max_epoch=3"])


def test_overrides_change_digest():
    _, digest_a = load_run_config(None)
    _, digest_b = load_run_config(None, ["train.max_epochs=1"])
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


@pytest.mark.parametrize("strategy", ["counterfactual", "replace_zs", "replace_mcq"])
def test_trainer_and_perturb_build_the_same_negatives(tmp_path, small_data, monkeypatch, strategy):
    out = tmp_path / "negs.jsonl"
    assert run(["perturb", "--strategy", strategy, "--m", "2", "--k", "5", "--seed", "3",
                "--in", small_data / "valid.jsonl", "--out", out, "--set", "model.d=4"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]

    built = []
    encode_set = inferbench.trainer.encode_set

    def spy(backend, examples, negatives=None, template_id="default"):
        if negatives is not None:
            built.append(negatives)
        return encode_set(backend, examples, negatives, template_id)

    monkeypatch.setattr(inferbench.trainer, "encode_set", spy)
    examples = load_dataset(small_data / "valid.jsonl")
    config = TrainConfig(effective_batch=8, micro_batch=4, max_epochs=1, negative_strategy=strategy,
                         m=2, k=5, d=4, seed=3)
    train(config, examples, examples)
    assert built == [[r["negatives"] for r in records]]


def test_score_plain_text_mode(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat\na small dog ran\n")
    ref.write_text("the cat is on the mat\na small dog ran away\n")
    assert run(["score", "--hyp", hyp, "--ref", ref, "--out", tmp_path / "r.json"]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["n_examples"] == 2


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


def test_gradcheck_command(tmp_path):
    out = tmp_path / "grad.json"
    assert run(["gradcheck", "--seed", "3", "--tol", "1e-4", "--out", out,
                "--set", "model.d=4"]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_error"] < 1e-4


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
    out = subprocess.run(
        [sys.executable, "-m", "inferbench.cli", "--version"],
        capture_output=True, text=True,
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
    payload["E"] = payload["E"][:-3]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["generate", "--ckpt", short, "--in", small_data / "valid.jsonl",
                "--out", tmp_path / "gen.jsonl"])
    assert code == 2
    assert "checkpoint E has shape" in json_error(capsys, "generate")


def test_judgment_without_rater_is_json_error(tmp_path, small_data, capsys):
    lines = (small_data / "judgments.jsonl").read_text().splitlines()
    broken = json.loads(lines[1])
    del broken["rater_id"]
    bad = tmp_path / "judgments.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(broken), *lines[2:]]) + "\n")
    code = run(["agree", "--judgments", bad, "--out", tmp_path / "agree.json"])
    assert code == 2
    error = json_error(capsys, "agree")
    assert "line 2" in error and "rater_id" in error


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
         "sweep run lb0.5_ls-1_m4_counterfactual: loss coefficients must be non-negative"),
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


@pytest.mark.parametrize(
    "override,message",
    [('decode.method="beam"', "unknown decode method 'beam'"),
     ('report.stratify_by="speaker"', "unknown report.stratify_by 'speaker'")],
)
def test_load_run_config_checks_every_section(override, message):
    with pytest.raises(ValueError, match=message):
        load_run_config(None, [override])
