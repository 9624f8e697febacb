"""Pipeline entry point: ingest, train, generate, perturb, score,
agree, compare, gradcheck and sweep, driven by a versioned JSON config.

Config defaults mirror the training recipe baked into the package
(tau_b 0.1, tau_s 2.5, lambda_b = lambda_s = 0.5, m 4, k 10, threshold
0.75, effective batch 64, 10 epoch cap, lr 1e-4); flags override config
via repeatable ``--set section.key=value``. Unknown keys are rejected.
Artifacts are canonical JSON stamped with the effective config digest
and seed, so identical reruns are byte-identical. The only environment
variable read is INFERBENCH_LOG (log verbosity).
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import logging
import operator
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .analysis import (
    Judgment,
    compare_metric_scores,
    fleiss_kappa,
    stratified_compare,
    win_tie_lose,
    winning_rate,
)
from .backend import GreedyDecode, TopKDecode, ToyBackend, derive_seed, load_checkpoint
from .corpus import DatasetError, load_dataset, save_dataset
from .jsonio import config_digest, read_jsonl, write_artifact, write_jsonl_artifact
from .metrics import score_corpus
from .negatives import DEFAULT_STRATEGY, STRATEGIES, untrained_model
from .objective import (
    LossConfig,
    build_vocabulary,
    check_number_fields,
    encode_inputs,
    finite_diff_check,
)
from .synth import build_split
from .trainer import TrainConfig, train

log = logging.getLogger("inferbench")

CONFIG_VERSION = "1"

DEFAULT_CONFIG: dict = {
    "config_version": CONFIG_VERSION,
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
        "strategy": DEFAULT_STRATEGY,
        "m": 4,
        "k": 10,
        "threshold": 0.75,
        "attempts": 5,
    },
    "decode": {"method": "greedy", "k": 10, "max_len": 16, "seed": 0},
    "report": {"stratify_by": None},
    "sweep": {"lambda_b": None, "lambda_s": None, "m": None, "strategy": None},
}

STRATA = ("difficulty", "question")


class ConfigError(ValueError):
    pass


def _merge_config(defaults: dict, user: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            merged[key] = _merge_config(defaults[key], value, where + ".")
        else:
            merged[key] = value
    return merged


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"unknown config key {dotted!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key {dotted!r}")
        node[parts[-1]] = value
    return config


def load_run_config(path: str | None, overrides: list[str] | None = None) -> tuple[dict, str]:
    user = {}
    if path:
        user = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
    config = _merge_config(DEFAULT_CONFIG, user)
    config = _apply_overrides(config, overrides or [])
    if str(config["config_version"]) != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {config['config_version']!r}"
        )
    _check_config(config)
    return config, config_digest(config)


def _check_config(config: dict) -> None:
    """Reject any value a subcommand would misread, at every sweep grid
    point, naming the grid point when a sweep is set; the dict itself is
    left as it is, because its digest stamps the artifacts."""
    swept = any(values is not None for values in config["sweep"].values())
    for run in _expand_sweep(config):
        try:
            _train_config(run)
        except ValueError as exc:
            if not swept:
                raise
            raise ConfigError(f"sweep run {_run_name(run)}: {exc}") from exc
    decode = config["decode"]
    if decode["method"] not in ("greedy", "top_k"):
        raise ConfigError(f"unknown decode method {decode['method']!r}")
    try:
        check_number_fields(
            TopKDecode(k=decode["k"], seed=decode["seed"], max_len=decode["max_len"])
        )
    except ValueError as exc:
        raise ConfigError(f"decode.{exc}") from exc
    if decode["k"] < 1:
        raise ConfigError("decode.k must be >= 1")
    if config["report"]["stratify_by"] not in [None, *STRATA]:
        raise ConfigError(f"unknown report.stratify_by {config['report']['stratify_by']!r}")


# the run-config key of each TrainConfig field but ``loss``
_TRAIN_KEYS = {
    "effective_batch": "train.effective_batch",
    "micro_batch": "train.micro_batch",
    "lr0": "train.lr0",
    "max_epochs": "train.max_epochs",
    "warmup_steps": "train.warmup_steps",
    "negative_strategy": "negatives.strategy",
    "m": "negatives.m",
    "k": "negatives.k",
    "threshold": "negatives.threshold",
    "attempts": "negatives.attempts",
    "max_gen_len": "decode.max_len",
    "d": "model.d",
    "seed": "seed",
    "template_id": "template_id",
}


def _train_config(config: dict) -> TrainConfig:
    """The config's TrainConfig; an error that begins with a field name
    begins with its config key instead."""
    values = {
        name: functools.reduce(operator.getitem, key.split("."), config)
        for name, key in _TRAIN_KEYS.items()
    }
    try:
        return TrainConfig(loss=LossConfig(**config["loss"]), **values)
    except ValueError as exc:
        name, _, problem = str(exc).partition(" ")
        keys = {**{field: f"loss.{field}" for field in config["loss"]}, **_TRAIN_KEYS}
        if name not in keys:
            raise
        raise ConfigError(f"{keys[name]} {problem}") from exc


def _meta(digest: str, seed: int) -> dict:
    return {"config_digest": digest, "seed": seed, "tool": f"inferbench-{__version__}"}


# --- subcommands -------------------------------------------------------------

def cmd_ingest(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    examples = load_dataset(args.input, args.format)
    save_dataset(examples, args.out)
    sidecar = Path(args.out).with_suffix(Path(args.out).suffix + ".meta.json")
    write_artifact(sidecar, {"n_examples": len(examples)}, _meta(digest, config["seed"]))
    log.info("ingested %d examples -> %s", len(examples), args.out)
    print(f"ingested {len(examples)} examples -> {args.out}")
    return 0


def cmd_train(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    tc = _train_config(config)
    train_set = load_dataset(args.train)
    valid_set = load_dataset(args.valid)
    result = train(tc, train_set, valid_set, out_dir=args.out_dir, config_digest=digest)
    meta = _meta(digest, config["seed"])
    out = Path(args.out_dir)
    write_jsonl_artifact(out / "steps.jsonl", result.step_log, meta)
    write_jsonl_artifact(out / "epochs.jsonl", result.epoch_log, meta)
    info = result.checkpoint.to_dict()
    # basename keeps the artifact byte-identical across output locations
    info["path"] = Path(info["path"]).name if info["path"] else None
    write_artifact(out / "checkpoint_info.json", info, meta)
    print(
        f"best checkpoint: epoch {result.checkpoint.epoch} "
        f"ppl {result.checkpoint.validation_perplexity:.4f} -> {result.checkpoint.path}"
    )
    return 0


def _generate(backend: ToyBackend, examples, decode: dict, template_id: str) -> list[str]:
    """One decoded answer per example; top-k draws are seeded per example id."""
    if decode["method"] == "greedy":
        decodes = itertools.repeat(GreedyDecode(max_len=decode["max_len"]))
    else:
        decodes = (
            TopKDecode(k=decode["k"], seed=derive_seed(decode["seed"], ex.id, "decode"),
                       max_len=decode["max_len"])
            for ex in examples
        )
    inputs = encode_inputs(backend.vocab, examples, template_id)
    return [" ".join(backend.generate(ids, how)) for ids, how in zip(inputs, decodes)]


def cmd_generate(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    backend = load_checkpoint(args.ckpt)
    examples = load_dataset(args.input)
    generated = _generate(backend, examples, config["decode"], config["template_id"])
    records = [{"id": ex.id, "generated": text} for ex, text in zip(examples, generated)]
    write_jsonl_artifact(args.out, records, _meta(digest, config["seed"]))
    print(f"generated {len(records)} answers -> {args.out}")
    return 0


def cmd_perturb(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    overrides = {"negative_strategy": args.strategy, "m": args.m,
                 "threshold": args.threshold, "k": args.k}
    tc = replace(_train_config(config), **{k: v for k, v in overrides.items() if v is not None})
    seed = args.seed if args.seed is not None else config["seed"]
    if tc.negative_strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {tc.negative_strategy!r}")
    strategy = STRATEGIES[tc.negative_strategy]
    examples = load_dataset(args.input)
    model = None
    if strategy.needs_model and args.ckpt:
        model = load_checkpoint(args.ckpt)
    elif strategy.needs_model:
        model = untrained_model(build_vocabulary(examples, tc.template_id), tc.d, seed)
    records = [ns.to_dict() for ns in strategy.build(model, examples, tc, seed)]
    write_jsonl_artifact(args.out, records, _meta(digest, seed))
    print(f"wrote {len(records)} negative sets ({tc.negative_strategy}) -> {args.out}")
    return 0


def _load_generations(path: str) -> dict[str, str]:
    p = Path(path)
    if p.suffix == ".jsonl":
        out = {}
        for rec in read_jsonl(p):
            if "generated" not in rec or "id" not in rec:
                raise DatasetError(f"{path}: generation records need id and generated fields")
            out[str(rec["id"])] = str(rec["generated"])
        return out
    lines = p.read_text(encoding="utf-8").splitlines()
    return {str(i): line for i, line in enumerate(lines)}


def _load_references(path: str) -> tuple[dict[str, str], dict[str, dict]]:
    """Reference text per id plus stratification labels per id."""
    p = Path(path)
    if p.suffix == ".jsonl":
        examples = load_dataset(p)
        refs = {ex.id: ex.answer for ex in examples}
        labels = {
            ex.id: {
                "difficulty": ex.difficulty.value if ex.difficulty else None,
                "question": ex.question.value,
            }
            for ex in examples
        }
        return refs, labels
    lines = p.read_text(encoding="utf-8").splitlines()
    return {str(i): line for i, line in enumerate(lines)}, {}


def _aligned_pairs(hyps: dict[str, str], refs: dict[str, str]):
    missing = sorted(set(hyps) - set(refs))
    if missing:
        raise DatasetError(f"hypotheses without references: {missing[:5]}")
    ids = [i for i in refs if i in hyps]
    return ids, [(hyps[i], refs[i]) for i in ids]


def _strata_for(ids, labels, key) -> dict[str, str]:
    strata = {}
    for i in ids:
        value = labels.get(i, {}).get(key)
        if value is None:
            raise DatasetError(f"id {i} has no {key} label to stratify by")
        strata[i] = value
    return strata


def cmd_score(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    hyps = _load_generations(args.hyp)
    refs, labels = _load_references(args.ref)
    ids, pairs = _aligned_pairs(hyps, refs)
    stratify = args.stratify_by or config["report"]["stratify_by"]
    strata = _strata_for(ids, labels, stratify) if stratify else None
    report = score_corpus(pairs, ids=ids, strata_labels=strata, with_per_example=args.per_example)
    write_artifact(args.out, report.to_dict(), _meta(digest, config["seed"]))
    bleu2 = report.bleu.get(2)
    print(f"scored {len(pairs)} pairs: bleu2={bleu2:.5f} rouge_l={report.rouge_l:.5f} -> {args.out}")
    return 0


def _read_judgments(path: str) -> list[Judgment]:
    judgments = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            record = json.loads(line)
            for key in ("item_id", "rater_id", "choice"):
                if not isinstance(record, dict) or key not in record:
                    raise DatasetError(f"{path}: line {line_no}: judgment has no {key!r}")
            judgments.append(Judgment(
                item_id=str(record["item_id"]), rater_id=str(record["rater_id"]),
                choice=str(record["choice"]),
            ))
    return judgments


def cmd_agree(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    judgments = _read_judgments(args.judgments)
    rate_1, _ = winning_rate(judgments, "option_1")
    rate_2, _ = winning_rate(judgments, "option_2")
    payload = {
        "n_judgments": len(judgments),
        "kappa": fleiss_kappa(judgments),
        "win_tie_lose_option_1": win_tie_lose(judgments, "option_1"),
        "winning_rate": {"option_1": rate_1, "option_2": rate_2},
    }
    write_artifact(args.out, payload, _meta(digest, config["seed"]))
    print(f"kappa={payload['kappa']:.4f} -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    stratify = args.stratify_by or config["report"]["stratify_by"]
    if args.judgments:
        judgments = _read_judgments(args.judgments)
        labels = None
        if stratify:
            _, ref_labels = _load_references(args.ref)
            item_ids = {j.item_id for j in judgments}
            labels = _strata_for(sorted(item_ids), ref_labels, stratify)
        report = stratified_compare(judgments, labels)
    else:
        if not (args.a and args.b):
            raise ConfigError("compare needs --judgments or both --a and --b")
        refs, ref_labels = _load_references(args.ref)
        hyp_a = _load_generations(args.a)
        hyp_b = _load_generations(args.b)
        ids_a, pairs_a = _aligned_pairs(hyp_a, refs)
        ids_b, pairs_b = _aligned_pairs(hyp_b, refs)
        if ids_a != ids_b:
            raise DatasetError("generation files do not cover the same ids")
        report_a = score_corpus(pairs_a, ids=ids_a, with_per_example=True)
        report_b = score_corpus(pairs_b, ids=ids_b, with_per_example=True)
        metric = args.metric
        scores_a = {i: report_a.per_example[i][metric] for i in ids_a}
        scores_b = {i: report_b.per_example[i][metric] for i in ids_b}
        labels = _strata_for(ids_a, ref_labels, stratify) if stratify else None
        report = compare_metric_scores(scores_a, scores_b, labels)
    write_artifact(args.out, report.to_dict(), _meta(digest, config["seed"]))
    print(f"compare: win={report.overall.win:.1f}% tie={report.overall.tie:.1f}% "
          f"lose={report.overall.lose:.1f}% -> {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    seed = args.seed if args.seed is not None else config["seed"]
    batch = build_split("gradcheck", 4, seed)
    negatives = [list(ex.counterfactuals) for ex in batch]
    vocab = build_vocabulary(batch, config["template_id"])
    backend = ToyBackend(vocab, d=config["model"]["d"], seed=seed)
    report = finite_diff_check(
        backend, batch, negatives, LossConfig(**config["loss"]),
        tol=args.tol, seed=seed, template_id=config["template_id"],
    )
    write_artifact(args.out, report.to_dict(), _meta(digest, seed))
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max_error={report.max_error:.3e} over "
          f"{report.n_checked} parameters -> {args.out}")
    return 0 if report.passed else 1


def _expand_sweep(config: dict) -> list[dict]:
    sweep = config["sweep"]
    for key, values in sweep.items():
        if values is not None and not isinstance(values, list):
            raise ConfigError(f"sweep.{key} must be a list or null, got {values!r}")
    axes = {
        "lambda_b": sweep["lambda_b"] or [config["loss"]["lambda_b"]],
        "lambda_s": sweep["lambda_s"] or [config["loss"]["lambda_s"]],
        "m": sweep["m"] or [config["negatives"]["m"]],
        "strategy": sweep["strategy"] or [config["negatives"]["strategy"]],
    }
    for key, values in axes.items():
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"sweep.{key} repeats the value {repeated[0]!r}")
    runs = []
    for lb, ls, m, strategy in itertools.product(
        axes["lambda_b"], axes["lambda_s"], axes["m"], axes["strategy"]
    ):
        run = copy.deepcopy(config)
        run["loss"]["lambda_b"] = lb
        run["loss"]["lambda_s"] = ls
        run["negatives"]["m"] = m
        run["negatives"]["strategy"] = strategy
        run["sweep"] = dict.fromkeys(run["sweep"])
        runs.append(run)
    return runs


def _run_name(run: dict) -> str:
    return (
        f"lb{run['loss']['lambda_b']}_ls{run['loss']['lambda_s']}"
        f"_m{run['negatives']['m']}_{run['negatives']['strategy']}"
    )


def cmd_sweep(args) -> int:
    config, digest = load_run_config(args.config, args.set)
    runs = _expand_sweep(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.dry_run:
        train_set = load_dataset(args.train)
        valid_set = load_dataset(args.valid)
    rows = []
    for run in runs:
        name = _run_name(run)
        row = {
            "run": name,
            "lambda_b": run["loss"]["lambda_b"],
            "lambda_s": run["loss"]["lambda_s"],
            "m": run["negatives"]["m"],
            "strategy": run["negatives"]["strategy"],
        }
        if not args.dry_run:
            result = train(_train_config(run), train_set, valid_set, out_dir=out_dir / name,
                           config_digest=config_digest(run))
            greedy = dict(run["decode"], method="greedy")
            generated = _generate(result.best_backend, valid_set, greedy, run["template_id"])
            pairs = [(text, ex.answer) for ex, text in zip(valid_set, generated)]
            scores = score_corpus(pairs, ids=[ex.id for ex in valid_set])
            row.update(
                {
                    "validation_perplexity": result.checkpoint.validation_perplexity,
                    "bleu_2": scores.bleu[2],
                    "meteor": scores.meteor,
                    "rouge_l": scores.rouge_l,
                    "cider": scores.cider,
                }
            )
        rows.append(row)
    write_artifact(out_dir / "sweep_summary.json", {"runs": rows}, _meta(digest, config["seed"]))
    print(f"{'planned' if args.dry_run else 'completed'} {len(rows)} sweep runs -> {out_dir}")
    return 0


# --- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="run config JSON (defaults used when omitted)")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key, e.g. --set train.max_epochs=1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inferbench",
        description="Contrastive dialogue-inference training and evaluation workbench",
    )
    parser.add_argument("--version", action="version", version=f"inferbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a dataset and write canonical JSONL")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["canonical_jsonl", "cicero_json"], default="canonical_jsonl")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train ToyBackend with the composite objective")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode answers from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("perturb", help="emit negative samples with provenance")
    p.add_argument("--strategy", choices=list(STRATEGIES))
    p.add_argument("--m", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--ckpt", help="model for non_optimal sampling / replace scoring")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("score", help="n-gram metric report, optionally stratified")
    p.add_argument("--hyp", required=True, help="generations (.jsonl with id/generated, or plain text)")
    p.add_argument("--ref", required=True, help="references (canonical .jsonl or plain text)")
    p.add_argument("--stratify-by", choices=STRATA)
    p.add_argument("--per-example", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("agree", help="inter-annotator agreement and ratios")
    p.add_argument("--judgments", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("compare", help="A/B comparison from judgments or automatic scores")
    p.add_argument("--a", help="generation file for option_1")
    p.add_argument("--b", help="generation file for option_2")
    p.add_argument("--judgments", help="human judgments JSONL")
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", default="rouge_l",
                   choices=["bleu_1", "bleu_2", "bleu_3", "bleu_4", "meteor", "rouge_l", "cider"])
    p.add_argument("--stratify-by", choices=STRATA)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference gradient gate")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="expand lambda/m/strategy lists into runs")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dry-run", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("INFERBENCH_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DatasetError, ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "command": args.command}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
