"""Pipeline entry point: ingest, train, generate, perturb, score,
agree, compare, gradcheck and sweep, driven by a versioned JSON config.

The config's typed form is :class:`~inferbench.trainer.TrainConfig`
(with :class:`~inferbench.objective.LossConfig` for the loss section):
each of its fields states its config key, default and bound in its
metadata, its defaults are the default config, and the subcommands read
their values from it, never from the dict. Only the ``sweep`` section
lives in the dict alone; each sweep axis is named once, with the field
it sets, in :data:`SWEEP_AXES`. A
repeatable ``--set section.key=value`` is merged as a config file that
holds only that key would be, after ``--config``. Unknown keys are
rejected. Every subcommand but ``sweep`` checks the base config before
it opens a file; ``sweep`` checks each of its grid points instead.
Artifacts are canonical JSON stamped with the effective config digest
and seed, so identical reruns are byte-identical. The CLI reads no
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .analysis import Judgment, agreement, compare_metric_scores, stratified_compare
from .backend import ToyBackend, derive_seed, load_checkpoint
from .corpus import DatasetError, jsonl_records, load_dataset, save_dataset
from .jsonio import config_digest, write_artifact, write_jsonl_artifact
from .metrics import PAIR_METRICS, pair_scores, score_corpus
from .negatives import STRATEGIES, untrained_model
from .objective import LossConfig, encode, finite_diff_check
from .synth import build_split
from .trainer import STRATA, TrainConfig, train

CONFIG_VERSION = "1"

# every config field: LossConfig's, then TrainConfig's but ``loss``
_FIELDS = [f for cls in (LossConfig, TrainConfig) for f in fields(cls) if f.metadata]
# the run-config key of each config field, by field name
_KEYS = {f.name: f.metadata["key"] for f in _FIELDS}

# each sweep axis: the config field it sets, and the prefix of its value in a run name
SWEEP_AXES = {
    "lambda_b": ("lambda_b", "lb"),
    "lambda_s": ("lambda_s", "ls"),
    "m": ("m", "m"),
    "strategy": ("negative_strategy", ""),
}


def _default_config() -> dict:
    """Each TrainConfig and LossConfig default under its key, and no
    sweep."""
    config = {"config_version": CONFIG_VERSION, "sweep": dict.fromkeys(SWEEP_AXES)}
    for f in _FIELDS:
        *sections, leaf = f.metadata["key"].split(".")
        node = functools.reduce(lambda node, part: node.setdefault(part, {}), sections, config)
        node[leaf] = f.default
    return config


DEFAULT_CONFIG: dict = _default_config()


class ConfigError(ValueError):
    pass


def _merge_config(base: dict, user: dict, path: str = "") -> dict:
    """``base`` with ``user``'s values in its place, section by section;
    a section ``user`` changes is copied, the others are shared with
    ``base``, so no config is changed in place once it is built. An
    object is taken only where ``base`` has a section, so every config
    keeps the sections and keys of the default one."""
    merged = dict(base)
    for key, value in user.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            merged[key] = _merge_config(base[key], value, where + ".")
        elif isinstance(value, dict):
            raise ConfigError(f"config key {where!r} must not be an object")
        else:
            merged[key] = value
    return merged


def _value_at(config: dict, key: str):
    """The value at the dotted ``key`` of ``config``."""
    return functools.reduce(operator.getitem, key.split("."), config)


def _config_at(key: str, value) -> dict:
    """The config that holds only ``value``, at the dotted ``key``."""
    *sections, leaf = key.split(".")
    return functools.reduce(lambda inner, part: {part: inner}, reversed(sections), {leaf: value})


def _override(item: str) -> dict:
    """The config that ``--set key=value`` merges: ``value`` parsed as
    JSON, or else kept as a string, at the dotted ``key``. A value that
    is JSON but does not parse (an integer past Python's digit limit,
    nesting past the recursion limit) is a ConfigError naming ``key``."""
    if "=" not in item:
        raise ConfigError(f"override {item!r} is not of the form key=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return _config_at(key, value)


def load_run_config(
    path: str | None, overrides: list[str] | None = None
) -> tuple[dict, str, list[tuple[dict, dict, TrainConfig]]]:
    """The run config (the default one with the file at ``path`` and then
    each override merged in), its digest, and its runs, each checked: see
    :func:`_expand_sweep`."""
    user = {}
    if path:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
    config = _merge_config(DEFAULT_CONFIG, user)
    for item in overrides or []:
        config = _merge_config(config, _override(item))
    if str(config["config_version"]) != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config_version {config['config_version']!r}"
        )
    runs = _expand_sweep(config)  # checked before the digest meets a bad value
    return config, config_digest(config), runs


def _swept(config: dict) -> bool:
    return any(values is not None for values in config["sweep"].values())


def _train_config(config: dict) -> TrainConfig:
    """The config's TrainConfig."""
    values = {name: _value_at(config, key) for name, key in _KEYS.items()}
    loss = LossConfig(**{f.name: values.pop(f.name) for f in fields(LossConfig)})
    return TrainConfig(loss=loss, **values)


# --- subcommands -------------------------------------------------------------

def cmd_ingest(args, tc: TrainConfig, meta: dict) -> int:
    examples = load_dataset(args.input, args.format)
    save_dataset(examples, args.out)
    sidecar = Path(args.out).with_suffix(Path(args.out).suffix + ".meta.json")
    write_artifact(sidecar, {"n_examples": len(examples)}, meta)
    print(f"ingested {len(examples)} examples -> {args.out}")
    return 0


def cmd_train(args, tc: TrainConfig, meta: dict) -> int:
    train_set = load_dataset(args.train)
    valid_set = load_dataset(args.valid)
    result = train(
        tc, train_set, valid_set, out_dir=args.out_dir, config_digest=meta["config_digest"]
    )
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


def _generate(backend: ToyBackend, examples, tc: TrainConfig) -> list[str]:
    """One decoded answer per example; top-k draws are seeded per example id."""
    k = None if tc.decode_method == "greedy" else tc.decode_k
    seeds = [derive_seed(tc.decode_seed, ex.id, "decode") for ex in examples]
    inputs = encode(examples, template_id=tc.template_id, vocab=backend.vocab).inputs
    generated = backend.generate_batch(inputs, tc.max_gen_len, k, seeds)
    return [" ".join(backend.vocab.decode(ids)) for ids in generated]


def cmd_generate(args, tc: TrainConfig, meta: dict) -> int:
    backend = load_checkpoint(args.ckpt)
    examples = load_dataset(args.input)
    generated = _generate(backend, examples, tc)
    records = [{"id": ex.id, "generated": text} for ex, text in zip(examples, generated)]
    write_jsonl_artifact(args.out, records, meta)
    print(f"generated {len(records)} answers -> {args.out}")
    return 0


def cmd_perturb(args, tc: TrainConfig, meta: dict) -> int:
    if tc.negative_strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {tc.negative_strategy!r}")
    strategy = STRATEGIES[tc.negative_strategy]
    examples = load_dataset(args.input)
    model = load_checkpoint(args.ckpt) if strategy.needs_model and args.ckpt else None
    enc = encode(examples, [ex.counterfactuals for ex in examples], tc.template_id,
                 None if model is None else model.vocab)
    if strategy.needs_model and model is None:
        model = untrained_model(enc.vocab, tc.d, tc.seed)
    records = [ns.to_dict() for ns in strategy.build(model, examples, enc, tc, tc.seed)]
    write_jsonl_artifact(args.out, records, meta)
    print(f"wrote {len(records)} negative sets ({tc.negative_strategy}) -> {args.out}")
    return 0


def _is_jsonl(path: str) -> bool:
    """Whether ``--hyp``, ``--a``, ``--b`` or ``--ref`` at ``path`` is
    JSONL: its first non-blank line starts with ``{`` or ``[``, the start
    of a JSON object or array, whatever the file's name. Then every line
    must be a JSON object, and a line that is not reads as
    ``path:N: <error>``. Any other file is line-aligned plain text."""
    with open(path, encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    return first.lstrip().startswith(("{", "["))


def _plain_lines(path: str) -> dict[str, str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {str(i): line for i, line in enumerate(lines)}


def _load_generations(path: str) -> dict[str, str]:
    if not _is_jsonl(path):
        return _plain_lines(path)
    out = {}
    for where, rec in jsonl_records(path):
        if "generated" not in rec or "id" not in rec:
            raise DatasetError(f"{where}: generation records need id and generated fields")
        if not isinstance(rec["generated"], str):
            raise DatasetError(f"{where}: generated must be a string, got {rec['generated']!r}")
        rec_id = str(rec["id"])
        if rec_id in out:
            raise DatasetError(f"{where}: duplicate id {rec_id!r}")
        out[rec_id] = rec["generated"]
    return out


def _load_references(path: str) -> tuple[dict[str, str], dict[str, dict]]:
    """Reference text per id plus stratification labels per id."""
    if not _is_jsonl(path):
        return _plain_lines(path), {}
    examples = load_dataset(path)
    refs = {ex.id: ex.answer for ex in examples}
    labels = {
        ex.id: {
            "difficulty": ex.difficulty.value if ex.difficulty else None,
            "question": ex.question.value,
        }
        for ex in examples
    }
    return refs, labels


def _aligned_pairs(hyp_path: str, hyps: dict[str, str], refs: dict[str, str]):
    missing = sorted(set(hyps) - set(refs))
    if missing:
        raise DatasetError(f"{hyp_path}: hypotheses without references: {missing[:5]}")
    ids = [i for i in refs if i in hyps]
    if len(ids) < len(refs):
        warnings.warn(
            f"{len(refs) - len(ids)} of {len(refs)} reference ids have no hypothesis",
            stacklevel=2,
        )
    return ids, [(hyps[i], refs[i]) for i in ids]


def _strata_for(ids, labels, key) -> dict[str, str]:
    strata = {}
    for i in ids:
        value = labels.get(i, {}).get(key)
        if value is None:
            raise DatasetError(f"id {i} has no {key} label to stratify by")
        strata[i] = value
    return strata


def cmd_score(args, tc: TrainConfig, meta: dict) -> int:
    hyps = _load_generations(args.hyp)
    refs, labels = _load_references(args.ref)
    ids, pairs = _aligned_pairs(args.hyp, hyps, refs)
    strata = _strata_for(ids, labels, tc.stratify_by) if tc.stratify_by else None
    report = score_corpus(pairs, ids=ids, strata_labels=strata, with_per_example=args.per_example)
    write_artifact(args.out, report.to_dict(), meta)
    bleu2 = report.bleu.get(2)
    print(f"scored {len(pairs)} pairs: bleu2={bleu2:.5f} rouge_l={report.rouge_l:.5f} -> {args.out}")
    return 0


def _read_judgments(path: str) -> list[Judgment]:
    judgments = []
    for where, record in jsonl_records(path):
        for key in ("item_id", "rater_id", "choice"):
            if key not in record:
                raise DatasetError(f"{where}: judgment has no {key!r}")
        try:
            judgments.append(Judgment(
                item_id=str(record["item_id"]), rater_id=str(record["rater_id"]),
                choice=str(record["choice"]),
            ))
        except ValueError as exc:
            raise DatasetError(f"{where}: {exc}") from exc
    return judgments


def cmd_agree(args, tc: TrainConfig, meta: dict) -> int:
    judgments = _read_judgments(args.judgments)
    payload = {"n_judgments": len(judgments), **agreement(judgments)}
    write_artifact(args.out, payload, meta)
    print(f"kappa={payload['kappa']:.4f} -> {args.out}")
    return 0


def cmd_compare(args, tc: TrainConfig, meta: dict) -> int:
    stratify = tc.stratify_by
    if not (args.judgments or args.a and args.b):
        raise ConfigError("compare needs --judgments or both --a and --b")
    if not args.ref and (stratify or not args.judgments):
        raise ConfigError("compare needs --ref to score --a/--b or to stratify")
    if args.judgments:
        judgments = _read_judgments(args.judgments)
        labels = None
        if stratify:
            _, ref_labels = _load_references(args.ref)
            item_ids = {j.item_id for j in judgments}
            labels = _strata_for(sorted(item_ids), ref_labels, stratify)
        report = stratified_compare(judgments, labels)
    else:
        refs, ref_labels = _load_references(args.ref)
        hyp_a = _load_generations(args.a)
        hyp_b = _load_generations(args.b)
        ids_a, pairs_a = _aligned_pairs(args.a, hyp_a, refs)
        ids_b, pairs_b = _aligned_pairs(args.b, hyp_b, refs)
        if ids_a != ids_b:
            raise DatasetError("generation files do not cover the same ids")
        scores_a = dict(zip(ids_a, pair_scores(pairs_a, args.metric)))
        scores_b = dict(zip(ids_b, pair_scores(pairs_b, args.metric)))
        labels = _strata_for(ids_a, ref_labels, stratify) if stratify else None
        report = compare_metric_scores(scores_a, scores_b, labels)
    write_artifact(args.out, report.to_dict(), meta)
    print(f"compare: win={report.overall.win:.1f}% tie={report.overall.tie:.1f}% "
          f"lose={report.overall.lose:.1f}% -> {args.out}")
    return 0


def cmd_gradcheck(args, tc: TrainConfig, meta: dict) -> int:
    examples = build_split("gradcheck", 4, tc.seed)
    enc = encode(examples, [ex.counterfactuals for ex in examples], tc.template_id)
    backend = ToyBackend(enc.vocab, d=tc.d, seed=tc.seed)
    report = finite_diff_check(backend, enc, tc.loss, tol=args.tol)
    write_artifact(args.out, report.to_dict(), meta)
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max_error={report.max_error:.3e} over "
          f"{report.n_checked} parameters -> {args.out}")
    return 0 if report.passed else 1


def _expand_sweep(config: dict) -> list[tuple[dict, dict, TrainConfig]]:
    """Each grid point of the config's sweep, as its value per axis, with
    its run config (the config with those values at their keys and no
    sweep) and that run's TrainConfig. An axis left null holds the
    config's own value, so with no sweep set the one run is the config.
    Every run config is built before any TrainConfig, and an error in a
    TrainConfig names its grid point when a sweep is set; the run
    configs are left as they are, because their digests stamp the
    artifacts."""
    axes = []
    for axis, (name, _) in SWEEP_AXES.items():
        values = config["sweep"][axis]
        if values is not None and not isinstance(values, list):
            raise ConfigError(f"sweep.{axis} must be a list or null, got {values!r}")
        if values == []:
            raise ConfigError(f"sweep.{axis} must not be an empty list")
        values = values or [_value_at(config, _KEYS[name])]
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ConfigError(f"sweep.{axis} repeats the value {repeated[0]!r}")
        axes.append(values)
    unswept = _merge_config(config, {"sweep": dict.fromkeys(SWEEP_AXES)})
    points = []
    for values in itertools.product(*axes):
        point = dict(zip(SWEEP_AXES, values))
        run = unswept
        for axis, value in point.items():
            run = _merge_config(run, _config_at(_KEYS[SWEEP_AXES[axis][0]], value))
        points.append((point, run))
    runs = []
    for point, run in points:
        try:
            runs.append((point, run, _train_config(run)))
        except ValueError as exc:
            if not _swept(config):
                raise
            raise ConfigError(f"sweep run {_run_name(point)}: {exc}") from exc
    return runs


def _run_name(point: dict) -> str:
    return "_".join(f"{SWEEP_AXES[axis][1]}{value}" for axis, value in point.items())


def cmd_sweep(args, runs: list[tuple[dict, dict, TrainConfig]], meta: dict) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not args.dry_run:
        train_set = load_dataset(args.train)
        valid_set = load_dataset(args.valid)
    rows = []
    for point, run, tc in runs:
        name = _run_name(point)
        row = {"run": name, **point}
        if not args.dry_run:
            result = train(tc, train_set, valid_set, out_dir=out_dir / name,
                           config_digest=config_digest(run))
            greedy = replace(tc, decode_method="greedy")
            generated = _generate(result.best_backend, valid_set, greedy)
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
    write_artifact(out_dir / "sweep_summary.json", {"runs": rows}, meta)
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
    p.add_argument("--strategy", dest="negative_strategy", choices=list(STRATEGIES))
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
    p.add_argument("--hyp", required=True, help="generations (JSONL with id/generated, or plain text)")
    p.add_argument("--ref", required=True, help="references (canonical JSONL or plain text)")
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
    p.add_argument("--ref", help="references; needed with --a/--b or --stratify-by")
    p.add_argument("--metric", default="rouge_l", choices=PAIR_METRICS)
    p.add_argument("--stratify-by", choices=STRATA)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gradcheck", help="complex-step gradient gate")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: each parse starts from a fresh namespace
    (``--set`` from None), so no call's values reach the next."""
    return build_parser()


# the config field each config-setting flag sets, as its argparse dest
_FLAG_FIELDS = ("negative_strategy", "m", "k", "threshold", "seed", "stratify_by")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # a config-setting flag is a --set after the user's: it wins, and the
    # config digest that stamps the artifacts records it
    args.set = [*(args.set or []), *(
        f"{_KEYS[name]}={json.dumps(getattr(args, name))}"
        for name in _FLAG_FIELDS if getattr(args, name, None) is not None
    )]
    try:
        config, digest, runs = load_run_config(args.config, args.set)
        meta = {
            "config_digest": digest, "seed": config["seed"], "tool": f"inferbench-{__version__}"
        }
        if args.command == "sweep":
            return args.func(args, runs, meta)
        # every other subcommand runs on the base config: the one run when
        # no sweep is set, else checked here before it opens a file
        tc = _train_config(config) if _swept(config) else runs[0][2]
        return args.func(args, tc, meta)
    except (ConfigError, DatasetError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        # a bare MemoryError has no message: name its type instead
        error = str(exc) or type(exc).__name__
        sys.stderr.write(json.dumps({"error": error, "command": args.command}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
