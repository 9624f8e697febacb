"""Deterministic SGD training loop: seeded shuffles, gradient
accumulation to an effective batch, linear LR decay over the full run,
and best-validation-perplexity checkpoint selection (earliest epoch on
ties)."""

from __future__ import annotations

import math
import shutil
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .backend import ToyBackend, derive_seed, save_checkpoint
from .corpus import TEMPLATES, InferenceExample
from .negatives import DEFAULT_STRATEGY, STRATEGIES, Strategy, untrained_model
from .objective import (  # noqa: F401  callers import build_vocabulary from here
    EncodedSet,
    LossConfig,
    _recipe,
    build_vocabulary,
    check_fields,
    config_key,
    encode,
    forward,
)


# the labels a report can be stratified by
STRATA = ("difficulty", "question")


@dataclass(frozen=True)
class TrainConfig:
    """The run config in typed form: the training recipe, decoding and
    reporting. Each field but ``loss`` states its default, the run-config
    key that sets it and its bound here (the loss terms' in
    :class:`LossConfig`) and nowhere else; a value is checked when the
    config is built, and a type or range error begins with the key."""

    effective_batch: int = _recipe("train.effective_batch", 64, ">= 1")
    micro_batch: int = _recipe("train.micro_batch", 8, ">= 1")
    lr0: float = _recipe("train.lr0", 1e-4, ">= 0")
    max_epochs: int = _recipe("train.max_epochs", 10, ">= 1")
    warmup_steps: int = _recipe("train.warmup_steps", 0, ">= 0")
    loss: LossConfig = field(default_factory=LossConfig)
    # a key of negatives.STRATEGIES, or "none"
    negative_strategy: str = _recipe("negatives.strategy", DEFAULT_STRATEGY)
    m: int = _recipe("negatives.m", 4, ">= 1")
    k: int = _recipe("negatives.k", 10, ">= 1")
    threshold: float = _recipe("negatives.threshold", 0.75, "> 0")
    attempts: int = _recipe("negatives.attempts", 5, ">= 1")
    max_gen_len: int = _recipe("decode.max_len", 16, ">= 1")
    d: int = _recipe("model.d", 16, ">= 1")
    seed: int = _recipe("seed", 0)
    template_id: str = _recipe("template_id", "default")
    # "greedy", or "top_k" over the decode_k likeliest tokens
    decode_method: str = _recipe("decode.method", "greedy")
    decode_k: int = _recipe("decode.k", 10, ">= 1")
    decode_seed: int = _recipe("decode.seed", 0)
    # one of STRATA, or None for an unstratified report
    stratify_by: str | None = _recipe("report.stratify_by", None)

    def __post_init__(self):
        check_fields(self)
        if self.effective_batch % self.micro_batch != 0:
            raise ValueError(f"{config_key(self, 'micro_batch')} must divide effective_batch")
        if self.negative_strategy not in [*STRATEGIES, "none"]:
            raise ValueError(f"unknown negative strategy {self.negative_strategy!r}")
        strategy = STRATEGIES.get(self.negative_strategy)
        if strategy and strategy.max_m is not None and self.m > strategy.max_m:
            raise ValueError(f"{config_key(self, 'm')} must be <= {strategy.max_m}")
        if self.negative_strategy == "none" and self.loss.lambda_s > 0:
            raise ValueError(f"{config_key(self.loss, 'lambda_s')} > 0 needs a negative strategy")
        if self.template_id not in [*TEMPLATES]:
            raise ValueError(f"unknown template_id {self.template_id!r}")
        if self.decode_method not in ("greedy", "top_k"):
            raise ValueError(f"unknown decode method {self.decode_method!r}")
        if self.stratify_by not in [None, *STRATA]:
            raise ValueError(f"unknown {config_key(self, 'stratify_by')} {self.stratify_by!r}")


@dataclass
class CheckpointInfo:
    epoch: int
    step: int
    validation_perplexity: float
    path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    backend: ToyBackend          # parameters after the final step
    best_backend: ToyBackend     # parameters at the selected checkpoint
    checkpoint: CheckpointInfo
    step_log: list[dict]
    epoch_log: list[dict]


def lr_at(step: int, total_steps: int, lr0: float) -> float:
    """Linear decay: lr0 * (1 - step / total_steps)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside 0..{total_steps}")
    return lr0 * (1.0 - step / total_steps)


def perplexity(
    backend: ToyBackend,
    dataset: list[InferenceExample] | EncodedSet,
    micro_batch: int | None = None,
) -> float:
    """exp(total answer NLL / total answer token count), EOS included,
    forward only; ``dataset`` may be a set encoded once by the caller (a
    list of examples is encoded under the default template).
    ``micro_batch`` caps the examples per NLL logit block, as in
    :func:`forward`, which bounds memory and leaves the value as it is.
    A perplexity that is not finite raises RuntimeError."""
    if not dataset:
        raise ValueError("perplexity of an empty dataset")
    if not isinstance(dataset, EncodedSet):
        dataset = encode(dataset, vocab=backend.vocab)
    config = LossConfig(lambda_b=0.0, lambda_s=0.0)
    nll = forward(backend, dataset, config, grads=False, micro_batch=micro_batch).nll
    per_token = nll * len(dataset) / sum(len(a) for a in dataset.answers)
    if not per_token < math.log(sys.float_info.max):  # also catches nan
        raise RuntimeError(f"non-finite perplexity: mean answer NLL per token {per_token}")
    return math.exp(per_token)


def _with_negatives(
    strategy: Strategy,
    model: ToyBackend | None,
    examples: list[InferenceExample],
    enc: EncodedSet,
    config: TrainConfig,
    seed: int,
) -> EncodedSet:
    """``enc`` with the ids of the negatives ``strategy`` builds in place
    of its counterfactuals; an example left without one raises."""
    sets = strategy.build(model, examples, enc, config, seed)
    for ns in sets:
        if not ns.negatives:
            raise ValueError(f"example {ns.example_id}: {ns.strategy} produced no usable negative")
    return replace(enc, negatives=[ns.ids for ns in sets])


def train(
    config: TrainConfig,
    train_set: list[InferenceExample],
    valid_set: list[InferenceExample],
    out_dir: str | Path | None = None,
    config_digest: str | None = None,
) -> TrainResult:
    """Run the full loop and return the minimum-perplexity checkpoint.

    Every epoch shuffles with its own derived seed, walks effective
    batches (micro-batched gradient accumulation, one SGD step each) and
    records validation perplexity; the step log carries every loss
    component so total = nll + lambda_b*cl_b + lambda_s*cl_s is
    auditable at every step.
    """
    if not train_set or not valid_set:
        raise ValueError("train and validation sets must be non-empty")
    ids = [ex.id for ex in train_set]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate example ids in the training set")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    # every build starts from the dataset's own encoding, never from the
    # negatives of an earlier epoch
    dataset_enc = encode(train_set, [ex.counterfactuals for ex in train_set], config.template_id)
    vocab = dataset_enc.vocab
    backend = ToyBackend(vocab, d=config.d, seed=config.seed)
    strategy = STRATEGIES.get(config.negative_strategy) if config.loss.lambda_s > 0 else None
    resample = strategy is not None and strategy.per_epoch
    encoded = dataset_enc
    if strategy is not None and not resample:
        model = untrained_model(vocab, config.d, config.seed) if strategy.needs_model else None
        encoded = _with_negatives(strategy, model, train_set, dataset_enc, config, config.seed)
    valid_enc = encode(valid_set, template_id=config.template_id, vocab=vocab)

    steps_per_epoch = math.ceil(len(train_set) / config.effective_batch)
    total_steps = steps_per_epoch * config.max_epochs
    step_log: list[dict] = []
    epoch_log: list[dict] = []
    best: CheckpointInfo | None = None
    best_backend = backend.copy()
    global_step = 0

    for epoch in range(1, config.max_epochs + 1):
        if resample:
            seed = derive_seed(config.seed, config.negative_strategy, epoch)
            encoded = _with_negatives(strategy, backend, train_set, dataset_enc, config, seed)
        rng = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch))
        order = rng.permutation(len(train_set))
        for start in range(0, len(train_set), config.effective_batch):
            batch = encoded.take(order[start : start + config.effective_batch])
            breakdown = forward(backend, batch, config.loss, micro_batch=config.micro_batch)
            if not math.isfinite(breakdown.total):
                raise RuntimeError(
                    f"non-finite loss {breakdown.total} at step {global_step} "
                    f"(epoch {epoch})"
                )
            lr = lr_at(global_step, total_steps, config.lr0)
            if config.warmup_steps > 0 and global_step < config.warmup_steps:
                lr *= (global_step + 1) / config.warmup_steps
            backend.apply_gradients(breakdown.grads, lr)
            global_step += 1
            step_log.append(
                {
                    "step": global_step,
                    "epoch": epoch,
                    "lr": lr,
                    "nll": breakdown.nll,
                    "cl_b": breakdown.cl_b,
                    "cl_s": breakdown.cl_s,
                    "total": breakdown.total,
                }
            )

        val_ppl = perplexity(backend, valid_enc, micro_batch=config.micro_batch)
        ckpt_path = None
        if out_path is not None:
            ckpt_path = str(out_path / f"epoch_{epoch:03d}.json")
            save_checkpoint(backend, ckpt_path, config_digest)
        epoch_log.append({"epoch": epoch, "step": global_step, "validation_perplexity": val_ppl})
        if best is None or val_ppl < best.validation_perplexity:
            best = CheckpointInfo(
                epoch=epoch,
                step=global_step,
                validation_perplexity=val_ppl,
                path=ckpt_path,
            )
            best_backend = backend.copy()

    if out_path is not None:
        # the best epoch's file holds best_backend's parameters and digest
        best_path = str(out_path / "best.json")
        shutil.copyfile(best.path, best_path)
        best.path = best_path
    return TrainResult(
        backend=backend,
        best_backend=best_backend,
        checkpoint=best,
        step_log=step_log,
        epoch_log=epoch_log,
    )
