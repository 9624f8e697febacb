"""Deterministic SGD training loop: seeded shuffles, gradient
accumulation to an effective batch, linear LR decay over the full run,
and best-validation-perplexity checkpoint selection (earliest epoch on
ties)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .backend import ToyBackend, derive_seed, save_checkpoint
from .corpus import TEMPLATES, InferenceExample
from .negatives import DEFAULT_STRATEGY, STRATEGIES, untrained_model
from .objective import (
    EncodedSet,
    LossConfig,
    accumulated_total_loss,
    build_vocabulary,
    check_number_fields,
    encode_set,
    encode_texts,
    forward,
)


@dataclass(frozen=True)
class TrainConfig:
    effective_batch: int = 64
    micro_batch: int = 8
    lr0: float = 1e-4
    max_epochs: int = 10
    warmup_steps: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    negative_strategy: str = DEFAULT_STRATEGY  # a key of negatives.STRATEGIES, or "none"
    m: int = 4
    k: int = 10
    threshold: float = 0.75
    attempts: int = 5
    max_gen_len: int = 16
    d: int = 16
    seed: int = 0
    template_id: str = "default"

    def __post_init__(self):
        check_number_fields(self)
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.effective_batch < 1 or self.micro_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.effective_batch % self.micro_batch != 0:
            raise ValueError("micro_batch must divide effective_batch")
        if self.lr0 < 0:
            raise ValueError("lr0 must be non-negative")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        for name in ("m", "k", "attempts", "max_gen_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.negative_strategy not in [*STRATEGIES, "none"]:
            raise ValueError(f"unknown negative strategy {self.negative_strategy!r}")
        if self.negative_strategy == "none" and self.loss.lambda_s > 0:
            raise ValueError("lambda_s > 0 needs a negative strategy")
        if self.template_id not in [*TEMPLATES]:
            raise ValueError(f"unknown template_id {self.template_id!r}")


@dataclass
class CheckpointInfo:
    epoch: int
    step: int
    validation_perplexity: float
    path: str | None = None

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "step": self.step,
            "validation_perplexity": self.validation_perplexity,
            "path": self.path,
        }


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
    template_id: str = "default",
) -> float:
    """exp(total answer NLL / total answer token count), EOS included,
    forward only; ``dataset`` may be a set encoded once by the caller.
    A perplexity that is not finite raises RuntimeError."""
    if not dataset:
        raise ValueError("perplexity of an empty dataset")
    if not isinstance(dataset, EncodedSet):
        dataset = encode_set(backend, dataset, template_id=template_id)
    nll = forward(backend, dataset, LossConfig(lambda_b=0.0, lambda_s=0.0), grads=False).nll
    per_token = nll * len(dataset) / sum(len(a) for a in dataset.answers)
    if not per_token < math.log(sys.float_info.max):  # also catches nan
        raise RuntimeError(f"non-finite perplexity: mean answer NLL per token {per_token}")
    return math.exp(per_token)


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

    vocab = build_vocabulary(train_set, config.template_id)
    backend = ToyBackend(vocab, d=config.d, seed=config.seed)
    strategy = STRATEGIES.get(config.negative_strategy) if config.loss.lambda_s > 0 else None
    resample = strategy is not None and strategy.per_epoch
    static = None
    if strategy is not None and not resample:
        model = untrained_model(vocab, config.d, config.seed) if strategy.needs_model else None
        static = [ns.negatives for ns in strategy.build(model, train_set, config, config.seed)]
    encoded = encode_set(backend, train_set, static, config.template_id)
    valid_encoded = encode_set(backend, valid_set, template_id=config.template_id)

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
            sets = strategy.build(backend, train_set, config, seed)
            for ns in sets:
                if not ns.negatives:
                    raise ValueError(
                        f"example {ns.example_id}: {ns.strategy} produced no usable negative"
                    )
            encoded = replace(encoded, negatives=[encode_texts(vocab, ns.negatives) for ns in sets])
        rng = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch))
        order = rng.permutation(len(train_set))
        for start in range(0, len(train_set), config.effective_batch):
            batch = encoded.take(order[start : start + config.effective_batch])
            breakdown = accumulated_total_loss(
                backend, batch, None, config.loss, config.micro_batch
            )
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

        val_ppl = perplexity(backend, valid_encoded)
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
        best_path = str(out_path / "best.json")
        save_checkpoint(best_backend, best_path, config_digest)
        best.path = best_path
    return TrainResult(
        backend=backend,
        best_backend=best_backend,
        checkpoint=best,
        step_log=step_log,
        epoch_log=epoch_log,
    )
