"""Deterministic SGD training loop: seeded shuffles, gradient
accumulation to an effective batch, linear LR decay over the full run,
and best-validation-perplexity checkpoint selection (earliest epoch on
ties)."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .backend import ToyBackend, Vocabulary, derive_seed, save_checkpoint
from .corpus import InferenceExample, prepare_input_text
from .negatives import (
    generate_nonoptimal,
    pick_counterfactuals,
    token_replace,
    train_mcq_scorer,
    ReplaceConfig,
)
from .objective import (
    EncodedSet,
    LossConfig,
    accumulated_total_loss,
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
    negative_strategy: str = "counterfactual"  # or non_optimal/replace_zs/replace_mcq/none
    m: int = 4
    k: int = 10
    threshold: float = 0.75
    attempts: int = 5
    max_gen_len: int = 16
    d: int = 16
    seed: int = 0
    template_id: str = "default"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
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
        if self.negative_strategy not in (
            "counterfactual",
            "non_optimal",
            "replace_zs",
            "replace_mcq",
            "none",
        ):
            raise ValueError(f"unknown negative strategy {self.negative_strategy!r}")
        if self.negative_strategy == "none" and self.loss.lambda_s > 0:
            raise ValueError("lambda_s > 0 needs a negative strategy")


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


def build_vocabulary(examples: list[InferenceExample], template_id: str = "default") -> Vocabulary:
    texts = []
    for ex in examples:
        texts.append(prepare_input_text(ex, template_id))
        texts.append(ex.answer)
        texts.extend(ex.counterfactuals)
    return Vocabulary.from_texts(texts)


def _static_negatives(
    config: TrainConfig, train_set: list[InferenceExample], vocab: Vocabulary
) -> list[list[str]] | None:
    """Materialize negatives, in training-set order, for the strategies
    that do not depend on the evolving model; non_optimal is regenerated
    every epoch."""
    strategy = config.negative_strategy
    if strategy in ("none", "non_optimal") or config.loss.lambda_s == 0:
        return None
    if strategy == "counterfactual":
        return [pick_counterfactuals(ex, config.m, config.seed).negatives for ex in train_set]
    if strategy == "replace_zs":
        scorer = ToyBackend(vocab, d=config.d, seed=derive_seed(config.seed, "zs_scorer"))
    else:  # replace_mcq
        scorer = train_mcq_scorer(
            train_set, vocab=vocab, d=config.d, seed=config.seed,
            template_id=config.template_id,
        )
    cfg = ReplaceConfig(
        threshold=config.threshold,
        k=config.k,
        mode=strategy.removeprefix("replace_"),
        seed=config.seed,
    )
    return [
        token_replace(scorer, ex, cfg, m=config.m, template_id=config.template_id).negatives
        for ex in train_set
    ]


def _nonoptimal_negatives(
    config: TrainConfig, backend: ToyBackend, train_set: list[InferenceExample], epoch: int
) -> list[list[np.ndarray]]:
    """This epoch's non_optimal negatives, encoded, in training-set order."""
    negatives = []
    for ex in train_set:
        ns = generate_nonoptimal(
            backend,
            ex,
            m=config.m,
            k=config.k,
            attempts=config.attempts,
            seed=derive_seed(config.seed, "non_optimal", epoch),
            max_len=config.max_gen_len,
            template_id=config.template_id,
        )
        if not ns.negatives:
            raise ValueError(
                f"example {ex.id}: non_optimal produced no usable negative"
            )
        negatives.append(encode_texts(backend.vocab, ns.negatives))
    return negatives


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
    encoded = encode_set(
        backend, train_set, _static_negatives(config, train_set, vocab), config.template_id
    )
    valid_encoded = encode_set(backend, valid_set, template_id=config.template_id)
    resample = config.negative_strategy == "non_optimal" and config.loss.lambda_s > 0

    steps_per_epoch = math.ceil(len(train_set) / config.effective_batch)
    total_steps = steps_per_epoch * config.max_epochs
    step_log: list[dict] = []
    epoch_log: list[dict] = []
    best: CheckpointInfo | None = None
    best_backend = backend.copy()
    global_step = 0

    for epoch in range(1, config.max_epochs + 1):
        if resample:
            encoded = replace(
                encoded, negatives=_nonoptimal_negatives(config, backend, train_set, epoch)
            )
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
