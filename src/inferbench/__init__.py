"""Contrastive training and n-gram evaluation workbench for dialogue
inference generation."""

__version__ = "0.1.0"

from .analysis import (
    ComparisonReport,
    Judgment,
    TTestResult,
    compare_metric_scores,
    fleiss_kappa,
    paired_ttest,
    plausibility_stub,
    stratified_compare,
    win_tie_lose,
    winning_rate,
)
from .backend import (
    ToyBackend,
    Vocabulary,
    load_checkpoint,
    pool,
    save_checkpoint,
)
from .corpus import (
    Difficulty,
    InferenceExample,
    QuestionType,
    Utterance,
    clip_dialogue,
    load_dataset,
    prepare_input_text,
    save_dataset,
)
from .metrics import MetricReport, bleu, cider, meteor_lite, rouge_l, score_corpus, tokenize
from .negatives import (
    NegativeSet,
    nonoptimal_sets,
    pick_counterfactuals,
    replace_sets,
)
from .objective import (
    EncodedSet,
    LossBreakdown,
    LossConfig,
    encode,
    finite_diff_check,
    forward,
)
from .porter import stem
from .trainer import CheckpointInfo, TrainConfig, lr_at, perplexity, train

__all__ = [
    "ComparisonReport",
    "Judgment",
    "TTestResult",
    "compare_metric_scores",
    "fleiss_kappa",
    "paired_ttest",
    "plausibility_stub",
    "stratified_compare",
    "win_tie_lose",
    "winning_rate",
    "ToyBackend",
    "Vocabulary",
    "load_checkpoint",
    "pool",
    "save_checkpoint",
    "Difficulty",
    "InferenceExample",
    "QuestionType",
    "Utterance",
    "clip_dialogue",
    "load_dataset",
    "prepare_input_text",
    "save_dataset",
    "MetricReport",
    "bleu",
    "cider",
    "meteor_lite",
    "rouge_l",
    "score_corpus",
    "tokenize",
    "NegativeSet",
    "nonoptimal_sets",
    "pick_counterfactuals",
    "replace_sets",
    "EncodedSet",
    "LossBreakdown",
    "LossConfig",
    "encode",
    "finite_diff_check",
    "forward",
    "stem",
    "CheckpointInfo",
    "TrainConfig",
    "lr_at",
    "perplexity",
    "train",
]
