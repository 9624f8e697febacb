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
    GreedyDecode,
    TopKDecode,
    ToyBackend,
    Vocabulary,
    load_checkpoint,
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
    ReplaceConfig,
    generate_nonoptimal,
    inbatch_negatives,
    pick_counterfactuals,
    token_replace,
)
from .objective import (
    LossBreakdown,
    LossConfig,
    cl_batch_loss,
    cl_sample_loss,
    finite_diff_check,
    nll_loss,
    total_loss,
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
    "GreedyDecode",
    "TopKDecode",
    "ToyBackend",
    "Vocabulary",
    "load_checkpoint",
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
    "ReplaceConfig",
    "generate_nonoptimal",
    "inbatch_negatives",
    "pick_counterfactuals",
    "token_replace",
    "LossBreakdown",
    "LossConfig",
    "cl_batch_loss",
    "cl_sample_loss",
    "finite_diff_check",
    "nll_loss",
    "total_loss",
    "stem",
    "CheckpointInfo",
    "TrainConfig",
    "lr_at",
    "perplexity",
    "train",
]
