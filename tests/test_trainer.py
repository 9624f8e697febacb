import dataclasses
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import inferbench.metrics
import inferbench.trainer
from inferbench.backend import BOS_ID, EOS_ID, ToyBackend, Vocabulary, load_checkpoint
from inferbench.cli import main
from inferbench.corpus import load_dataset, prepare_input_text
from inferbench.metrics import tokenize
from inferbench.negatives import STRATEGIES
from inferbench.objective import LossConfig, encode
from inferbench.synth import build_corpus, build_split
from inferbench.trainer import (
    CheckpointInfo,
    TrainConfig,
    build_vocabulary,
    lr_at,
    perplexity,
    train,
)

from bruteforce import bf_perplexity
from conftest import make_example


def tiny_config(**overrides):
    defaults = dict(
        effective_batch=8,
        micro_batch=4,
        lr0=0.05,
        max_epochs=2,
        d=4,
        seed=0,
        loss=LossConfig(),
        negative_strategy="counterfactual",
        m=4,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return build_split("tr", 16, seed=5), build_split("va", 6, seed=5)


# --- schedule ------------------------------------------------------------------

def test_lr_schedule_endpoints():
    assert lr_at(0, 100, 2.0) == 2.0
    assert lr_at(50, 100, 2.0) == 1.0
    assert lr_at(100, 100, 2.0) == 0.0


def test_lr_schedule_bounds():
    with pytest.raises(ValueError):
        lr_at(5, 4, 1.0)
    with pytest.raises(ValueError):
        lr_at(0, 0, 1.0)


# --- perplexity ------------------------------------------------------------------

def test_perplexity_uniform_model():
    vocab = Vocabulary(["alpha", "beta", "gamma"])
    be = ToyBackend(vocab, d=4, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    ex = make_example(
        turns=(("A", "alpha beta"),), target_index=1, answer="alpha beta gamma",
        counterfactuals=(),
    )
    assert perplexity(be, [ex]) == pytest.approx(8.0, abs=1e-9)


def test_perplexity_perfect_model():
    vocab = Vocabulary(["alpha"])
    be = ToyBackend(vocab, d=2, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    K = 400.0
    be.E[vocab.id_of("alpha")] = [1.0, 0.0]
    be.E[BOS_ID] = [0.0, 1.0]
    be.U[vocab.id_of("alpha")] = [-K, K]
    be.U[EOS_ID] = [K, 0.0]
    ex = make_example(turns=(("A", "zzz"),), target_index=1, answer="alpha", counterfactuals=())
    assert perplexity(be, [ex]) == pytest.approx(1.0, abs=1e-9)


def test_perplexity_matches_bruteforce(corpus):
    train_set, _ = corpus
    be = ToyBackend(build_vocabulary(train_set), d=4, seed=7)
    ours = perplexity(be, train_set[:5])
    oracle = bf_perplexity(be, train_set[:5])
    assert ours == pytest.approx(oracle, abs=1e-9)


def test_perplexity_empty_dataset():
    vocab = Vocabulary(["alpha"])
    with pytest.raises(ValueError):
        perplexity(ToyBackend(vocab, d=2, seed=0), [])


# --- training loop ----------------------------------------------------------------

def test_nll_only_loss_decreases(corpus):
    from inferbench.objective import forward

    train_set, valid_set = corpus
    for seed in range(5):
        cfg = tiny_config(
            seed=seed, max_epochs=1,
            loss=LossConfig(lambda_b=0.0, lambda_s=0.0),
            negative_strategy="none",
        )
        fresh = ToyBackend(build_vocabulary(train_set), d=cfg.d, seed=seed)
        before = forward(fresh, encode(train_set, vocab=fresh.vocab), cfg.loss).total
        result = train(cfg, train_set, valid_set)
        after = forward(result.backend, encode(train_set, vocab=result.backend.vocab),
                        cfg.loss).total
        assert after < before


def test_training_deterministic(tmp_path, corpus):
    train_set, valid_set = corpus
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = train(tiny_config(), train_set, valid_set, out_dir=out)
        runs.append((result, (out / "best.json").read_bytes()))
    result_a, ckpt_a = runs[0]
    result_b, ckpt_b = runs[1]
    assert ckpt_a == ckpt_b
    assert result_a.step_log == result_b.step_log
    assert result_a.epoch_log == result_b.epoch_log
    assert np.array_equal(
        result_a.backend.flat_parameters(), result_b.backend.flat_parameters()
    )


def test_zero_lr_keeps_parameters(corpus):
    train_set, valid_set = corpus
    cfg = tiny_config(lr0=0.0, max_epochs=3)
    result = train(cfg, train_set, valid_set)
    reference = ToyBackend(result.backend.vocab, d=cfg.d, seed=cfg.seed)
    assert np.array_equal(result.backend.flat_parameters(), reference.flat_parameters())
    # every epoch ties on perplexity; the earliest epoch wins
    assert result.checkpoint.epoch == 1
    ppls = [e["validation_perplexity"] for e in result.epoch_log]
    assert all(p == ppls[0] for p in ppls)


def test_checkpoint_is_argmin(corpus):
    train_set, valid_set = corpus
    result = train(tiny_config(max_epochs=3), train_set, valid_set)
    ppls = [e["validation_perplexity"] for e in result.epoch_log]
    assert result.checkpoint.validation_perplexity == min(ppls)
    assert result.checkpoint.epoch == 1 + int(np.argmin(ppls))
    assert isinstance(result.checkpoint, CheckpointInfo)


def test_step_log_component_identity(corpus):
    train_set, valid_set = corpus
    cfg = tiny_config()
    result = train(cfg, train_set, valid_set)
    for rec in result.step_log:
        expected = (
            rec["nll"]
            + cfg.loss.lambda_b * rec["cl_b"]
            + cfg.loss.lambda_s * rec["cl_s"]
        )
        assert rec["total"] == pytest.approx(expected, abs=1e-9)
    assert result.step_log[0]["lr"] == cfg.lr0


def test_micro_batch_choice_is_immaterial(corpus):
    train_set, valid_set = corpus
    base = train(tiny_config(micro_batch=8), train_set, valid_set)
    micro = train(tiny_config(micro_batch=2), train_set, valid_set)
    for a, b in zip(base.step_log, micro.step_log):
        assert a["total"] == pytest.approx(b["total"], abs=1e-9)
    assert np.allclose(
        base.backend.flat_parameters(), micro.backend.flat_parameters(), atol=1e-7
    )


def test_saved_best_checkpoint_round_trips(tmp_path, corpus):
    train_set, valid_set = corpus
    result = train(tiny_config(), train_set, valid_set, out_dir=tmp_path)
    loaded = load_checkpoint(result.checkpoint.path)
    assert np.array_equal(loaded.flat_parameters(), result.best_backend.flat_parameters())
    epochs = sorted(p.name for p in tmp_path.glob("epoch_*.json"))
    assert epochs == ["epoch_001.json", "epoch_002.json"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_non_finite_loss_aborts(corpus):
    train_set, valid_set = corpus
    cfg = tiny_config(lr0=1e300, max_epochs=2, loss=LossConfig(lambda_b=0, lambda_s=0),
                      negative_strategy="none")
    with pytest.raises(RuntimeError, match="non-finite"):
        train(cfg, train_set, valid_set)


@pytest.mark.parametrize("strategy", ["non_optimal", "replace_zs", "replace_mcq"])
def test_alternative_negative_strategies_run(corpus, strategy):
    train_set, valid_set = corpus
    cfg = tiny_config(negative_strategy=strategy, max_epochs=1, m=2, k=5)
    result = train(cfg, train_set[:8], valid_set)
    assert len(result.step_log) == 1
    assert result.step_log[0]["cl_s"] > 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="divide"):
        tiny_config(effective_batch=8, micro_batch=3)
    with pytest.raises(ValueError, match="strategy"):
        tiny_config(negative_strategy="magic")
    with pytest.raises(ValueError, match="lambda_s"):
        tiny_config(negative_strategy="none")


def test_benchmark_calls_into_the_package(data_dir):
    # besides the CLI, the benchmark harness (perfbench/) reads JSONL with
    # read_jsonl and measures the untrained model's perplexity with these
    # two trainer names, on a list of examples
    from inferbench.corpus import load_dataset
    from inferbench.jsonio import read_jsonl

    valid = load_dataset(data_dir / "valid.jsonl")
    assert [r["id"] for r in read_jsonl(data_dir / "valid.jsonl")] == [ex.id for ex in valid]
    be = ToyBackend(build_vocabulary(valid), d=16, seed=0)
    assert perplexity(be, valid) == pytest.approx(bf_perplexity(be, valid), rel=1e-9)


# --- conversions made once ----------------------------------------------------


def test_blocked_perplexity_equals_whole_set():
    for seed in range(5):
        train_set, valid_set, _ = build_corpus(seed=seed)
        be = ToyBackend(build_vocabulary(train_set), d=16, seed=seed)
        for examples in (valid_set, train_set):
            enc = encode(examples, vocab=be.vocab)
            assert perplexity(be, enc, micro_batch=8) == perplexity(be, enc)


def test_blocked_perplexity_peaks_below_one_block():
    valid = build_split("va", 200, seed=2)
    be = ToyBackend(build_vocabulary(valid), d=16, seed=0)
    enc = encode(valid, vocab=be.vocab)

    def peak(micro_batch):
        tracemalloc.start()
        try:
            perplexity(be, enc, micro_batch=micro_batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < peak(None) / 2


def test_trainer_scores_validation_in_its_micro_batches(monkeypatch, corpus):
    blocks = []
    forward = inferbench.trainer.forward

    def spy(backend, batch, config, grads=True, micro_batch=None, nll=True):
        if not grads:
            blocks.append(micro_batch)
        return forward(backend, batch, config, grads, micro_batch, nll)

    monkeypatch.setattr(inferbench.trainer, "forward", spy)
    train(tiny_config(), *corpus)
    assert blocks == [4, 4]


def test_best_checkpoint_is_the_best_epochs_file(tmp_path, corpus):
    # lr0 2.0 diverges after epoch 1, so the best epoch is not the last
    result = train(tiny_config(lr0=2.0, max_epochs=3), *corpus, out_dir=tmp_path,
                   config_digest="d" * 64)
    assert result.checkpoint.epoch == 1
    best = (tmp_path / "best.json").read_bytes()
    assert best == (tmp_path / "epoch_001.json").read_bytes()
    assert best != (tmp_path / "epoch_003.json").read_bytes()
    loaded = load_checkpoint(tmp_path / "best.json")
    assert np.array_equal(loaded.flat_parameters(), result.best_backend.flat_parameters())


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_negative_ids_are_the_encoded_texts(monkeypatch, corpus, strategy):
    built = []  # the NegativeSets of each build
    seen = []  # (builds so far, example id -> negative ids) of each training batch
    original = STRATEGIES[strategy]
    forward = inferbench.trainer.forward

    def spy_build(*args):
        built.append(original.build(*args))
        return built[-1]

    def spy_forward(backend, batch, *args, **kwargs):
        if batch.negatives is not None:
            seen.append((len(built), dict(zip(batch.example_ids, batch.negatives))))
        return forward(backend, batch, *args, **kwargs)

    monkeypatch.setitem(STRATEGIES, strategy, dataclasses.replace(original, build=spy_build))
    monkeypatch.setattr(inferbench.trainer, "forward", spy_forward)
    result = train(tiny_config(negative_strategy=strategy, m=2, k=5), *corpus)
    assert len(built) == (2 if original.per_epoch else 1)
    for n, sets in enumerate(built, 1):
        got = {}
        for builds, negatives in seen:
            if builds == n:
                got.update(negatives)
        assert sorted(got) == sorted(ns.example_id for ns in sets)
        for ns in sets:
            expected = [result.backend.vocab.encode(tokenize(text)) for text in ns.negatives]
            assert [ids.tolist() for ids in ns.ids] == expected
            assert [ids.tolist() for ids in got[ns.example_id]] == expected


def count_tokenize(monkeypatch) -> Counter:
    """Count the texts ``metrics.tokenize`` is called on, through every
    module-level binding, as the package imports it by name."""
    calls = Counter()
    tokenize = inferbench.metrics.tokenize

    def counting(text):
        calls[text] += 1
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("inferbench") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is tokenize:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def distinct_lines(examples, counterfactuals=True) -> Counter:
    """One count per distinct line of the input texts, answers and
    (optionally) counterfactuals of ``examples``: what one encode call
    tokenizes."""
    return Counter({
        line: 1
        for ex in examples
        for text in (prepare_input_text(ex), ex.answer, *(ex.counterfactuals if counterfactuals else ()))
        for line in text.split("\n")
    })


@pytest.mark.parametrize(
    "strategy", ["counterfactual", "non_optimal", "replace_zs", "replace_mcq", "none"]
)
def test_train_tokenizes_each_text_once(monkeypatch, data_dir, strategy):
    train_set = load_dataset(data_dir / "train.jsonl")
    valid_set = load_dataset(data_dir / "valid.jsonl")
    calls = count_tokenize(monkeypatch)
    loss = LossConfig(lambda_s=0.0) if strategy == "none" else LossConfig()
    train(TrainConfig(max_epochs=2, negative_strategy=strategy, loss=loss), train_set, valid_set)
    # the training set and the validation set are one encode call each
    expected = distinct_lines(train_set) + distinct_lines(valid_set, counterfactuals=False)
    if strategy.startswith("replace_"):
        for ex in train_set:
            expected[ex.answer] += 1  # token replacement keeps out-of-vocabulary surface forms
    assert calls == expected


def test_gradcheck_tokenizes_each_text_once(monkeypatch, tmp_path):
    calls = count_tokenize(monkeypatch)
    code = main(["gradcheck", "--seed", "3", "--set", "model.d=2",
                 "--out", str(tmp_path / "gradcheck.json")])
    assert code in (0, 1)  # a PASS or FAIL verdict, not an error
    assert calls == distinct_lines(build_split("gradcheck", 4, 3))
