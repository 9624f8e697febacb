"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 is a scope statement: the published fine-tuned-transformer
score tables cannot be regenerated by this desk-scale artifact; the
property suite below plus the sweep harness (whose run grids mirror
those tables' shapes) stand in for them, and an external backend adapter
would slot into the same harness to regenerate the real numbers.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from inferbench.analysis import (
    fleiss_kappa_table,
    paired_ttest,
    student_t_two_sided_p,
    win_tie_lose,
)
from inferbench.backend import ToyBackend, Vocabulary
from inferbench.cli import main as cli_main
from inferbench.metrics import bleu, cider, meteor_lite, rouge_l, tokenize
from inferbench.negatives import pick_counterfactuals
from inferbench.objective import LossConfig, encode, finite_diff_check, forward, validation_margin
from inferbench.synth import build_corpus
from inferbench.trainer import TrainConfig, train
from bruteforce import (
    bf_bleu,
    bf_cider,
    bf_meteor,
    bf_replace_positions,
    bf_rouge_l,
    bf_t_two_sided_p,
)
from conftest import DATA_DIR, make_example, replace_one
from reference_model import flat_parameters, replacement_deltas
from test_metrics import random_pairs
from test_objective import (
    NLL_ONLY,
    batch_backend,
    batch_negatives,
    batch_term,
    sample_term,
    small_batch,
)
from test_negatives import context_sensitive_scorer


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {n} FAIL: {label}")
        raise
    print(f"\n[acceptance] criterion {n} PASS: {label}")


def run_cli(argv):
    return cli_main([str(a) for a in argv])


def test_criterion_1_table_reproducibility_statement(tmp_path):
    with criterion(1, "published tables out of desk-scale reach; sweep harness ships"):
        # the harness expands exactly the published table grids
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweep": {"m": [1, 2, 3, 4]}}))
        assert run_cli([
            "sweep", "--config", cfg, "--train", DATA_DIR / "train.jsonl",
            "--valid", DATA_DIR / "valid.jsonl", "--out-dir", tmp_path / "m_sweep",
            "--dry-run",
        ]) == 0
        m_runs = json.loads((tmp_path / "m_sweep/sweep_summary.json").read_text())["runs"]
        assert [r["m"] for r in m_runs] == [1, 2, 3, 4]

        cfg2 = tmp_path / "sweep2.json"
        cfg2.write_text(json.dumps({"sweep": {
            "strategy": ["counterfactual", "non_optimal", "replace_zs", "replace_mcq"],
        }}))
        assert run_cli([
            "sweep", "--config", cfg2, "--train", DATA_DIR / "train.jsonl",
            "--valid", DATA_DIR / "valid.jsonl", "--out-dir", tmp_path / "s_sweep",
            "--dry-run",
        ]) == 0
        s_runs = json.loads((tmp_path / "s_sweep/sweep_summary.json").read_text())["runs"]
        assert {r["strategy"] for r in s_runs} == {
            "counterfactual", "non_optimal", "replace_zs", "replace_mcq",
        }

        cfg3 = tmp_path / "sweep3.json"
        cfg3.write_text(json.dumps({"sweep": {
            "lambda_b": [0.5, 1.0, 2.0], "lambda_s": [0.5, 1.0, 2.0],
        }}))
        assert run_cli([
            "sweep", "--config", cfg3, "--train", DATA_DIR / "train.jsonl",
            "--valid", DATA_DIR / "valid.jsonl", "--out-dir", tmp_path / "c_sweep",
            "--dry-run",
        ]) == 0
        c_runs = json.loads((tmp_path / "c_sweep/sweep_summary.json").read_text())["runs"]
        assert len(c_runs) == 9


def test_criterion_2_metric_oracle_suite():
    with criterion(2, "metrics match brute force to 1e-9 on 20 pairs, anchors hold"):
        start = time.monotonic()
        pairs = random_pairs(seed=424)
        assert len(pairs) == 20
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]

        ours_bleu = bleu(hyps, refs)
        oracle_bleu = bf_bleu(hyps, refs)
        for n in range(1, 5):
            assert ours_bleu[n] == pytest.approx(oracle_bleu[n], abs=1e-9)
        for hyp, ref in pairs:
            assert rouge_l(hyp, ref) == pytest.approx(bf_rouge_l(hyp, ref), abs=1e-9)
            assert meteor_lite(hyp, ref) == pytest.approx(bf_meteor(hyp, ref), abs=1e-9)
        ours_cider, _ = cider(hyps, refs)
        oracle_cider, _ = bf_cider(hyps, refs)
        assert ours_cider == pytest.approx(oracle_cider, abs=1e-9)

        # hand anchors
        cat_hyp = tokenize("the cat sat on the mat")
        cat_ref = tokenize("the cat is on the mat")
        assert bleu([cat_hyp], [cat_ref], 2)[2] == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )  # = 0.70711
        # the ROUGE-L anchor from its stated derivation (hand LCS + formula,
        # beta=1.2): LCS=3, P=1, R=0.5 -> 1.22/1.94 = 0.62887. The figure
        # 0.41497 (= 1.22/2.94) circulating with this example is an
        # arithmetic slip: it sits below min(P, R), which no weighted
        # F-mean can produce, and would violate rouge_l(x, x) = 1.
        assert rouge_l(tokenize("the cat sat"), tokenize("the cat sat on the mat")) == (
            pytest.approx(1.22 / 1.94, abs=1e-12)
        )
        assert meteor_lite(["a", "b", "c", "d"], ["a", "b", "c", "d"]) == 0.9921875
        docs = [tokenize("alpha beta gamma delta"), tokenize("epsilon zeta eta theta")]
        assert cider(docs, docs)[0] == pytest.approx(10.0, abs=1e-12)
        assert time.monotonic() - start < 5.0


def test_criterion_3_analytic_loss_values():
    with criterion(3, "analytic NLL and contrastive values"):
        vocab = Vocabulary(["alpha", "beta", "gamma"])
        be = ToyBackend(vocab, d=4, seed=0)
        be.E[:] = 0.0
        be.U[:] = 0.0
        be.b[:] = 0.0
        ex = make_example(
            turns=(("A", "alpha beta"),), target_index=1, answer="alpha beta",
            counterfactuals=(),
        )
        value = forward(be, encode([ex], vocab=be.vocab), NLL_ONLY).nll
        assert value == pytest.approx(3 * math.log(8), abs=1e-9)

        h_x = np.array([1.0, 0.0])
        sym = sample_term(h_x, np.array([0.0, 1.0]), [np.array([0.0, 1.0])] * 4, tau_s=2.5)
        assert sym == pytest.approx(math.log(5), abs=1e-12)
        worked = sample_term(h_x, np.array([2.0, 0.0]), [np.array([-1.0, 0.0])] * 4, tau_s=2.5)
        assert worked == pytest.approx(math.log(1 + 4 * math.exp(-0.8)), abs=1e-6)

        vec = np.array([1.0, 2.0])
        for b_size in (2, 4):
            val = batch_term([(vec, vec)] * b_size, tau_b=0.1)
            assert val == pytest.approx(b_size * math.log(b_size), abs=1e-9)

        batch = small_batch()
        be = batch_backend(seed=5)
        breakdown = forward(be, encode(batch, batch_negatives(batch), vocab=be.vocab), LossConfig())
        assert breakdown.total == pytest.approx(
            breakdown.nll + 0.5 * breakdown.cl_b + 0.5 * breakdown.cl_s, abs=1e-12
        )


def test_criterion_4_gradient_gate():
    with criterion(4, "finite differences pass on 5 seeds, fault detected"):
        start = time.monotonic()
        batch = small_batch()
        negs = batch_negatives(batch)
        assert len(batch) == 4 and all(len(n) == 4 for n in negs)
        cfg = LossConfig()
        for seed in range(5):
            be = batch_backend(seed=seed)
            report = finite_diff_check(be, encode(batch, negs, vocab=be.vocab), cfg, tol=1e-4)
            assert report.passed, report.worst[:3]
            assert report.n_checked == flat_parameters(be).size

        be = batch_backend(seed=0)
        enc = encode(batch, negs, vocab=be.vocab)
        corrupted = forward(be, enc, cfg).grads
        idx = int(np.argmax(np.abs(corrupted.E)))
        r, c = divmod(idx, corrupted.E.shape[1])
        corrupted.E[r, c] = -corrupted.E[r, c]
        report = finite_diff_check(be, enc, cfg, analytic=corrupted)
        assert not report.passed
        assert any(w.parameter == f"E[{r},{c}]" for w in report.worst)
        assert time.monotonic() - start < 30.0


def test_criterion_5_contrastive_benefit():
    with criterion(5, "contrastive training widens the gold-vs-negative margin"):
        start = time.monotonic()
        # paired runs per seed: the recipe's objective with counterfactual
        # negatives against NLL-only, margins at the best validation checkpoints
        train_set, valid_set, _ = build_corpus(n_train=200, n_valid=50, n_test=0)
        cl, nll = [], []
        for seed in range(5):
            config = TrainConfig(effective_batch=16, lr0=0.05, max_epochs=3, seed=seed)
            nll_only = replace(config, loss=LossConfig(lambda_b=0.0, lambda_s=0.0))
            for margins, cfg in ((cl, config), (nll, nll_only)):
                best = train(cfg, train_set, valid_set).best_backend
                margins.append(validation_margin(best, valid_set))
        improvement = float(np.mean(cl)) - float(np.mean(nll))
        assert improvement >= 0.05, (cl, nll)
        assert time.monotonic() - start < 120.0
        print(
            f"\n[acceptance]   margin {float(np.mean(nll)):+.4f} (NLL) -> "
            f"{float(np.mean(cl)):+.4f} (CL), improvement {improvement:+.4f} ({improvement!r})"
        )


def test_criterion_6_statistics():
    with criterion(6, "agreement and significance statistics"):
        assert fleiss_kappa_table([[2, 1, 0, 0], [0, 3, 0, 0]]) == pytest.approx(
            0.25, abs=1e-12
        )
        assert fleiss_kappa_table([[3, 0, 0, 0], [0, 3, 0, 0]]) == pytest.approx(
            1.0, abs=1e-12
        )
        for df in (1, 2, 3, 5, 10, 30, 100):
            for t in (0.0, 0.25, 1.0, 1.7320508, 2.5, 5.0):
                assert student_t_two_sided_p(t, df) == pytest.approx(
                    bf_t_two_sided_p(t, df), abs=1e-6
                )
        anchor = paired_ttest([1, 0, 1, 1], [0, 0, 1, 0])
        assert anchor.t == pytest.approx(1.7321, abs=5e-5)
        assert anchor.p_value == pytest.approx(0.1817, abs=5e-5)

        from inferbench.synth import build_judgments

        ratios = win_tie_lose(build_judgments([f"i{k}" for k in range(24)]), "option_1")
        assert ratios["win"] + ratios["tie"] + ratios["lose"] == pytest.approx(100.0)


def test_criterion_7_negative_procedure_contracts():
    with criterion(7, "token replacement and counterfactual picking contracts"):
        example = make_example()
        scorer = context_sensitive_scorer(example)
        gold_tokens = tokenize(example.answer)

        previous = None
        for threshold in (0.25, 0.5, 0.75, 1.0):
            ns = replace_one(scorer, example, threshold=threshold, k=10, m=1, seed=1, mode="zs")
            out_tokens = tokenize(ns.negatives[0])
            assert len(out_tokens) == len(gold_tokens)
            positions = ns.provenance[0]["replaced_positions"]
            assert positions == bf_replace_positions(scorer, example, threshold)
            diff = [i for i, (a, b) in enumerate(zip(out_tokens, gold_tokens)) if a != b]
            assert diff == positions
            deltas = replacement_deltas(scorer, example)
            current = {j for j, delta in enumerate(deltas) if delta > threshold}
            assert ns.provenance[0]["fallback"] == (not current)
            if previous is not None:
                assert current <= previous
            previous = current

        for m in (1, 2, 3, 4):
            a = pick_counterfactuals(example, m=m, seed=7)
            b = pick_counterfactuals(example, m=m, seed=7)
            assert a.negatives == b.negatives and len(a.negatives) == m


def test_criterion_8_and_9_pipeline_determinism_and_smoke(tmp_path):
    fast = [
        "--set", "train.max_epochs=1",
        "--set", "train.effective_batch=64",
        "--set", "train.micro_batch=8",
        "--set", "model.d=8",
    ]

    def pipeline(root):
        root.mkdir(exist_ok=True)
        assert run_cli(["ingest", "--in", DATA_DIR / "train.jsonl",
                        "--out", root / "train.jsonl"]) == 0
        assert run_cli(["train", "--train", root / "train.jsonl",
                        "--valid", DATA_DIR / "valid.jsonl",
                        "--out-dir", root / "model", *fast]) == 0
        assert run_cli(["generate", "--ckpt", root / "model" / "best.json",
                        "--in", DATA_DIR / "test.jsonl",
                        "--out", root / "gen.jsonl", *fast]) == 0
        assert run_cli(["perturb", "--strategy", "counterfactual", "--m", "4",
                        "--seed", "11", "--in", DATA_DIR / "test.jsonl",
                        "--out", root / "negs.jsonl"]) == 0
        assert run_cli(["score", "--hyp", root / "gen.jsonl",
                        "--ref", DATA_DIR / "test.jsonl",
                        "--stratify-by", "difficulty",
                        "--out", root / "score.json"]) == 0
        assert run_cli(["compare", "--judgments", DATA_DIR / "judgments.jsonl",
                        "--ref", DATA_DIR / "test.jsonl",
                        "--stratify-by", "difficulty",
                        "--out", root / "compare.json"]) == 0

    with criterion(9, "end-to-end pipeline smoke on the fixture corpus"):
        start = time.monotonic()
        pipeline(tmp_path / "a")
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        score = json.loads((tmp_path / "a/score.json").read_text())
        assert set(score["strata"]) == {"sufficient", "likely", "conceivable"}

    with criterion(8, "identical rerun is byte-identical, logs satisfy the identity"):
        pipeline(tmp_path / "b")
        artifacts = [
            "train.jsonl", "model/best.json", "model/steps.jsonl",
            "model/epochs.jsonl", "model/checkpoint_info.json",
            "gen.jsonl", "negs.jsonl", "score.json", "compare.json",
        ]
        for rel in artifacts:
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes(), rel
        steps = [
            json.loads(line)
            for line in (tmp_path / "a/model/steps.jsonl").read_text().splitlines()
        ]
        assert steps
        for rec in steps:
            assert rec["total"] == pytest.approx(
                rec["nll"] + 0.5 * rec["cl_b"] + 0.5 * rec["cl_s"], abs=1e-9
            )
