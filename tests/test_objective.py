import dataclasses
import math

import numpy as np
import pytest

from inferbench.backend import BOS_ID, EOS_ID, UNK_ID, ToyBackend, Vocabulary
from inferbench.corpus import QuestionType
from inferbench.objective import EncodedSet, LossConfig, encode, finite_diff_check, forward
from inferbench.synth import build_split

from conftest import make_example


@pytest.fixture
def vocab():
    return Vocabulary(["alpha", "beta", "gamma"])


def small_batch():
    return [
        make_example(
            ex_id="b1",
            turns=(("A", "did you hear about the rain ?"), ("B", "yes the rain is set .")),
            answer="the rain was announced earlier .",
        ),
        make_example(
            ex_id="b2",
            turns=(("A", "any news on the exam ?"), ("B", "the exam happens friday .")),
            answer="someone told the speaker about the exam .",
            question=QuestionType.PREREQUISITE,
            counterfactuals=(
                "someone told the speaker about the soup .",
                "someone told the speaker about the beach .",
                "someone told the speaker about the movie .",
                "someone told the speaker about the train .",
            ),
        ),
        make_example(
            ex_id="b3",
            turns=(("A", "shall we visit the garden ?"), ("B", "yes after the meeting .")),
            answer="they will plan for the garden together .",
            question=QuestionType.SUBSEQUENT_EVENT,
            counterfactuals=(
                "they will plan for the exam together .",
                "they will plan for the wedding together .",
                "they will plan for the kitten together .",
                "they will plan for the soup together .",
            ),
        ),
        make_example(
            ex_id="b4",
            turns=(("A", "the doctor called today ."), ("B", "i will visit the doctor .")),
            answer="the listener feels curious about the doctor .",
            question=QuestionType.REACTION,
            counterfactuals=(
                "the listener feels curious about the beach .",
                "the listener feels curious about the rain .",
                "the listener feels curious about the garden .",
                "the listener feels curious about the library .",
            ),
        ),
    ]


def batch_backend(seed=0, d=6):
    from inferbench.trainer import build_vocabulary

    return ToyBackend(build_vocabulary(small_batch()), d=d, seed=seed)


def batch_negatives(batch):
    return [list(ex.counterfactuals) for ex in batch]


NLL_ONLY = LossConfig(lambda_b=0.0, lambda_s=0.0)


def vector_set(inputs, answers, negatives=None):
    """A backend and an encoded batch in which every vector is a token of
    its own whose E row is that vector, so example i pools ``inputs[i]``
    as its input, ``answers[i]`` as its answer and ``negatives[i]`` as
    its negatives."""
    vectors = [*inputs, *answers, *(v for row in negatives or [] for v in row)]
    vocab = Vocabulary([f"v{k}" for k in range(len(vectors))])
    be = ToyBackend(vocab, d=len(vectors[0]), seed=0)
    tokens = [vocab.id_of(f"v{k}") for k in range(len(vectors))]
    be.E[tokens] = vectors
    ids = iter(tokens)
    enc = EncodedSet(
        example_ids=[f"e{i}" for i in range(len(inputs))],
        inputs=[np.array([next(ids)]) for _ in inputs],
        answers=[np.array([next(ids), EOS_ID]) for _ in answers],
        negatives=None if negatives is None else [
            [np.array([next(ids)]) for _ in row] for row in negatives
        ],
        vocab=vocab,
    )
    return be, enc


def sample_term(h_x, pos, negs, tau_s):
    """Per-sample InfoNCE of one example with these pooled vectors."""
    be, enc = vector_set([h_x], [pos], [negs])
    cfg = LossConfig(tau_s=tau_s, lambda_b=0.0, lambda_s=1.0)
    return forward(be, enc, cfg, grads=False, nll=False).cl_s


def batch_term(pairs, tau_b):
    """In-batch InfoNCE summed over the rows of (input, answer) pairs."""
    be, enc = vector_set([x for x, _ in pairs], [a for _, a in pairs])
    cfg = LossConfig(tau_b=tau_b, lambda_b=1.0, lambda_s=0.0)
    return len(pairs) * forward(be, enc, cfg, grads=False, nll=False).cl_b


# --- config ------------------------------------------------------------------

def test_loss_config_defaults_match_training_recipe():
    cfg = LossConfig()
    assert (cfg.tau_b, cfg.tau_s, cfg.lambda_b, cfg.lambda_s) == (0.1, 2.5, 0.5, 0.5)


def test_loss_config_rejects_bad_temperature():
    with pytest.raises(ValueError):
        LossConfig(tau_b=0.0)


# --- NLL -----------------------------------------------------------------------

def test_nll_uniform_backend(vocab):
    be = ToyBackend(vocab, d=4, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    ex = make_example(
        turns=(("A", "alpha beta",),),
        target_index=1,
        answer="alpha beta",  # 2 tokens + EOS = 3 scored
        counterfactuals=(),
    )
    value = forward(be, encode([ex], vocab=be.vocab), NLL_ONLY).nll
    assert value == pytest.approx(3 * math.log(8), abs=1e-9)


def test_nll_perfect_model_is_zero():
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
    ex = make_example(
        turns=(("A", "zzz zzz"),), target_index=1, answer="alpha", counterfactuals=()
    )
    value = forward(be, encode([ex], vocab=be.vocab), NLL_ONLY).nll
    assert value == pytest.approx(0.0, abs=1e-9)


def test_nll_empty_answer_errors(vocab):
    be = ToyBackend(vocab, d=4, seed=0)
    ex = make_example(answer="...", counterfactuals=())
    value = forward(be, encode([ex], vocab=be.vocab), NLL_ONLY).nll  # punctuation still tokenizes
    assert value > 0
    with pytest.raises(ValueError, match="empty answer cannot be scored"):
        encode([dataclasses.replace(ex, answer="   ")], vocab=be.vocab)


# --- contrastive sample loss -----------------------------------------------------

def test_cl_sample_symmetric():
    h_x = np.array([1.0, 0.0])
    pos = np.array([0.0, 1.0])
    negs = [np.array([0.0, 2.0]) for _ in range(4)]
    value = sample_term(h_x, pos, negs, tau_s=2.5)
    assert value == pytest.approx(math.log(5), abs=1e-12)


def test_cl_sample_worked_case():
    h_x = np.array([1.0, 0.0])
    pos = np.array([3.0, 0.0])        # sim +1
    negs = [np.array([-2.0, 0.0])] * 4  # sim -1
    value = sample_term(h_x, pos, negs, tau_s=2.5)
    assert value == pytest.approx(math.log(1 + 4 * math.exp(-0.8)), abs=1e-6)


def test_cl_sample_monotone_in_positive_similarity():
    h_x = np.array([1.0, 0.0])
    negs = [np.array([0.3, 0.9]), np.array([-0.5, 0.5])]
    previous = None
    for theta in np.linspace(1.2, 0.0, 7):
        pos = np.array([math.cos(theta), math.sin(theta)])
        value = sample_term(h_x, pos, negs, tau_s=0.7)
        if previous is not None:
            assert value < previous
        previous = value


def test_cl_sample_zero_vector_named():
    with pytest.raises(ValueError, match="zero embedding for negative 1 of e0"):
        sample_term(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            [np.array([1.0, 1.0]), np.zeros(2)],
            tau_s=1.0,
        )


def test_cl_sample_needs_negatives():
    with pytest.raises(ValueError, match="requires >= 1 negative"):
        sample_term(np.ones(2), np.ones(2), [], tau_s=1.0)


def test_cl_sample_bound_and_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        tau = float(rng.uniform(0.1, 3.0))
        h_x = rng.normal(size=3)
        pos = rng.normal(size=3)
        negs = [rng.normal(size=3) for _ in range(m)]
        value = sample_term(h_x, pos, negs, tau)
        sims = [float(h_x @ v / np.linalg.norm(h_x) / np.linalg.norm(v)) for v in [pos] + negs]
        bound = math.log(m + 1) + (max(sims) - min(sims)) / tau
        assert 0.0 <= value <= bound + 1e-12


def test_cl_sample_rescaling_invariance():
    rng = np.random.default_rng(12)
    h_x = rng.normal(size=4)
    pos = rng.normal(size=4)
    negs = [rng.normal(size=4) for _ in range(3)]
    base = sample_term(h_x, pos, negs, tau_s=0.9)
    for c in (0.01, 3.5, 1200.0):
        scaled = sample_term(c * h_x, c * pos, [c * n for n in negs], tau_s=0.9)
        assert scaled == pytest.approx(base, abs=1e-12)


def test_cl_sample_negative_order_invariance():
    rng = np.random.default_rng(21)
    h_x, pos = rng.normal(size=3), rng.normal(size=3)
    negs = [rng.normal(size=3) for _ in range(4)]
    base = sample_term(h_x, pos, negs, tau_s=1.3)
    perm = sample_term(h_x, pos, [negs[2], negs[0], negs[3], negs[1]], tau_s=1.3)
    assert perm == pytest.approx(base, abs=1e-12)


# --- contrastive batch loss ---------------------------------------------------

def orthogonal_pairs():
    return [
        (np.array([1.0, 0.0]), np.array([2.0, 0.0])),
        (np.array([0.0, 1.0]), np.array([0.0, 3.0])),
    ]


def test_cl_batch_worked_case():
    value = batch_term(orthogonal_pairs(), tau_b=0.1)
    assert value == pytest.approx(2 * math.log(1 + math.exp(-10)), abs=1e-6)


def test_cl_batch_symmetric_case():
    vec = np.array([1.0, 1.0])
    for n in (2, 3, 5):
        value = batch_term([(vec, vec)] * n, tau_b=0.7)
        assert value == pytest.approx(n * math.log(n), abs=1e-9)


def test_cl_batch_duplicating_batch_changes_value():
    pairs = orthogonal_pairs()
    base = batch_term(pairs, tau_b=0.1)
    doubled = batch_term(pairs + pairs, tau_b=0.1)
    assert abs(doubled - 2 * base) > 0.1


def test_cl_batch_requires_two():
    be, enc = vector_set([np.ones(2)], [np.ones(2)])
    breakdown = forward(be, enc, LossConfig(lambda_s=0.0), nll=False)
    assert breakdown.cl_b == 0.0 and breakdown.total == 0.0


def test_cl_batch_order_invariance():
    rng = np.random.default_rng(31)
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(4)]
    base = batch_term(pairs, tau_b=0.5)
    perm = batch_term([pairs[i] for i in (2, 0, 3, 1)], tau_b=0.5)
    assert perm == pytest.approx(base, abs=1e-10)


# --- total loss ----------------------------------------------------------------

def test_total_equals_nll_when_lambdas_zero():
    batch = small_batch()
    be = batch_backend(seed=3)
    cfg = LossConfig(lambda_b=0.0, lambda_s=0.0)
    breakdown = forward(be, encode(batch, vocab=be.vocab), cfg)
    assert breakdown.total == breakdown.nll
    assert breakdown.cl_b == 0.0 and breakdown.cl_s == 0.0


def test_total_arithmetic_identity():
    batch = small_batch()
    be = batch_backend(seed=5)
    cfg = LossConfig()
    breakdown = forward(be, encode(batch, batch_negatives(batch), vocab=be.vocab), cfg)
    expected = breakdown.nll + 0.5 * breakdown.cl_b + 0.5 * breakdown.cl_s
    assert breakdown.total == pytest.approx(expected, abs=1e-12)
    assert breakdown.nll >= 0 and breakdown.cl_b >= 0 and breakdown.cl_s >= 0


def test_total_missing_negatives_errors():
    batch = small_batch()
    be = batch_backend()
    with pytest.raises(ValueError, match="negative"):
        forward(be, encode(batch, vocab=be.vocab), LossConfig())


def test_total_batch_order_invariance():
    batch = small_batch()
    negs = batch_negatives(batch)
    be = batch_backend(seed=8)
    base = forward(be, encode(batch, negs, vocab=be.vocab), LossConfig())
    perm = [2, 0, 3, 1]
    shuffled = forward(
        be, encode([batch[i] for i in perm], [negs[i] for i in perm], vocab=be.vocab), LossConfig()
    )
    assert shuffled.total == pytest.approx(base.total, abs=1e-9)
    assert shuffled.cl_b == pytest.approx(base.cl_b, abs=1e-9)


def test_accumulation_equivalence_over_divisors():
    batch = small_batch()
    negs = batch_negatives(batch)
    be = batch_backend(seed=13)
    cfg = LossConfig()
    enc = encode(batch, negs, vocab=be.vocab)
    full = forward(be, enc, cfg)
    for micro in (1, 2, 4):
        acc = forward(be, enc, cfg, micro_batch=micro)
        assert acc.total == pytest.approx(full.total, abs=1e-9)
        assert acc.nll == pytest.approx(full.nll, abs=1e-9)
        assert acc.cl_b == pytest.approx(full.cl_b, abs=1e-9)
        assert acc.cl_s == pytest.approx(full.cl_s, abs=1e-9)
        for name in ("E", "U", "b"):
            assert np.allclose(
                getattr(acc.grads, name), getattr(full.grads, name), atol=1e-9
            )


# --- finite differences -----------------------------------------------------------

def test_finite_diff_passes_on_seeds():
    batch = small_batch()
    negs = batch_negatives(batch)
    for seed in (0, 1):
        be = batch_backend(seed=seed)
        report = finite_diff_check(be, encode(batch, negs, vocab=be.vocab), LossConfig(), tol=1e-4)
        assert report.passed, report.worst[:3]
        assert report.n_checked == be.flat_parameters().size


def test_finite_diff_all_zero_backend_passes(vocab):
    be = ToyBackend(vocab, d=3, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    ex = make_example(
        turns=(("A", "alpha beta"),), target_index=1, answer="alpha", counterfactuals=()
    )
    report = finite_diff_check(
        be, encode([ex], vocab=be.vocab), LossConfig(lambda_b=0, lambda_s=0)
    )
    assert report.passed


def test_finite_diff_detects_injected_fault():
    batch = small_batch()
    negs = batch_negatives(batch)
    be = batch_backend(seed=2)
    cfg = LossConfig()
    enc = encode(batch, negs, vocab=be.vocab)
    corrupted = forward(be, enc, cfg).grads
    flat_index = int(np.argmax(np.abs(corrupted.U)))
    r, c = divmod(flat_index, corrupted.U.shape[1])
    corrupted.U[r, c] = -corrupted.U[r, c]
    report = finite_diff_check(be, enc, cfg, analytic=corrupted)
    assert not report.passed
    expected_name = f"U[{r},{c}]"
    assert any(w.parameter == expected_name for w in report.worst)


def test_finite_diff_fails_every_doubled_gradient():
    batch = small_batch()
    be = batch_backend(seed=2)
    cfg = LossConfig()
    enc = encode(batch, batch_negatives(batch), vocab=be.vocab)
    # every gradient doubled: each coordinate with a gradient fails
    doubled = forward(be, enc, cfg).grads
    for g in (doubled.E, doubled.U, doubled.b):
        g *= 2.0
    faulty = finite_diff_check(be, enc, cfg, analytic=doubled)
    assert faulty.n_checked == be.flat_parameters().size
    assert not faulty.passed
    assert all(w.error == pytest.approx(0.5, rel=1e-3) for w in faulty.worst)


def gradcheck_batch(seed=3):
    """The batch and model of ``gradcheck --seed SEED``, at d = 2."""
    examples = build_split("gradcheck", 4, seed)
    enc = encode(examples, [ex.counterfactuals for ex in examples])
    return ToyBackend(enc.vocab, d=2, seed=seed), enc


def test_complex_step_gate_passes_seeds_1_to_40_at_tol_1e_9():
    for seed in range(1, 41):
        be, enc = gradcheck_batch(seed)
        report = finite_diff_check(be, enc, LossConfig(), tol=1e-9)
        assert report.passed, (seed, report.worst[:3])
        assert report.n_checked == be.flat_parameters().size


def test_complex_parameters_give_the_real_total_within_4_ulp():
    """complex128 products use other BLAS kernels, so the real part of the
    complex total may differ from the float64 total in its last bits."""
    for seed in range(1, 41):
        be, enc = gradcheck_batch(seed)
        total = forward(be, enc, LossConfig(), grads=False).total
        assert isinstance(total, float)
        complex_be = be.copy()
        complex_be.set_flat_parameters(be.flat_parameters().astype(complex))
        z = forward(complex_be, enc, LossConfig(), grads=False).total
        assert z.imag == 0.0
        assert abs(z.real - total) <= 4 * np.spacing(total), seed


def test_finite_diff_fails_a_fault_below_the_near_zero_floor():
    be, enc = gradcheck_batch()
    faulty = forward(be, enc, LossConfig()).grads
    assert faulty.E[0, 0] == 0.0  # the PAD row is never pooled
    faulty.E[0, 0] = 5e-7
    report = finite_diff_check(be, enc, LossConfig(), analytic=faulty)
    assert not report.passed
    assert [w.parameter for w in report.worst] == ["E[0,0]"]
    assert report.worst[0].error == pytest.approx(5e-7, rel=1e-9)


def test_finite_diff_reports_the_ten_worst_failures():
    be, enc = gradcheck_batch()
    faulty = forward(be, enc, LossConfig()).grads
    faulty.U *= 1.01
    report = finite_diff_check(be, enc, LossConfig(), analytic=faulty)
    assert not report.passed
    errors = [w.error for w in report.worst]
    assert len(errors) == 10
    assert errors == sorted(errors, reverse=True)


# --- encoded batch: ragged negatives, perplexity ------------------------------------

def ragged_negatives(batch):
    return [list(ex.counterfactuals)[:m] for ex, m in zip(batch, (1, 2, 4, 2))]


def test_ragged_negatives_pass_finite_differences():
    batch = small_batch()
    negs = ragged_negatives(batch)
    be = batch_backend(seed=4)
    report = finite_diff_check(be, encode(batch, negs, vocab=be.vocab), LossConfig(), tol=1e-4)
    assert report.passed, report.worst[:3]
    assert report.n_checked == be.flat_parameters().size


def test_perplexity_is_exp_of_summed_nll_per_token():
    from inferbench.metrics import tokenize
    from inferbench.trainer import perplexity

    batch = small_batch()
    be = batch_backend(seed=9)
    nll = sum(forward(be, encode([ex], vocab=be.vocab), NLL_ONLY).nll for ex in batch)
    tokens = sum(len(tokenize(ex.answer)) + 1 for ex in batch)
    assert perplexity(be, batch) == pytest.approx(math.exp(nll / tokens), abs=1e-12)


def test_built_vocabulary_gives_the_ids_of_a_given_one(data_dir):
    from inferbench.corpus import load_dataset, prepare_input_text
    from inferbench.metrics import tokenize

    examples = load_dataset(data_dir / "train.jsonl")[:40]
    for template_id in ("default", "speaker_ids"):
        enc = encode(examples, [ex.counterfactuals for ex in examples], template_id)
        tokens = set()
        for ex in examples:
            for text in (prepare_input_text(ex, template_id), ex.answer, *ex.counterfactuals):
                tokens.update(tokenize(text))
        assert enc.vocab.tokens == Vocabulary(sorted(tokens)).tokens
        assert enc.take([1, 0]).vocab is enc.vocab
        expected = encode(examples, [list(ex.counterfactuals) for ex in examples], template_id,
                          enc.vocab)
        assert enc.example_ids == expected.example_ids
        for got, want in ((enc.inputs, expected.inputs), (enc.answers, expected.answers)):
            assert all(g.dtype == np.intp and g.tolist() == w.tolist() for g, w in zip(got, want))
        assert [[a.tolist() for a in row] for row in enc.negatives] == [
            [a.tolist() for a in row] for row in expected.negatives
        ]


def test_shared_ids_are_read_only():
    ex = make_example()
    twin = dataclasses.replace(ex, id="ex-2")
    enc = encode([ex, twin], [ex.counterfactuals, twin.counterfactuals])
    vocab = enc.vocab
    assert enc.inputs[0] is enc.inputs[1]  # one array per distinct text
    before = [a.tolist() for a in (*enc.inputs, *enc.answers)]
    with pytest.raises(ValueError, match="read-only"):
        enc.answers[0][0] = UNK_ID
    with pytest.raises(ValueError, match="read-only"):
        enc.inputs[1] += 1
    assert [a.tolist() for a in (*enc.inputs, *enc.answers)] == before
    given = encode([ex, twin], [list(ex.counterfactuals), [ex.answer, ex.answer]], vocab=vocab)
    arrays = [*given.negatives[0], *given.negatives[1], *given.answers]
    assert not any(a.flags.writeable for a in arrays)
