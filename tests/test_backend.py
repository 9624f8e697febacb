import math

import numpy as np
import pytest

from inferbench.backend import (
    SPECIALS,
    Gradients,
    GreedyDecode,
    TopKDecode,
    ToyBackend,
    Vocabulary,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def vocab():
    return Vocabulary(["alpha", "beta", "gamma"])


@pytest.fixture
def backend(vocab):
    return ToyBackend(vocab, d=4, seed=11)


def zeroed(vocab, d=4):
    be = ToyBackend(vocab, d=d, seed=0)
    be.E[:] = 0.0
    be.U[:] = 0.0
    be.b[:] = 0.0
    return be


# --- vocabulary ---------------------------------------------------------------

def test_vocab_specials_dense_ids(vocab):
    assert len(vocab) == 8
    assert vocab.tokens[:5] == list(SPECIALS)
    assert sorted(vocab.encode(vocab.tokens)) == list(range(8))


def test_vocab_oov_maps_to_unk(vocab):
    assert vocab.id_of("zzz") == vocab.unk_id


# --- log_probs_ids ------------------------------------------------------------

def test_uniform_distribution_from_zero_parameters(vocab):
    be = zeroed(vocab)
    log_probs = be.log_probs_ids(vocab.encode(["alpha"]), vocab.encode([]))
    assert np.allclose(log_probs, -math.log(8))


def test_bias_domination(vocab):
    be = zeroed(vocab)
    rigged = vocab.id_of("gamma")
    be.b[rigged] = 50.0
    for tokens in (["alpha"], ["beta", "gamma"], []):
        assert int(np.argmax(be.log_probs_ids(vocab.encode(tokens), vocab.encode(["alpha"])))) == rigged


def test_log_distribution_normalized_property(backend):
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "zzz"]
    for trial in range(25):
        be = ToyBackend(backend.vocab, d=4, seed=trial)
        toks = [words[int(i)] for i in rng.integers(0, 4, size=rng.integers(0, 5))]
        prefix = [words[int(i)] for i in rng.integers(0, 4, size=rng.integers(0, 4))]
        lse = np.logaddexp.reduce(be.log_probs_ids(be.vocab.encode(toks), be.vocab.encode(prefix)))
        assert abs(lse) < 1e-6


def test_empty_input_and_prefix_never_errors(backend):
    log_probs = backend.log_probs_ids(backend.vocab.encode([]), backend.vocab.encode([]))
    assert abs(np.logaddexp.reduce(log_probs)) < 1e-6


# --- embed_ids -----------------------------------------------------------------

def test_embed_single_token_is_normalized_row(backend):
    vec = backend.embed_ids(backend.vocab.encode(["alpha"]))
    row = backend.E[backend.vocab.id_of("alpha")]
    assert np.allclose(vec, row / np.linalg.norm(row))


def test_embed_is_order_free(backend):
    a = backend.embed_ids(backend.vocab.encode(["alpha", "beta", "gamma"]))
    b = backend.embed_ids(backend.vocab.encode(["gamma", "alpha", "beta"]))
    assert np.allclose(a, b)


def test_embed_empty_is_zero(backend):
    assert np.all(backend.embed_ids(backend.vocab.encode([])) == 0.0)


def test_embed_norm_property(backend):
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma"]
    for _ in range(20):
        toks = [words[int(i)] for i in rng.integers(0, 3, size=rng.integers(1, 6))]
        norm = np.linalg.norm(backend.embed_ids(backend.vocab.encode(toks)))
        assert abs(norm - 1.0) < 1e-9


# --- masked_logits_ids -----------------------------------------------------------

def test_masked_uniform_for_zero_backend(vocab):
    be = zeroed(vocab)
    out = be.masked_logits_ids(vocab.encode(["alpha", "beta"]), 0)
    assert np.allclose(out, -math.log(8))


def test_masked_never_reads_masked_position(backend):
    base = backend.masked_logits_ids(backend.vocab.encode(["alpha", "beta", "gamma"]), 1)
    perturbed = backend.masked_logits_ids(backend.vocab.encode(["alpha", "zzz", "gamma"]), 1)
    assert np.allclose(base, perturbed)


def test_masked_context_condition_differs(backend):
    with_ctx = backend.masked_logits_ids(
        backend.vocab.encode(["alpha", "beta"]), 0, context_ids=backend.vocab.encode(["gamma"])
    )
    answer_only = backend.masked_logits_ids(backend.vocab.encode(["alpha", "beta"]), 0)
    assert not np.allclose(with_ctx, answer_only)


def test_masked_position_out_of_range(backend):
    with pytest.raises(IndexError):
        backend.masked_logits_ids(backend.vocab.encode(["alpha"]), 1)


# --- generate --------------------------------------------------------------------

def test_generate_immediate_eos(vocab):
    be = zeroed(vocab)
    be.b[vocab.eos_id] = 50.0
    assert be.generate(vocab.encode(["alpha"]), GreedyDecode(max_len=8)) == []


def test_generate_greedy_rigged_chain(vocab):
    be = zeroed(vocab)
    # bias makes 'beta' the argmax everywhere; the chain is beta, beta, ...
    be.b[vocab.id_of("beta")] = 5.0
    out = be.generate(vocab.encode(["alpha"]), GreedyDecode(max_len=3))
    assert out == ["beta", "beta", "beta"]


def test_greedy_tie_break_lowest_id(vocab):
    be = zeroed(vocab)
    # all decodable logits equal: EOS has the lowest id, so decoding stops
    assert be.generate(vocab.encode(["alpha"]), GreedyDecode(max_len=1)) == []
    # with EOS pushed down, the lowest-id word wins the tie
    be.b[vocab.eos_id] = -100.0
    out = be.generate(vocab.encode(["alpha"]), GreedyDecode(max_len=1))
    assert out == ["alpha"]


def test_generate_never_emits_specials(backend):
    for seed in range(5):
        out = backend.generate(
            backend.vocab.encode(["alpha", "beta"]), TopKDecode(k=3, seed=seed, max_len=10)
        )
        assert all(not t.startswith("<") for t in out)


def test_top_k_one_equals_greedy(backend):
    for seed in (0, 1, 2, 99):
        greedy = backend.generate(backend.vocab.encode(["alpha", "beta"]), GreedyDecode(max_len=6))
        topk = backend.generate(
            backend.vocab.encode(["alpha", "beta"]), TopKDecode(k=1, seed=seed, max_len=6)
        )
        assert topk == greedy


def test_top_k_deterministic_given_seed(backend):
    a = backend.generate(backend.vocab.encode(["alpha"]), TopKDecode(k=4, seed=7, max_len=8))
    b = backend.generate(backend.vocab.encode(["alpha"]), TopKDecode(k=4, seed=7, max_len=8))
    assert a == b


def test_top_k_bounds(backend):
    with pytest.raises(ValueError):
        backend.generate(backend.vocab.encode(["alpha"]), TopKDecode(k=0, seed=0))
    with pytest.raises(ValueError):
        backend.generate(backend.vocab.encode(["alpha"]), TopKDecode(k=99, seed=0))


# --- apply_gradients ---------------------------------------------------------------

def test_apply_gradients_zero_lr(backend):
    grads = Gradients(
        E=np.ones_like(backend.E), U=np.ones_like(backend.U), b=np.ones_like(backend.b)
    )
    before = backend.flat_parameters()
    backend.apply_gradients(grads, lr=0.0)
    assert np.array_equal(backend.flat_parameters(), before)


def test_apply_gradients_ones(backend):
    grads = Gradients(
        E=np.ones_like(backend.E), U=np.ones_like(backend.U), b=np.ones_like(backend.b)
    )
    before = backend.flat_parameters()
    backend.apply_gradients(grads, lr=0.1)
    assert np.allclose(backend.flat_parameters(), before - 0.1)


def test_two_half_steps_equal_one_full(vocab):
    g = Gradients(
        E=np.full((8, 4), 2.0), U=np.full((8, 4), -1.0), b=np.full(8, 0.5)
    )
    a = ToyBackend(vocab, d=4, seed=3)
    b = a.copy()
    a.apply_gradients(g, 0.2)
    b.apply_gradients(g, 0.1)
    b.apply_gradients(g, 0.1)
    assert np.allclose(a.flat_parameters(), b.flat_parameters(), atol=1e-15)


def test_apply_gradients_shape_mismatch(backend):
    bad = Gradients(E=np.zeros((2, 2)), U=np.zeros_like(backend.U), b=np.zeros_like(backend.b))
    with pytest.raises(ValueError):
        backend.apply_gradients(bad, 0.1)


# --- determinism and checkpoints ----------------------------------------------------

def test_seeded_init_bit_identical(vocab):
    a = ToyBackend(vocab, d=6, seed=42)
    b = ToyBackend(vocab, d=6, seed=42)
    assert np.array_equal(a.flat_parameters(), b.flat_parameters())
    c = ToyBackend(vocab, d=6, seed=43)
    assert not np.array_equal(a.flat_parameters(), c.flat_parameters())


def test_init_range(vocab):
    be = ToyBackend(vocab, d=64, seed=5)
    theta = be.flat_parameters()
    assert theta.min() >= -0.1 and theta.max() <= 0.1


def test_checkpoint_round_trip_bit_exact(tmp_path, backend):
    path = tmp_path / "ckpt.json"
    save_checkpoint(backend, path, config_digest="abc")
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.E, backend.E)
    assert np.array_equal(loaded.U, backend.U)
    assert np.array_equal(loaded.b, backend.b)
    assert loaded.vocab.tokens == backend.vocab.tokens
    assert loaded.d == backend.d and loaded.seed == backend.seed
