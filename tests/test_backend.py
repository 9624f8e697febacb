import base64
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from inferbench.backend import (
    BOS_ID,
    EOS_ID,
    MASK_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    Gradients,
    ToyBackend,
    Vocabulary,
    _pcg_outputs,
    _pcg_seed,
    load_checkpoint,
    pool,
    save_checkpoint,
)
from inferbench.objective import _unit, encode

from conftest import make_example
from reference_model import flat_parameters, generate, log_probs_ids, masked_logits_ids


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
    assert vocab.encode(["zzz"]) == [UNK_ID]


def test_special_ids_are_the_fixed_constants(tmp_path):
    # "!" and "0" sort before "<pad>": the ids hold because SPECIALS come first
    built = encode([make_example(answer="! 0 alpha .")]).vocab
    path = tmp_path / "ckpt.json"
    save_checkpoint(ToyBackend(built, d=2), path)
    for vocab in (built, load_checkpoint(path).vocab):
        assert vocab.encode(list(SPECIALS)) == [PAD_ID, BOS_ID, EOS_ID, UNK_ID, MASK_ID]


# --- log_probs_ids ------------------------------------------------------------

def test_uniform_distribution_from_zero_parameters(vocab):
    be = zeroed(vocab)
    log_probs = log_probs_ids(be, vocab.encode(["alpha"]), vocab.encode([]))
    assert np.allclose(log_probs, -math.log(8))


def test_bias_domination(vocab):
    be = zeroed(vocab)
    rigged = vocab.encode(["gamma"])[0]
    be.b[rigged] = 50.0
    for tokens in (["alpha"], ["beta", "gamma"], []):
        log_probs = log_probs_ids(be, vocab.encode(tokens), vocab.encode(["alpha"]))
        assert int(np.argmax(log_probs)) == rigged


def test_log_distribution_normalized_property(backend):
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "zzz"]
    for trial in range(25):
        be = ToyBackend(backend.vocab, d=4, seed=trial)
        toks = [words[int(i)] for i in rng.integers(0, 4, size=rng.integers(0, 5))]
        prefix = [words[int(i)] for i in rng.integers(0, 4, size=rng.integers(0, 4))]
        lse = np.logaddexp.reduce(log_probs_ids(be, be.vocab.encode(toks), be.vocab.encode(prefix)))
        assert abs(lse) < 1e-6


def test_empty_input_and_prefix_never_errors(backend):
    log_probs = log_probs_ids(backend, backend.vocab.encode([]), backend.vocab.encode([]))
    assert abs(np.logaddexp.reduce(log_probs)) < 1e-6


# --- embeddings: pooled rows, L2-normalized as the objective does ------------------

def embed(backend, tokens):
    return _unit(pool(backend.E, [backend.vocab.encode(tokens)]), str)[0][0]


def test_embed_single_token_is_normalized_row(backend):
    vec = embed(backend, ["alpha"])
    row = backend.E[backend.vocab.encode(["alpha"])[0]]
    assert np.allclose(vec, row / np.linalg.norm(row))


def test_embed_is_order_free(backend):
    a = embed(backend, ["alpha", "beta", "gamma"])
    b = embed(backend, ["gamma", "alpha", "beta"])
    assert np.allclose(a, b)


def test_embed_norm_property(backend):
    rng = np.random.default_rng(4)
    words = ["alpha", "beta", "gamma"]
    for _ in range(20):
        toks = [words[int(i)] for i in rng.integers(0, 3, size=rng.integers(1, 6))]
        norm = np.linalg.norm(embed(backend, toks))
        assert abs(norm - 1.0) < 1e-9


# --- masked_logits_ids -----------------------------------------------------------

def test_masked_uniform_for_zero_backend(vocab):
    be = zeroed(vocab)
    out = masked_logits_ids(be, vocab.encode(["alpha", "beta"]), 0)
    assert np.allclose(out, -math.log(8))


def test_masked_never_reads_masked_position(backend):
    base = masked_logits_ids(backend, backend.vocab.encode(["alpha", "beta", "gamma"]), 1)
    perturbed = masked_logits_ids(backend, backend.vocab.encode(["alpha", "zzz", "gamma"]), 1)
    assert np.allclose(base, perturbed)


def test_masked_context_condition_differs(backend):
    with_ctx = masked_logits_ids(
        backend, backend.vocab.encode(["alpha", "beta"]), 0,
        context_ids=backend.vocab.encode(["gamma"]),
    )
    answer_only = masked_logits_ids(backend, backend.vocab.encode(["alpha", "beta"]), 0)
    assert not np.allclose(with_ctx, answer_only)


def test_masked_position_out_of_range(backend):
    with pytest.raises(IndexError):
        masked_logits_ids(backend, backend.vocab.encode(["alpha"]), 1)


# --- generate --------------------------------------------------------------------

def test_generate_immediate_eos(vocab):
    be = zeroed(vocab)
    be.b[EOS_ID] = 50.0
    assert generate(be, vocab.encode(["alpha"]), 8) == []


def test_generate_greedy_rigged_chain(vocab):
    be = zeroed(vocab)
    # bias makes 'beta' the argmax everywhere; the chain is beta, beta, ...
    be.b[vocab.encode(["beta"])[0]] = 5.0
    out = generate(be, vocab.encode(["alpha"]), 3)
    assert out == ["beta", "beta", "beta"]


def test_greedy_tie_break_lowest_id(vocab):
    be = zeroed(vocab)
    # all decodable logits equal: EOS has the lowest id, so decoding stops
    assert generate(be, vocab.encode(["alpha"]), 1) == []
    # with EOS pushed down, the lowest-id word wins the tie
    be.b[EOS_ID] = -100.0
    out = generate(be, vocab.encode(["alpha"]), 1)
    assert out == ["alpha"]


def test_generate_never_emits_specials(backend):
    for seed in range(5):
        out = generate(backend, backend.vocab.encode(["alpha", "beta"]), 10, k=3, seed=seed)
        assert all(not t.startswith("<") for t in out)


def test_top_k_one_equals_greedy(backend):
    for seed in (0, 1, 2, 99):
        greedy = generate(backend, backend.vocab.encode(["alpha", "beta"]), 6)
        topk = generate(backend, backend.vocab.encode(["alpha", "beta"]), 6, k=1, seed=seed)
        assert topk == greedy


def test_top_k_deterministic_given_seed(backend):
    a = generate(backend, backend.vocab.encode(["alpha"]), 8, k=4, seed=7)
    b = generate(backend, backend.vocab.encode(["alpha"]), 8, k=4, seed=7)
    assert a == b


def test_top_k_bounds(backend):
    with pytest.raises(ValueError):
        generate(backend, backend.vocab.encode(["alpha"]), 16, k=0, seed=0)
    with pytest.raises(ValueError):
        generate(backend, backend.vocab.encode(["alpha"]), 16, k=99, seed=0)


def test_top_k_needs_one_seed_per_input(backend):
    inputs = [backend.vocab.encode(["alpha"]), backend.vocab.encode(["beta"])]
    for seeds in (None, [], [1], [1, 2, 3]):
        with pytest.raises(ValueError, match="top-k needs one seed per input"):
            backend.generate_batch(inputs, 8, 3, seeds)


def test_greedy_ignores_seeds(backend):
    inputs = [backend.vocab.encode(["alpha"]), backend.vocab.encode(["beta", "gamma"])]
    greedy = backend.generate_batch(inputs, 8)
    for seeds in ([0, 1], [5, 99]):
        assert backend.generate_batch(inputs, 8, None, seeds) == greedy


# --- apply_gradients ---------------------------------------------------------------

def test_apply_gradients_zero_lr(backend):
    grads = Gradients(
        E=np.ones_like(backend.E), U=np.ones_like(backend.U), b=np.ones_like(backend.b)
    )
    before = flat_parameters(backend)
    backend.apply_gradients(grads, lr=0.0)
    assert np.array_equal(flat_parameters(backend), before)


def test_apply_gradients_ones(backend):
    grads = Gradients(
        E=np.ones_like(backend.E), U=np.ones_like(backend.U), b=np.ones_like(backend.b)
    )
    before = flat_parameters(backend)
    backend.apply_gradients(grads, lr=0.1)
    assert np.allclose(flat_parameters(backend), before - 0.1)


def test_two_half_steps_equal_one_full(vocab):
    g = Gradients(
        E=np.full((8, 4), 2.0), U=np.full((8, 4), -1.0), b=np.full(8, 0.5)
    )
    a = ToyBackend(vocab, d=4, seed=3)
    b = a.copy()
    a.apply_gradients(g, 0.2)
    b.apply_gradients(g, 0.1)
    b.apply_gradients(g, 0.1)
    assert np.allclose(flat_parameters(a), flat_parameters(b), atol=1e-15)


def test_apply_gradients_shape_mismatch(backend):
    bad = Gradients(E=np.zeros((2, 2)), U=np.zeros_like(backend.U), b=np.zeros_like(backend.b))
    with pytest.raises(ValueError):
        backend.apply_gradients(bad, 0.1)


# --- determinism and checkpoints ----------------------------------------------------

def test_seeded_init_bit_identical(vocab):
    a = ToyBackend(vocab, d=6, seed=42)
    b = ToyBackend(vocab, d=6, seed=42)
    assert np.array_equal(flat_parameters(a), flat_parameters(b))
    c = ToyBackend(vocab, d=6, seed=43)
    assert not np.array_equal(flat_parameters(a), flat_parameters(c))


def test_init_range(vocab):
    be = ToyBackend(vocab, d=64, seed=5)
    theta = flat_parameters(be)
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


# sha256 of save_checkpoint's bytes for a fixed seeded backend; the bytes
# are the file format, so these pin checkpoint format 2 (parameters as
# base64 of little-endian float64)
CHECKPOINT_SHA256 = {
    None: "fd05750c476e5b5d91466effb5cb7f51260297e9f2c58d2e42e3f32e535b0206",
    "ab" * 32: "58ddff2b90e2935afad9adad1d08a9cf8261e3f0c68fc68dc6b20e7aa181cc4e",
}


@pytest.mark.parametrize("digest", list(CHECKPOINT_SHA256))
def test_checkpoint_bytes_pinned(tmp_path, digest):
    backend = ToyBackend(Vocabulary(["the", "rain", "'s", "."]), d=4, seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(backend, path, digest)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[digest]


TINY = np.finfo(float).smallest_subnormal
HUGE = np.finfo(float).max


@pytest.mark.parametrize("words, d, values", [
    (["alpha", "beta", "gamma"], 4, [-0.0]),
    (["alpha", "beta", "gamma"], 4, [TINY, -TINY]),
    (["alpha", "beta", "gamma"], 4, [HUGE, -HUGE]),
    (["x"], 1, [-0.0, TINY, HUGE, -HUGE, 1.0, -TINY]),
], ids=["negative_zero", "smallest_subnormal", "finfo_max", "one_token_d1"])
def test_checkpoint_round_trips_extreme_values(tmp_path, words, d, values):
    backend = ToyBackend(Vocabulary(words), d=d, seed=2)
    for name in ("E", "U", "b"):
        array = getattr(backend, name)
        array.flat[: len(values)] = values[: array.size]
    save_checkpoint(backend, tmp_path / "ckpt.json")
    loaded = load_checkpoint(tmp_path / "ckpt.json")
    for name in ("E", "U", "b"):
        array = getattr(loaded, name)
        assert array.dtype == np.float64 and array.dtype.isnative
        assert array.flags.writeable and array.flags.c_contiguous
        assert array.shape == getattr(backend, name).shape
        assert array.tobytes() == getattr(backend, name).tobytes()


def test_checkpoint_parameters_are_little_endian_float64(tmp_path, backend):
    save_checkpoint(backend, tmp_path / "ckpt.json")
    payload = json.loads((tmp_path / "ckpt.json").read_text())
    assert payload["format_version"] == 2
    for name in ("E", "U", "b"):
        decoded = np.frombuffer(base64.b64decode(payload[name], validate=True), "<f8")
        # row-major native bytes, whatever the host's byte order
        assert decoded.astype(float).tobytes() == getattr(backend, name).tobytes()


def test_pcg_outputs_peak_below_three_times_their_size():
    # a 800-row round of 16 steps: the chunked in-place states, not the
    # (rows x count) temporaries of whole-array 128-bit products
    state = _pcg_seed(list(range(800)))
    tracemalloc.start()
    try:
        outputs = _pcg_outputs(state, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outputs.shape == (800, 16)
    assert peak <= 3 * outputs.nbytes
