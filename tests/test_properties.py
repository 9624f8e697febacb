"""Property-based tests.

* The stratum contract: a stratum of a report equals the same report run
  on that stratum's items alone, exactly.
* The objective: :func:`forward` agrees with the loop oracle
  ``bf_total_loss`` on random encoded batches, errors included, and the
  validation margin, read from the same pooled vectors, with its
  per-example loop ``bf_validation_margin``. Its values and gradients
  equal, bit for bit, those of the reference that sets up and scores the
  NLL one micro-block at a time, at every micro-block size.
* Pooling: a segment pools to its rows added in order, divided by the
  count, alone or among other segments, from a list or from one flat id
  array; the decoder's states, masked scoring's windows and
  ``forward``'s pooled vectors and NLL states are that pool, bit for bit.
* Decoding: the batched kernel agrees with a one-step-at-a-time loop
  over the reference ``log_probs_ids`` and ``Generator.choice``, and a
  row's tokens do not depend on the rows batched with it. Its uniforms,
  and the bounded integers of the replacement draws, are
  ``default_rng``'s bit for bit, drawn without a ``Generator``.
* The n-gram metrics agree with the oracles of ``tests/bruteforce.py``,
  and a report's corpus BLEU, sentence BLEU and CIDEr, read from the
  per-pair n-gram tables, equal ``bleu`` and ``cider`` called on each
  stratum's pairs, bit for bit.
* The answer normalization equals its regex form, and the replacement
  candidates the ranking of the whole vocabulary.
* The text-to-ids encoders equal their one-text-at-a-time forms: the
  same vocabulary, the same ids bit for bit, the same errors; a text's
  tokens are its lines' tokens joined, and every row of a call is a view
  of one read-only array.
* Invariants of decoding, token replacement, checkpoints and canonical
  JSON.

Token lists are 1-8 tokens over a small alphabet, so that repeats occur
(and stems collide) while METEOR's alignment stays far from its node
budget. Generation is derandomized and keeps no example database.
"""

import dataclasses
import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from inferbench import backend, cli, objective
from inferbench.analysis import CHOICES, Judgment, compare_metric_scores, stratified_compare
from inferbench.backend import (
    BOS_ID,
    DECODE_BYTES,
    EOS_ID,
    MASK_ID,
    PAD_ID,
    SPECIALS,
    UNK_ID,
    ToyBackend,
    Vocabulary,
    _integers,
    _pcg_outputs,
    _pcg_seed,
    _unit,
    derive_seed,
    draw_index,
    flatten,
    load_checkpoint,
    pool,
    pool_flat,
    save_checkpoint,
)
from inferbench.corpus import TEMPLATES, QuestionType, Utterance, normalize_answer
from inferbench.jsonio import canonical_dumps, round_sig
from inferbench.metrics import (
    PAIR_METRICS,
    bleu,
    cider,
    pair_scores,
    rouge_l,
    score_corpus,
    tokenize,
)
from inferbench.negatives import rank_candidates
from inferbench.objective import (
    EncodedSet,
    LossConfig,
    build_vocabulary,
    encode,
    forward,
    validation_margin,
)
from inferbench.porter import stem
from inferbench.synth import build_split

from bruteforce import bf_bleu, bf_cider, bf_rouge_l, bf_total_loss, bf_validation_margin
from conftest import DATA_DIR, make_example, replace_one
import reference_model
from reference_model import (
    generate,
    log_probs_ids,
    masked_logits_ids,
    replacement_deltas,
    state,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

WORDS = ("a", "the", "cat", "cats", "sat", "run", "runs")
LABELS = ("easy", "hard", "mid")

sentence = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)


@st.composite
def labeled_items(draw, value):
    """Item ids with one drawn value and one stratum label each."""
    n = draw(st.integers(min_value=1, max_value=8))
    ids = [f"i{k}" for k in draw(st.permutations(range(n)))]
    values = [draw(value) for _ in ids]
    labels = {i: draw(st.sampled_from(LABELS)) for i in ids}
    return ids, values, labels


def _subsets(ids, labels):
    for label in sorted(set(labels.values())):
        yield label, [k for k, i in enumerate(ids) if labels[i] == label]


@PROPERTY
@given(labeled_items(st.tuples(sentence, sentence)), st.booleans())
def test_score_strata_equal_subset_runs(items, with_per_example):
    ids, pairs, labels = items
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_corpus(pairs, ids, labels, with_per_example)
        for label, ks in _subsets(ids, labels):
            alone = score_corpus(
                [pairs[k] for k in ks], [ids[k] for k in ks], with_per_example=with_per_example
            )
            assert report.strata[label].to_dict() == alone.to_dict()
    assert list(report.strata) == sorted(report.strata)


@PROPERTY
@given(
    st.lists(st.tuples(sentence, sentence), min_size=1, max_size=6),
    st.sampled_from(PAIR_METRICS),
)
def test_pair_scores_equal_the_per_example_column(pairs, metric):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_corpus(pairs, with_per_example=True)
        got = pair_scores(pairs, metric)
    assert got == [row[metric] for row in report.per_example.values()]


@PROPERTY
@given(labeled_items(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))))
def test_metric_comparison_strata_equal_subset_runs(items):
    ids, scores, labels = items
    a = {i: s for i, (s, _) in zip(ids, scores)}
    b = {i: s if k % 2 else t for k, (i, (s, t)) in enumerate(zip(ids, scores))}
    report = compare_metric_scores(a, b, labels)
    for label, ks in _subsets(ids, labels):
        alone = compare_metric_scores(
            {ids[k]: a[ids[k]] for k in ks}, {ids[k]: b[ids[k]] for k in ks}
        )
        assert report.strata[label].to_dict() == alone.overall.to_dict()


@PROPERTY
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda raters: labeled_items(
            st.lists(st.sampled_from(CHOICES), min_size=raters, max_size=raters)
        )
    )
)
def test_judgment_comparison_strata_equal_subset_runs(items):
    ids, votes, labels = items
    judgments = [
        Judgment(item_id=i, rater_id=f"r{r}", choice=choice)
        for i, choices in zip(ids, votes)
        for r, choice in enumerate(choices)
    ]
    report = stratified_compare(judgments, labels)
    for label, ks in _subsets(ids, labels):
        members = {ids[k] for k in ks}
        alone = stratified_compare([j for j in judgments if j.item_id in members])
        assert report.strata[label].to_dict() == alone.overall.to_dict()


# --- the pooling rule -----------------------------------------------------------------

@st.composite
def pool_cases(draw):
    """An E of d 1-24 over 3-40 rows of random normal entries of a drawn
    scale, and 1-6 id segments of 0-30 ids. Ids repeat, and a draw may
    keep to two of them."""
    d, rows = draw(st.integers(1, 24)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = draw(st.sampled_from([0.1, 1.0, 4.0])) * rng.normal(size=(rows, d))
    ids = st.integers(0, draw(st.sampled_from([2, rows])) - 1)
    return E, draw(st.lists(st.lists(ids, max_size=30), min_size=1, max_size=6))


def in_order_mean(E, ids):
    """Each column's entries at ``ids`` added left to right in Python
    floats, divided by the count; zeros for no ids."""
    if not ids:
        return [0.0] * E.shape[1]
    means = []
    for column in E.T.tolist():
        total = column[ids[0]]
        for t in ids[1:]:
            total += column[t]
        means.append(total / len(ids))
    return means


def _with_lone_segments(test):
    """``test`` with the explicit cases of one segment of ids, of one
    empty segment, each alone, and of no segments, at d 1, 2 and 8."""
    for d in (1, 2, 8):
        E = np.random.default_rng(d).normal(size=(5, d))
        for segments in ([[3, 1, 3, 4, 0, 2]], [[]], []):
            test = example((E, segments))(test)
    return test


@PROPERTY
@given(pool_cases())
@_with_lone_segments
def test_pool_rows_are_in_order_means_alone_or_batched(case):
    E, segments = case
    pooled = pool(E, segments)
    assert pooled.shape == (len(segments), E.shape[1])
    for row, ids in zip(pooled, segments):
        assert row.tobytes() == pool(E, [ids])[0].tobytes()
        assert row.tobytes() == np.array(in_order_mean(E, ids)).tobytes()


def in_order_sum(E, ids):
    """Each column's entries at ``ids`` added left to right in Python
    floats, from -0.0."""
    sums = []
    for column in E.T.tolist():
        total = -0.0
        for t in ids:
            total += column[t]
        sums.append(total)
    return sums


@PROPERTY
@given(pool_cases())
@_with_lone_segments
def test_flat_segment_sums_equal_each_segment_alone(case):
    E, segments = case
    flat = flatten(segments)
    assert flat.ids.dtype == flat.lengths.dtype == np.intp
    assert flat.ids.tolist() == [t for ids in segments for t in ids]
    assert flat.lengths.tolist() == [len(ids) for ids in segments]
    sums = backend._segment_sums(E, flat)
    pooled = pool_flat(E, flat)
    assert sums.shape == pooled.shape == (len(segments), E.shape[1])
    # a layout pooled again (its add order kept) pools to the same bits
    assert pool_flat(E, flat).tobytes() == pooled.tobytes()
    for row, mean, seg in zip(sums, pooled, segments):
        alone = backend._segment_sums(E, flatten([seg]))
        assert row.tobytes() == alone[0].tobytes() == np.array(in_order_sum(E, seg)).tobytes()
        assert mean.tobytes() == pool(E, [seg])[0].tobytes()


@PROPERTY
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.data())
def test_forward_pools_as_pool_does(d, seed, data):
    # the InfoNCE terms and the validation margin normalize these pooled
    # vectors; with U's first d rows the unit vectors and b zero, the
    # NLL's logits hold its states, each half the sum of two pools
    be = ToyBackend(Vocabulary([f"w{k}" for k in range(30)]), d=d)
    be.E = np.random.default_rng(seed).normal(size=be.E.shape)
    be.U = np.eye(*be.U.shape)
    be.b = np.zeros_like(be.b)
    segment = st.lists(st.integers(0, len(be.vocab) - 1), min_size=1, max_size=30)
    n = data.draw(st.integers(1, 4))
    inputs, answers, negatives = ([data.draw(segment) for _ in range(n)] for _ in range(3))
    enc = EncodedSet(
        example_ids=[f"e{i}" for i in range(n)],
        inputs=[np.array(ids, dtype=np.intp) for ids in inputs],
        answers=[np.array([*ids, EOS_ID], dtype=np.intp) for ids in answers],
        negatives=[[np.array(ids, dtype=np.intp)] for ids in negatives],
        vocab=be.vocab,
    )
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            seen.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(objective, "_xent", spy(objective._xent)), \
            mock.patch.object(objective, "_unit", spy(objective._unit)):
        forward(be, enc, LossConfig(), grads=False)
    nll_logits, pooled = seen[:2]  # the NLL runs before the InfoNCE terms
    for row, ids in zip(pooled, [*inputs, *answers, *negatives]):
        assert row.tobytes() == pool(be.E, [ids])[0].tobytes()
    states = [
        0.5 * (pool(be.E, [ids])[0] + pool(be.E, [[BOS_ID, *answer[:j]]])[0])
        for ids, answer in zip(inputs, enc.answers)
        for j in range(len(answer))
    ]
    assert nll_logits[:, :d].tobytes() == np.array(states).tobytes()


MARGIN_EXAMPLES = build_split("margin", 6, seed=3)
MARGIN_VOCAB = build_vocabulary(MARGIN_EXAMPLES)


@PROPERTY
@given(
    st.integers(1, 24), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 4.0]), st.data()
)
def test_validation_margin_matches_loop_oracle(d, seed, scale, data):
    # 1-4 counterfactuals per example, so the hardest negative is taken
    # over groups of uneven size
    examples = [
        dataclasses.replace(ex, counterfactuals=ex.counterfactuals[: data.draw(st.integers(1, 4))])
        for ex in MARGIN_EXAMPLES[: data.draw(st.integers(1, len(MARGIN_EXAMPLES)))]
    ]
    be = ToyBackend(MARGIN_VOCAB, d=d)
    be.E = scale * np.random.default_rng(seed).normal(size=be.E.shape)
    assert abs(validation_margin(be, examples) - bf_validation_margin(be, examples)) < 1e-12


def test_validation_margin_names_what_it_cannot_embed():
    be = ToyBackend(MARGIN_VOCAB, d=4)
    with pytest.raises(ValueError, match="validation margin of an empty set"):
        validation_margin(be, [])
    with pytest.raises(ValueError, match="no counterfactual"):
        validation_margin(be, [dataclasses.replace(MARGIN_EXAMPLES[0], counterfactuals=())])
    be.E[:] = 0.0
    with pytest.raises(ValueError, match="zero embedding for input of "):
        validation_margin(be, MARGIN_EXAMPLES[:2])


# --- the objective against its loop oracle ------------------------------------------

@st.composite
def random_backends(draw, dims=st.integers(1, 4)):
    """A backend over ``WORDS`` with d from ``dims`` and random normal
    parameters of a drawn scale."""
    be = ToyBackend(Vocabulary(list(WORDS)), d=draw(dims), seed=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    be.set_flat_parameters(scale * rng.normal(size=be.flat_parameters().size))
    return be


@st.composite
def encoded_batches(draw):
    """A backend, an encoded batch of 1-6 examples with 1-4 negatives
    each (or none, when lambda_s is 0), a loss config and a micro-batch
    size. A quarter of the draws may also hold empty inputs, answers or
    negative lists and a zero E row, which the cosine terms reject."""
    be = draw(random_backends())
    lambda_b, lambda_s = draw(st.sampled_from([(0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 0.0)]))
    degenerate = draw(st.integers(0, 3)) == 0
    least = 0 if degenerate else 1
    if degenerate and draw(st.booleans()):
        be.E[be.vocab.id_of(WORDS[0])] = 0.0
    token_ids = st.lists(st.integers(0, len(be.vocab) - 1), min_size=least, max_size=4)
    n = draw(st.integers(1, 6))
    negatives = None
    if lambda_s > 0 or draw(st.booleans()):
        rows = [draw(st.lists(token_ids, min_size=least, max_size=4)) for _ in range(n)]
        negatives = [[np.array(ids, dtype=np.intp) for ids in row] for row in rows]
    enc = EncodedSet(
        example_ids=[f"e{i}" for i in range(n)],
        inputs=[np.array(draw(token_ids), dtype=np.intp) for _ in range(n)],
        answers=[np.array(draw(token_ids) + [EOS_ID], dtype=np.intp) for _ in range(n)],
        negatives=negatives,
        vocab=be.vocab,
    )
    config = LossConfig(
        tau_b=draw(st.sampled_from([0.1, 1.0])),
        tau_s=draw(st.sampled_from([0.5, 2.5])),
        lambda_b=lambda_b,
        lambda_s=lambda_s,
    )
    micro_batch = draw(st.none() | st.integers(1, n))
    return be, enc, config, micro_batch


@settings(PROPERTY, max_examples=150)
@given(encoded_batches(), st.booleans())
def test_forward_matches_loop_oracle(batch, grads):
    be, enc, config, micro_batch = batch
    try:
        expected = bf_total_loss(be, enc, config)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            forward(be, enc, config, grads=grads, micro_batch=micro_batch)
        assert str(raised.value) == str(exc)
        return
    got = forward(be, enc, config, grads=grads, micro_batch=micro_batch)
    for name, value in zip(("nll", "cl_b", "cl_s", "total"), expected):
        assert math.isclose(getattr(got, name), value, rel_tol=1e-10), (name, got, value)


def forward_or_reject(be, enc, config, **kwargs):
    """:func:`forward`, rejecting the draw where it raises (empty negative
    lists, zero embeddings): the invariances hold where it is defined."""
    try:
        return forward(be, enc, config, **kwargs)
    except ValueError:
        reject()


def assert_same_loss(got, expected):
    for name in ("nll", "cl_b", "cl_s", "total"):
        a, b = getattr(got, name), getattr(expected, name)
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12), (name, a, b)


def assert_same_grads(got, expected, scale=1.0):
    for name in ("E", "U", "b"):
        a, b = scale * getattr(got, name), getattr(expected, name)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-11), name


@PROPERTY
@given(encoded_batches(), st.sampled_from([0.01, 0.5, 3.5, 1200.0]))
def test_cosine_terms_ignore_a_positive_rescaling(batch, c):
    # every vector the two InfoNCE terms see is a mean of E rows, so E -> cE
    # scales them all by c: the cosines stay, and dL/dE scales by 1/c
    be, enc, config, _ = batch
    base = forward_or_reject(be, enc, config, nll=False)
    scaled_be = be.copy()
    scaled_be.E *= c
    scaled = forward(scaled_be, enc, config, nll=False)
    assert_same_loss(scaled, base)
    assert_same_grads(scaled.grads, base.grads, scale=c)


@PROPERTY
@given(encoded_batches(), st.data())
def test_forward_ignores_the_batch_order(batch, data):
    be, enc, config, micro_batch = batch
    base = forward_or_reject(be, enc, config, micro_batch=micro_batch)
    perm = data.draw(st.permutations(range(len(enc))))
    shuffled = forward(be, enc.take(perm), config, micro_batch=micro_batch)
    assert_same_loss(shuffled, base)
    assert_same_grads(shuffled.grads, base.grads)


@PROPERTY
@given(encoded_batches())
def test_forward_ignores_the_micro_batch_divisor(batch):
    be, enc, config, _ = batch
    full = forward_or_reject(be, enc, config)
    for micro_batch in range(1, len(enc) + 1):
        blocked = forward(be, enc, config, micro_batch=micro_batch)
        assert_same_loss(blocked, full)
        assert_same_grads(blocked.grads, full.grads)


@settings(PROPERTY, max_examples=100)
@given(encoded_batches())
def test_forward_equals_the_per_block_reference_bitwise(batch):
    # the blocks' logit products and their U and b gradients must not be
    # merged: a product's rounding depends on its row count
    be, enc, config, _ = batch
    forward_or_reject(be, enc, config, grads=False)
    for micro_batch in range(1, len(enc) + 1):
        for grads in (True, False):
            got = forward(be, enc, config, grads=grads, micro_batch=micro_batch)
            want = reference_model.per_block_forward(be, enc, config, grads, micro_batch)
            for name in ("nll", "cl_b", "cl_s", "total"):
                assert getattr(got, name) == getattr(want, name), (name, micro_batch)
            if grads:
                for name in ("E", "U", "b"):
                    assert np.array_equal(getattr(got.grads, name), getattr(want.grads, name)), (
                        name, micro_batch)


# --- the batched decoder -------------------------------------------------------------

def step_loop_generate(be, input_ids, max_len, k=None, seed=None):
    """The ids of decoding one step at a time: the logits ``U s + b`` of
    the pooled state at each position, ranked as they are, and a
    ``Generator.choice`` per top-k draw weighted by the softmax of the
    top k logits, with PAD/BOS/UNK/MASK suppressed and ties in the top k
    broken on the lowest id."""
    if k is not None:
        rng = np.random.default_rng(derive_seed(seed, "topk"))
    out = []
    for _ in range(max_len):
        logits = be.U @ state(be, input_ids, out) + be.b
        logits[[PAD_ID, BOS_ID, UNK_ID, MASK_ID]] = -np.inf
        if k is None:
            nxt = int(np.argmax(logits))
        else:
            top = np.lexsort((np.arange(len(logits)), -logits))[:k]
            weights = np.exp(logits[top] - logits[top].max())
            weights /= weights.sum()
            nxt = int(rng.choice(top, p=weights))
        if nxt == EOS_ID:
            break
        out.append(nxt)
    return out


@st.composite
def decode_batches(draw, rows, dims=st.integers(1, 4), input_len=6):
    """A random backend whose EOS bias makes rows stop at different steps,
    ragged (possibly empty) inputs of at most ``input_len`` ids, and one
    decode ``(max_len, k, seeds)``: greedy (k None, every seed None), or
    top-k with k 1-5 and a seed per row."""
    be = draw(random_backends(dims))
    be.b[EOS_ID] += draw(st.sampled_from([-4.0, 0.0, 1.0, 3.0]))
    n = draw(rows)
    token_ids = st.lists(st.integers(0, len(be.vocab) - 1), max_size=input_len)
    inputs = [draw(token_ids) for _ in range(n)]
    max_len = draw(st.integers(1, 34))
    if draw(st.booleans()):
        return be, inputs, (max_len, None, [None] * n)
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**40))
    return be, inputs, (max_len, k, [seed + r for r in range(n)])


@PROPERTY
@given(
    random_backends(),
    st.lists(
        st.tuples(*[st.lists(st.integers(0, len(SPECIALS) + len(WORDS) - 1), max_size=6)] * 2),
        min_size=1, max_size=6,
    ),
)
def test_batched_log_probs_equal_log_probs_ids_bitwise(be, rows):
    states = np.array([state(be, input_ids, prefix_ids) for input_ids, prefix_ids in rows])
    for got, (input_ids, prefix_ids) in zip(be._log_probs_rows(states), rows):
        assert got.tobytes() == log_probs_ids(be, input_ids, prefix_ids).tobytes()


@PROPERTY
@given(decode_batches(st.integers(1, 3)))
def test_generate_batch_matches_step_loop(batch):
    be, inputs, (max_len, k, seeds) = batch
    expected = [step_loop_generate(be, ids, max_len, k, seed) for ids, seed in zip(inputs, seeds)]
    assert be.generate_batch(inputs, max_len, k, seeds) == expected


@pytest.mark.parametrize("d", range(1, 25))
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_decoder_states_equal_the_pooled_state_bitwise(d, data):
    # a row's state at step j: the pool of its input and the pool of BOS
    # and its first j tokens, which the decoder sums one row per step;
    # step 0's state depends on the input alone and is taken once per
    # distinct input object
    be, inputs, decode = data.draw(decode_batches(st.integers(1, 4), st.just(d), input_len=30))
    inputs, decode = repeat_inputs(data, inputs, decode)
    steps = []
    logits_rows = be._logits_rows

    def record(states):
        steps.append(states.copy())
        return logits_rows(states)

    be._logits_rows = record
    # the decoder ranks logits and never normalizes them
    be._log_probs_rows = mock.Mock(side_effect=AssertionError("the decoder normalized"))
    out = be.generate_batch(inputs, *decode)
    max_len = decode[0]
    # a row runs a step for each token and one for its EOS, up to max_len
    assert len(steps) == max(min(len(ids) + 1, max_len) for ids in out)
    distinct = list({id(ids): ids for ids in inputs}.values())
    assert [got.tobytes() for got in steps[0]] == [state(be, ids, []).tobytes() for ids in distinct]
    for step, states in enumerate(steps[1:], 1):
        live = [r for r in range(len(inputs)) if len(out[r]) >= step]
        assert len(states) == len(live)
        for got, r in zip(states, live):
            assert got.tobytes() == state(be, inputs[r], out[r][:step]).tobytes()


def repeat_inputs(data, inputs, decode, min_rows=1):
    """At least ``min_rows`` rows drawn from ``inputs`` with repeats, each
    row the same list object as every other row of its input, and a seed
    per row."""
    max_len, k, seeds = decode
    rows = data.draw(st.lists(st.integers(0, len(inputs) - 1), min_size=min_rows,
                              max_size=min_rows + 2 * len(inputs)))
    seeds = [None if k is None else seeds[0] + r for r in range(len(rows))]
    return [inputs[i] for i in rows], (max_len, k, seeds)


@settings(PROPERTY, max_examples=25)
@given(st.integers(1, 8), st.data())
def test_generate_batch_rows_equal_one_row_calls(block, data):
    # the rows, some sharing an input object, fill more than one decode
    # block of a drawn byte budget
    be, inputs, decode = data.draw(decode_batches(st.integers(1, 2 * block)))
    inputs, (max_len, k, seeds) = repeat_inputs(data, inputs, decode, min_rows=block + 1)
    per_row = 8 * len(be.vocab)  # the budgets that give a block ``block`` rows
    budget = data.draw(st.integers(block * per_row, (block + 1) * per_row - 1))
    with mock.patch("inferbench.backend.DECODE_BYTES", budget):
        got = [be.vocab.decode(ids) for ids in be.generate_batch(inputs, max_len, k, seeds)]
    assert got == [generate(be, ids, max_len, k, seed) for ids, seed in zip(inputs, seeds)]


def stopping_rows(n):
    """A backend over ``WORDS`` and ``n`` short inputs whose top-k (k 2,
    seeds 0..n-1) rows stop at steps 0 to 8 of 8."""
    be = ToyBackend(Vocabulary(list(WORDS)), d=3, seed=0)
    be.set_flat_parameters(np.random.default_rng(0).normal(size=be.flat_parameters().size))
    ids = [be.vocab.id_of(w) for w in WORDS]
    return be, [[ids[r % 7], ids[r * 3 % 7]][: r % 3] for r in range(n)]


def test_rows_stopping_at_different_steps_across_blocks(monkeypatch):
    be, inputs = stopping_rows(11)
    monkeypatch.setattr("inferbench.backend.DECODE_BYTES", 4 * 8 * len(be.vocab))
    seeds = list(range(len(inputs)))
    for k in (None, 2):
        out = be.generate_batch(inputs, 8, k, seeds)
        assert out == [step_loop_generate(be, ids, 8, k, seed) for ids, seed in zip(inputs, seeds)]
    # rows of each block of 4 stop at different steps, one never stops
    assert [len(ids) for ids in out] == [0, 1, 2, 1, 8, 2, 1, 1, 0, 2, 0]


def test_rows_past_one_real_block_equal_one_row_calls():
    # 244 tokens that never reach a top 2 widen V to 256, so a real block
    # holds 512 rows, and the rows decode as under ``stopping_rows``
    small, _ = stopping_rows(0)
    v = len(small.vocab)
    be = ToyBackend(Vocabulary([*WORDS, *(f"never{i}" for i in range(256 - v))]), d=3, seed=0)
    be.E[:v], be.U[:v], be.b[:v] = small.E, small.U, small.b
    be.U[v:], be.b[v:] = 0.0, -1e3
    _, inputs = stopping_rows(DECODE_BYTES // (8 * len(be.vocab)) + 1)
    seeds = list(range(len(inputs)))
    out = be.generate_batch(inputs, 8, 2, seeds)
    assert out == [be.generate_batch([ids], 8, 2, [seed])[0] for ids, seed in zip(inputs, seeds)]
    # rows of the first block stop at every step or never; the last row stops alone
    lengths = [len(ids) for ids in out]
    assert set(lengths[:-1]) == set(range(9)) and 0 < lengths[-1] < 8


def test_topk_ties_rank_lowest_id_first():
    """Two tokens with equal U rows and bias tie for the top log
    probability: greedy and k 1 take the lower id, and k 2 draws the
    lower id when the row's uniform is below one half."""
    be = ToyBackend(Vocabulary(list(WORDS)), d=1, seed=0)
    low, high = be.vocab.id_of("cat"), be.vocab.id_of("run")
    be.U[high] = be.U[low]
    be.b[[low, high]] = 5.0
    inputs = [[be.vocab.id_of(w)] for w in WORDS] * 3
    assert log_probs_ids(be, inputs[0], [])[low] == log_probs_ids(be, inputs[0], [])[high]
    seeds = list(range(len(inputs)))
    assert be.generate_batch(inputs, 1) == [[low]] * len(inputs)
    assert be.generate_batch(inputs, 1, 1, seeds) == [[low]] * len(inputs)
    got = be.generate_batch(inputs, 1, 2, seeds)
    uniforms = _unit(_pcg_outputs(_pcg_seed([derive_seed(seed, "topk") for seed in seeds]), 1))
    below = list(uniforms[:, 0] < 0.5)
    assert got == [[low] if u else [high] for u in below]
    assert 0 < sum(below) < len(seeds)
    assert got == [step_loop_generate(be, ids, 1, 2, seed) for ids, seed in zip(inputs, seeds)]


@PROPERTY
@given(
    st.lists(st.floats(-30.0, 0.0), min_size=1, max_size=10),
    st.integers(0, 2**63 - 1),
)
def test_inline_draw_equals_generator_choice(log_probs, seed):
    log_probs = np.array(log_probs)
    weights = np.exp(log_probs - log_probs.max())
    weights /= weights.sum()
    top = np.arange(len(weights)) + 3
    expected = np.random.default_rng(seed).choice(top, p=weights)
    u = np.random.default_rng(seed).random()
    assert top[draw_index(weights[None, :], np.array([u]))[0]] == expected


def test_non_finite_weights_raise():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            draw_index(np.array([[0.5, bad]]), np.array([0.25]))
    be = ToyBackend(Vocabulary(list(WORDS)), d=2, seed=0)
    be.b[be.vocab.id_of("cat")] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        generate(be, [be.vocab.id_of("the")], 4, k=2, seed=0)


def _nan_bias(be):
    be.b[be.vocab.id_of("cat")] = np.nan


def _overflow(be):
    # finite parameters whose logits overflow
    be.E[:] = be.U[:] = 1e200


@pytest.mark.filterwarnings("error")  # the checks are the code's own, not numpy's warnings
@pytest.mark.parametrize("k", [None, 2, "masked"], ids=["greedy", "top_k", "masked"])
@pytest.mark.parametrize("corrupt", [_nan_bias, _overflow], ids=["nan_bias", "overflow"])
def test_non_finite_logits_raise(corrupt, k):
    be = ToyBackend(Vocabulary(list(WORDS)), d=2, seed=0)
    corrupt(be)
    ids = [be.vocab.id_of("the"), be.vocab.id_of("cat")]
    # top-k names the logits as greedy does, not its draw weights
    with pytest.raises(ValueError, match="^logits are not finite$"):
        if k == "masked":
            list(be.masked_log_probs([ids] * 3, [ids[:1]] * 3))
        else:
            be.generate_batch([ids[:1]] * 3, 4, k, [0, 1, 2])


def test_greedy_takes_the_larger_of_two_logits_one_ulp_apart():
    """Log-normalizing rounds these two logits to one value, so ranking
    log-probabilities would take the lower id; the decoder ranks logits."""
    be = ToyBackend(Vocabulary(list(WORDS)), d=2, seed=0)
    alpha, beta = be.vocab.id_of("cat"), be.vocab.id_of("run")
    be.U[:] = 0.0
    be.b[:] = 0.0
    be.b[alpha], be.b[beta] = 1e-3, np.nextafter(1e-3, 1)
    inputs = [[be.vocab.id_of(w)] for w in WORDS]
    log_probs = log_probs_ids(be, inputs[0], [])
    assert alpha < beta and log_probs[alpha] == log_probs[beta]
    assert be.generate_batch(inputs, 1) == [[beta]] * len(inputs)
    assert be.generate_batch(inputs, 1) == [step_loop_generate(be, ids, 1) for ids in inputs]


@PROPERTY
@given(st.lists(st.integers(0, 2**63 - 1), max_size=300), st.integers(1, 40))
def test_uniforms_equal_default_rng_bitwise(seeds, count):
    # seeds of one and of two 32-bit words, with a zero and a full low word
    seeds = [*seeds, 0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    expected = np.array([np.random.default_rng(seed).random(count) for seed in seeds])
    got = _unit(_pcg_outputs(_pcg_seed(seeds), count))
    assert got.shape == expected.shape
    assert (got.view(np.uint64) == expected.view(np.uint64)).all()


def test_uniforms_reject_a_seed_outside_64_bits():
    top = _unit(_pcg_outputs(_pcg_seed([2**64 - 1]), 1))
    assert top[0, 0] == np.random.default_rng(2**64 - 1).random()
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            _pcg_seed([3, bad])


def test_topk_decode_builds_no_generator(monkeypatch):
    be = ToyBackend(Vocabulary(list(WORDS)), d=3, seed=0)
    monkeypatch.setattr("inferbench.backend.DECODE_BYTES", 64 * 8 * len(be.vocab))
    inputs = [[be.vocab.id_of(w)] for w in WORDS] * 20  # three decode blocks of 64
    seeds = list(range(len(inputs)))
    expected = [step_loop_generate(be, ids, 6, 3, seed) for ids, seed in zip(inputs, seeds)]
    built = AssertionError("the top-k decoder built a Generator")
    with mock.patch.object(np.random, "default_rng", side_effect=built), \
            mock.patch.object(np.random, "PCG64", side_effect=built):
        assert be.generate_batch(inputs, 6, 3, seeds) == expected


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def integers_by_generator(seeds, bounds):
    """Row r: ``default_rng(seeds[r]).integers(n)`` for each n of ``bounds[r]``, in order."""
    rows = []
    for seed, row in zip(seeds, bounds):
        rng = np.random.default_rng(seed)
        rows.append([rng.integers(n) for n in row])
    return np.array(rows, dtype=np.intp).reshape(len(seeds), -1)


@PROPERTY
@given(st.lists(st.integers(0, 2**63 - 1), max_size=20), st.integers(3, 6), st.data())
def test_integers_equal_default_rng_bitwise(seeds, draws, data):
    seeds = [*seeds, *EDGE_SEEDS]
    # 1 draws nothing; 2**32 takes a whole half
    bound = st.integers(1, 200) | st.just(2**32)
    row = st.lists(bound, min_size=draws, max_size=draws)
    bounds = data.draw(st.lists(row, min_size=len(seeds), max_size=len(seeds)))
    got = _integers(seeds, bounds)
    assert got.dtype == np.intp
    assert (got == integers_by_generator(seeds, bounds)).all()


def test_integers_take_the_next_half_after_a_rejected_one():
    n = 3 * 2**30  # a quarter of all 32-bit halves are rejected
    seeds = list(range(40))
    # a seed's first draw is rejected when its first low half h has h n mod 2**32 < 2**32 mod n
    lows = [int(np.random.default_rng(s).bit_generator.random_raw()) & 0xFFFFFFFF for s in seeds]
    rejected = [s for s, h in zip(seeds, lows) if h * n % 2**32 < 2**32 % n]
    assert len(rejected) >= 5
    replayed = []
    default_rng = np.random.default_rng

    def recording(seed):
        replayed.append(seed)
        return default_rng(seed)

    with mock.patch.object(np.random, "default_rng", side_effect=recording):
        got = _integers(seeds, [[n]] * len(seeds))
    assert replayed == rejected  # the rows with a rejected half, and only they
    assert (got == integers_by_generator(seeds, [[n]] * len(seeds))).all()
    bounds = [[n, 7, n, 1, n]] * len(seeds)
    assert (_integers(seeds, bounds) == integers_by_generator(seeds, bounds)).all()


def test_integers_reject_bounds_outside_their_range():
    for bad in ([[0]], [[2**32 + 1]], [[3, -1]]):
        with pytest.raises(ValueError, match="bounds"):
            _integers([5], bad)


def test_replace_perturb_builds_no_generator_for_a_slot(tmp_path):
    out = tmp_path / "negatives.jsonl"
    built = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        built.append(seed)
        return default_rng(seed)

    with mock.patch.object(np.random, "default_rng", side_effect=recording):
        assert cli.main(["perturb", "--strategy", "replace_mcq", "--in",
                         str(DATA_DIR / "test.jsonl"), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    slot_seeds = {p["seed"] for r in records for p in r["provenance"]}
    assert len(slot_seeds) == sum(len(r["provenance"]) for r in records) > 0
    # the two model inits build theirs; no slot does
    assert built and not slot_seeds & set(built)


# --- the n-gram metrics against their oracles -----------------------------------------

@st.composite
def token_pairs(draw):
    """1-4 (hypothesis, reference) token lists of 0-7 tokens over an
    alphabet of 3-5 words, so that n-grams and stems repeat."""
    alphabet = WORDS[: draw(st.integers(3, 5))]
    tokens = st.lists(st.sampled_from(alphabet), max_size=7)
    return [(draw(tokens), draw(tokens)) for _ in range(draw(st.integers(1, 4)))]


@PROPERTY
@given(token_pairs())
def test_ngram_metrics_match_brute_force(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    got, expected = bleu(hyps, refs), bf_bleu(hyps, refs)
    for n in range(1, 5):
        assert math.isclose(got[n], expected[n], rel_tol=0, abs_tol=1e-9), n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rouge_l warns on an empty list
        for hyp, ref in pairs:
            assert math.isclose(rouge_l(hyp, ref), bf_rouge_l(hyp, ref), abs_tol=1e-9)
    if len({tuple(map(stem, ref)) for ref in refs}) < 2:
        with pytest.raises(ValueError):
            cider(hyps, refs)
        return
    corpus, per_pair = cider(hyps, refs)
    bf_corpus, bf_per_pair = bf_cider(hyps, refs)
    assert math.isclose(corpus, bf_corpus, abs_tol=1e-9)
    for value, bf_value in zip(per_pair, bf_per_pair, strict=True):
        assert math.isclose(value, bf_value, abs_tol=1e-9)


@PROPERTY
@given(labeled_items(st.tuples(sentence, sentence)))
def test_report_from_pair_tables_equals_bleu_and_cider_per_stratum(items):
    ids, pairs, labels = items
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_corpus(pairs, ids, labels, with_per_example=True)
    parts = [(report, list(range(len(ids))))]
    parts += [(report.strata[label], ks) for label, ks in _subsets(ids, labels)]
    for part, ks in parts:
        hyps = [tokenize(pairs[k][0]) for k in ks]
        refs = [tokenize(pairs[k][1]) for k in ks]
        assert part.bleu == bleu(hyps, refs)
        try:
            corpus, per_pair = cider(hyps, refs)
        except ValueError:
            corpus, per_pair = None, [None] * len(ks)
        assert part.cider == corpus
        for k, pair_cider in zip(ks, per_pair, strict=True):
            row = part.per_example[ids[k]]
            assert row["cider"] == pair_cider
            sentence_bleu = bleu([tokenize(pairs[k][0])], [tokenize(pairs[k][1])])
            assert [row[f"bleu_{n}"] for n in range(1, 5)] == list(sentence_bleu.values())


# --- decoding, token replacement, checkpoints, canonical JSON -----------------------

@PROPERTY
@given(
    random_backends(),
    st.lists(st.integers(0, len(SPECIALS) + len(WORDS) - 1), max_size=6),
    st.sampled_from(SPECIALS[:2] + SPECIALS[3:]),
    # (k, seed, max_len): greedy when k is None
    st.one_of(
        st.tuples(st.none(), st.none(), st.integers(1, 8)),
        st.tuples(st.integers(1, len(WORDS) + 1), st.integers(0, 99), st.integers(1, 8)),
    ),
)
def test_generate_never_emits_suppressed_tokens(be, input_ids, favoured, decode):
    k, seed, max_len = decode
    be.b[be.vocab.id_of(favoured)] += 50.0  # the suppressed token would win every step
    tokens = generate(be, input_ids, max_len, k, seed)
    assert len(tokens) <= max_len
    assert not set(tokens) & set(SPECIALS)


@PROPERTY
@given(
    random_backends(),
    sentence,
    sentence,
    st.sampled_from([0.01, 0.75, 5.0]),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(0, 99),
)
def test_token_replace_keeps_the_token_count(scorer, context, answer, threshold, k, m, seed):
    example = make_example(
        turns=(("A", context),), target_index=1, answer=answer, counterfactuals=()
    )
    result = replace_one(scorer, example, threshold=threshold, k=k, m=m, seed=seed, mode="zs")
    assert len(result.negatives) == m
    for negative in result.negatives:
        assert len(tokenize(negative)) == len(tokenize(answer))


@st.composite
def masked_scoring_cases(draw):
    """A backend of d 1-24 over 8-100 tokens with random parameters, and
    a set of 1-6 cases, each an answer of 1-12 ids and a context of 0-40
    ids. Ids repeat (a draw may keep to a handful) and UNK is among them."""
    be = ToyBackend(
        Vocabulary([f"w{k}" for k in range(draw(st.integers(3, 95)))]),
        d=draw(st.integers(1, 24)),
        seed=0,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    be.set_flat_parameters(scale * rng.normal(size=be.flat_parameters().size))
    top = draw(st.sampled_from([len(SPECIALS) + 2, len(be.vocab)]))
    token = st.integers(0, top - 1) | st.just(UNK_ID)
    case = st.tuples(st.lists(token, min_size=1, max_size=12), st.lists(token, max_size=40))
    return be, draw(st.lists(case, min_size=1, max_size=6))


def random_backend(d, seed):
    """A backend of width ``d`` over 20 words with normal parameters, and
    the generator that drew them, for drawing its cases."""
    be = ToyBackend(Vocabulary([f"w{k}" for k in range(20)]), d=d, seed=0)
    rng = np.random.default_rng(seed)
    be.set_flat_parameters(rng.normal(size=be.flat_parameters().size))
    return be, rng


def long_window_d1_case(seed):
    """A d = 1 case with a 30-id context and a 12-id answer: both windows
    have 8 or more rows, where numpy sums a single column pairwise and
    so apart from an in-order sum."""
    be, rng = random_backend(1, seed)
    answer = rng.integers(0, len(be.vocab), size=12).tolist()
    context = rng.integers(0, len(be.vocab), size=30).tolist()
    return be, [(answer, context)]


def block_crossing_case(d, seed):
    """40 cases whose windows fill more than two blocks of
    ``backend.MASKED_WINDOWS`` cut to 128: every third answer has one id,
    the answer of case 20 has more windows than a block, and every fourth
    context is empty."""
    be, rng = random_backend(d, seed)
    sizes = [
        1 if i % 3 == 0 else backend.MASKED_WINDOWS // 2 + 3 if i == 20 else rng.integers(2, 13)
        for i in range(40)
    ]
    cases = [
        (
            rng.integers(0, len(be.vocab), size=size).tolist(),
            rng.integers(0, len(be.vocab), size=0 if i % 4 == 0 else rng.integers(1, 41)).tolist(),
        )
        for i, size in enumerate(sizes)
    ]
    assert 2 * sum(len(answer) for answer, _ in cases) > 2 * backend.MASKED_WINDOWS
    return be, cases


def per_position_deltas(be, answer, context):
    """:func:`replacement_deltas` from ``masked_logits_ids``, one call
    per position and window."""
    return np.array(
        [
            abs(masked_logits_ids(be, answer, j, context)[a] - masked_logits_ids(be, answer, j)[a])
            for j, a in enumerate(answer)
        ]
    )


@settings(PROPERTY, max_examples=150)
@given(masked_scoring_cases())
@example(long_window_d1_case(0))
@example(long_window_d1_case(1))
@example(long_window_d1_case(2))
def test_batched_masked_scoring_equals_per_position_calls_bitwise(case):
    assert_masked_scoring_equals_per_position_calls(*case)


@pytest.mark.parametrize("d, seed", [(1, 3), (7, 4)])
def test_masked_scoring_across_blocks_equals_per_position_calls_bitwise(d, seed, monkeypatch):
    monkeypatch.setattr("inferbench.backend.MASKED_WINDOWS", 128)
    assert_masked_scoring_equals_per_position_calls(*block_crossing_case(d, seed))


def assert_masked_scoring_equals_per_position_calls(be, cases):
    """The runs of one call cover the answers in order, each within
    ``backend.MASKED_WINDOWS`` windows unless it is one answer, and every
    row of a run is its position's own masked window, bit for bit."""
    answers = [answer for answer, _ in cases]
    runs = list(be.masked_log_probs(answers, [context for _, context in cases]))
    assert [i for run, _, _ in runs for i in run] == list(range(len(cases)))
    scored = []
    for run, with_ctx, alone in runs:
        lengths = [len(answers[i]) for i in run]
        assert len(run) == 1 or 2 * sum(lengths) <= backend.MASKED_WINDOWS
        assert with_ctx.shape == alone.shape == (sum(lengths), len(be.vocab))
        ends = np.cumsum(lengths)
        scored += zip(np.split(with_ctx, ends[:-1]), np.split(alone, ends[:-1]))
    for (answer, context), (with_ctx, alone) in zip(cases, scored):
        assert with_ctx.shape == alone.shape == (len(answer), len(be.vocab))
        for j in range(len(answer)):
            assert with_ctx[j].tobytes() == masked_logits_ids(be, answer, j, context).tobytes()
            assert alone[j].tobytes() == masked_logits_ids(be, answer, j).tobytes()


@PROPERTY
@given(random_backends(), sentence, st.lists(st.sampled_from([*WORDS, "zebra"]), min_size=1, max_size=12))
def test_replacement_deltas_equal_per_position_calls_bitwise(be, context, answer):
    example = make_example(
        turns=(("A", context),), target_index=1, answer=" ".join(answer), counterfactuals=()
    )
    enc = encode([example], vocab=be.vocab)
    expected = per_position_deltas(be, list(enc.answers[0][:-1]), enc.inputs[0])
    assert replacement_deltas(be, example).tobytes() == expected.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True),
    st.integers(1, 3),
    st.integers(0, 2**31),
    st.data(),
)
def test_checkpoint_round_trip_is_bit_exact(words, d, seed, data):
    be = ToyBackend(Vocabulary(words), d=d, seed=seed)
    size = be.flat_parameters().size
    be.set_flat_parameters(np.array(data.draw(st.lists(finite, min_size=size, max_size=size))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(be, path, config_digest="digest")
        loaded = load_checkpoint(path)
    assert loaded.vocab.tokens == be.vocab.tokens
    assert (loaded.d, loaded.seed) == (be.d, be.seed)
    for name in ("E", "U", "b"):
        assert getattr(loaded, name).tobytes() == getattr(be, name).tobytes()


@PROPERTY
@given(
    st.integers(len(SPECIALS) + 1, 60).flatmap(
        lambda v: st.lists(
            st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=v, max_size=v),
            min_size=1, max_size=4,
        )
    ),
    st.data(),
    st.integers(1, 20),
)
def test_replacement_candidates_equal_the_full_vocabulary_ranking(dists, data, k):
    # few distinct values, so that ties reach across the k-th rank; the
    # rows are ranked in one call, each row against the one-row oracle
    rows = np.array(dists)
    gold = np.array(data.draw(st.lists(st.integers(0, 70), min_size=len(rows), max_size=len(rows))))
    ranked, count, gold_column = rank_candidates(rows, gold, k)
    for r in range(len(rows)):
        expected = reference_model.replacement_candidates(rows[r], gold[r], k, range(len(SPECIALS)))
        got = [int(ranked[r, c + (c >= gold_column[r])]) for c in range(count[r])]
        assert got == expected


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@PROPERTY
@given(json_values)
def test_canonical_json_is_idempotent(value):
    once = canonical_dumps(value)
    assert canonical_dumps(json.loads(once)) == once


def isinstance_canonicalize(obj):
    """Canonical JSON's rule by ``isinstance`` alone: the reference for
    its exact-type dispatch."""
    if isinstance(obj, float):
        return round_sig(obj)
    if isinstance(obj, dict):
        return {str(k): isinstance_canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [isinstance_canonicalize(v) for v in obj]
    return obj


class TaggedFloat(float):
    pass


any_float = st.floats() | st.floats().map(np.float64) | st.floats().map(TaggedFloat)
nested_values = st.recursive(
    st.none() | st.booleans() | st.integers() | any_float | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text() | st.integers() | st.booleans() | st.none() | any_float,
                          inner, max_size=4)
    ),
    max_leaves=12,
)


@settings(PROPERTY, max_examples=300)
@given(nested_values)
def test_canonical_json_equals_the_isinstance_rule(value):
    """Float subclasses, tuples and non-str keys give the bytes of the
    isinstance rule, and a non-finite float the same error."""
    try:
        expected = json.dumps(isinstance_canonicalize(value), sort_keys=True,
                              separators=(",", ":"), ensure_ascii=False)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            canonical_dumps(value)
        return
    assert canonical_dumps(value) == expected


nonblank_text = st.text(min_size=1).filter(str.strip)


@PROPERTY
@given(nonblank_text, nonblank_text, st.data())
def test_tokenize_is_idempotent_on_vocabulary_tokens(turn, answer, data):
    # non_optimal negatives keep the decoder's ids in place of re-tokenizing
    # the space-joined tokens; that is exact because of this identity
    example = make_example(turns=(("A", turn),), target_index=1, answer=answer,
                           counterfactuals=())
    words = [t for t in build_vocabulary([example]).tokens if t not in SPECIALS]
    seq = data.draw(st.lists(st.sampled_from(words), max_size=12))
    assert tokenize(" ".join(seq)) == seq


# texts that share tokens and recur as inputs, answers and counterfactuals
TEXTS = ("the cat sat .", "a cat runs", "The Cat sat .", "cats run , the zebra sat !", "...")
DIALOGUES = (
    (("A", "the cat sat ."), ("B", "a cat runs")),
    (("A", "did the zebra run ?"),),
    (("B", "cats run"), ("A", "the cat sat .")),
)
TEXT_TOKENS = sorted({t for text in TEXTS for t in tokenize(text)})


@st.composite
def example_lists(draw):
    """1-6 examples over a few dialogues and texts, so that inputs,
    answers and counterfactuals repeat, within an example and across
    examples; one in ten lists has a blank answer."""
    examples = []
    for i in range(draw(st.integers(1, 6))):
        turns = draw(st.sampled_from(DIALOGUES))
        examples.append(dataclasses.replace(
            make_example(),
            id=f"ex-{i}",
            dialogue=tuple(Utterance(s, t, k) for k, (s, t) in enumerate(turns, 1)),
            target_index=draw(st.integers(1, len(turns))),
            question=draw(st.sampled_from([QuestionType.CAUSE,
                                           QuestionType.SUBSEQUENT_EVENT_CLIPPED])),
            answer=draw(st.sampled_from(TEXTS)),
            counterfactuals=tuple(draw(st.lists(st.sampled_from(TEXTS), max_size=4))),
        ))
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(examples) - 1))
        examples[k] = dataclasses.replace(examples[k], answer="   ")
    return examples


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_ids(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.intp
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
        assert not g.flags.writeable


@PROPERTY
@given(example_lists(), st.sampled_from(sorted(TEMPLATES)), st.sets(st.sampled_from(TEXT_TOKENS)),
       st.booleans())
@example([make_example(answer="a cat runs", counterfactuals=()),
          make_example(ex_id="ex-2", counterfactuals=("a cat runs", "the cat sat ."))],
         "default", {"cat", "the"}, True)
@example([make_example(turns=(("A", "the ΟΔΟΣ\r\n's cat"), ("B", "Σ\n")),
                       answer="a Cat\n\nruns",
                       counterfactuals=("the cat\r\nsat .", "ΣΑ\nΣ", "the ΟΔΟΣ"))],
         "default", {"cat", "the", "'s"}, True)
@example([make_example(answer="a cat\nruns"),
          dataclasses.replace(make_example(ex_id="ex-2"), answer=" \n\r\n")],
         "default", {"cat"}, False)
def test_encoders_equal_the_per_text_oracle(examples, template_id, words, with_negatives):
    negatives = [list(ex.counterfactuals) for ex in examples] if with_negatives else None
    # a vocabulary built, and a fixed one missing some of the tokens: those map to UNK
    for vocab in (None, Vocabulary(sorted(words))):
        got = value_or_error(encode, examples, negatives, template_id, vocab)
        want = value_or_error(reference_model.per_text_encode, examples, negatives, template_id,
                              vocab)
        if isinstance(want, str):
            assert got == want
            continue
        want_vocab, inputs, answers, want_negatives = want
        assert got.vocab.tokens == want_vocab.tokens
        assert got.example_ids == [ex.id for ex in examples]
        assert_same_ids(got.inputs, inputs)
        assert_same_ids(got.answers, answers)
        if negatives is None:
            assert got.negatives is None and want_negatives is None
        else:
            assert [len(n) for n in got.negatives] == [len(n) for n in want_negatives]
            assert_same_ids(sum(got.negatives, []), sum(want_negatives, []))


@PROPERTY
@given(example_lists(), st.sampled_from(sorted(TEMPLATES)), st.booleans())
def test_encoded_rows_are_views_of_one_read_only_array(examples, template_id, with_negatives):
    negatives = [list(ex.counterfactuals) for ex in examples] if with_negatives else None
    try:
        enc = encode(examples, negatives, template_id)
    except ValueError:
        reject()
    rows = [*enc.inputs, *enc.answers, *(ids for negs in enc.negatives or [] for ids in negs)]
    base = rows[0].base
    assert isinstance(base, np.ndarray) and base.base is None
    assert base.dtype == np.intp and not base.flags.writeable
    assert all(row.base is base for row in rows)
    vocab, inputs, answers, want_negatives = reference_model.per_text_encode(
        examples, negatives, template_id)
    assert enc.vocab.tokens == vocab.tokens
    assert_same_ids(enc.inputs, inputs)
    assert_same_ids(enc.answers, answers)
    assert_same_ids(sum(enc.negatives or [], []), sum(want_negatives or [], []))
    # one row per distinct text and role: together they hold the base
    assert sum(row.size for row in {id(row): row for row in rows}.values()) == base.size


# pieces of lines: letters that lowercasing changes in context (a final
# sigma) or in length, non-ASCII letters, punctuation, a contraction
# suffix and the whitespace that ends a "\r\n" line
LINE_PIECES = ("cat", "ΟΔΟΣ", "Σ", "σ", "ς", "\u0130", "é", "Straße", "'s", "'", ".", ",",
               "!?", "-", " ", "\t", "\r", "\u2028")


@PROPERTY
@given(st.lists(st.lists(st.sampled_from(LINE_PIECES) | st.characters(), max_size=6).map("".join),
                min_size=1, max_size=5).map("\n".join))
@example("the cat\r\n\r\n's mat .\n")
@example("ΟΔΟΣ\nΣΟΦΙΑ ΚΑΙ ΟΔΟΣ\n\nΣ")
@example("aΣ\nΣa\n'Σ'\n.Σ\nΣ.")
@example("Ünïcode, punctuation!\n«quoted» — ¿qué?\r\n'S\n's's")
def test_tokens_of_a_text_are_its_lines_tokens_joined(text):
    # encode tokenizes each distinct line once and joins the lines' tokens
    assert [t for line in text.split("\n") for t in tokenize(line)] == tokenize(text)


# Unicode whitespace past ASCII's, and characters that are not whitespace
# but look like it or change length when lowercased
WHITESPACE = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
    "\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
)
NOT_WHITESPACE = "aZ\u0130\u1e9e\u03a3\u200b\ufeff\x00_."


@PROPERTY
@given(st.text(st.sampled_from(WHITESPACE + NOT_WHITESPACE) | st.characters()))
def test_normalize_answer_equals_the_regex_collapse(text):
    assert normalize_answer(text) == reference_model.normalize_answer(text)


def test_split_and_regex_agree_on_every_whitespace_character():
    every = "".join(map(chr, range(0x110000)))
    regex = set(re.findall(r"\s", every))
    assert regex == {c for c in every if c.isspace()}
    assert set(WHITESPACE) <= regex
    # lowercasing neither makes nor unmakes whitespace, so it commutes
    # with the strip and the collapse
    assert all(c.lower() == c for c in regex)
    assert len(re.findall(r"\s", every.lower())) == len(regex)
