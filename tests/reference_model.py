"""One-row references for the model's batched kernels.

The package runs only batched kernels: ``ToyBackend.generate_batch``
decodes blocks of rows under one ``max_len`` and ``k`` (greedy when
None) with one seed per row, ``masked_log_probs`` scores every masked
position of a set of answers in one call, a run at a time, and
``nonoptimal_sets`` and ``replace_sets`` work on encoded sets. The
functions here state the same model one row, one position or one
example at a time, on
:func:`inferbench.backend.pool`, so that the tests can compare the
batched kernels with them bit for bit; :func:`generate` is the one-row
decode call. The last two state the answer normalization and the
replacement ranking in their direct forms: a regex collapse, and a
ranking of the whole vocabulary. The first states the text-to-ids
encoder one text at a time: every occurrence of a text tokenized and
converted on its own, a vocabulary built through provisional first-seen
ids and one permutation. :func:`per_block_forward` states the objective
with its NLL set up, scored and differentiated one micro-block at a
time, each block a batch of its own, and its scatter into E gathered row
by row. :func:`flat_parameters` and :func:`set_flat_parameters` read and
set a model's E, U and b as one vector, for the tests that draw, compare
or count its parameters.
"""

import re

import numpy as np

from inferbench.backend import BOS_ID, EOS, Gradients, Vocabulary, pool
from inferbench.corpus import prepare_input_text
from inferbench.metrics import tokenize
from inferbench.negatives import nonoptimal_sets
from inferbench.objective import (
    LossBreakdown,
    _batch_nce,
    _sample_nce,
    _unit,
    _unit_backward,
    _xent,
    _zero_embedding,
    encode,
)


def per_text_encode(examples, negatives=None, template_id="default", vocab=None):
    """``encode`` one text at a time: (vocabulary, inputs, answers,
    negatives). Under ``vocab``, out-of-vocabulary tokens map to UNK.
    Without one, tokens get provisional ids in first-seen order, and one
    permutation then maps every array onto the sorted vocabulary."""
    if negatives is not None and len(negatives) != len(examples):
        raise ValueError(f"{len(negatives)} negative lists for {len(examples)} examples")
    provisional = {EOS: 0}  # every answer ends with EOS

    def ids(text, eos=False):
        tokens = tokenize(text) + ([EOS] if eos else [])
        if vocab is not None:
            return np.array(vocab.encode(tokens), dtype=np.intp)
        return np.array([provisional.setdefault(t, len(provisional)) for t in tokens], dtype=np.intp)

    inputs = [ids(prepare_input_text(ex, template_id)) for ex in examples]
    answers = []
    for ex in examples:
        answers.append(ids(ex.answer, eos=True))
        if len(answers[-1]) == 1:
            raise ValueError("empty answer cannot be scored")
    rows = None if negatives is None else [[ids(text) for text in row] for row in negatives]
    if vocab is None:
        vocab = Vocabulary(sorted(provisional))
        perm = np.array(vocab.encode(list(provisional)), dtype=np.intp)
        for a in (*inputs, *answers, *(a for row in rows or [] for a in row)):
            a[:] = perm[a]
    return vocab, inputs, answers, rows


def _block_nll(be, c, answers, scale, g):
    """Summed NLL of each answer of one micro-block given its pooled
    inputs ``c``, padded to the block's longest answer; with ``g``, adds
    ``scale`` times the block's U and b gradients to it and returns
    (d/dc, prefix ids, their E rows) for the scatter."""
    k = np.array([len(a) for a in answers])
    steps = np.arange(1, k.max() + 1)
    mask = steps <= k[:, None]
    targets = np.concatenate(answers)
    padded = np.zeros(mask.shape, dtype=np.intp)
    padded[mask] = targets
    prefix = np.empty_like(padded)
    prefix[:, 0] = BOS_ID
    prefix[:, 1:] = padded[:, :-1]
    means = np.cumsum(be.E[prefix], axis=1) / steps[:, None]
    states = 0.5 * (c[:, None, :] + means)[mask]
    values, d = _xent(states @ be.U.T + be.b, targets, g is not None)
    starts = np.cumsum(k) - k
    per_answer = np.add.reduceat(values, starts)
    if g is None:
        return per_answer, None
    d *= scale
    g.b += d.sum(axis=0)
    g.U += d.T @ states
    d_states = d @ be.U
    d_means = np.zeros(means.shape)
    d_means[mask] = 0.5 * d_states
    d_means /= steps[:, None]
    suffix = np.cumsum(d_means[:, ::-1], axis=1)[:, ::-1]
    d_c = 0.5 * np.add.reduceat(d_states, starts, axis=0)
    return per_answer, (d_c, prefix[mask], suffix[mask])


def per_block_forward(be, enc, config, grads=True, micro_batch=None) -> LossBreakdown:
    """``forward`` on a batch it accepts, its NLL one micro-block at a
    time and its E gradient scattered from a row gather per column."""
    n = len(enc)
    sample = config.lambda_s > 0
    in_batch = config.lambda_b > 0 and n >= 2
    segments = list(enc.inputs)
    if sample or in_batch:
        segments += [a[:-1] for a in enc.answers]
    if sample:
        counts = np.array([len(negs) for negs in enc.negatives])
        segments += [ids for negs in enc.negatives for ids in negs]
    V = pool(be.E, segments)
    g = Gradients.zeros_like(be) if grads else None
    dV = np.zeros_like(V)
    prefix_ids, prefix_rows, values = [], [], []
    block = micro_batch or n
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        part, back = _block_nll(be, V[lo:hi], enc.answers[lo:hi], 1.0 / n, g)
        values.append(part)
        if back is not None:
            dV[lo:hi] += back[0]
            prefix_ids.append(back[1])
            prefix_rows.append(back[2])
    nll = float(np.concatenate(values).sum()) / n

    cl_b = cl_s = 0.0
    if sample or in_batch:
        H, norms = _unit(V, lambda row: _zero_embedding(enc, row))
        hx, ha = H[:n], H[n : 2 * n]
        dH = np.zeros_like(H)
        if sample:
            values, back = _sample_nce(hx, ha, H[2 * n :], counts, config.tau_s, grads)
            cl_s = float(values.sum()) / n
            if grads:
                dH += (config.lambda_s / n) * back
        if in_batch:
            values, back = _batch_nce(hx, ha, config.tau_b, grads)
            cl_b = float(values.sum()) / n
            if grads:
                dH[: 2 * n] += (config.lambda_b / n) * back
        if grads:
            dV += _unit_backward(H, norms, dH)

    if grads:
        lengths = np.array([len(s) for s in segments])
        ids = np.concatenate([*segments, *prefix_ids])
        owner = np.repeat(np.arange(len(lengths)), lengths)
        pooled = dV / np.maximum(lengths, 1)[:, None]
        rows = np.concatenate([np.zeros((0, be.d)), *prefix_rows])
        g.E = np.stack([
            np.bincount(ids, np.concatenate([pooled[owner, j], rows[:, j]]), len(g.E))
            for j in range(be.d)
        ], axis=1)
    total = nll + config.lambda_b * cl_b + config.lambda_s * cl_s
    return LossBreakdown(nll=nll, cl_b=cl_b, cl_s=cl_s, total=total, grads=g)


def flat_parameters(be) -> np.ndarray:
    """E, U and b of ``be`` as one vector, each array row-major."""
    return np.concatenate([be.E.ravel(), be.U.ravel(), be.b])


def set_flat_parameters(be, theta: np.ndarray) -> None:
    """Set E, U and b of ``be`` to copies of the parts of ``theta``, a
    vector laid out as :func:`flat_parameters` lays it out."""
    ne, nu = be.E.size, be.U.size
    be.E = theta[:ne].reshape(be.E.shape).copy()
    be.U = theta[ne : ne + nu].reshape(be.U.shape).copy()
    be.b = theta[ne + nu :].copy()


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def state(be, input_ids, prefix_ids) -> np.ndarray:
    """The decoder state after ``prefix_ids``: half the sum of the pooled
    input and the pooled BOS + prefix."""
    c = pool(be.E, [input_ids])[0]
    p = pool(be.E, [[BOS_ID, *prefix_ids]])[0]
    return 0.5 * (c + p)


def log_probs_ids(be, input_ids, prefix_ids) -> np.ndarray:
    """Next-token log-probabilities after ``prefix_ids``."""
    return log_softmax(be.U @ state(be, input_ids, prefix_ids) + be.b)


def masked_logits_ids(be, token_ids, position, context_ids=None) -> np.ndarray:
    """Log-probabilities at ``position`` of ``token_ids`` masked: the
    pooled window of the other tokens, after ``context_ids`` if given."""
    if not 0 <= position < len(token_ids):
        raise IndexError(f"mask position {position} outside 0..{len(token_ids) - 1}")
    rest = [t for i, t in enumerate(token_ids) if i != position]
    window = rest if context_ids is None else [*context_ids, *rest]
    return log_softmax(be.U @ pool(be.E, [window])[0] + be.b)


def generate(be, input_ids, max_len, k=None, seed=None) -> list[str]:
    """The tokens ``generate_batch`` decodes for one row: greedy when
    ``k`` is None, else top-k from ``seed``."""
    seeds = None if seed is None else [seed]
    return be.vocab.decode(be.generate_batch([input_ids], max_len, k, seeds)[0])


def generate_nonoptimal(
    be, example, m=4, k=10, attempts=5, seed=0, max_len=16, template_id="default"
):
    """``nonoptimal_sets`` of one example, its input text encoded under
    ``template_id``."""
    enc = encode([example], template_id=template_id, vocab=be.vocab)
    return nonoptimal_sets(be, [example], enc, m, k, attempts, seed, max_len)[0]


def replacement_deltas(scorer, example, template_id="default") -> np.ndarray:
    """The masked scorer's |log p(a_j | context + answer\\j) -
    log p(a_j | answer\\j)| at each gold-answer position of one example,
    from one ``masked_log_probs`` call."""
    enc = encode([example], template_id=template_id, vocab=scorer.vocab)
    answer = enc.answers[0][:-1]
    [(_, with_ctx, answer_only)] = scorer.masked_log_probs([answer], enc.inputs)
    at_gold = (np.arange(len(answer)), answer)
    return np.abs(with_ctx[at_gold] - answer_only[at_gold])


def normalize_answer(text: str) -> str:
    """Strip, lowercase, and collapse each run of ``\\s`` to one space."""
    return re.sub(r"\s+", " ", text.strip().lower())


def replacement_candidates(dist, gold, k, special_ids) -> list[int]:
    """The replacement candidates at one position (``rank_candidates``
    takes them for every selected position at once) from the whole
    vocabulary ranked (descending value, ties by lower id) with the
    specials removed: its top k without gold, else the (k+1)-th."""
    order = np.lexsort((np.arange(len(dist)), -dist))
    ranked = [int(t) for t in order if int(t) not in special_ids]
    top = [t for t in ranked[:k] if t != gold]
    if not top:
        top = [t for t in ranked[k : k + 1] if t != gold]
    return top
