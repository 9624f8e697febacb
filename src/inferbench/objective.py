"""Training objective: token-level NLL plus two InfoNCE contrastive
terms (in-batch and per-sample negatives), with analytic gradients for
ToyBackend and a finite-difference verification gate.

Conventions fixed here and relied on by the trainer and tests:

* the scored answer sequence includes EOS;
* NLL and the per-sample contrastive term are means over the batch,
  and the in-batch term is the batch InfoNCE sum divided by batch size,
  so gradient accumulation over micro-batches reproduces the full-batch
  gradients exactly;
* the positive representation is the embedding of the gold answer;
* the in-batch InfoNCE denominator includes the positive pair.

Text becomes ids in one call, :func:`encode`, which returns an
:class:`EncodedSet` that carries its vocabulary: the one given, or the
one built from every token the call encodes. Each call tokenizes each
distinct line once, and every occurrence of a text shares one read-only
id array. Then :func:`forward`, the one entry point to the objective,
evaluates it on that set in matrix form: every pooled embedding
(inputs, answers, negatives) comes from one
:func:`~inferbench.backend.pool` call, the NLL scores all answers of a
block with one product with U, and both InfoNCE terms are row-wise
softmax cross-entropies over a logit matrix, n x n for the in-batch term
and n x (1 + m) for the per-sample one (padded with -inf where an
example has fewer negatives). The backward pass ends in one scatter
into E. :func:`validation_margin` measures the InfoNCE terms' unit
vectors on a validation set.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .backend import BOS_ID, EOS_ID, Gradients, ToyBackend, Vocabulary, derive_seed, pool
from .corpus import InferenceExample, prepare_input_text
from .metrics import tokenize


def check_number_fields(obj) -> None:
    """Raise ValueError unless every ``int`` field of the dataclass
    ``obj`` holds an integer and every ``float`` field a finite real
    number (bools are neither)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if kinds and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LossConfig:
    tau_b: float = 0.1
    tau_s: float = 2.5
    lambda_b: float = 0.5
    lambda_s: float = 0.5

    def __post_init__(self):
        check_number_fields(self)
        for name in ("tau_b", "tau_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("lambda_b", "lambda_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class LossBreakdown:
    nll: float
    cl_b: float
    cl_s: float
    total: float
    grads: Gradients | None  # None for a forward-only evaluation


# --- encoding ----------------------------------------------------------------

@dataclass(frozen=True)
class EncodedSet:
    """Token ids of a batch or dataset under ``vocab`` and one template:
    input ids (possibly empty), answer ids with EOS, and the ids of each
    negative of each example (None without negatives)."""

    example_ids: list[str]
    inputs: list[np.ndarray]
    answers: list[np.ndarray]
    negatives: list[list[np.ndarray]] | None
    vocab: Vocabulary

    def __len__(self) -> int:
        return len(self.example_ids)

    def take(self, index) -> "EncodedSet":
        def pick(rows):
            return None if rows is None else [rows[i] for i in index]

        return replace(
            self, example_ids=pick(self.example_ids), inputs=pick(self.inputs),
            answers=pick(self.answers), negatives=pick(self.negatives),
        )


def encode(
    examples: list[InferenceExample],
    negatives: list[list[str]] | None = None,
    template_id: str = "default",
    vocab: Vocabulary | None = None,
) -> EncodedSet:
    """The one text-to-ids encoder: the ids of each example's input text
    under ``template_id``, of its gold answer with EOS appended and, with
    ``negatives``, of ``negatives[i]``, the negative texts of example i.

    Out-of-vocabulary tokens map to UNK under ``vocab``. When it is None,
    the vocabulary is the sorted union of every token the call encodes;
    either way the set carries it. Each distinct ``"\n"``-separated line
    is tokenized and mapped to ids once per call, a text's ids are its
    lines' ids joined, and every occurrence of a text shares one
    read-only ``intp`` array (one for its occurrences as an answer, one
    for the others). Nothing outlives the call.
    """
    if negatives is not None and len(negatives) != len(examples):
        raise ValueError(f"{len(negatives)} negative lists for {len(examples)} examples")
    texts = [prepare_input_text(ex, template_id) for ex in examples]
    if negatives is not None:
        texts += [text for negs in negatives for text in negs]
    answers = [ex.answer for ex in examples]
    # no token spans whitespace, and lowercasing does not look across "\n"
    distinct = dict.fromkeys((*texts, *answers))
    lines = dict.fromkeys(line for text in distinct for line in text.split("\n"))
    tokens = {line: tokenize(line) for line in lines}
    if vocab is None:
        vocab = Vocabulary(sorted(set().union(*tokens.values())))
    line_ids = {line: vocab.encode(tokens[line]) for line in lines}
    ids = {text: [i for line in text.split("\n") for i in line_ids[line]] for text in distinct}
    if not all(ids[text] for text in answers):
        raise ValueError("empty answer cannot be scored")

    def ids_of(occurrences: list[str], tail: list[int]) -> list[np.ndarray]:
        arrays = {}
        for text in dict.fromkeys(occurrences):
            row = np.array(ids[text] + tail, dtype=np.intp)
            row.setflags(write=False)
            arrays[text] = row
        return [arrays[text] for text in occurrences]

    rows = ids_of(texts, [])
    per_example = None
    if negatives is not None:
        rest = iter(rows[len(examples):])
        per_example = [list(islice(rest, len(negs))) for negs in negatives]
    return EncodedSet(
        [ex.id for ex in examples], rows[: len(examples)], ids_of(answers, [EOS_ID]),
        per_example, vocab,
    )


def build_vocabulary(examples: list[InferenceExample]) -> Vocabulary:
    """Vocabulary over the sorted tokens of the input texts (default
    template), gold answers and counterfactuals."""
    return encode(examples, [ex.counterfactuals for ex in examples]).vocab


# --- matrix kernels -------------------------------------------------------------

def _xent(logits: np.ndarray, target: np.ndarray, grads: bool):
    """Row-wise softmax cross-entropy against one target column per row;
    -inf entries are padding. Returns the row values and, with ``grads``,
    d value / d logits = softmax - onehot."""
    rows = np.arange(len(target))
    top = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - top)
    z = exp.sum(axis=1, keepdims=True)
    values = (np.log(z) + top)[:, 0] - logits[rows, target]
    if not grads:
        return values, None
    d = exp / z
    d[rows, target] -= 1.0
    return values, d


def _unit(V: np.ndarray, zero_message):
    """Unit rows of V and their norms; a zero row raises
    ``zero_message(row)``."""
    norms = np.linalg.norm(V, axis=1)
    if not norms.all():
        raise ValueError(zero_message(int(np.argmin(norms))))
    return V / norms[:, None], norms


def _unit_backward(H: np.ndarray, norms: np.ndarray, dH: np.ndarray) -> np.ndarray:
    """Chain d/dh through h = v / |v| onto v, for every row at once."""
    return (dH - H * np.einsum("ij,ij->i", H, dH)[:, None]) / norms[:, None]


def _sample_nce(hx, hpos, hneg, counts, tau, grads):
    """Per-sample InfoNCE rows over unit vectors. Column 0 of the
    n x (1 + m) logit matrix is the positive; row i's ``counts[i]``
    negatives are consecutive rows of ``hneg``. Returns the row values
    and, with ``grads``, d/d(hx, hpos, hneg) stacked in that order."""
    n = len(hx)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(n), counts)
    col = 1 + np.arange(len(hneg)) - starts[owner]
    logits = np.full((n, 1 + counts.max()), -np.inf)
    logits[:, 0] = np.einsum("ij,ij->i", hx, hpos) / tau
    logits[owner, col] = np.einsum("ij,ij->i", hx[owner], hneg) / tau
    values, d = _xent(logits, np.zeros(n, dtype=np.intp), grads)
    if not grads:
        return values, None
    d /= tau
    d_neg = d[owner, col][:, None]
    d_hx = d[:, :1] * hpos + np.add.reduceat(d_neg * hneg, starts, axis=0)
    return values, np.concatenate([d_hx, d[:, :1] * hx, d_neg * hx[owner]])


def _batch_nce(hx, ha, tau, grads):
    """In-batch InfoNCE rows over unit vectors: S = hx ha^T / tau with
    each row's positive on the diagonal, dL/dS = (softmax(S) - I) / tau.
    Returns the row values and, with ``grads``, d/d(hx, ha) stacked."""
    values, d = _xent(hx @ ha.T / tau, np.arange(len(hx)), grads)
    if not grads:
        return values, None
    d /= tau
    return values, np.concatenate([d @ ha, d.T @ hx])


def _nll(backend: ToyBackend, c: np.ndarray, answers: list[np.ndarray], block: int, g):
    """Summed NLL of each answer (EOS included) given its pooled input c.

    Prefix means come from one cumsum over the answers padded to a
    common length, which adds the rows in order as
    :func:`~inferbench.backend.pool` does, logits from one product with
    U per ``block`` answers. With gradient container ``g``, adds each
    block's U and b gradients of the batch mean to it and returns
    (d/dc, prefix ids, their E rows) for the caller's scatter; otherwise
    returns None in their place.
    """
    n = len(answers)
    k = np.fromiter(map(len, answers), np.intp, n)
    steps = np.arange(1, k.max() + 1)
    mask = steps <= k[:, None]
    targets = np.concatenate(answers)
    padded = np.zeros(mask.shape, dtype=np.intp)
    padded[mask] = targets
    prefix = np.empty_like(padded)  # BOS, then the answer shifted right
    prefix[:, 0] = BOS_ID
    prefix[:, 1:] = padded[:, :-1]
    means = np.cumsum(backend.E[prefix], axis=1) / steps[:, None]
    states = 0.5 * (c[:, None, :] + means)[mask]
    ends = np.cumsum(k)
    starts = ends - k
    values, d_states = np.empty(len(targets)), np.empty_like(states)
    for lo in range(0, n, block):
        rows = slice(starts[lo], ends[min(lo + block, n) - 1])
        logits = states[rows] @ backend.U.T + backend.b
        values[rows], d = _xent(logits, targets[rows], g is not None)
        if g is not None:
            d *= 1.0 / n
            g.b += d.sum(axis=0)
            g.U += d.T @ states[rows]
            d_states[rows] = d @ backend.U
    per_answer = np.add.reduceat(values, starts)
    if g is None:
        return per_answer, None
    d_means = np.zeros(means.shape)
    d_means[mask] = 0.5 * d_states
    d_means /= steps[:, None]
    # the token at answer position j feeds every prefix mean from step j + 1 on
    suffix = np.cumsum(d_means[:, ::-1], axis=1)[:, ::-1]
    d_c = 0.5 * np.add.reduceat(d_states, starts, axis=0)
    return per_answer, (d_c, prefix[mask], suffix[mask])


# --- batch objective --------------------------------------------------------------

def _zero_embedding(enc: EncodedSet, row: int) -> str:
    """Name pooled row ``row`` of :func:`forward`: inputs, answers, negatives."""
    names = [f"input of {i}" for i in enc.example_ids]
    names += [f"answer of {i}" for i in enc.example_ids]
    for i, negs in zip(enc.example_ids, enc.negatives or []):
        names += [f"negative {s} of {i}" for s in range(len(negs))]
    return f"zero embedding for {names[row]}"


def forward(
    backend: ToyBackend,
    enc: EncodedSet,
    config: LossConfig,
    grads: bool = True,
    micro_batch: int | None = None,
    nll: bool = True,
) -> LossBreakdown:
    """Mean NLL + lambda_b * in-batch InfoNCE + lambda_s * per-sample
    InfoNCE over an encoded batch, with the gradients of the weighted
    total when ``grads`` is set.

    ``micro_batch`` caps the examples per NLL logit product with U, whose
    U and b gradients accumulate block by block (a product's rounding
    depends on its row count); the rest of the NLL runs once per batch,
    and the InfoNCE terms always span the whole batch.
    ``nll=False`` leaves the NLL term out. Batches of size 1 contribute
    no in-batch term.
    """
    n = len(enc)
    if n == 0:
        raise ValueError("empty batch")
    if micro_batch is not None and micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    sample = config.lambda_s > 0
    if sample and (enc.negatives is None or not all(enc.negatives)):
        raise ValueError("lambda_s > 0 requires >= 1 negative per example")
    in_batch = config.lambda_b > 0 and n >= 2

    segments = list(enc.inputs)
    if sample or in_batch:
        segments += [a[:-1] for a in enc.answers]
    if sample:
        counts = np.array([len(negs) for negs in enc.negatives])
        segments += [ids for negs in enc.negatives for ids in negs]
    V = pool(backend.E, segments)
    g = Gradients.zeros_like(backend) if grads else None
    dV = np.zeros_like(V)
    prefix_ids, prefix_rows = np.zeros(0, dtype=np.intp), np.zeros((0, backend.d))

    nll_mean = 0.0
    if nll:
        values, back = _nll(backend, V[:n], enc.answers, micro_batch or n, g)
        nll_mean = float(values.sum()) / n
        if back is not None:
            dV[:n] += back[0]
            prefix_ids, prefix_rows = back[1:]

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
        # one scatter into E as a bincount per column, which adds in order
        # like np.add.at but faster; gathering each column from the
        # (d x segments) transpose keeps no (ids x d) copy alive
        lengths = np.fromiter(map(len, segments), np.intp, len(segments))
        ids = np.concatenate([*segments, prefix_ids])
        owner = np.repeat(np.arange(len(segments)), lengths)
        pooled = (dV / np.maximum(lengths, 1)[:, None]).T.copy()
        g.E = np.stack([
            np.bincount(ids, np.concatenate([p[owner], r]), len(g.E))
            for p, r in zip(pooled, prefix_rows.T)
        ], axis=1)
    total = nll_mean + config.lambda_b * cl_b + config.lambda_s * cl_s
    return LossBreakdown(nll=nll_mean, cl_b=cl_b, cl_s=cl_s, total=total, grads=g)


def validation_margin(backend: ToyBackend, examples: list[InferenceExample]) -> float:
    """Mean gold-vs-hardest-negative cosine margin of input embeddings,

        sim(h_X, h_gold) - max over counterfactuals of sim(h_X, h_neg),

    on the unit vectors :func:`forward` gives its InfoNCE terms: inputs,
    answers without EOS and counterfactuals pooled in one call."""
    if not examples:
        raise ValueError("validation margin of an empty set")
    enc = encode(examples, [ex.counterfactuals for ex in examples], vocab=backend.vocab)
    counts = np.array([len(negs) for negs in enc.negatives])
    if not counts.all():
        raise ValueError(f"example {enc.example_ids[np.argmin(counts)]} has no counterfactual")
    n = len(enc)
    segments = [*enc.inputs, *(a[:-1] for a in enc.answers)]
    segments += [ids for negs in enc.negatives for ids in negs]
    H, _ = _unit(pool(backend.E, segments), lambda row: _zero_embedding(enc, row))
    gold = np.einsum("ij,ij->i", H[:n], H[n : 2 * n])
    negative = np.einsum("ij,ij->i", np.repeat(H[:n], counts, axis=0), H[2 * n :])
    return float(np.mean(gold - np.maximum.reduceat(negative, np.cumsum(counts) - counts)))


# --- finite-difference gate -------------------------------------------------

@dataclass
class FiniteDiffFailure:
    parameter: str
    flat_index: int
    analytic: float
    numeric: float
    error: float


@dataclass
class FiniteDiffReport:
    passed: bool
    n_checked: int
    max_error: float
    tol: float
    step: float
    worst: list[FiniteDiffFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def finite_diff_check(
    backend: ToyBackend,
    enc: EncodedSet,
    config: LossConfig,
    step: float = 1e-5,
    tol: float = 1e-4,
    seed: int = 0,
    full_check_limit: int = 10_000,
    sample_size: int = 1_000,
    analytic: Gradients | None = None,
) -> FiniteDiffReport:
    """Central-difference check of the gradients of :func:`forward`'s
    total on the encoded batch ``enc``.

    Every parameter is checked when the model has at most
    ``full_check_limit`` of them, otherwise a seeded sample of
    ``sample_size``. A coordinate passes when the relative error is
    below ``tol``, or the absolute error is below 1e-7 where both
    gradients are near zero. Failure is reported, never raised.
    """
    work = backend.copy()
    if analytic is None:
        analytic = forward(work, enc, config).grads
    flat_analytic = np.concatenate(
        [analytic.E.ravel(), analytic.U.ravel(), analytic.b]
    )
    theta = work.flat_parameters()
    n_params = theta.size
    if n_params <= full_check_limit:
        indices = np.arange(n_params)
    else:
        rng = np.random.default_rng(derive_seed(seed, "fdcheck"))
        indices = rng.choice(n_params, size=sample_size, replace=False)

    failures: list[FiniteDiffFailure] = []
    max_error = 0.0
    for idx in indices:
        orig = theta[idx]
        theta[idx] = orig + step
        work.set_flat_parameters(theta)
        up = forward(work, enc, config, grads=False).total
        theta[idx] = orig - step
        work.set_flat_parameters(theta)
        down = forward(work, enc, config, grads=False).total
        theta[idx] = orig
        numeric = (up - down) / (2.0 * step)
        ana = float(flat_analytic[idx])
        denom = max(abs(ana), abs(numeric))
        if denom < 1e-6:
            err = abs(ana - numeric)
            ok = err < 1e-7
        else:
            err = abs(ana - numeric) / denom
            ok = err < tol
        max_error = max(max_error, err)
        if not ok:
            failures.append(
                FiniteDiffFailure(
                    parameter=work.parameter_name(int(idx)),
                    flat_index=int(idx),
                    analytic=ana,
                    numeric=numeric,
                    error=err,
                )
            )
    work.set_flat_parameters(theta)
    failures.sort(key=lambda f: f.error, reverse=True)
    return FiniteDiffReport(
        passed=not failures,
        n_checked=len(indices),
        max_error=max_error,
        tol=tol,
        step=step,
        worst=failures[:10],
    )
