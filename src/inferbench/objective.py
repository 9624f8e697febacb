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

Text is encoded once into an :class:`EncodedSet`, and :func:`forward`
evaluates the whole objective on it in matrix form: every pooled
embedding (inputs, answers, negatives) comes from one segment sum, the
NLL scores all answers of a block with one product with U, and both
InfoNCE terms are row-wise softmax cross-entropies over a logit matrix,
n x n for the in-batch term and n x (1 + m) for the per-sample one
(padded with -inf where an example has fewer negatives). The backward
pass ends in one scatter into E.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .backend import Gradients, ToyBackend, Vocabulary, derive_seed
from .corpus import InferenceExample, prepare_input_text
from .metrics import tokenize


def check_number_fields(obj) -> None:
    """Raise ValueError unless every ``int`` field of the dataclass
    ``obj`` holds an integer and every ``float`` field a real number
    (bools are neither)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class LossConfig:
    tau_b: float = 0.1
    tau_s: float = 2.5
    lambda_b: float = 0.5
    lambda_s: float = 0.5

    def __post_init__(self):
        check_number_fields(self)
        if self.tau_b <= 0 or self.tau_s <= 0:
            raise ValueError("temperatures must be strictly positive")
        if self.lambda_b < 0 or self.lambda_s < 0:
            raise ValueError("loss coefficients must be non-negative")


@dataclass
class LossBreakdown:
    nll: float
    cl_b: float
    cl_s: float
    total: float
    grads: Gradients | None  # None for a forward-only evaluation


# --- encoding ----------------------------------------------------------------

def _answer_ids(backend: ToyBackend, answer: str) -> list[int]:
    tokens = tokenize(answer)
    if not tokens:
        raise ValueError("empty answer cannot be scored")
    return backend.vocab.encode(tokens) + [backend.vocab.eos_id]


def build_vocabulary(examples: list[InferenceExample], template_id: str = "default") -> Vocabulary:
    """Vocabulary over the sorted tokens of the input texts, gold answers
    and counterfactuals."""
    tokens = set()
    for ex in examples:
        for text in (prepare_input_text(ex, template_id), ex.answer, *ex.counterfactuals):
            tokens.update(tokenize(text))
    return Vocabulary(sorted(tokens))


def encode_texts(vocab: Vocabulary, texts: list[str]) -> list[np.ndarray]:
    """Token ids of each text; out-of-vocabulary tokens map to UNK."""
    return [np.array(vocab.encode(tokenize(text)), dtype=np.intp) for text in texts]


def encode_inputs(
    vocab: Vocabulary, examples: list[InferenceExample], template_id: str = "default"
) -> list[np.ndarray]:
    """Token ids of each example's input text under ``template_id``."""
    return encode_texts(vocab, [prepare_input_text(ex, template_id) for ex in examples])


@dataclass(frozen=True)
class EncodedSet:
    """Token ids of a batch or dataset under one vocabulary and template:
    input ids (possibly empty), answer ids with EOS, and the ids of each
    negative of each example (None without negatives)."""

    example_ids: list[str]
    inputs: list[np.ndarray]
    answers: list[np.ndarray]
    negatives: list[list[np.ndarray]] | None = None

    def __len__(self) -> int:
        return len(self.example_ids)

    def take(self, index) -> "EncodedSet":
        def pick(rows):
            return None if rows is None else [rows[i] for i in index]

        return EncodedSet(
            pick(self.example_ids), pick(self.inputs), pick(self.answers), pick(self.negatives)
        )


def encode_set(
    backend: ToyBackend,
    examples: list[InferenceExample],
    negatives: list[list[str]] | None = None,
    template_id: str = "default",
) -> EncodedSet:
    """Encode examples, and ``negatives[i]`` (the negative answer strings
    of ``examples[i]``), under the backend's vocabulary."""
    if negatives is not None and len(negatives) != len(examples):
        raise ValueError(f"{len(negatives)} negative lists for {len(examples)} examples")
    vocab = backend.vocab
    return EncodedSet(
        example_ids=[ex.id for ex in examples],
        inputs=encode_inputs(vocab, examples, template_id),
        answers=[np.array(_answer_ids(backend, ex.answer), dtype=np.intp) for ex in examples],
        negatives=None if negatives is None else [encode_texts(vocab, negs) for negs in negatives],
    )


def _encoded(backend, batch, negatives, template_id) -> EncodedSet:
    """The public entry points take examples plus negative strings, or a
    set the caller encoded once (negatives included)."""
    if not isinstance(batch, EncodedSet):
        return encode_set(backend, batch, negatives, template_id)
    if negatives is not None:
        raise ValueError("an encoded set carries its own negatives")
    return batch


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


def _pool(E: np.ndarray, segments: list[np.ndarray]):
    """Mean E row of each id segment (zero for an empty one) from one
    segment sum; also the flat ids and the lengths, for the backward."""
    lengths = np.array([len(s) for s in segments])
    flat = np.concatenate(segments)
    sums = np.zeros((len(segments), E.shape[1]))
    full = lengths > 0
    if flat.size:
        starts = np.cumsum(lengths) - lengths
        sums[full] = np.add.reduceat(E[flat], starts[full], axis=0)
    return sums / np.maximum(lengths, 1)[:, None], flat, lengths


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


def _nll(backend: ToyBackend, c: np.ndarray, answers: list[np.ndarray], scale: float, g):
    """Summed NLL of each answer (EOS included) given its pooled input c.

    Prefix means come from one cumsum over the answers padded to a
    common length, logits from one product with U. With gradient
    container ``g``, adds ``scale`` times the U and b gradients to it
    and returns (d/dc, prefix ids, their E rows) for the caller's
    scatter; otherwise returns None in their place.
    """
    k = np.array([len(a) for a in answers])
    steps = np.arange(1, k.max() + 1)
    mask = steps <= k[:, None]
    targets = np.concatenate(answers)
    padded = np.zeros(mask.shape, dtype=np.intp)
    padded[mask] = targets
    prefix = np.empty_like(padded)  # BOS, then the answer shifted right
    prefix[:, 0] = backend.vocab.bos_id
    prefix[:, 1:] = padded[:, :-1]
    means = np.cumsum(backend.E[prefix], axis=1) / steps[:, None]
    states = 0.5 * (c[:, None, :] + means)[mask]
    values, d = _xent(states @ backend.U.T + backend.b, targets, g is not None)
    starts = np.cumsum(k) - k
    per_answer = np.add.reduceat(values, starts)
    if g is None:
        return per_answer, None
    d *= scale
    g.b += d.sum(axis=0)
    g.U += d.T @ states
    d_states = d @ backend.U
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

    ``micro_batch`` caps the examples per NLL logit block, whose
    gradients accumulate; the InfoNCE terms always span the whole batch.
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
    V, flat, lengths = _pool(backend.E, segments)
    g = Gradients.zeros_like(backend) if grads else None
    dV = np.zeros_like(V)
    prefix_ids, prefix_rows = [], []

    nll_mean = 0.0
    if nll:
        block = micro_batch or n
        values = []
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            part, back = _nll(backend, V[lo:hi], enc.answers[lo:hi], 1.0 / n, g)
            values.append(part)
            if back is not None:
                dV[lo:hi] += back[0]
                prefix_ids.append(back[1])
                prefix_rows.append(back[2])
        nll_mean = float(np.concatenate(values).sum()) / n

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
        # like np.add.at but faster; gathering each pooled segment's row per
        # column keeps no (ids x d) copy alive
        ids = np.concatenate([flat, *prefix_ids])
        owner = np.repeat(np.arange(len(lengths)), lengths)
        pooled = dV / np.maximum(lengths, 1)[:, None]
        rows = np.concatenate([np.zeros((0, backend.d)), *prefix_rows])
        g.E = np.stack([
            np.bincount(ids, np.concatenate([pooled[owner, j], rows[:, j]]), len(g.E))
            for j in range(backend.d)
        ], axis=1)
    total = nll_mean + config.lambda_b * cl_b + config.lambda_s * cl_s
    return LossBreakdown(nll=nll_mean, cl_b=cl_b, cl_s=cl_s, total=total, grads=g)


# --- public entry points ------------------------------------------------------------

def nll_loss(
    backend: ToyBackend, example: InferenceExample, template_id: str = "default"
) -> tuple[float, Gradients]:
    """Summed NLL of the answer (EOS included) with its gradients."""
    result = forward(
        backend, encode_set(backend, [example], template_id=template_id),
        LossConfig(lambda_b=0.0, lambda_s=0.0),
    )
    return result.nll, result.grads


def cl_sample_loss(
    h_x: np.ndarray,
    h_pos: np.ndarray,
    h_negs: list[np.ndarray],
    tau_s: float,
) -> tuple[float, dict]:
    """InfoNCE over one positive and m negatives, cosine similarity.

    value = -ln exp(sim(x,pos)/tau) / (exp(sim(x,pos)/tau)
            + sum_neg exp(sim(x,neg)/tau))

    Returns (value, grads) with grads holding d/dh_x, d/dh_pos and a
    list of d/dh_neg arrays.
    """
    if len(h_negs) < 1:
        raise ValueError("cl_sample_loss needs at least one negative")
    names = ["h_x", "h_pos"] + [f"h_negs[{i}]" for i in range(len(h_negs))]
    H, norms = _unit(
        np.array([h_x, h_pos, *h_negs], dtype=float),
        lambda row: f"zero vector passed to contrastive loss: {names[row]}",
    )
    values, back = _sample_nce(H[:1], H[1:2], H[2:], np.array([len(h_negs)]), tau_s, True)
    d = _unit_backward(H, norms, back)
    return float(values[0]), {"h_x": d[0], "h_pos": d[1], "h_negs": list(d[2:])}


def cl_batch_loss(
    pairs: list[tuple[np.ndarray, np.ndarray]], tau_b: float
) -> tuple[float, dict]:
    """In-batch InfoNCE summed over rows; denominator spans the whole
    batch including the positive. Returns (value, grads) with grads
    holding lists d/dh_x_i and d/dh_a_j."""
    n = len(pairs)
    if n < 2:
        raise ValueError("cl_batch_loss needs batch size >= 2")
    names = [f"h_x[{i}]" for i in range(n)] + [f"h_a[{j}]" for j in range(n)]
    H, norms = _unit(
        np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=float),
        lambda row: f"zero vector passed to contrastive loss: {names[row]}",
    )
    values, back = _batch_nce(H[:n], H[n:], tau_b, True)
    d = _unit_backward(H, norms, back)
    return float(values.sum()), {"h_x": list(d[:n]), "h_a": list(d[n:])}


def total_loss(
    backend: ToyBackend,
    batch: list[InferenceExample] | EncodedSet,
    negatives: list[list[str]] | None,
    config: LossConfig,
    template_id: str = "default",
) -> LossBreakdown:
    """Mean NLL + lambda_b * in-batch InfoNCE + lambda_s * per-sample
    InfoNCE over a batch, with gradients of the weighted total.

    ``negatives[i]`` are the negative answer strings for ``batch[i]``;
    required whenever lambda_s > 0. ``batch`` may instead be an
    :class:`EncodedSet`, which carries its negatives. Batches of size 1
    contribute no in-batch term.
    """
    return forward(backend, _encoded(backend, batch, negatives, template_id), config)


def accumulated_total_loss(
    backend: ToyBackend,
    batch: list[InferenceExample] | EncodedSet,
    negatives: list[list[str]] | None,
    config: LossConfig,
    micro_batch: int | None = None,
    template_id: str = "default",
) -> LossBreakdown:
    """Micro-batched evaluation of :func:`total_loss`.

    NLL gradients accumulate over blocks of ``micro_batch`` examples;
    both InfoNCE terms are computed once over the whole batch, so any
    micro_batch divisor reproduces the full-batch loss and gradients up
    to float summation order.
    """
    return forward(
        backend, _encoded(backend, batch, negatives, template_id), config,
        micro_batch=micro_batch,
    )


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
        return {
            "passed": self.passed,
            "n_checked": self.n_checked,
            "max_error": self.max_error,
            "tol": self.tol,
            "step": self.step,
            "worst": [
                {
                    "parameter": w.parameter,
                    "flat_index": w.flat_index,
                    "analytic": w.analytic,
                    "numeric": w.numeric,
                    "error": w.error,
                }
                for w in self.worst
            ],
        }


def finite_diff_check(
    backend: ToyBackend,
    batch: list[InferenceExample] | EncodedSet,
    negatives: list[list[str]] | None,
    config: LossConfig,
    step: float = 1e-5,
    tol: float = 1e-4,
    template_id: str = "default",
    seed: int = 0,
    full_check_limit: int = 10_000,
    sample_size: int = 1_000,
    analytic: Gradients | None = None,
) -> FiniteDiffReport:
    """Central-difference check of the total-loss gradients.

    Every parameter is checked when the model has at most
    ``full_check_limit`` of them, otherwise a seeded sample of
    ``sample_size``. A coordinate passes when the relative error is
    below ``tol``, or the absolute error is below 1e-7 where both
    gradients are near zero. Failure is reported, never raised.
    """
    work = backend.copy()
    enc = _encoded(work, batch, negatives, template_id)
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
