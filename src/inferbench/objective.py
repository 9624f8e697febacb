"""Training objective: token-level NLL plus two InfoNCE contrastive
terms (in-batch and per-sample negatives), with analytic gradients for
ToyBackend and a complex-step gate that checks them at every parameter.

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
distinct line once, every id row of a call is a view of one read-only
array, and every occurrence of a text shares one row. Then
:func:`forward`, the one entry point to the objective, evaluates it on
that set in matrix form: the set lays its segments out flat once
(:meth:`EncodedSet.segments`), every pooled embedding (inputs, answers,
negatives) comes from one :func:`~inferbench.backend.pool_flat` call on
that layout, the NLL scores all
answers of a block with one product with U, and both InfoNCE terms are
row-wise softmax cross-entropies over a logit matrix, n x n for the
in-batch term and n x (1 + m) for the per-sample one (padded with -inf
where an example has fewer negatives). The backward pass ends in one
scatter into E, over the same flat ids. :func:`validation_margin` measures the InfoNCE terms' unit
vectors on a validation set. :func:`finite_diff_check` runs the same
forward, gradients off, on complex parameters: the complex step
Im L(theta + ih e_k) / h takes each parameter's derivative with no
subtraction, so it is exact to rounding at a fixed h.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice

import numpy as np

from .backend import (
    BOS_ID, EOS_ID, Gradients, Segments, ToyBackend, Vocabulary, flatten, pool_flat,
)
from .corpus import InferenceExample, prepare_input_text
from .metrics import tokenize


# the range rule a config field may name in its metadata, and its test
BOUNDS = {">= 1": lambda v: v >= 1, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}


def _recipe(key: str, default, bound: str | None = None):
    """A config field: its recipe default, the dotted run-config ``key``
    that sets it and the rule of :data:`BOUNDS` its value must meet, if
    any."""
    return field(default=default, metadata={"key": key, "bound": bound})


def config_key(config, name: str) -> str:
    """The run-config key of the field ``name`` of ``config``."""
    return config.__dataclass_fields__[name].metadata["key"]


def check_fields(config) -> None:
    """Raise ValueError, naming the config key, unless every ``int``
    field of ``config`` holds an integer and every ``float`` field a real
    number (bools are neither), each within the float range, and then
    unless every field meets its bound."""
    recipe = [f for f in fields(config) if f.metadata]
    for f in recipe:
        value, key = getattr(config, f.name), f.metadata["key"]
        kinds = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            raise ValueError(f"{key} must be {f.type}, got {value!r}")
        # false for nan, the infinities and integers no float holds
        if kinds and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{key} must be finite, got {value!r}")
    for f in recipe:
        bound = f.metadata["bound"]
        if bound and not BOUNDS[bound](getattr(config, f.name)):
            raise ValueError(f"{f.metadata['key']} must be {bound}")


@dataclass(frozen=True)
class LossConfig:
    tau_b: float = _recipe("loss.tau_b", 0.1, "> 0")
    tau_s: float = _recipe("loss.tau_s", 2.5, "> 0")
    lambda_b: float = _recipe("loss.lambda_b", 0.5, ">= 0")
    lambda_s: float = _recipe("loss.lambda_s", 0.5, ">= 0")

    def __post_init__(self):
        check_fields(self)


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
    negative of each example (None without negatives).

    :meth:`segments` lays the set out for pooling once: a set pooled
    again (by every forward of the complex-step gate, every epoch's
    validation perplexity, every step of the mcq scorer) reuses its flat
    ids, lengths and add order. :meth:`take` returns a set with its own
    layout."""

    example_ids: list[str]
    inputs: list[np.ndarray]
    answers: list[np.ndarray]
    negatives: list[list[np.ndarray]] | None
    vocab: Vocabulary
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.example_ids)

    def segments(self, groups: int) -> Segments:
        """The first ``groups`` (1-3) of: the inputs, the answers without
        EOS and every example's negatives in order, laid out flat, built
        on the first call for each ``groups``."""
        if groups not in self._layouts:
            rows = list(self.inputs)
            if groups > 1:
                rows += [a[:-1] for a in self.answers]
            if groups > 2:
                rows += [ids for negs in self.negatives for ids in negs]
            self._layouts[groups] = flatten(rows)
        return self._layouts[groups]

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
    is tokenized and mapped to ids once per call, and a text's ids are
    its lines' ids joined. Every id row of the call is a view of one
    read-only ``intp`` array, and every occurrence of a text shares one
    row (one for its occurrences as an answer, one for the others).
    Nothing else outlives the call.
    """
    if negatives is not None and len(negatives) != len(examples):
        raise ValueError(f"{len(negatives)} negative lists for {len(examples)} examples")
    texts = [prepare_input_text(ex, template_id) for ex in examples]
    if negatives is not None:
        texts += [text for negs in negatives for text in negs]
    answers = [ex.answer for ex in examples]
    # the distinct rows: texts as inputs or negatives, then answers with EOS
    plain, with_eos = dict.fromkeys(texts), dict.fromkeys(answers)
    # no token spans whitespace, and lowercasing does not look across "\n"
    parts = [text.split("\n") for text in (*plain, *with_eos)]
    lines = dict.fromkeys(line for row in parts for line in row)
    tokens = [tokenize(line) for line in lines]
    if vocab is None:
        vocab = Vocabulary(sorted(set().union(*tokens)))
    line_ids = dict(zip(lines, map(vocab.encode, tokens)))
    flat, bounds = [], [0]
    for r, row in enumerate(parts):
        for line in row:
            flat += line_ids[line]
        if r >= len(plain):
            flat.append(EOS_ID)
        bounds.append(len(flat))
    base = np.array(flat, dtype=np.intp)
    base.setflags(write=False)
    views = [base[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    by_text = dict(zip(plain, views))
    by_answer = dict(zip(with_eos, views[len(plain) :]))
    if any(len(row) == 1 for row in by_answer.values()):
        raise ValueError("empty answer cannot be scored")
    rows = [by_text[text] for text in texts]
    per_example = None
    if negatives is not None:
        rest = iter(rows[len(examples) :])
        per_example = [list(islice(rest, len(negs))) for negs in negatives]
    return EncodedSet(
        [ex.id for ex in examples], rows[: len(examples)], [by_answer[a] for a in answers],
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
    top = logits.real.max(axis=1, keepdims=True)
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
    ``zero_message(row)``. The norm is sqrt(v . v) with no conjugate, so
    it stays analytic in complex parameters."""
    norms = np.sqrt((V * V).sum(axis=1))
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
    logits = np.full((n, 1 + counts.max()), -np.inf, dtype=hx.dtype)
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
    values, d_states = np.empty(len(targets), dtype=states.dtype), np.empty_like(states)
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
    no in-batch term. Without ``grads`` the parameters may be complex, as
    :func:`finite_diff_check`'s complex step makes them; the losses are
    then complex too, and Python floats otherwise.

    The pool and the scatter into E read the set's layout
    (:meth:`EncodedSet.segments`): the inputs alone for the NLL, with
    the answers for the in-batch term, and with the negatives too for
    the per-sample term. A set passed again, as the gate and validation
    perplexity pass theirs, is not laid out again.
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

    if sample:
        counts = np.array([len(negs) for negs in enc.negatives])
    # read by the pool and by the scatter into E
    layout = enc.segments(3 if sample else 2 if in_batch else 1)
    V = pool_flat(backend.E, layout)
    g = Gradients.zeros_like(backend) if grads else None
    dV = np.zeros_like(V)
    prefix_ids, prefix_rows = np.zeros(0, dtype=np.intp), np.zeros((0, backend.d))

    nll_mean = 0.0
    if nll:
        values, back = _nll(backend, V[:n], enc.answers, micro_batch or n, g)
        nll_mean = values.sum() / n
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
            cl_s = values.sum() / n
            if grads:
                dH += (config.lambda_s / n) * back
        if in_batch:
            values, back = _batch_nce(hx, ha, config.tau_b, grads)
            cl_b = values.sum() / n
            if grads:
                dH[: 2 * n] += (config.lambda_b / n) * back
        if grads:
            dV += _unit_backward(H, norms, dH)

    if grads:
        # one scatter into E as a bincount per column, which adds in order
        # like np.add.at but faster; each column's weights repeat its
        # segments' values from the (d x segments) transpose into one
        # buffer, so no (ids x d) copy is kept alive
        ids, lengths = layout.ids, layout.lengths
        scattered = np.concatenate([ids, prefix_ids])
        pooled = (dV / np.maximum(lengths, 1)[:, None]).T.copy()
        weights = np.empty(len(scattered))
        for column, (p, r) in enumerate(zip(pooled, prefix_rows.T)):
            weights[: len(ids)] = np.repeat(p, lengths)
            weights[len(ids) :] = r
            g.E[:, column] = np.bincount(scattered, weights, len(g.E))
    losses = [nll_mean, cl_b, cl_s, nll_mean + config.lambda_b * cl_b + config.lambda_s * cl_s]
    if np.isrealobj(losses[3]):  # complex parameters keep complex sums
        losses = map(float, losses)
    return LossBreakdown(*losses, grads=g)


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
    H, _ = _unit(pool_flat(backend.E, enc.segments(3)), lambda row: _zero_embedding(enc, row))
    gold = np.einsum("ij,ij->i", H[:n], H[n : 2 * n])
    negative = np.einsum("ij,ij->i", np.repeat(H[:n], counts, axis=0), H[2 * n :])
    return float(np.mean(gold - np.maximum.reduceat(negative, np.cumsum(counts) - counts)))


# --- complex-step gradient gate ---------------------------------------------

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
    tol: float = 1e-4,
    analytic: Gradients | None = None,
) -> FiniteDiffReport:
    """Complex-step check of the gradients of :func:`forward`'s total on
    the encoded batch ``enc``, at every parameter.

    Coordinate k's numeric derivative is Im L(theta + ih e_k) / h, one
    forward each. With no subtraction, h = 1e-20 loses nothing to
    rounding (Squire & Trapp 1998; Martins, Sturdza & Alonso 2003).
    ``analytic`` defaults to :func:`forward`'s gradients. A coordinate
    passes when the relative error is below ``tol``, which must be in
    (0, 1), or the absolute error is below 1e-7 where both gradients are
    near zero. Failure is reported, never raised: ``worst`` holds the ten
    largest errors, each named by array and index (``E[r,c]``, ``U[r,c]``,
    ``b[i]``) with its index in E, U, b row-major order.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    work = backend.copy()
    if analytic is None:
        analytic = forward(work, enc, config).grads
    work.E, work.U, work.b = (p.astype(complex) for p in (work.E, work.U, work.b))
    h = 1e-20

    failures: list[FiniteDiffFailure] = []
    max_error = 0.0
    n_checked = 0  # the next coordinate's flat index, in E, U, b row-major order
    for name in ("E", "U", "b"):
        part, grad = getattr(work, name), getattr(analytic, name)
        for index in np.ndindex(part.shape):
            part.imag[index] = h
            numeric = float(forward(work, enc, config, grads=False).total.imag) / h
            part.imag[index] = 0.0
            ana = float(grad[index])
            denom = max(abs(ana), abs(numeric))
            if denom < 1e-6:
                err = abs(ana - numeric)
                ok = err < 1e-7
            else:
                err = abs(ana - numeric) / denom
                ok = err < tol
            max_error = max(max_error, err)
            if not ok:
                parameter = f"{name}[{','.join(map(str, index))}]"
                failures.append(FiniteDiffFailure(parameter, n_checked, ana, numeric, err))
            n_checked += 1
    failures.sort(key=lambda f: f.error, reverse=True)
    return FiniteDiffReport(
        passed=not failures,
        n_checked=n_checked,
        max_error=max_error,
        tol=tol,
        step=h,
        worst=failures[:10],
    )
