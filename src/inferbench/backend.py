"""Model contract and the ToyBackend reference implementation.

ToyBackend is a mean-pooled bag-of-tokens model small enough to
gradient-check yet rich enough to exercise every training objective:

    c(X)     = pool of the input tokens
    p(a_<j)  = pool of BOS + previous answer tokens
    s_j      = (c + p) / 2
    logits_j = U @ s_j + b
    embed(T) = pool of T, L2-normalized (a zero pool is an error)

:func:`pool_flat` is the one pooling rule: a segment's embedding rows
added in order, divided by the count, zeros for an empty segment. It
takes the segments laid out flat, one ids array with their lengths
(:class:`Segments`, built by :func:`flatten`; :func:`pool` flattens a
list of segments), and a layout keeps the order its rows are added in
once worked out. Masked scoring drops the masked position and pools the
remaining tokens of the conditioned window. The model contract is
id-level: the vocabulary ``vocab`` plus ``generate_batch`` (the decoded
ids of each row), ``masked_log_probs`` (every masked position of each
answer of a set, with its context and without, yielded run by run),
both on token ids, and :func:`pool_flat`, which the objective's forward shares:
embeddings exist only as its pooled, normalized rows.
Masked scoring log-normalizes the logits; the decoder ranks them as they
are. It takes plain values, ``generate_batch(inputs, max_len, k,
seeds)``: greedy (top-1) when ``k`` is None, else top-k with one seed
per row, p the softmax of the row's top k logits and row r's draw at step j
taking the (j + 1)-th ``default_rng(derive_seed(seeds[r], "topk")).random()``,
which ``_unit(_pcg_outputs(_pcg_seed(seeds), count))`` computes for all
rows at once without a ``Generator``; :func:`_integers` draws
``Generator.integers`` the same way.
Every vocabulary puts :data:`SPECIALS` first, in order, so their ids are
the constants ``PAD_ID`` .. ``MASK_ID`` (0-4). Text becomes ids only in
:mod:`inferbench.objective`. All randomness flows through seeds derived
with :func:`derive_seed`, so identical seeds give bit-identical
parameters and samples.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

PAD, BOS, EOS, UNK, MASK = "<pad>", "<bos>", "<eos>", "<unk>", "<mask>"
SPECIALS = (PAD, BOS, EOS, UNK, MASK)
# every Vocabulary holds SPECIALS first, in order, so their ids never change
PAD_ID, BOS_ID, EOS_ID, UNK_ID, MASK_ID = range(len(SPECIALS))
# the ids the decoder never emits, so generations stay plain text
SUPPRESSED = [PAD_ID, BOS_ID, UNK_ID, MASK_ID]

# the bytes of one step's logits a decode block may hold: a block holds
# max(1, DECODE_BYTES // (8 V)) rows, 1351 at V 97; a top-k decode (k 10, 16
# steps, d 16, V 97) of 800 rows peaks at 1652 KiB in tracemalloc, of 1400 at 2746
DECODE_BYTES = 2**20
# most windows a masked-scoring run holds
MASKED_WINDOWS = 512


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit stream seed from a root seed and context labels."""
    key = "|".join([str(seed), *map(str, parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


class Vocabulary:
    """Dense token -> id map with the five special tokens first."""

    def __init__(self, tokens: list[str]):
        self._tokens = list(SPECIALS)
        seen = set(SPECIALS)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self._tokens.append(tok)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def encode(self, tokens: list[str]) -> list[int]:
        ids = self._ids
        return [ids.get(t, UNK_ID) for t in tokens]

    def decode(self, ids: list[int]) -> list[str]:
        return [self._tokens[i] for i in ids]


@dataclass
class Gradients:
    """Per-parameter gradient container matching ToyBackend shapes."""

    E: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @classmethod
    def zeros_like(cls, backend: "ToyBackend") -> "Gradients":
        return cls(
            E=np.zeros_like(backend.E),
            U=np.zeros_like(backend.U),
            b=np.zeros_like(backend.b),
        )


def draw_index(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index drawn in each row of ``weights`` by its uniform ``u``, as
    ``Generator.choice(top, p=row)`` draws with ``u = rng.random()``:
    the count of the normalized cumulative sum at or below ``u``."""
    if not np.isfinite(weights).all():
        raise ValueError("probabilities are not finite")
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


# PCG64's 128-bit LCG multiplier M; the kernel holds a 128-bit value as its
# high and low 64-bit words in uint64 arrays
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# outputs per chunk of rows that :func:`_pcg_outputs` computes at once (32 KiB)
_PCG_CHUNK = 4096


def _hasher(h: int, mult: int):
    # numpy SeedSequence's hash; its constant h is multiplied by mult at each call
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal h
        value = (value ^ np.uint32(h)) * np.uint32(h := h * mult & 0xFFFFFFFF)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _add_mulhi(hi: np.ndarray, a: np.ndarray, b: np.ndarray, s1: np.ndarray, s2: np.ndarray):
    """``hi += `` the high 64 bits of each 128-bit product ``a * b``, on
    32-bit limbs, in place: ``s1`` and ``s2`` are scratch of ``hi``'s shape."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    np.multiply(a0, b0, out=s1)
    s1 >>= _U32
    s1 += np.multiply(a1, b0, out=s2)  # the middle limb and its carry
    hi += np.multiply(a1, b1, out=s2)
    hi += np.right_shift(s1, _U32, out=s2)
    s1 &= _LOW32
    s1 += np.multiply(a0, b1, out=s2)
    s1 >>= _U32
    hi += s1


def _pcg_seed(seeds: list[int]) -> np.ndarray:
    """Rows ``init_hi, init_lo, inc_hi, inc_lo`` of each seed's PCG64 seeding,
    all at once: ``SeedSequence`` hashes the seed's two 32-bit words into
    ``init`` and ``seq``, and ``inc = 2 seq + 1``."""
    if not all(0 <= s < 2**64 for s in seeds):
        raise ValueError("seeds must be in [0, 2**64)")
    s = np.array(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    # the pool hashes a missing entropy word as 0, so a seed below 2**32 needs no case
    mixer = [hashmix(w.astype(np.uint32)) for w in (s & _LOW32, s >> _U32, zero, zero)]
    for src, dst in ((src, dst) for src in range(4) for dst in range(4) if src != dst):
        mixed = np.uint32(0xCA01F9DD) * mixer[dst] - np.uint32(0x4973F715) * hashmix(mixer[src])
        mixer[dst] = mixed ^ (mixed >> np.uint32(16))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    w = [hashmix(mixer[i % 4]).astype(np.uint64) for i in range(8)]
    # 64-bit word i is w[2i] | w[2i+1] << 32; init is words 0 (high) and 1
    init_hi, init_lo, seq_hi, seq_lo = (w[i] | w[i + 1] << _U32 for i in (0, 2, 4, 6))
    inc = (seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1))
    return np.stack([init_hi, init_lo, *inc], axis=1)


def _pcg_outputs(state: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit outputs of each row's stream, for the
    rows of :func:`_pcg_seed`: output j is the XSL-RR of state j + 2 from
    ``init + inc``. The states are built in place, in chunks of at most
    :data:`_PCG_CHUNK` outputs, so a chunk's high words and one scratch
    array are all that is held besides the outputs."""
    # state t from P is M**t P + (M**(t-1) + ... + 1) inc, so state j + 2 from
    # init + inc is M**(j+2) init + (M**(j+2) + ... + 1) inc
    powers = [pow(_PCG_MULT, t, 2**128) for t in range(count + 2)]
    jumps = [
        [np.array([j >> shift & 2**64 - 1 for j in jump], dtype=np.uint64) for shift in (64, 0)]
        for jump in (powers[2:], list(accumulate(powers))[2:])
    ]
    out = np.empty((len(state), count), dtype=np.uint64)
    step = max(1, _PCG_CHUNK // max(count, 1))
    for start in range(0, len(state), step):
        rows = state[start : start + step]
        lo = out[start : start + step]  # the low words, then the outputs
        hi, tmp = np.zeros_like(lo), np.empty_like(lo)
        # the words (a_hi, a_lo) of a jump, (b_hi, b_lo) of init, then of inc
        terms = [(*jump, rows[:, w, None], rows[:, w + 1, None]) for jump, w in zip(jumps, (0, 2))]
        # the high words first, with ``lo`` as scratch
        for a_hi, a_lo, b_hi, b_lo in terms:
            _add_mulhi(hi, a_lo, b_lo, lo, tmp)
            hi += np.multiply(a_lo, b_hi, out=tmp)
            hi += np.multiply(a_hi, b_lo, out=tmp)
        # then the low words, and their sum's carry
        (_, a_lo, _, b_lo), (_, c_lo, _, d_lo) = terms
        np.multiply(a_lo, b_lo, out=lo)
        lo += np.multiply(c_lo, d_lo, out=tmp)
        hi += lo < tmp
        # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
        lo ^= hi
        hi >>= np.uint64(58)
        np.right_shift(lo, hi, out=tmp)
        np.subtract(np.uint64(64), hi, out=hi)
        hi &= np.uint64(63)
        lo <<= hi
        lo |= tmp
    return out


def _unit(outputs: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each raw output: its top 53 bits."""
    return (outputs >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _integers(seeds: list[int], bounds) -> np.ndarray:
    """Value [r, p] is the (p + 1)-th ``default_rng(seeds[r]).integers(n)``
    for the calls n = bounds[r, 0], bounds[r, 1], ..., bit for bit, each n
    in [1, 2**32]. Numpy's Lemire method: a call with n > 1 takes the next
    32-bit half h of the stream (an output's low half first) and returns
    h n >> 32, unless h n mod 2**32 < 2**32 mod n (probability below
    n / 2**32), when it takes another; such a row is replayed on a
    ``Generator``."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if not ((bounds >= 1) & (bounds <= 2**32)).all():
        raise ValueError("bounds must be in [1, 2**32]")
    n, draws = bounds.astype(np.uint64), bounds > 1  # integers(1) is 0 and draws nothing
    half = np.maximum(np.cumsum(draws, axis=1) - 1, 0)  # the half each draw takes
    outputs = _pcg_outputs(_pcg_seed(seeds), int(half.max(initial=0)) // 2 + 1)
    h = np.take_along_axis(outputs, half // 2, axis=1) >> (half % 2 * 32).astype(np.uint64)
    product = (h & _LOW32) * n
    values = np.where(draws, product >> _U32, 0).astype(np.intp)
    for r in np.flatnonzero((draws & ((product & _LOW32) < np.uint64(2**32) % n)).any(axis=1)):
        rng = np.random.default_rng(seeds[r])
        values[r] = [rng.integers(b) for b in bounds[r].tolist()]
    return values


@dataclass(frozen=True, eq=False)
class Segments:
    """Segments of token ids laid out flat, the form :func:`pool_flat`
    takes: segment i is the next ``lengths[i]`` entries of ``ids``. The
    order in which :func:`_segment_sums` adds them is worked out on first
    use and kept (:attr:`plan`), so a layout pooled again pays only the
    gather and the adds."""

    ids: np.ndarray
    lengths: np.ndarray

    @cached_property
    def plan(self) -> tuple[np.ndarray, list[int], np.ndarray]:
        """The segments sorted longest first (stable), position by position:
        the ids of their tokens in that order, how many segments reach each
        position, and the inverse of the sort."""
        order = np.argsort(-self.lengths, kind="stable")
        # placed[j, i]: the i-th longest segment has a token at position j
        placed = np.arange(self.lengths.max(initial=0))[:, None] < self.lengths[order]
        # where in ``ids`` each placed token is, position by position
        at = (np.cumsum(self.lengths) - self.lengths)[order] + np.arange(len(placed))[:, None]
        return self.ids[at[placed]], placed.sum(axis=1).tolist(), np.argsort(order)


def flatten(segments) -> Segments:
    """The ids of every segment in one flat ``intp`` array, in order, with
    each segment's length."""
    lengths = np.fromiter(map(len, segments), np.intp, len(segments))
    ids = np.concatenate([np.zeros(0, dtype=np.intp), *segments])
    # an empty list concatenates as float
    return Segments(ids.astype(np.intp, copy=False), lengths)


def _segment_sums(E: np.ndarray, segments: Segments) -> np.ndarray:
    """In-order sum of each segment's E rows, one row per segment, from
    -0.0 (the exact identity of float addition). One vector add per token
    position, over the segments sorted longest first (:attr:`Segments.plan`)
    so that those reaching a position lead. This adds in order at every
    d; numpy's sum over an axis adds a single column pairwise at d = 1.
    The sums take E's dtype, so complex parameters pool too."""
    ids, reach, inverse = segments.plan
    rows = E[ids]
    sums = np.full((len(segments.lengths), E.shape[1]), -0.0, dtype=E.dtype)
    start = 0
    for k in reach:
        sums[:k] += rows[start : start + k]
        start += k
    return sums[inverse]


def pool_flat(E: np.ndarray, segments: Segments) -> np.ndarray:
    """Mean E row of each segment, one row per segment: its rows added in
    order, divided by the count; zeros for an empty segment. A segment
    pools to the same bits alone or among other segments; no segments
    pool to a (0, d) array."""
    sums = _segment_sums(E, segments)
    counts = segments.lengths[:, None]
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def pool(E: np.ndarray, segments) -> np.ndarray:
    """:func:`pool_flat` of a list of id segments, concatenated once."""
    return pool_flat(E, flatten(segments))


def _masked_windows(answers: Segments, ends: np.ndarray, lo: int, hi: int, context_row: int):
    """The masked windows of answers ``lo`` .. ``hi - 1`` of ``answers``
    (``ends`` their cumulative lengths), laid out by index arithmetic:
    for each position j of each answer i in order, the row ``context_row +
    i`` of a table that holds context i's sum, then the answer's tokens
    but the j-th; then, in the same order, those tokens alone."""
    # window p masks position j of answer owner[p], n[p] tokens long,
    # which starts at answers.ids[first[p]]
    owner = np.repeat(np.arange(lo, hi), answers.lengths[lo:hi])
    n = answers.lengths[owner][:, None]
    first = ends[owner][:, None] - n
    j = np.arange(ends[lo] - answers.lengths[lo], ends[hi - 1])[:, None] - first
    # the answer's tokens but the j-th: column c reads token c before j
    # and c + 1 from j on
    cols = np.arange(n.max(initial=1) - 1)
    rest = np.take(answers.ids, first + cols + (cols >= j), mode="clip")
    with_context = np.concatenate([context_row + owner[:, None], rest], axis=1)
    return Segments(
        np.concatenate([with_context[np.arange(len(cols) + 1) < n], rest[cols < n - 1]]),
        np.concatenate([n[:, 0], n[:, 0] - 1]),
    )


class ToyBackend:
    """Trainable mean-pooled bag model over a fixed vocabulary."""

    def __init__(self, vocab: Vocabulary, d: int, seed: int = 0):
        self.vocab = vocab
        self.d = d
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, "init"))
        v = len(vocab)
        self.E = rng.uniform(-0.1, 0.1, size=(v, d))
        self.U = rng.uniform(-0.1, 0.1, size=(v, d))
        self.b = rng.uniform(-0.1, 0.1, size=v)

    # --- forward primitives ---

    def _logits_rows(self, states: np.ndarray) -> np.ndarray:
        """U s + b of each row s of ``states``: a stacked matmul makes one
        BLAS gemv per row, so a row's values do not depend on the other
        rows (one gemm over the rows would round differently)."""
        logits = np.matmul(self.U, states[:, :, None])[:, :, 0]
        logits += self.b
        return logits

    def _log_probs_rows(self, states: np.ndarray) -> np.ndarray:
        """log softmax(U s + b) of each row s of ``states``, row by row as
        :meth:`_logits_rows`. A NaN or infinite row maximum (the maximum
        is NaN if any logit is) raises ValueError."""
        log_probs = self._logits_rows(states)
        top = log_probs.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            raise ValueError("logits are not finite")
        log_probs -= top
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        return log_probs

    def masked_log_probs(self, answers, contexts):
        """Yield, run by run, the log-probabilities at every masked
        position of the answers, with their context and without. A run is
        a ``range`` of consecutive answers holding at most
        :data:`MASKED_WINDOWS` windows (an answer with more is a run
        alone); it comes with two arrays of one row per position of its
        answers, in order: row p of the first scores the window
        ``contexts[i]`` + ``answers[i]`` without p's position j, row p of
        the second ``answers[i]`` without position j, each pooled as
        :func:`pool` pools it, bit for bit.

        Each context is summed once, in one call, and its windows sum on from
        that sum, a row appended to the embedding table; this table of
        context sums (one row of d per answer) and the context rows gathered
        to take it are the arrays that grow with the set. A run's windows
        are laid out by index arithmetic over the run's answers
        (:func:`_masked_windows`) and let go once summed, so no other array
        outgrows a run or one answer. A NaN or infinite logit raises
        ValueError, without a numpy warning."""
        if not answers:
            return
        # numpy's overflow warnings are off where sums and logits are taken
        # (the log-normalizer checks them), but never across a yield, which
        # would leave the caller's code under the errstate
        with np.errstate(over="ignore", invalid="ignore"):
            # the in-order sum of context i is row len(E) + i
            table = np.concatenate([self.E, _segment_sums(self.E, flatten(contexts))])
        flat = flatten(answers)
        ends = np.cumsum(flat.lengths)
        context_lengths = np.fromiter(map(len, contexts), np.intp, len(contexts))
        starts, size = [0], 0  # the first answer of each run
        for i, n in enumerate(flat.lengths.tolist()):
            if i and size + 2 * n > MASKED_WINDOWS:
                starts.append(i)
                size = 0
            size += 2 * n
        for lo, hi in zip(starts, [*starts[1:], len(answers)]):
            owner = np.repeat(np.arange(lo, hi), flat.lengths[lo:hi])  # each position's answer
            n = flat.lengths[owner]
            counts = np.concatenate([context_lengths[owner] + n - 1, n - 1])[:, None]
            with np.errstate(over="ignore", invalid="ignore"):
                sums = _segment_sums(table, _masked_windows(flat, ends, lo, hi, len(self.E)))
                # an empty window pools to zeros
                states = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
                log_probs = self._log_probs_rows(states)
            yield range(lo, hi), log_probs[: len(owner)], log_probs[len(owner) :]

    def generate_batch(
        self,
        inputs: list[list[int] | np.ndarray],
        max_len: int,
        k: int | None = None,
        seeds: list[int] | None = None,
    ) -> list[list[int]]:
        """Decode the token ids of one answer of at most ``max_len`` tokens
        per row of ``inputs``: greedily when ``k`` is None (``seeds`` is
        then unused), else top-k, row r drawing from the stream of
        ``derive_seed(seeds[r], "topk")``.

        Greedy is top-1, and k 1 draws nothing: every step ranks the
        logits ``U s + b`` (the log-normalizer of a row changes no
        ranking), and top-k draws from p, the softmax of the row's top k
        logits. Ties rank lowest id first. The
        :data:`SUPPRESSED` ids are never emitted, so generations stay plain
        text; EOS remains a candidate and stops its row. k is bounded by
        the number of decodable tokens. A NaN or infinite top logit raises
        ValueError, without a numpy warning.

        Batch-invariant: a row's tokens do not depend on the other rows,
        because each row's logits are its own matrix-vector product. Rows
        decode in blocks whose step logits take at most
        :data:`DECODE_BYTES`: ``max(1, DECODE_BYTES // (8 V))`` rows for V
        tokens.
        """
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if k is not None:
            n_decodable = len(self.vocab) - len(SUPPRESSED)
            if not 1 <= k <= n_decodable:
                raise ValueError(f"k must be in 1..{n_decodable}")
            if seeds is None or len(seeds) != len(inputs):
                raise ValueError(f"top-k needs one seed per input ({len(inputs)})")
        k = 1 if k is None else k
        # each row's stream is seeded and each distinct input object pooled
        # once (a segment pools to the same bits among others)
        distinct = {id(ids): ids for ids in inputs}
        slot = {key: i for i, key in enumerate(distinct)}
        input_of = np.array([slot[id(ids)] for ids in inputs], dtype=np.intp)
        streams = _pcg_seed([derive_seed(s, "topk") for s in seeds]) if k > 1 else None
        block = max(1, DECODE_BYTES // (8 * len(self.vocab)))
        out: list[list[int]] = []
        # numpy's overflow warnings are off for the whole call: the steps
        # check their picked logits themselves
        with np.errstate(over="ignore", invalid="ignore"):
            contexts = pool(self.E, list(distinct.values()))
            for start in range(0, len(inputs), block):
                rows = slice(start, start + block)
                block_streams = None if streams is None else streams[rows]
                out.extend(self._decode_block(contexts, input_of[rows], max_len, k, block_streams))
        return out

    def _decode_block(self, contexts, input_of, max_len, k, streams) -> list[list[int]]:
        """Token ids of each row r of the block, whose input pools to
        ``contexts[input_of[r]]``, one vectorized step per position for the
        rows not yet stopped. A row's state at step j is half the sum of
        its context and the pool of BOS and its j decoded tokens, bit for
        bit: the prefix sum adds one row per step, in order. Step 0's state
        depends on the input alone, so its logits and their ranking are
        taken once per distinct input and gathered to the rows. A step
        ranks its top k; greedy is k 1 and picks the first. Above k 1, row
        r's draw at step j takes value j of its stream (the module's draw
        contract; ``streams`` holds the rows' :func:`_pcg_seed`), drawn for
        every row of the block before the first step, and repeats
        ``Generator.choice`` on the softmax of the top k logits bit for bit.
        No step normalizes its logits. Steps write ids to one buffer,
        allocated first, and compact only after an EOS."""
        # a row's ids end at its first EOS; the last column holds one for every row
        tokens = np.full((len(input_of), max_len + 1), EOS_ID, dtype=np.intp)
        if k > 1:
            uniforms = _unit(_pcg_outputs(streams, max_len))
        block_inputs, row_input = np.unique(input_of, return_inverse=True)
        context = contexts[block_inputs]
        live = np.arange(len(input_of))  # rows of ``tokens`` still decoding
        # E[BOS] + E[prefix], summed in order as pool sums its rows
        prefix_sum = np.tile(self.E[BOS_ID], (len(context), 1))
        for step in range(max_len):
            logits = self._logits_rows(0.5 * (context + prefix_sum / (step + 1)))
            logits[:, SUPPRESSED] = -np.inf
            flat = logits.reshape(-1)  # a view: masking ``flat`` masks ``logits``
            at_row = np.arange(len(logits)) * logits.shape[1]
            # stable top-k, each pass masking its pick in place: logit
            # descending, id ascending, as argmax takes a tie's lowest id
            top = np.empty((k, len(logits)), dtype=np.intp)
            top_logits = np.empty((k, len(logits)))
            for j in range(k):
                pick = logits.argmax(axis=1)
                at = at_row + pick
                top[j], top_logits[j] = pick, flat[at]
                flat[at] = -np.inf
            # argmax takes a row's first NaN or inf: its pick is finite
            # only when the row's maximum is
            if not np.isfinite(top_logits[0]).all():
                raise ValueError("logits are not finite")
            top = top.T
            if k > 1:
                # C order, so that each row's weights sum as one row of k does
                top_logits = top_logits.T.copy()
                weights = np.exp(top_logits - top_logits[:, :1])
                weights /= weights.sum(axis=1, keepdims=True)
            if not step:  # step 0 ran once per distinct input: gather it to the rows
                context, prefix_sum, top = context[row_input], prefix_sum[row_input], top[row_input]
                if k > 1:
                    weights = weights[row_input]
            # greedy picks the top id, a draw one of the top k
            nxt = top[np.arange(len(live)), draw_index(weights, uniforms[:, step]) if k > 1 else 0]
            tokens[live, step] = nxt
            going = nxt != EOS_ID
            if not going.all():
                live, nxt = live[going], nxt[going]
                if not live.size:
                    break
                context, prefix_sum = context[going], prefix_sum[going]
                if k > 1:
                    uniforms = uniforms[going]
            prefix_sum += self.E[nxt]
        return [row[: row.index(EOS_ID)] for row in tokens.tolist()]

    def apply_gradients(self, grads: Gradients, lr: float) -> "ToyBackend":
        """Plain SGD step in place: theta <- theta - lr * grad."""
        if grads.E.shape != self.E.shape or grads.U.shape != self.U.shape or (
            grads.b.shape != self.b.shape
        ):
            raise ValueError("gradient shapes do not match parameters")
        self.E -= lr * grads.E
        self.U -= lr * grads.U
        self.b -= lr * grads.b
        return self

    def copy(self) -> "ToyBackend":
        clone = ToyBackend.__new__(ToyBackend)
        clone.vocab = self.vocab
        clone.d = self.d
        clone.seed = self.seed
        clone.E = self.E.copy()
        clone.U = self.U.copy()
        clone.b = self.b.copy()
        return clone


def save_checkpoint(
    backend: ToyBackend, path: str | Path, config_digest: str | None = None
) -> None:
    """JSON checkpoint, format 2: ``vocab``, ``d``, ``seed`` and
    ``config_digest`` as JSON values; ``E``, ``U`` and ``b`` each one
    string, the standard base64 of the array's little-endian float64
    bytes in row-major order, so parameters round-trip bit-exactly."""
    payload = {
        "format_version": 2,
        "vocab": backend.vocab.tokens,
        "d": backend.d,
        "seed": backend.seed,
        **{
            name: base64.b64encode(getattr(backend, name).astype("<f8").tobytes()).decode("ascii")
            for name in ("E", "U", "b")
        },
        "config_digest": config_digest,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: str | Path) -> ToyBackend:
    """The backend :func:`save_checkpoint` wrote, with writable native
    float64 parameters. ValueError starts with ``path`` when the file
    does not parse as JSON, and otherwise names the first field that is
    missing, of the wrong type, not strict base64 of whole float64
    values, of the wrong size or not finite. Format-1 files (decimal
    float lists) are not read."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    if payload.get("format_version") != 2:
        raise ValueError(f"unsupported checkpoint version {payload.get('format_version')}")
    for name in ("vocab", "d", "seed", "E", "U", "b"):
        if name not in payload:
            raise ValueError(f"checkpoint has no {name!r} field")
    tokens = payload["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError(f"checkpoint vocab must be a list of strings, got {tokens!r:.80}")
    vocab = Vocabulary([t for t in tokens if t not in SPECIALS])
    if vocab.tokens != tokens:
        raise ValueError("checkpoint vocabulary is not in canonical order")
    backend = ToyBackend.__new__(ToyBackend)
    backend.vocab = vocab
    for name in ("d", "seed"):
        value = payload[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"checkpoint {name} must be an integer, got {value!r:.80}")
        setattr(backend, name, value)
    for name in ("E", "U", "b"):
        text = payload[name]
        if not isinstance(text, str):
            raise ValueError(f"checkpoint {name} must be a base64 string, got {text!r:.80}")
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError as exc:
            raise ValueError(f"checkpoint {name} is not base64 ({exc})") from exc
        if len(raw) % 8:
            raise ValueError(f"checkpoint {name} holds {len(raw)} bytes, not whole float64s")
        setattr(backend, name, np.frombuffer(raw, "<f8").astype(float))
    if backend.d < 1:
        raise ValueError(f"checkpoint dimension d={backend.d} must be >= 1")
    v = len(vocab)
    for name, shape in (("E", (v, backend.d)), ("U", (v, backend.d)), ("b", (v,))):
        value = getattr(backend, name)
        if value.size != math.prod(shape):
            raise ValueError(f"checkpoint {name} has shape {value.shape}, expected {shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"checkpoint {name} holds non-finite values")
        setattr(backend, name, value.reshape(shape))
    return backend
