"""From-scratch n-gram evaluation: tokenizer, BLEU-1..4, ROUGE-L, METEOR-lite, CIDEr.

All scorers consume lowercase token lists produced by :func:`tokenize`.
CIDEr operates on Porter stems; METEOR-lite matches on exact surface
forms first and stems second, with no synonym or paraphrase stage.

Each (hypothesis, reference) pair's n-grams are counted once, into one
per-pair table (:class:`PairTable`): BLEU's clipped token n-gram
matches and totals, and each side's Porter-stem n-gram counts, for
n = 1..4. Corpus BLEU of any subset, sentence BLEU and CIDEr (document
frequencies and tf-idf vectors) all read those tables; :func:`bleu`
and :func:`cider` build them for their arguments.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .porter import stem

_TOKEN_RE = re.compile(r"'\w+|\w+|[^\w\s]")

ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
METEOR_BETA = 3.0
CIDER_MAX_N = 4

# the per-example columns of a report, each one score per pair
PAIR_METRICS = ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "meteor", "rouge_l", "cider")

# the min-chunk search stops after this many nodes and keeps the best
# alignment found (the greedy one at worst); pairs of 20-odd tokens over
# a handful of words can reach it, and meteor_lite then warns
_ALIGN_NODE_BUDGET = 500_000
# states the search remembers (about 8 MiB at most); past this many it
# only lowers known ones: it prunes less, but what it certifies is minimal
_ALIGN_SEEN_CAP = 65_536


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace with punctuation detached.

    Contraction suffixes stay glued to their apostrophe ("cat's" ->
    ["cat", "'s"]). Idempotent on its own space-joined output.
    """
    return _TOKEN_RE.findall(text.lower())


def ngram_counts(tokens: list[str], n: int) -> Counter:
    """Counts of each n-gram (a tuple), in order of first occurrence."""
    return Counter(zip(*(tokens[i:] for i in range(n))))


class _BleuCounts(NamedTuple):
    """One pair's BLEU statistics: lengths and, for n = 1..4, the
    hypothesis n-grams clipped by the reference counts and their total."""

    hyp_len: int
    ref_len: int
    matched: tuple[int, ...]
    total: tuple[int, ...]


def _bleu_counts(hyp: list[str], ref: list[str]) -> _BleuCounts:
    matched, total = [], []
    for n in range(1, 5):
        hyp_counts = ngram_counts(hyp, n)
        ref_counts = ngram_counts(ref, n)
        total.append(sum(hyp_counts.values()))
        matched.append(sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items()))
    return _BleuCounts(len(hyp), len(ref), tuple(matched), tuple(total))


class _StemGrams(NamedTuple):
    """A token list's Porter stems and their n-gram counts, n = 1..4:
    one CIDEr document and its term frequencies."""

    stems: tuple[str, ...]
    grams: tuple[Counter, ...]


def _stem_grams(tokens: list[str]) -> _StemGrams:
    stems = [stem(t) for t in tokens]
    return _StemGrams(
        tuple(stems), tuple(ngram_counts(stems, n) for n in range(1, CIDER_MAX_N + 1))
    )


class PairTable(NamedTuple):
    """One (hypothesis, reference) pair's n-grams, counted once: the
    BLEU statistics of its token n-grams and each side's stem n-grams."""

    bleu: _BleuCounts
    hyp: _StemGrams
    ref: _StemGrams


def bleu(
    hypotheses: list[list[str]],
    references: list[list[str]],
    max_n: int = 4,
) -> dict[int, float]:
    """Corpus BLEU-n for n = 1..max_n, one reference per hypothesis.

    Clipped n-gram precisions are aggregated over the whole corpus;
    BLEU-n = BP * exp(mean of ln p_1..p_n) with
    BP = min(1, exp(1 - r/c)). Any zero corpus-level precision gives
    score 0 for that n and above (no smoothing).
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    if not hypotheses:
        raise ValueError("empty corpus")
    if not 1 <= max_n <= 4:
        raise ValueError("max_n must be in 1..4")
    return _corpus_bleu([_bleu_counts(h, r) for h, r in zip(hypotheses, references)], max_n)


def _corpus_bleu(counts: list[_BleuCounts], max_n: int) -> dict[int, float]:
    """:func:`bleu` of the pairs whose statistics ``counts`` holds."""
    matched = [sum(c.matched[n] for c in counts) for n in range(max_n)]
    total = [sum(c.total[n] for c in counts) for n in range(max_n)]
    hyp_len = sum(c.hyp_len for c in counts)
    ref_len = sum(c.ref_len for c in counts)
    bp = 1.0 if hyp_len >= ref_len or hyp_len == 0 else math.exp(1.0 - ref_len / hyp_len)
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matched, total)]
    scores = {}
    for n in range(1, max_n + 1):
        if any(p == 0.0 for p in precisions[:n]):
            scores[n] = 0.0
        else:
            scores[n] = bp * math.exp(sum(math.log(p) for p in precisions[:n]) / n)
    return scores


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(hyp: list[str], ref: list[str]) -> float:
    """LCS F-score: P = LCS/|hyp|, R = LCS/|ref|, F = (1+b^2)PR/(R+b^2 P)
    with b = ``ROUGE_BETA``."""
    if not hyp or not ref:
        warnings.warn("rouge_l on empty sequence, scoring 0", stacklevel=2)
        return 0.0
    lcs = _lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return (1 + ROUGE_BETA**2) * p * r / (r + ROUGE_BETA**2 * p)


def _align(hyp_stems: list[str], ref_stems: list[str]) -> tuple[int, int, bool]:
    """Unigram alignment: maximal matches, then minimal chunks.

    Tokens match when their stems are equal (covers both the exact and
    the stem stage: equal surfaces have equal stems). The match count
    per stem class is min of the class counts on either side; among
    assignments achieving that cardinality, a depth-first branch and
    bound picks one with the fewest chunks (runs of pairs consecutive
    in both sentences). The incumbent starts at the greedy in-order
    alignment's chunk count, and the search runs only until it meets
    :func:`_chunk_lower_bound`. A node is pruned when the chunks it has
    opened, plus one unless its next match can extend the current
    chunk, already reach the incumbent, or when the same state was
    reached before with no more chunks. Returns (matches, chunks,
    exact); ``exact`` is False when the search ran out of its node
    budget short of the bound, and the chunk count is then the best
    found, not certified minimal.
    """
    hyp_counter = Counter(hyp_stems)
    ref_counter = Counter(ref_stems)
    quota = {
        s: min(c, ref_counter[s]) for s, c in hyp_counter.items() if s in ref_counter
    }
    m = sum(quota.values())
    if m == 0:
        return 0, 0, True

    n_ref = len(ref_stems)
    ref_by_stem: dict[str, list[int]] = {}
    for j, s in enumerate(ref_stems):
        if s in quota:
            ref_by_stem.setdefault(s, []).append(j)
    best_chunks = _greedy_chunks(hyp_stems, ref_by_stem, quota)
    lower = _chunk_lower_bound(hyp_stems, ref_stems, m)
    if best_chunks == lower:
        return m, best_chunks, True
    # hyp occurrences of each needed stem remaining at position i or later
    remaining = [Counter() for _ in range(len(hyp_stems) + 1)]
    for i in range(len(hyp_stems) - 1, -1, -1):
        remaining[i] = remaining[i + 1].copy()
        if hyp_stems[i] in quota:
            remaining[i][hyp_stems[i]] += 1

    nodes = 0
    need = dict(quota)  # matches each stem still has to place
    # fewest chunks seen per state (i, used ref positions, ref position
    # matched at i - 1 or -1); ``need`` follows from ``used``
    seen: dict[tuple[int, int, int], int] = {}

    def dfs(i: int, left: int, used: int, chunks: int, last_j: int):
        nonlocal best_chunks, nodes
        nodes += 1
        if nodes > _ALIGN_NODE_BUDGET or best_chunks == lower:
            return
        if left == 0:
            best_chunks = min(best_chunks, chunks)
            return
        s = hyp_stems[i]
        n_s = need.get(s, 0)
        nxt = last_j + 1 if last_j >= 0 else -1  # the ref position that extends the chunk
        extends = 0 <= nxt < n_ref and n_s > 0 and ref_stems[nxt] == s and not used >> nxt & 1
        if chunks + (0 if extends else 1) >= best_chunks:
            return
        key = (i, used, last_j)
        prev = seen.get(key)
        if prev is not None and prev <= chunks:
            return
        if prev is not None or len(seen) < _ALIGN_SEEN_CAP:
            seen[key] = chunks
        if n_s > 0:
            need[s] = n_s - 1
            for j in ref_by_stem[s]:
                if not used >> j & 1:
                    dfs(i + 1, left - 1, used | 1 << j, chunks + (0 if j == nxt else 1), j)
            need[s] = n_s
        # skipping position i is allowed only if later occurrences still cover the quota
        if remaining[i + 1].get(s, 0) >= n_s:
            dfs(i + 1, left, used, chunks, -1)

    dfs(0, m, 0, 0, -1)
    return m, best_chunks, best_chunks == lower or nodes <= _ALIGN_NODE_BUDGET


def _chunk_lower_bound(hyp_stems, ref_stems, m: int) -> int:
    """Fewest chunks of ``m`` matches: a chunk goes on from hypothesis
    position i to i + 1 only over a stem bigram of both sides, and each
    reference bigram serves one, so at most m - 1 and the shared bigrams do."""
    shared = Counter(zip(hyp_stems, hyp_stems[1:])) & Counter(zip(ref_stems, ref_stems[1:]))
    return m - min(m - 1, sum(shared.values()))


def _greedy_chunks(hyp_stems, ref_by_stem, quota) -> int:
    """Chunks of the in-order alignment: each hypothesis stem, while its
    quota lasts, takes the first reference position of its stem not yet
    taken."""
    free = {s: js[: quota[s]] for s, js in ref_by_stem.items()}
    chunks, last = 0, (-2, -2)
    for i, s in enumerate(hyp_stems):
        if free.get(s):
            j = free[s].pop(0)
            chunks += (i, j) != (last[0] + 1, last[1] + 1)
            last = (i, j)
    return chunks


def meteor_lite(hyp: list[str], ref: list[str]) -> float:
    """METEOR restricted to exact + stem matching.

    F_mean = PR / (alpha*P + (1-alpha)*R), penalty = gamma*(chunks/m)^beta,
    score = F_mean * (1 - penalty); 0 when no unigram matches. alpha,
    gamma and beta are ``METEOR_ALPHA``, ``METEOR_GAMMA`` and
    ``METEOR_BETA``.
    """
    return _meteor([stem(t) for t in hyp], [stem(t) for t in ref], stacklevel=3)


def _meteor(hyp_stems, ref_stems, stacklevel: int = 2) -> float:
    """:func:`meteor_lite` on the Porter stems of the two token lists;
    its warnings point ``stacklevel`` frames up."""
    if not hyp_stems or not ref_stems:
        warnings.warn("meteor_lite on empty sequence, scoring 0", stacklevel=stacklevel)
        return 0.0
    m, chunks, exact = _align(hyp_stems, ref_stems)
    if not exact:
        warnings.warn(
            "meteor_lite alignment search hit its node budget; "
            "the chunk count is not certified minimal",
            stacklevel=stacklevel,
        )
    if m == 0:
        return 0.0
    p = m / len(hyp_stems)
    r = m / len(ref_stems)
    f_mean = p * r / (METEOR_ALPHA * p + (1 - METEOR_ALPHA) * r)
    penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
    return f_mean * (1 - penalty)


def _tfidf_vec(counts: Counter, idf: dict, unseen: float) -> dict:
    return {g: c * idf.get(g, unseen) for g, c in counts.items()}


def _cosine(u: dict, v: dict) -> float:
    nu = math.sqrt(sum(x * x for x in u.values()))
    nv = math.sqrt(sum(x * x for x in v.values()))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(x * v[g] for g, x in u.items() if g in v)
    return dot / (nu * nv)


def cider(
    hypotheses: list[list[str]],
    references: list[list[str]],
    idf_corpus: list[list[str]] | None = None,
) -> tuple[float, list[float]]:
    """CIDEr over stemmed n-grams (n = 1..4), TF * ln(|I|/df) weighting.

    Per pair, score_n = 10 * cosine(hyp vector, ref vector) with 0 for
    an all-zero vector; the pair score averages over n and the corpus
    score averages over pairs. Document frequencies come from
    ``idf_corpus`` (default: the references).

    Returns (corpus_score, per_pair_scores).
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    refs = [_stem_grams(r) for r in references]
    docs = refs if idf_corpus is None else [_stem_grams(d) for d in idf_corpus]
    return _cider([_stem_grams(h) for h in hypotheses], refs, docs)


def _cider(hyps: list[_StemGrams], refs: list[_StemGrams], docs: list[_StemGrams]):
    """:func:`cider` of the pairs (hyps[i], refs[i]) with document
    frequencies from ``docs``."""
    if len({d.stems for d in docs}) < 2:
        raise ValueError(
            "cider needs an idf corpus with at least 2 distinct reference "
            "documents; pass idf_corpus covering the evaluation set"
        )
    n_docs = len(docs)
    unseen = math.log(n_docs)  # an unseen gram's df is floored at 1
    idf_by_n = []
    for n in range(CIDER_MAX_N):
        df = Counter()
        for d in docs:
            df.update(d.grams[n].keys())
        idf_by_n.append({g: math.log(n_docs / max(c, 1)) for g, c in df.items()})

    per_pair = []
    for hyp, ref in zip(hyps, refs):
        total = 0.0
        for n, idf in enumerate(idf_by_n):
            hv = _tfidf_vec(hyp.grams[n], idf, unseen)
            rv = _tfidf_vec(ref.grams[n], idf, unseen)
            total += 10.0 * _cosine(hv, rv)
        per_pair.append(total / CIDER_MAX_N)
    return sum(per_pair) / len(per_pair), per_pair


@dataclass
class MetricReport:
    """Corpus scores plus optional per-example and per-stratum views."""

    bleu: dict[int, float]
    meteor: float
    rouge_l: float
    cider: float | None
    n_examples: int
    per_example: dict[str, dict[str, float]] | None = None
    strata: dict[str, "MetricReport"] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "n_examples": self.n_examples,
            "bleu": {f"bleu_{n}": v for n, v in sorted(self.bleu.items())},
            "meteor": self.meteor,
            "rouge_l": self.rouge_l,
            "cider": self.cider,
        }
        if self.per_example is not None:
            out["per_example"] = self.per_example
        if self.strata:
            out["strata"] = {k: v.to_dict() for k, v in sorted(self.strata.items())}
        return out


def stratify(ids: list[str], labels: dict[str, str]) -> list[tuple[str, list[int]]]:
    """Positions in ``ids`` of each stratum's items, strata sorted by
    label and items kept in order; every id needs a label and every
    label an id."""
    known = set(ids)
    for ex_id in labels:
        if ex_id not in known:
            raise ValueError(f"strata label references unknown id {ex_id!r}")
    missing = [ex_id for ex_id in ids if ex_id not in labels]
    if missing:
        raise ValueError(f"ids without a stratum label: {missing[:5]}")
    by_label: dict[str, list[int]] = {}
    for i, ex_id in enumerate(ids):
        by_label.setdefault(labels[ex_id], []).append(i)
    return sorted(by_label.items())


def score_corpus(
    pairs: list[tuple[str, str]],
    ids: list[str] | None = None,
    strata_labels: dict[str, str] | None = None,
    with_per_example: bool = False,
) -> MetricReport:
    """Score (hypothesis, reference) raw-text pairs.

    BLEU is corpus-aggregated; METEOR-lite, ROUGE-L and CIDEr corpus
    values are means over pairs, CIDEr with document frequencies from
    the full reference set. Each pair is tokenized and scored once, and
    its n-grams are counted once into its :class:`PairTable`, which the
    corpus BLEU, the sentence BLEU and the CIDEr of every (sub-)report
    read. When ``strata_labels`` maps every id to a label, each
    stratum's sub-report equals the report of that subset alone: only
    its corpus BLEU and its CIDEr (own idf corpus) are recomputed, from
    the tables. CIDEr degrades to None with a warning when the
    reference set has fewer than 2 distinct documents.
    """
    if not pairs:
        raise ValueError("empty corpus")
    if ids is None:
        ids = [str(i) for i in range(len(pairs))]
    if len(ids) != len(pairs):
        raise ValueError("ids must align with pairs")
    if len(set(ids)) != len(ids):
        repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise ValueError(f"repeated id {repeated!r}")

    hyps = [tokenize(h) for h, _ in pairs]
    refs = [tokenize(r) for _, r in pairs]
    tables = [
        PairTable(_bleu_counts(h, r), _stem_grams(h), _stem_grams(r)) for h, r in zip(hyps, refs)
    ]
    meteor_scores = [_meteor(t.hyp.stems, t.ref.stems) for t in tables]
    rouge_scores = [rouge_l(h, r) for h, r in zip(hyps, refs)]
    sentence_bleu = [_corpus_bleu([t.bleu], 4) for t in tables] if with_per_example else None

    def report_for(idxs) -> MetricReport:
        sub = [tables[i] for i in idxs]
        cider_corpus, cider_scores = _cider_or_skip(
            [t.hyp for t in sub], [t.ref for t in sub], stacklevel=4
        )
        per_example = None
        if with_per_example:
            per_example = {
                ids[i]: {
                    **{f"bleu_{n}": v for n, v in sentence_bleu[i].items()},
                    "meteor": meteor_scores[i],
                    "rouge_l": rouge_scores[i],
                    "cider": pair_cider,
                }
                for i, pair_cider in zip(idxs, cider_scores)
            }
        return MetricReport(
            bleu=_corpus_bleu([t.bleu for t in sub], 4),
            meteor=sum(meteor_scores[i] for i in idxs) / len(idxs),
            rouge_l=sum(rouge_scores[i] for i in idxs) / len(idxs),
            cider=cider_corpus,
            n_examples=len(idxs),
            per_example=per_example,
        )

    report = report_for(range(len(pairs)))
    if strata_labels is not None:
        for label, idxs in stratify(ids, strata_labels):
            report.strata[label] = report_for(idxs)
    return report


def pair_scores(pairs: list[tuple[str, str]], metric: str) -> list[float | None]:
    """One column of :func:`score_corpus`'s per-example table, scored by
    the same functions for each (hypothesis, reference) raw-text pair:
    ``bleu_1``..``bleu_4`` (sentence BLEU), ``meteor``, ``rouge_l`` or
    ``cider``, whose document frequencies come from all the pairs'
    references (None for every pair when CIDEr is skipped)."""
    if metric not in PAIR_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not pairs:
        raise ValueError("empty corpus")
    hyps = [tokenize(h) for h, _ in pairs]
    refs = [tokenize(r) for _, r in pairs]
    if metric == "meteor":
        return [meteor_lite(h, r) for h, r in zip(hyps, refs)]
    if metric == "rouge_l":
        return [rouge_l(h, r) for h, r in zip(hyps, refs)]
    if metric == "cider":
        return _cider_or_skip(
            [_stem_grams(h) for h in hyps], [_stem_grams(r) for r in refs], stacklevel=3
        )[1]
    n = int(metric.removeprefix("bleu_"))
    return [bleu([h], [r], max_n=n)[n] for h, r in zip(hyps, refs)]


def _cider_or_skip(hyps, refs, stacklevel: int) -> tuple[float | None, list[float | None]]:
    """:func:`_cider` with the references as its documents, or None for
    the corpus and every pair, with a warning, when the references have
    fewer than 2 distinct documents."""
    try:
        return _cider(hyps, refs, refs)
    except ValueError:
        warnings.warn(
            "cider skipped: fewer than 2 distinct reference documents", stacklevel=stacklevel
        )
        return None, [None] * len(hyps)
