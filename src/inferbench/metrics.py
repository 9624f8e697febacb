"""From-scratch n-gram evaluation: tokenizer, BLEU-1..4, ROUGE-L, METEOR-lite, CIDEr.

All scorers consume lowercase token lists produced by :func:`tokenize`.
CIDEr operates on Porter stems; METEOR-lite matches on exact surface
forms first and stems second, with no synonym or paraphrase stage.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass, field

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
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


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

    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = ngram_counts(hyp, n)
            ref_counts = ngram_counts(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items()
            )

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


def rouge_l(hyp: list[str], ref: list[str], beta: float = ROUGE_BETA) -> float:
    """LCS F-score: P = LCS/|hyp|, R = LCS/|ref|, F = (1+b^2)PR/(R+b^2 P)."""
    if not hyp or not ref:
        warnings.warn("rouge_l on empty sequence, scoring 0", stacklevel=2)
        return 0.0
    lcs = _lcs_length(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return (1 + beta**2) * p * r / (r + beta**2 * p)


def _align(hyp_stems: list[str], ref_stems: list[str]) -> tuple[int, int, bool]:
    """Unigram alignment: maximal matches, then minimal chunks.

    Tokens match when their stems are equal (covers both the exact and
    the stem stage: equal surfaces have equal stems). The match count
    per stem class is min of the class counts on either side; among
    assignments achieving that cardinality, a depth-first branch and
    bound picks one with the fewest chunks (runs of pairs consecutive
    in both sentences). The incumbent starts at the greedy in-order
    alignment's chunk count; a node is pruned when the chunks it has
    opened, plus one unless its next match can extend the current
    chunk, already reach the incumbent, or when the same state was
    reached before with no more chunks. Returns (matches, chunks,
    exact); ``exact`` is False when the search ran out of its node
    budget, and the chunk count is then the best found, not certified
    minimal.
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
    # hyp occurrences of each needed stem remaining at position i or later
    remaining = [Counter() for _ in range(len(hyp_stems) + 1)]
    for i in range(len(hyp_stems) - 1, -1, -1):
        remaining[i] = remaining[i + 1].copy()
        if hyp_stems[i] in quota:
            remaining[i][hyp_stems[i]] += 1

    best_chunks = _greedy_chunks(hyp_stems, ref_stems, quota)
    nodes = 0
    need = dict(quota)  # matches each stem still has to place
    # fewest chunks seen per state (i, used ref positions, ref position
    # matched at i - 1 or -1); ``need`` follows from ``used``
    seen: dict[tuple[int, int, int], int] = {}

    def dfs(i: int, left: int, used: int, chunks: int, last_j: int):
        nonlocal best_chunks, nodes
        nodes += 1
        if nodes > _ALIGN_NODE_BUDGET:
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
    return m, best_chunks, nodes <= _ALIGN_NODE_BUDGET


def _greedy_chunks(hyp_stems, ref_stems, quota) -> int:
    need = dict(quota)
    used = set()
    pairs = []
    for i, s in enumerate(hyp_stems):
        if need.get(s, 0) <= 0:
            continue
        for j, r in enumerate(ref_stems):
            if r == s and j not in used:
                used.add(j)
                need[s] -= 1
                pairs.append((i, j))
                break
    chunks = 0
    last = None
    for i, j in pairs:
        if last is None or i != last[0] + 1 or j != last[1] + 1:
            chunks += 1
        last = (i, j)
    return chunks


def meteor_lite(
    hyp: list[str],
    ref: list[str],
    alpha: float = METEOR_ALPHA,
    gamma: float = METEOR_GAMMA,
    beta: float = METEOR_BETA,
) -> float:
    """METEOR restricted to exact + stem matching.

    F_mean = PR / (alpha*P + (1-alpha)*R), penalty = gamma*(chunks/m)^beta,
    score = F_mean * (1 - penalty); 0 when no unigram matches.
    """
    if not hyp or not ref:
        warnings.warn("meteor_lite on empty sequence, scoring 0", stacklevel=2)
        return 0.0
    m, chunks, exact = _align([stem(t) for t in hyp], [stem(t) for t in ref])
    if not exact:
        warnings.warn(
            "meteor_lite alignment search hit its node budget; "
            "the chunk count is not certified minimal",
            stacklevel=2,
        )
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (alpha * p + (1 - alpha) * r)
    penalty = gamma * (chunks / m) ** beta
    return f_mean * (1 - penalty)


def _stem_doc(tokens: list[str]) -> list[str]:
    return [stem(t) for t in tokens]


def _tfidf_vec(stems: list[str], n: int, idf: dict, n_docs: int) -> dict:
    counts = ngram_counts(stems, n)
    return {
        g: c * idf.get(g, math.log(n_docs))  # unseen gram: df floored at 1
        for g, c in counts.items()
    }


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
    docs = idf_corpus if idf_corpus is not None else references
    stemmed_docs = [_stem_doc(d) for d in docs]
    if len({tuple(d) for d in stemmed_docs}) < 2:
        raise ValueError(
            "cider needs an idf corpus with at least 2 distinct reference "
            "documents; pass idf_corpus covering the evaluation set"
        )
    n_docs = len(stemmed_docs)
    idf_by_n = []
    for n in range(1, CIDER_MAX_N + 1):
        df = Counter()
        for d in stemmed_docs:
            df.update(set(ngram_counts(d, n)))
        idf_by_n.append({g: math.log(n_docs / max(c, 1)) for g, c in df.items()})

    per_pair = []
    for hyp, ref in zip(hypotheses, references):
        hs, rs = _stem_doc(hyp), _stem_doc(ref)
        total = 0.0
        for n in range(1, CIDER_MAX_N + 1):
            hv = _tfidf_vec(hs, n, idf_by_n[n - 1], n_docs)
            rv = _tfidf_vec(rs, n, idf_by_n[n - 1], n_docs)
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
    the full reference set. Each pair is tokenized and scored once.
    When ``strata_labels`` maps every id to a label, each stratum's
    sub-report equals the report of that subset alone: only its corpus
    BLEU and its CIDEr (own idf corpus) are recomputed. CIDEr degrades
    to None with a warning when the reference set has fewer than 2
    distinct documents.
    """
    if not pairs:
        raise ValueError("empty corpus")
    if ids is None:
        ids = [str(i) for i in range(len(pairs))]
    if len(ids) != len(pairs):
        raise ValueError("ids must align with pairs")

    hyps = [tokenize(h) for h, _ in pairs]
    refs = [tokenize(r) for _, r in pairs]
    meteor_scores = [meteor_lite(h, r) for h, r in zip(hyps, refs)]
    rouge_scores = [rouge_l(h, r) for h, r in zip(hyps, refs)]
    sentence_bleu = [bleu([h], [r]) for h, r in zip(hyps, refs)] if with_per_example else None

    def report_for(idxs) -> MetricReport:
        sub_hyps = [hyps[i] for i in idxs]
        sub_refs = [refs[i] for i in idxs]
        cider_corpus, cider_scores = _cider_or_skip(sub_hyps, sub_refs, stacklevel=4)
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
            bleu=bleu(sub_hyps, sub_refs),
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
        return _cider_or_skip(hyps, refs, stacklevel=3)[1]
    n = int(metric.removeprefix("bleu_"))
    return [bleu([h], [r], max_n=n)[n] for h, r in zip(hyps, refs)]


def _cider_or_skip(hyps, refs, stacklevel: int) -> tuple[float | None, list[float | None]]:
    """:func:`cider`, or None for the corpus and every pair, with a
    warning, when the references have fewer than 2 distinct documents."""
    try:
        return cider(hyps, refs)
    except ValueError:
        warnings.warn(
            "cider skipped: fewer than 2 distinct reference documents", stacklevel=stacklevel
        )
        return None, [None] * len(hyps)
