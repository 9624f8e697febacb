"""Independent brute-force oracles for the test suite.

These deliberately avoid the library's code paths: naive nested loops,
exhaustive search and numerical quadrature, mirroring only the
documented definitions. Slow on purpose; test fixtures stay small.
"""

from __future__ import annotations

import math

import numpy as np

from inferbench.porter import stem


def bf_ngrams(tokens, n):
    grams = []
    for i in range(len(tokens) - n + 1):
        grams.append(tuple(tokens[i : i + n]))
    return grams


def bf_bleu(hyps, refs, max_n=4):
    matched = [0.0] * max_n
    total = [0.0] * max_n
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hyp_grams = bf_ngrams(hyp, n)
            ref_grams = bf_ngrams(ref, n)
            for gram in set(hyp_grams):
                h_count = sum(1 for g in hyp_grams if g == gram)
                r_count = sum(1 for g in ref_grams if g == gram)
                matched[n - 1] += min(h_count, r_count)
            total[n - 1] += len(hyp_grams)
    bp = 1.0 if c >= r or c == 0 else math.exp(1.0 - r / c)
    out = {}
    for n in range(1, max_n + 1):
        ps = []
        for j in range(n):
            ps.append(matched[j] / total[j] if total[j] > 0 else 0.0)
        if any(p == 0.0 for p in ps):
            out[n] = 0.0
        else:
            out[n] = bp * math.exp(sum(math.log(p) for p in ps) / n)
    return out


def bf_lcs(a, b):
    if not a or not b:
        return 0
    if a[-1] == b[-1]:
        return 1 + bf_lcs(a[:-1], b[:-1])
    return max(bf_lcs(a[:-1], b), bf_lcs(a, b[:-1]))


def bf_rouge_l(hyp, ref, beta=1.2):
    if not hyp or not ref:
        return 0.0
    lcs = bf_lcs(tuple(hyp), tuple(ref))
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


def bf_meteor(hyp, ref, alpha=0.9, gamma=0.5, beta=3.0):
    """METEOR-lite of the alignment :func:`bf_alignment` finds."""
    m, ch = bf_alignment(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (alpha * p + (1 - alpha) * r)
    return f_mean * (1 - gamma * (ch / m) ** beta)


def bf_alignment(hyp, ref):
    """Exhaustive alignment search: every injective stem-compatible
    mapping, keeping (max matches, then min chunks)."""
    hs = [stem(t) for t in hyp]
    rs = [stem(t) for t in ref]
    best = [0, 0]  # matches, chunks

    def chunks_of(pairs):
        count = 0
        last = None
        for i, j in pairs:
            if last is None or i != last[0] + 1 or j != last[1] + 1:
                count += 1
            last = (i, j)
        return count

    def explore(i, used, pairs):
        if i == len(hs):
            m = len(pairs)
            ch = chunks_of(pairs)
            if m > best[0] or (m == best[0] and (best[0] == 0 or ch < best[1])):
                best[0], best[1] = m, ch
            return
        explore(i + 1, used, pairs)
        for j in range(len(rs)):
            if j not in used and rs[j] == hs[i]:
                explore(i + 1, used | {j}, pairs + [(i, j)])

    explore(0, frozenset(), [])
    return tuple(best)


def bf_cider(hyps, refs):
    stemmed_refs = [[stem(t) for t in ref] for ref in refs]
    n_docs = len(stemmed_refs)
    per_pair = []
    for hyp, ref in zip(hyps, refs):
        hs = [stem(t) for t in hyp]
        rs = [stem(t) for t in ref]
        total = 0.0
        for n in range(1, 5):
            h_grams = bf_ngrams(hs, n)
            r_grams = bf_ngrams(rs, n)
            vocab = sorted(set(h_grams) | set(r_grams))
            hv, rv = [], []
            for gram in vocab:
                df = 0
                for doc in stemmed_refs:
                    if gram in bf_ngrams(doc, n):
                        df += 1
                idf = math.log(n_docs / max(df, 1))
                hv.append(sum(1 for g in h_grams if g == gram) * idf)
                rv.append(sum(1 for g in r_grams if g == gram) * idf)
            nh = math.sqrt(sum(x * x for x in hv))
            nr = math.sqrt(sum(x * x for x in rv))
            if nh > 0 and nr > 0:
                total += 10.0 * sum(a * b for a, b in zip(hv, rv)) / (nh * nr)
        per_pair.append(total / 4.0)
    return sum(per_pair) / len(per_pair), per_pair


def bf_fleiss_kappa(table):
    table = [list(map(float, row)) for row in table]
    n = sum(table[0])
    big_n = len(table)
    p_bar = 0.0
    for row in table:
        p_bar += (sum(c * c for c in row) - n) / (n * (n - 1))
    p_bar /= big_n
    p_e = 0.0
    for j in range(len(table[0])):
        pj = sum(row[j] for row in table) / (big_n * n)
        p_e += pj * pj
    return (p_bar - p_e) / (1 - p_e)


def _t_pdf(x, df):
    return math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log(1.0 + x * x / df)
    )


def _simpson(f, a, b, fa, fm, fb):
    m = (a + b) / 2.0
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, b, fa, fm, fb, whole, eps, depth):
    m = (a + b) / 2.0
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    if depth <= 0 or abs(left + right - whole) < 15 * eps:
        return left + right + (left + right - whole) / 15.0
    return _adaptive(f, a, m, fa, flm, fm, left, eps / 2.0, depth - 1) + _adaptive(
        f, m, b, fm, frm, fb, right, eps / 2.0, depth - 1
    )


def bf_t_two_sided_p(t, df):
    """Two-sided p by adaptive-Simpson quadrature of the t density."""
    if t == 0.0:
        return 1.0
    a, b = -abs(t), abs(t)
    f = lambda x: _t_pdf(x, df)
    fa, fb = f(a), f(b)
    fm = f(0.0)
    whole = _simpson(f, a, b, fa, fm, fb)
    inner = _adaptive(f, a, b, fa, fm, fb, whole, 1e-13, 48)
    return 1.0 - inner


def bf_perplexity(backend, dataset, template_id="default"):
    from inferbench.corpus import prepare_input_text
    from inferbench.metrics import tokenize

    total_nll = 0.0
    total_tokens = 0
    for ex in dataset:
        input_ids = backend.vocab.encode(tokenize(prepare_input_text(ex, template_id)))
        answer_ids = backend.vocab.encode(tokenize(ex.answer) + ["<eos>"])
        for j, gold in enumerate(answer_ids):
            prefix = backend.vocab.encode(["<bos>"]) + answer_ids[:j]
            if input_ids:
                c = sum(backend.E[t] for t in input_ids) / len(input_ids)
            else:
                c = np.zeros(backend.d)
            p = sum(backend.E[t] for t in prefix) / len(prefix)
            logits = backend.U @ (0.5 * (c + p)) + backend.b
            probs = np.exp(logits) / np.exp(logits).sum()
            total_nll -= math.log(probs[gold])
            total_tokens += 1
    return math.exp(total_nll / total_tokens)


def bf_replace_positions(scorer, example, threshold, template_id="default"):
    """Recompute both conditional scores per gold position directly from
    the parameters and select positions above the threshold."""
    from inferbench.corpus import prepare_input_text
    from inferbench.metrics import tokenize

    answer_ids = scorer.vocab.encode(tokenize(example.answer))
    context_ids = scorer.vocab.encode(tokenize(prepare_input_text(example, template_id)))
    deltas = []
    for j, gold in enumerate(answer_ids):
        rest = [t for i, t in enumerate(answer_ids) if i != j]
        scores = []
        for window in (context_ids + rest, rest):
            if window:
                mean = sum(scorer.E[t] for t in window) / len(window)
            else:
                mean = np.zeros(scorer.d)
            logits = scorer.U @ mean + scorer.b
            log_probs = logits - math.log(np.exp(logits).sum())
            scores.append(log_probs[gold])
        deltas.append(abs(scores[0] - scores[1]))
    selected = [j for j, d in enumerate(deltas) if d > threshold]
    if not selected:
        selected = [max(range(len(deltas)), key=lambda j: (deltas[j], -j))]
    return selected


def _bf_mean_row(E, ids, d):
    """Mean of the E rows of ``ids``, the zero vector for no ids."""
    total = [0.0] * d
    for t in ids:
        for k in range(d):
            total[k] += E[t][k]
    return [x / max(len(ids), 1) for x in total]


def _bf_cosine(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))


def _bf_xent(logits, target):
    """-log softmax(logits)[target], shifted by the largest logit."""
    top = max(logits)
    return top + math.log(sum(math.exp(z - top) for z in logits)) - logits[target]


def bf_total_loss(backend, enc, config):
    """The composite objective (nll, cl_b, cl_s, total) of an encoded
    batch by its definition, one example and one token at a time.

    ``enc`` holds per example the input ids, the answer ids ending in
    EOS and the ids of each negative (``None`` without negatives);
    ``config`` the temperatures and weights. With pooled means
    c = mean E[input], a = mean E[answer without EOS], n_k = mean
    E[negative k] (zero for no ids):

    * nll: for each answer token j (EOS included), -log softmax of
      U s + b at the token, s = (c + mean E[BOS, answer[:j]]) / 2;
      summed over the tokens, averaged over the batch;
    * cl_b (lambda_b > 0 and at least two examples): for each example i,
      -log of exp(cos(c_i, a_i) / tau_b) over the sum of
      exp(cos(c_i, a_j) / tau_b) for every j, i included; summed, then
      divided by the batch size;
    * cl_s (lambda_s > 0): for each example, -log of
      exp(cos(c, a) / tau_s) over the same plus the sum of
      exp(cos(c, n_k) / tau_s); averaged over the batch.

    A zero vector that enters a cosine raises ValueError naming it, as
    does lambda_s > 0 with an example that has no negative.
    """
    E, U, b = backend.E.tolist(), backend.U.tolist(), backend.b.tolist()
    d, bos = backend.d, backend.vocab.encode(["<bos>"])[0]
    ids_of = enc.example_ids
    n = len(ids_of)
    if n == 0:
        raise ValueError("empty batch")
    inputs = [[int(t) for t in ids] for ids in enc.inputs]
    answers = [[int(t) for t in ids] for ids in enc.answers]
    negatives = enc.negatives and [[[int(t) for t in ids] for ids in row] for row in enc.negatives]
    sample = config.lambda_s > 0
    in_batch = config.lambda_b > 0 and n >= 2
    if sample and (negatives is None or any(len(row) == 0 for row in negatives)):
        raise ValueError("lambda_s > 0 requires >= 1 negative per example")

    nll = 0.0
    for input_ids, answer in zip(inputs, answers):
        c = _bf_mean_row(E, input_ids, d)
        for j, gold in enumerate(answer):
            p = _bf_mean_row(E, [bos] + answer[:j], d)
            s = [0.5 * (c[k] + p[k]) for k in range(d)]
            logits = [sum(U[v][k] * s[k] for k in range(d)) + b[v] for v in range(len(b))]
            nll += _bf_xent(logits, gold)
    nll /= n

    cl_b = cl_s = 0.0
    if sample or in_batch:
        pooled = [(f"input of {i}", _bf_mean_row(E, ids, d)) for i, ids in zip(ids_of, inputs)]
        for i, ids in zip(ids_of, answers):
            pooled.append((f"answer of {i}", _bf_mean_row(E, ids[:-1], d)))
        if sample:
            for i, row in zip(ids_of, negatives):
                for k, ids in enumerate(row):
                    pooled.append((f"negative {k} of {i}", _bf_mean_row(E, ids, d)))
        for name, v in pooled:
            if not any(v):
                raise ValueError(f"zero embedding for {name}")
        h_x = [v for _, v in pooled[:n]]
        h_a = [v for _, v in pooled[n : 2 * n]]
        if in_batch:
            for i in range(n):
                row = [_bf_cosine(h_x[i], h_a[j]) / config.tau_b for j in range(n)]
                cl_b += _bf_xent(row, i)
            cl_b /= n
        if sample:
            h_n = iter(v for _, v in pooled[2 * n :])
            for i in range(n):
                row = [_bf_cosine(h_x[i], h_a[i]) / config.tau_s]
                row += [_bf_cosine(h_x[i], next(h_n)) / config.tau_s for _ in negatives[i]]
                cl_s += _bf_xent(row, 0)
            cl_s /= n
    return nll, cl_b, cl_s, nll + config.lambda_b * cl_b + config.lambda_s * cl_s


def bf_validation_margin(backend, examples, template_id="default"):
    """Mean over the examples of cos(input, gold answer) minus the largest
    cos(input, counterfactual), one example and one text at a time, each
    text embedded as the mean of its tokens' E rows (the answer without
    EOS)."""
    from inferbench.corpus import prepare_input_text
    from inferbench.metrics import tokenize

    E, d = backend.E.tolist(), backend.d

    def embed(text):
        return _bf_mean_row(E, backend.vocab.encode(tokenize(text)), d)

    total = 0.0
    for ex in examples:
        h_x = embed(prepare_input_text(ex, template_id))
        hardest = max(_bf_cosine(h_x, embed(cf)) for cf in ex.counterfactuals)
        total += _bf_cosine(h_x, embed(ex.answer)) - hardest
    return total / len(examples)
