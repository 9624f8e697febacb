"""Output checks, run after every op outside the timed region.

Each ``check_*`` returns a list of error strings; an empty list means
the op's outputs are correct.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import bruteforce
from inferbench.jsonio import read_jsonl
from inferbench.metrics import tokenize

ORACLE_TOL = 1e-9
# the exhaustive METEOR oracle visits up to this many alignments
# (product over hypothesis tokens of 1 + matching reference tokens)
METEOR_ORACLE_LEAVES = 200_000


def digest_tree(path: Path) -> str:
    """sha256 over every file below ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def check_steps(path: Path, lambda_b: float, lambda_s: float) -> list[str]:
    """total = nll + lambda_b * cl_b + lambda_s * cl_s in every step row.

    Rows are rounded to 12 significant digits, hence the tolerance."""
    rows = read_jsonl(path)
    if not rows:
        return [f"{path.name}: no steps"]
    errors = []
    for row in rows:
        expect = row["nll"] + lambda_b * row["cl_b"] + lambda_s * row["cl_s"]
        if abs(row["total"] - expect) > 1e-10 * max(1.0, abs(expect)):
            errors.append(f"step {row['step']}: total {row['total']} != {expect}")
    return errors


def check_perplexity_fell(best: float, initial: float) -> list[str]:
    if not best < initial:
        return [f"validation perplexity {best} did not fall below {initial}"]
    return []


def check_gradcheck(report: dict, n_params: int) -> list[str]:
    if report["n_checked"] != n_params:
        return [f"gradcheck checked {report['n_checked']} of {n_params} parameters"]
    return []


def _meteor_leaves(hyp: list[str], ref: list[str]) -> int:
    ref_stems = [bruteforce.stem(t) for t in ref]
    leaves = 1
    for t in hyp:
        leaves *= 1 + ref_stems.count(bruteforce.stem(t))
    return leaves


def check_scores(report: dict, hyps: dict[str, str], refs: dict[str, str],
                 sample: list[str]) -> tuple[list[str], int]:
    """Compare the per-example scores of ``sample`` ids with the
    brute-force oracles. Returns (errors, pairs whose METEOR was
    checked); METEOR is skipped where the exhaustive search is too big."""
    ids = list(refs)
    hyp_tokens = [tokenize(hyps[i]) for i in ids]
    ref_tokens = [tokenize(refs[i]) for i in ids]
    _, cider_pairs = bruteforce.bf_cider(hyp_tokens, ref_tokens)
    # memoized so the recursive LCS oracle stays polynomial; same values
    plain_lcs = bruteforce.bf_lcs
    bruteforce.bf_lcs = functools.cache(plain_lcs)
    errors, meteor_checked = [], 0
    try:
        for ex_id in sample:
            i = ids.index(ex_id)
            hyp, ref = hyp_tokens[i], ref_tokens[i]
            got = report["per_example"][ex_id]
            expect = {f"bleu_{n}": v for n, v in bruteforce.bf_bleu([hyp], [ref]).items()}
            expect["rouge_l"] = bruteforce.bf_rouge_l(hyp, ref)
            expect["cider"] = cider_pairs[i]
            if _meteor_leaves(hyp, ref) <= METEOR_ORACLE_LEAVES:
                expect["meteor"] = bruteforce.bf_meteor(hyp, ref)
                meteor_checked += 1
            for key, value in expect.items():
                if abs(got[key] - value) > ORACLE_TOL:
                    errors.append(f"{ex_id} {key}: {got[key]} != oracle {value}")
    finally:
        bruteforce.bf_lcs = plain_lcs
    return errors, meteor_checked
