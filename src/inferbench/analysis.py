"""Evaluation analytics: win/tie/lose ratios, winning rates, Fleiss
kappa, paired t-tests, a lexical plausibility stub, and stratified
comparison reports.

Per-item A/B outcomes use the strict-majority rule: an item is a win
(or loss) only when more than half of its judgments pick one side;
"both", "neither" and split votes are ties. Reports carry the rule name
so downstream tables are unambiguous.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

from .metrics import stratify, tokenize
from .porter import stem

CHOICES = ("option_1", "option_2", "both", "neither")

_STOPWORDS = {
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had",
    "has", "have", "he", "her", "his", "i", "if", "in", "into", "is", "it", "its",
    "no", "not", "of", "on", "or", "she", "so", "such", "that", "the", "their",
    "them", "then", "there", "these", "they", "this", "to", "was", "we", "were",
    "will", "with", "you",
}


class DegenerateAgreementError(ValueError):
    """Chance agreement is exactly 1 while observed agreement is not."""


@dataclass(frozen=True)
class Judgment:
    item_id: str
    rater_id: str
    choice: str

    def __post_init__(self):
        if self.choice not in CHOICES:
            raise ValueError(f"unknown choice {self.choice!r}; expected one of {CHOICES}")


def _group_items(judgments: list[Judgment]) -> dict[str, list[Judgment]]:
    """Group by item and enforce complete, non-duplicated rater coverage."""
    if not judgments:
        raise ValueError("no judgments")
    items: dict[str, list[Judgment]] = {}
    seen: set[tuple[str, str]] = set()
    for j in judgments:
        key = (j.item_id, j.rater_id)
        if key in seen:
            raise ValueError(f"duplicate judgment for item {j.item_id!r} by {j.rater_id!r}")
        seen.add(key)
        items.setdefault(j.item_id, []).append(j)
    counts = {len(js) for js in items.values()}
    if len(counts) != 1:
        raise ValueError(f"incomplete rater coverage: item sizes {sorted(counts)}")
    return items


@dataclass(frozen=True)
class _Item:
    """One row of the per-item table every comparison report is built from.

    For a judged item, ``votes`` counts its judgments per ``CHOICES``
    entry. A pair of automatic scores counts as one vote: its credits
    are the two scores and its outcome is their order.
    """

    id: str
    outcome: int  # 1: option_1 wins, -1: option_2 wins, 0: tie
    credit: tuple[float, float]  # winning-rate credit per option: its votes plus "both"
    n_votes: int
    votes: tuple[int, ...] | None = None  # the item's row of the kappa table


def _judged_items(judgments: list[Judgment]) -> list[_Item]:
    """One row per item, in order of first appearance."""
    rows = []
    for item_id, js in _group_items(judgments).items():
        votes = [0] * len(CHOICES)
        for j in js:
            votes[CHOICES.index(j.choice)] += 1
        v1, v2, both, _ = votes
        # strict majority: more than half of the item's judgments
        outcome = 1 if v1 > len(js) / 2 else -1 if v2 > len(js) / 2 else 0
        rows.append(_Item(item_id, outcome, (v1 + both, v2 + both), len(js), tuple(votes)))
    return rows


def _side_index(side: str) -> int:
    if side not in ("option_1", "option_2"):
        raise ValueError("side must be option_1 or option_2")
    return CHOICES.index(side)


def _ratios(outcomes: list[int]) -> dict[str, float]:
    n = len(outcomes)
    return {
        "win": 100.0 * outcomes.count(1) / n,
        "tie": 100.0 * outcomes.count(0) / n,
        "lose": 100.0 * outcomes.count(-1) / n,
    }


def _rate(items: list[_Item], side: int) -> tuple[float, list[float]]:
    """Winning rate of option ``side`` (0 or 1): its credit per vote over
    all items, plus each item's own credit per vote."""
    rate = sum(it.credit[side] for it in items) / sum(it.n_votes for it in items)
    return rate, [it.credit[side] / it.n_votes for it in items]


def win_tie_lose(judgments: list[Judgment], side: str = "option_1") -> dict[str, float]:
    """Percentage of items won/tied/lost for ``side`` under strict majority."""
    sign = 1 if _side_index(side) == 0 else -1
    return _ratios([sign * it.outcome for it in _judged_items(judgments)])


def winning_rate(
    judgments: list[Judgment], side: str
) -> tuple[float, dict[str, float]]:
    """Mean per-judgment score (1 when the side or "both" is chosen)
    plus the per-item mean series used by the paired t-test."""
    side_index = _side_index(side)
    items = _judged_items(judgments)
    rate, per_item = _rate(items, side_index)
    return rate, {it.id: r for it, r in zip(items, per_item)}


def fleiss_kappa_table(table: list[list[int]]) -> float:
    """Fleiss kappa from an items x categories count table, each row
    summing to the common rater count n."""
    if not table:
        raise ValueError("empty table")
    n = sum(table[0])
    if n < 2:
        raise ValueError("fleiss kappa needs at least 2 raters")
    if any(sum(row) != n for row in table):
        raise ValueError("rows must all sum to the rater count")
    big_n = len(table)
    q = len(table[0])
    p_bar = sum(
        (sum(c * c for c in row) - n) / (n * (n - 1)) for row in table
    ) / big_n
    col = [sum(row[j] for row in table) / (big_n * n) for j in range(q)]
    p_e = sum(p * p for p in col)
    if p_e >= 1.0:
        if p_bar >= 1.0:
            return 1.0
        raise DegenerateAgreementError(
            "all judgments fall in one category yet items disagree"
        )
    return (p_bar - p_e) / (1.0 - p_e)


def fleiss_kappa(judgments: list[Judgment]) -> float:
    """Fleiss kappa over the four canonical choice categories."""
    return fleiss_kappa_table([it.votes for it in _judged_items(judgments)])


def agreement(judgments: list[Judgment]) -> dict:
    """``agree``'s statistics from one per-item table: :func:`fleiss_kappa`,
    :func:`win_tie_lose` of option_1 and :func:`winning_rate` of each
    option, with their values and errors."""
    items = _judged_items(judgments)
    rate_1, _ = _rate(items, 0)
    rate_2, _ = _rate(items, 1)
    return {
        "kappa": fleiss_kappa_table([it.votes for it in items]),
        "win_tie_lose_option_1": _ratios([it.outcome for it in items]),
        "winning_rate": {"option_1": rate_1, "option_2": rate_2},
    }


# --- Student t machinery -----------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and then the odd coefficient of step m, each one Lentz update
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    if df < 1:
        raise ValueError("df must be >= 1")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_value: float
    degenerate: bool = False


def paired_ttest(scores_a: list[float], scores_b: list[float]) -> TTestResult:
    """Two-sided paired t-test with sample standard deviation.

    All-zero differences give t = 0, p = 1; zero spread around a nonzero
    mean gives p = 0 with the degenerate flag set.
    """
    if len(scores_a) != len(scores_b):
        raise ValueError("paired series must have equal length")
    n = len(scores_a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 items")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p_value=1.0)
        return TTestResult(
            t=math.copysign(math.inf, mean), df=df, p_value=0.0, degenerate=True
        )
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=df, p_value=student_t_two_sided_p(t, df))


def plausibility_stub(hypothesis: str, dialogue_context: str) -> float:
    """Stemmed-unigram recall of hypothesis content words against the
    context: a declared placeholder behind the plausibility-scorer seam
    that entailment-model adapters would implement."""
    content = {
        stem(t)
        for t in tokenize(hypothesis)
        if t not in _STOPWORDS and any(ch.isalnum() for ch in t)
    }
    if not content:
        return 0.0
    context = {stem(t) for t in tokenize(dialogue_context)}
    return len(content & context) / len(content)


# --- stratified comparison ---------------------------------------------------

@dataclass
class ComparisonStats:
    """One comparison's statistics; its fields are its artifact schema."""

    n_items: int
    winning_rate: dict[str, float]  # by option: "option_1", "option_2"
    win: float | None = None
    tie: float | None = None
    lose: float | None = None
    kappa: float | None = None
    t_statistic: float | None = None
    df: int | None = None
    p_value: float | None = None
    significant_at_005: bool | None = None
    degenerate: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ComparisonReport:
    """Overall and per-stratum statistics; its fields are its artifact
    schema (canonical JSON sorts the keys)."""

    overall: ComparisonStats
    strata: dict[str, ComparisonStats] = field(default_factory=dict)
    aggregation_rule: str = "strict_majority"

    def to_dict(self) -> dict:
        return asdict(self)


def _stats(items: list[_Item]) -> ComparisonStats:
    """Ratios and winning rates of a set of table rows; from 2 items on,
    kappa (judged items only) and the option_1-vs-option_2 paired
    t-test over the items in id order."""
    rate_1, per_item_1 = _rate(items, 0)
    rate_2, per_item_2 = _rate(items, 1)
    stats = ComparisonStats(
        n_items=len(items),
        **_ratios([it.outcome for it in items]),
        winning_rate={"option_1": rate_1, "option_2": rate_2},
    )
    if len(items) < 2:
        return stats
    if items[0].votes is not None:
        try:
            stats.kappa = fleiss_kappa_table([it.votes for it in items])
        except DegenerateAgreementError:
            stats.degenerate = True
    order = sorted(range(len(items)), key=lambda k: items[k].id)
    test = paired_ttest([per_item_1[k] for k in order], [per_item_2[k] for k in order])
    stats.t_statistic = None if math.isinf(test.t) else test.t
    stats.df = test.df
    stats.p_value = test.p_value
    stats.significant_at_005 = test.p_value < 0.05
    stats.degenerate = stats.degenerate or test.degenerate
    return stats


def _report(items: list[_Item], labels: dict[str, str] | None, rule: str) -> ComparisonReport:
    """Overall statistics plus, when ``labels`` is given, those of each
    stratum's rows of the same table."""
    report = ComparisonReport(overall=_stats(items), aggregation_rule=rule)
    if labels is not None:
        for label, idxs in stratify([it.id for it in items], labels):
            report.strata[label] = _stats([items[k] for k in idxs])
    return report


def stratified_compare(
    judgments: list[Judgment], labels: dict[str, str] | None = None
) -> ComparisonReport:
    """Win/tie/lose, winning rates, kappa and the option_1-vs-option_2
    paired t-test, overall and per stratum.

    Every item must be labeled when ``labels`` is given, and every label
    must name an item. Strata with fewer than 2 items keep their ratios
    but report the inferential statistics as None.
    """
    return _report(_judged_items(judgments), labels, "strict_majority")


def compare_metric_scores(
    scores_a: dict[str, float],
    scores_b: dict[str, float],
    labels: dict[str, str] | None = None,
) -> ComparisonReport:
    """Automatic-score comparison: per-item win/tie/lose by score order
    plus the paired t-test; no rater statistics. Every score must be a
    finite number."""
    if set(scores_a) != set(scores_b):
        raise ValueError("score maps must cover the same item ids")
    if not scores_a:
        raise ValueError("no items to compare")
    items = []
    for i in sorted(scores_a):
        a, b = scores_a[i], scores_b[i]
        if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in (a, b)):
            raise ValueError(f"item {i!r} has no finite score pair, got {a!r} and {b!r}")
        items.append(_Item(i, (a > b) - (a < b), (a, b), 1))
    return _report(items, labels, "score_order")
