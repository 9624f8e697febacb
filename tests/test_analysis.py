import math

import numpy as np
import pytest

from inferbench import analysis
from inferbench.analysis import (
    DegenerateAgreementError,
    Judgment,
    agreement,
    compare_metric_scores,
    fleiss_kappa,
    fleiss_kappa_table,
    paired_ttest,
    plausibility_stub,
    stratified_compare,
    student_t_two_sided_p,
    win_tie_lose,
    winning_rate,
)

from bruteforce import bf_fleiss_kappa, bf_t_two_sided_p


def votes(by_item):
    """{item_id: [choice, ...]} -> flat judgment list."""
    out = []
    for item_id, choices in by_item.items():
        for r, choice in enumerate(choices):
            out.append(Judgment(item_id=item_id, rater_id=f"r{r}", choice=choice))
    return out


# --- win/tie/lose -------------------------------------------------------------

def test_unanimous_option_1():
    js = votes({f"i{k}": ["option_1"] * 3 for k in range(4)})
    assert win_tie_lose(js, "option_1") == {"win": 100.0, "tie": 0.0, "lose": 0.0}


def test_all_both_is_tie():
    js = votes({f"i{k}": ["both"] * 3 for k in range(3)})
    assert win_tie_lose(js, "option_1") == {"win": 0.0, "tie": 100.0, "lose": 0.0}


def test_hand_tabulated_majorities():
    js = votes(
        {
            "i1": ["option_1", "option_1", "option_2"],   # win
            "i2": ["option_2", "option_2", "option_1"],   # lose
            "i3": ["both", "both", "option_1"],           # tie (no strict majority)
            "i4": ["option_1", "option_1", "both"],       # win
            "i5": ["neither", "neither", "neither"],      # tie
            "i6": ["option_1", "option_2", "both"],       # tie
        }
    )
    ratios = win_tie_lose(js, "option_1")
    assert ratios["win"] == pytest.approx(100 * 2 / 6)
    assert ratios["tie"] == pytest.approx(100 * 3 / 6)
    assert ratios["lose"] == pytest.approx(100 * 1 / 6)
    assert ratios["win"] + ratios["tie"] + ratios["lose"] == pytest.approx(100.0)


def test_incomplete_coverage_rejected():
    js = votes({"i1": ["option_1"] * 3, "i2": ["option_1"] * 2})
    with pytest.raises(ValueError, match="coverage"):
        win_tie_lose(js)


def test_duplicate_rater_rejected():
    js = [
        Judgment("i1", "r0", "option_1"),
        Judgment("i1", "r0", "option_2"),
    ]
    with pytest.raises(ValueError, match="duplicate"):
        win_tie_lose(js)


# --- winning rate ----------------------------------------------------------------

def test_winning_rate_unanimous():
    js = votes({"i1": ["option_1"] * 3, "i2": ["option_1"] * 3})
    rate, per_item = winning_rate(js, "option_1")
    assert rate == 1.0
    assert per_item == {"i1": 1.0, "i2": 1.0}


def test_winning_rate_neither_scores_zero():
    js = votes({"i1": ["neither"] * 3})
    assert winning_rate(js, "option_1")[0] == 0.0


def test_winning_rate_both_counts_for_either_side():
    js = votes({"i1": ["option_1", "both", "option_2"]})
    rate_1, per_item = winning_rate(js, "option_1")
    assert rate_1 == pytest.approx(2 / 3)
    assert per_item["i1"] == pytest.approx(2 / 3)
    assert winning_rate(js, "option_2")[0] == pytest.approx(2 / 3)


def test_tie_heavy_rates_sum_above_one():
    js = votes({f"i{k}": ["both", "both", "option_1"] for k in range(3)})
    rate_1, _ = winning_rate(js, "option_1")
    rate_2, _ = winning_rate(js, "option_2")
    assert rate_1 + rate_2 > 1.0


# --- Fleiss kappa ------------------------------------------------------------------

def test_kappa_perfect_agreement():
    js = votes({"i1": ["option_1"] * 3, "i2": ["both"] * 3, "i3": ["neither"] * 3})
    assert fleiss_kappa(js) == pytest.approx(1.0, abs=1e-12)


def test_kappa_hand_anchor():
    table = [[2, 1, 0, 0], [0, 3, 0, 0]]
    assert fleiss_kappa_table(table) == pytest.approx(0.25, abs=1e-12)


def test_kappa_matches_bruteforce_on_random_tables():
    # one item: the category count must come from the only row there is
    assert fleiss_kappa_table([[2, 1, 0, 0]]) == pytest.approx(
        bf_fleiss_kappa([[2, 1, 0, 0]]), abs=1e-12
    )
    rng = np.random.default_rng(6)
    for _ in range(20):
        n_items, n_raters = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        table = []
        for _ in range(n_items):
            row = [0, 0, 0, 0]
            for _ in range(n_raters):
                row[int(rng.integers(4))] += 1
            table.append(row)
        if all(sum(1 for c in row if c) == 1 for row in table):
            continue  # skip near-degenerate unanimity draws
        assert fleiss_kappa_table(table) == pytest.approx(
            bf_fleiss_kappa(table), abs=1e-12
        )


def test_kappa_bounded_above_by_one():
    rng = np.random.default_rng(7)
    for _ in range(30):
        table = []
        for _ in range(4):
            row = [0, 0, 0, 0]
            for _ in range(3):
                row[int(rng.integers(4))] += 1
            table.append(row)
        unanimous = all(max(row) == 3 for row in table)
        try:
            kappa = fleiss_kappa_table(table)
        except DegenerateAgreementError:
            continue
        assert kappa <= 1.0 + 1e-12
        assert (abs(kappa - 1.0) < 1e-12) == unanimous


def test_kappa_single_rater_rejected():
    with pytest.raises(ValueError):
        fleiss_kappa_table([[1, 0, 0, 0], [0, 1, 0, 0]])


def test_kappa_degenerate_single_category():
    assert fleiss_kappa_table([[3, 0, 0, 0], [3, 0, 0, 0]]) == 1.0


# --- agree's statistics from one table ----------------------------------------------

def _each_statistic(judgments):
    """agree's statistics from one call each, in the order the command
    once called them, so that the first error is theirs."""
    rate_1, _ = winning_rate(judgments, "option_1")
    rate_2, _ = winning_rate(judgments, "option_2")
    return {
        "kappa": fleiss_kappa(judgments),
        "win_tie_lose_option_1": win_tie_lose(judgments, "option_1"),
        "winning_rate": {"option_1": rate_1, "option_2": rate_2},
    }


AGREEMENT_CASES = {
    "mixed": votes({"i1": ["option_1", "option_1", "both"],
                    "i2": ["neither", "option_2", "option_2"],
                    "i3": ["both", "option_1", "option_2"]}),
    "one_item": votes({"i1": ["option_1", "option_2"]}),
    "empty": [],
    "incomplete": votes({"i1": ["option_1", "option_2"], "i2": ["option_1"]}),
    "one_rater": votes({"i1": ["option_1"], "i2": ["option_2"]}),
    "duplicate": votes({"i1": ["both"]}) * 2,
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_agreement_groups_once_and_equals_each_statistic(monkeypatch, case):
    judgments = AGREEMENT_CASES[case]
    try:
        expected = _each_statistic(judgments)
    except ValueError as exc:
        expected = exc
    grouped = []
    judged_items = analysis._judged_items
    monkeypatch.setattr(analysis, "_judged_items",
                        lambda js: grouped.append(js) or judged_items(js))
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            agreement(judgments)
        assert str(info.value) == str(expected)
    else:
        assert agreement(judgments) == expected
    assert len(grouped) == 1


# --- paired t-test -----------------------------------------------------------------

def test_ttest_identical_series():
    r = paired_ttest([1.0, 0.5, 0.2], [1.0, 0.5, 0.2])
    assert r.t == 0.0 and r.p_value == 1.0 and r.df == 2


def test_ttest_hand_anchor():
    r = paired_ttest([1, 0, 1, 1], [0, 0, 1, 0])
    assert r.t == pytest.approx(1.7321, abs=5e-5)
    assert r.df == 3
    assert r.p_value == pytest.approx(0.1817, abs=5e-5)


def test_ttest_antisymmetry():
    a = [0.9, 0.1, 0.4, 0.8, 0.3]
    b = [0.2, 0.3, 0.5, 0.4, 0.1]
    fwd = paired_ttest(a, b)
    rev = paired_ttest(b, a)
    assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)


def test_ttest_degenerate_constant_shift():
    r = paired_ttest([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    assert r.degenerate and r.p_value == 0.0


def test_ttest_input_validation():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [0.5])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [0.5])


def test_p_values_match_quadrature_oracle():
    for df in (1, 2, 3, 5, 10, 30, 100):
        for t in (0.0, 0.1, 0.5, 1.0, 1.7320508, 2.5, 4.0, 8.0):
            ours = student_t_two_sided_p(t, df)
            oracle = bf_t_two_sided_p(t, df)
            assert ours == pytest.approx(oracle, abs=1e-6), (t, df)


# --- plausibility stub ----------------------------------------------------------

def test_plausibility_full_containment():
    assert plausibility_stub("the red ball", "a red ball rolled away") == 1.0


def test_plausibility_disjoint():
    assert plausibility_stub("green turtles swim", "the red ball rolled") == 0.0


def test_plausibility_half_of_four_content_words():
    score = plausibility_stub(
        "doctor visited sunny paris", "the doctor went to paris yesterday"
    )
    assert score == 0.5


def test_plausibility_stems_inflections():
    assert plausibility_stub("running", "he runs daily") == 1.0


# --- stratified comparison --------------------------------------------------------

def mixed_judgments():
    return votes(
        {
            "i1": ["option_1", "option_1", "option_2"],
            "i2": ["option_2", "option_2", "option_1"],
            "i3": ["both", "option_1", "option_1"],
            "i4": ["option_1", "both", "neither"],
            "i5": ["option_2", "both", "option_1"],
            "i6": ["option_1", "option_1", "option_1"],
        }
    )


def test_single_stratum_equals_overall():
    js = mixed_judgments()
    labels = {f"i{k}": "all" for k in range(1, 7)}
    report = stratified_compare(js, labels)
    assert report.strata["all"].to_dict() == report.overall.to_dict()


def test_strata_equal_subset_runs():
    js = mixed_judgments()
    labels = {f"i{k}": ("easy" if k <= 3 else "hard") for k in range(1, 7)}
    report = stratified_compare(js, labels)
    subset = [j for j in js if labels[j.item_id] == "easy"]
    sub_report = stratified_compare(subset)
    assert report.strata["easy"].to_dict() == sub_report.overall.to_dict()


def test_small_stratum_statistics_undefined():
    js = mixed_judgments()
    labels = {f"i{k}": ("solo" if k == 1 else "rest") for k in range(1, 7)}
    report = stratified_compare(js, labels)
    solo = report.strata["solo"]
    assert solo.n_items == 1
    assert solo.kappa is None and solo.t_statistic is None and solo.p_value is None
    assert solo.win is not None


def test_unlabeled_item_rejected():
    js = mixed_judgments()
    with pytest.raises(ValueError, match="label"):
        stratified_compare(js, {"i1": "x"})


def test_label_for_unknown_item_rejected():
    labels = {f"i{k}": "x" for k in range(1, 8)}
    with pytest.raises(ValueError, match="unknown id 'i7'"):
        stratified_compare(mixed_judgments(), labels)
    with pytest.raises(ValueError, match="unknown id 'w'"):
        compare_metric_scores({"x": 1.0}, {"x": 0.5}, labels={"x": "s1", "w": "s1"})


def test_report_serializes():
    report = stratified_compare(mixed_judgments())
    payload = report.to_dict()
    assert payload["aggregation_rule"] == "strict_majority"
    assert 0 <= payload["overall"]["p_value"] <= 1
    assert payload["overall"]["win"] + payload["overall"]["tie"] + payload["overall"]["lose"] == pytest.approx(100.0)


def test_compare_metric_scores():
    a = {"x": 0.9, "y": 0.4, "z": 0.6}
    b = {"x": 0.5, "y": 0.4, "z": 0.7}
    report = compare_metric_scores(a, b, labels={"x": "s1", "y": "s1", "z": "s2"})
    assert report.overall.win == pytest.approx(100 / 3)
    assert report.overall.tie == pytest.approx(100 / 3)
    assert report.overall.lose == pytest.approx(100 / 3)
    assert set(report.strata) == {"s1", "s2"}
    with pytest.raises(ValueError):
        compare_metric_scores(a, {"x": 1.0})


@pytest.mark.parametrize("bad", [None, math.nan, math.inf, "0.5"])
def test_compare_metric_scores_rejects_a_missing_or_non_finite_score(bad):
    with pytest.raises(ValueError, match="item 'y' has no finite score pair"):
        compare_metric_scores({"x": 0.9, "y": 0.4}, {"x": 0.5, "y": bad})
