"""Property-based tests of the stratum contract: a stratum of a report
equals the same report run on that stratum's items alone, exactly.

Token lists are 1-8 tokens over a small alphabet, so that repeats occur
(and stems collide) while METEOR's alignment stays far from its node
budget. Generation is derandomized and keeps no example database.
"""

import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from inferbench.analysis import CHOICES, Judgment, compare_metric_scores, stratified_compare
from inferbench.metrics import score_corpus

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

WORDS = ("a", "the", "cat", "cats", "sat", "run", "runs")
LABELS = ("easy", "hard", "mid")

sentence = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)


@st.composite
def labeled_items(draw, value):
    """Item ids with one drawn value and one stratum label each."""
    n = draw(st.integers(min_value=1, max_value=8))
    ids = [f"i{k}" for k in draw(st.permutations(range(n)))]
    values = [draw(value) for _ in ids]
    labels = {i: draw(st.sampled_from(LABELS)) for i in ids}
    return ids, values, labels


def _subsets(ids, labels):
    for label in sorted(set(labels.values())):
        yield label, [k for k, i in enumerate(ids) if labels[i] == label]


@PROPERTY
@given(labeled_items(st.tuples(sentence, sentence)), st.booleans())
def test_score_strata_equal_subset_runs(items, with_per_example):
    ids, pairs, labels = items
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = score_corpus(pairs, ids, labels, with_per_example)
        for label, ks in _subsets(ids, labels):
            alone = score_corpus(
                [pairs[k] for k in ks], [ids[k] for k in ks], with_per_example=with_per_example
            )
            assert report.strata[label].to_dict() == alone.to_dict()
    assert list(report.strata) == sorted(report.strata)


@PROPERTY
@given(labeled_items(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0, 1))))
def test_metric_comparison_strata_equal_subset_runs(items):
    ids, scores, labels = items
    a = {i: s for i, (s, _) in zip(ids, scores)}
    b = {i: s if k % 2 else t for k, (i, (s, t)) in enumerate(zip(ids, scores))}
    report = compare_metric_scores(a, b, labels)
    for label, ks in _subsets(ids, labels):
        alone = compare_metric_scores(
            {ids[k]: a[ids[k]] for k in ks}, {ids[k]: b[ids[k]] for k in ks}
        )
        assert report.strata[label].to_dict() == alone.overall.to_dict()


@PROPERTY
@given(
    st.integers(min_value=2, max_value=3).flatmap(
        lambda raters: labeled_items(
            st.lists(st.sampled_from(CHOICES), min_size=raters, max_size=raters)
        )
    )
)
def test_judgment_comparison_strata_equal_subset_runs(items):
    ids, votes, labels = items
    judgments = [
        Judgment(item_id=i, rater_id=f"r{r}", choice=choice)
        for i, choices in zip(ids, votes)
        for r, choice in enumerate(choices)
    ]
    report = stratified_compare(judgments, labels)
    for label, ks in _subsets(ids, labels):
        members = {ids[k] for k in ks}
        alone = stratified_compare([j for j in judgments if j.item_id in members])
        assert report.strata[label].to_dict() == alone.overall.to_dict()
