"""Metric oracles: hand-computed confusion/rate examples, pairwise AUC
cross-check, ROC/AUC identities, and undefined-metric handling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescreen.errors import DataError, NumericError, SingleClass
from gazescreen.metrics import (
    ConfusionMatrix,
    _midrank,
    auc_score,
    compute_metrics,
    confusion_matrix,
    evaluate_predictions,
    parse_report_csv,
    render_report_csv,
    render_report_text,
    roc_auc_trapezoid,
    roc_curve,
)


def midrank_loop(values):
    """Reference: tie groups found one element at a time."""
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    return ranks


def pairwise_auc(y, s):
    """O(n^2) oracle: fraction of (pos, neg) pairs ranked correctly, ties
    counted 0.5; dyadic arithmetic so equality with the rank formula is
    exact."""
    y = np.asarray(y)
    s = np.asarray(s, dtype=float)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_confusion_matrix_hand_example():
    cm = confusion_matrix([1, 1, 0, 0], [1, 0, 0, 1])
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)


def test_metrics_hand_example():
    cm = ConfusionMatrix(tp=90, fn=10, tn=80, fp=20)
    m = compute_metrics(cm)
    assert m.accuracy == pytest.approx(0.85, abs=1e-12)
    assert m.sensitivity == pytest.approx(0.9, abs=1e-12)
    assert m.specificity == pytest.approx(0.8, abs=1e-12)
    assert m.precision == pytest.approx(90 / 110, abs=1e-12)
    assert m.f1 == pytest.approx(2 * (90 / 110) * 0.9 / ((90 / 110) + 0.9), abs=1e-12)
    # no scores: AUC falls back to balanced accuracy and is flagged
    assert m.auc_from_labels
    assert m.auc == pytest.approx(0.85, abs=1e-12)


def test_auc_hand_example():
    assert auc_score([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == pytest.approx(0.75, abs=0)


def test_auc_equals_pairwise_oracle_exactly():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 200))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # quantised scores force plenty of ties
        s = np.round(rng.normal(size=n), 1)
        assert auc_score(y, s) == pairwise_auc(y, s)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_refuses_non_finite_scores(bad):
    # NaN has no rank: _midrank gives each NaN its own, in input order, so
    # all-NaN scores would read as a perfect AUC for labels [0, 0, 1, 1]
    for scores in ([bad] * 4, [0.1, bad, 0.3, 0.4]):
        with pytest.raises(NumericError, match="scores are NaN or infinite"):
            auc_score([0, 0, 1, 1], scores)


def test_auc_perfect_and_reversed():
    y = [0, 0, 1, 1]
    assert auc_score(y, [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc_score(y, [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert auc_score(y, [0.5, 0.5, 0.5, 0.5]) == 0.5


def test_roc_trapezoid_matches_rank_auc():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(5, 300))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.normal(size=n), 2)
        fpr, tpr, _ = roc_curve(y, s)
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)
        assert roc_auc_trapezoid(fpr, tpr) == pytest.approx(auc_score(y, s), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, 50)
    y[0], y[1] = 0, 1
    s = rng.normal(size=50)
    base = auc_score(y, s)
    for f in (lambda v: 3.0 * v + 7.0, np.tanh, lambda v: np.exp(v / 4.0)):
        assert auc_score(y, f(s)) == pytest.approx(base, abs=1e-12)


def test_undefined_metrics_are_nan_with_reasons():
    # no positives at all -> sensitivity undefined; no positive predictions
    # -> precision undefined
    m = evaluate_predictions([0, 0, 0], [0, 0, 0])
    assert np.isnan(m.sensitivity) and "sensitivity" in m.undefined
    assert np.isnan(m.precision) and "precision" in m.undefined
    assert np.isnan(m.f1) and "f1" in m.undefined
    assert m.specificity == 1.0
    m2 = evaluate_predictions([1, 1], [0, 0])
    assert np.isnan(m2.specificity) and "specificity" in m2.undefined
    assert m2.sensitivity == 0.0


def test_single_class_auc_raises():
    with pytest.raises(SingleClass):
        auc_score([1, 1], [0.3, 0.4])


def test_input_validation():
    with pytest.raises(DataError, match="y_true must be 0/1"):
        confusion_matrix([0, 2], [0, 1])
    with pytest.raises(DataError, match="y_true and y_pred differ in length"):
        confusion_matrix([0, 1], [0, 1, 1])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=200))
@settings(deadline=None)
def test_confusion_counts_partition_samples(pairs):
    y = [a for a, _ in pairs]
    p = [b for _, b in pairs]
    cm = confusion_matrix(y, p)
    assert cm.total == len(pairs)
    assert cm.tp + cm.fn == sum(y)
    assert cm.tn + cm.fp == len(y) - sum(y)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@settings(deadline=None)
def test_metric_ranges(tp, fp, tn, fn):
    if tp + fp + tn + fn == 0:
        return
    m = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
    for v in m.by_name().values():
        assert np.isnan(v) or 0.0 <= v <= 1.0


def test_report_round_trip_and_order():
    rng = np.random.default_rng(5)
    per_model = {}
    for name in ("Naive Bayes", "Random Forest", "SVM"):
        y = rng.integers(0, 2, 400)
        y[:2] = [0, 1]
        s = rng.normal(size=400) + y
        per_model[name] = evaluate_predictions(y, (s > 0.5).astype(int), s)
    text = render_report_text(per_model, "demo")
    lines = text.splitlines()
    header = lines[2]
    # canonical column order regardless of insertion order
    assert header.index("Random Forest") < header.index("Naive Bayes") < header.index("SVM")
    assert [ln.split()[0] for ln in lines[4:10]] == [
        "Accuracy", "Sensitivity", "Specificity", "Precision", "F1-score", "AUC"]
    csv_text = render_report_csv(per_model)
    parsed = parse_report_csv(csv_text)
    for name, ms in per_model.items():
        for metric, v in ms.by_name().items():
            assert parsed[name][metric] == pytest.approx(v, abs=0.0005)


def test_report_shows_na_for_undefined():
    per_model = {"Naive Bayes": evaluate_predictions([0, 0], [0, 0])}
    text = render_report_text(per_model, "t")
    assert "n/a" in text
    parsed = parse_report_csv(render_report_csv(per_model))
    assert np.isnan(parsed["Naive Bayes"]["Sensitivity"])


@pytest.mark.parametrize("row, message", [
    ("Bogus,SVM,50", "line 3: unknown metric 'Bogus'"),
    ("AUC,SVM,12", "line 3: a second AUC for 'SVM'"),
])
def test_parse_report_refuses_rows_it_cannot_mean(row, message):
    # an unknown metric would be dropped, a repeated pair would replace the
    # first value; both are refused instead
    with pytest.raises(DataError, match=message):
        parse_report_csv(f"metric,model,value_percent\nAUC,SVM,99.5\n{row}\n")


@given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, float("nan")]),
                max_size=80))
@settings(deadline=None)
def test_midrank_matches_loop_with_ties(values):
    values = np.array(values, dtype=float)
    assert np.array_equal(_midrank(values), midrank_loop(values))
