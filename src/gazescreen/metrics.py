"""Binary screening metrics: confusion counts, derived rates, AUC, ROC,
and the two-way report table (models x metrics).

Positive class is 1 (concussed). Metrics whose denominator is empty are
reported as NaN together with a reason string instead of a silent 0.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, SingleClass
from .models import MODEL_KINDS

# each report metric's name -> its MetricSet field, in report row order
METRIC_FIELDS = {"Accuracy": "accuracy", "Sensitivity": "sensitivity",
                 "Specificity": "specificity", "Precision": "precision",
                 "F1-score": "f1", "AUC": "auc"}


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def _check_binary(arr, what):
    arr = np.asarray(arr)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise DataError(f"{what} must be 0/1")
    return arr.astype(np.int64)


def confusion_matrix(y_true, y_pred):
    y_true = _check_binary(y_true, "y_true")
    y_pred = _check_binary(y_pred, "y_pred")
    if len(y_true) != len(y_pred):
        raise DataError("y_true and y_pred differ in length")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class MetricSet:
    """The six report metrics; NaN entries carry a reason in `undefined`."""

    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float
    auc: float
    auc_from_labels: bool = False
    undefined: dict = field(default_factory=dict)

    def by_name(self):
        return {name: getattr(self, f) for name, f in METRIC_FIELDS.items()}


def _midrank(values):
    """Average ranks (1-based) with ties sharing their midrank.

    Midranks of integer-position groups are dyadic rationals, so the AUC
    computed from them is bit-identical to pairwise counting with 1/2 ties.
    """
    order = np.argsort(values, kind="mergesort")
    sorted_v = values[order]
    n = len(values)
    # a tie group starts wherever the sorted value changes; NaN != NaN, so
    # every NaN is a group of its own
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_v[1:] != sorted_v[:-1]
    start = np.flatnonzero(first)
    end = np.append(start[1:], n)
    # mean of integer ranks start+1 .. end (exact: 0.5 * int)
    group_rank = 0.5 * ((start + 1) + end)
    ranks = np.empty(n)
    ranks[order] = group_rank[np.cumsum(first) - 1]
    return ranks


def auc_score(y_true, scores):
    """Rank-based AUC (Mann-Whitney with ties counted half); a NaN or
    infinite score raises NumericError, since it has no rank."""
    y_true = _check_binary(y_true, "y_true")
    scores = np.asarray(scores, dtype=float)
    if len(y_true) != len(scores):
        raise DataError("labels and scores differ in length")
    if not np.isfinite(scores).all():
        raise NumericError(f"{np.count_nonzero(~np.isfinite(scores))} of {len(scores)} "
                           "scores are NaN or infinite")
    n1 = int(np.sum(y_true == 1))
    n0 = len(y_true) - n1
    if n0 == 0 or n1 == 0:
        raise SingleClass("AUC needs both classes present")
    ranks = _midrank(scores)
    pos_rank_sum = ranks[y_true == 1].sum()
    return (pos_rank_sum - 0.5 * n1 * (n1 + 1)) / (n1 * n0)


def roc_curve(y_true, scores):
    """(fpr, tpr, thresholds) anchored at (0,0) and (1,1), one point per
    distinct score, thresholds descending."""
    y_true = _check_binary(y_true, "y_true")
    scores = np.asarray(scores, dtype=float)
    n1 = int(np.sum(y_true == 1))
    n0 = len(y_true) - n1
    if n0 == 0 or n1 == 0:
        raise SingleClass("ROC needs both classes present")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = y_true[order]
    distinct = np.nonzero(np.diff(s))[0]
    cut = np.concatenate([distinct, [len(s) - 1]])
    tps = np.cumsum(y)[cut]
    fps = np.cumsum(1 - y)[cut]
    tpr = np.concatenate([[0.0], tps / n1])
    fpr = np.concatenate([[0.0], fps / n0])
    thresholds = np.concatenate([[np.inf], s[cut]])
    return fpr, tpr, thresholds


def roc_auc_trapezoid(fpr, tpr):
    fpr = np.asarray(fpr, dtype=float)
    tpr = np.asarray(tpr, dtype=float)
    return float(np.sum(np.diff(fpr) * 0.5 * (tpr[1:] + tpr[:-1])))


def compute_metrics(cm, y_true=None, scores=None):
    """MetricSet from a confusion matrix, with rank AUC when scores are given.

    Without scores, AUC falls back to balanced accuracy ((sens+spec)/2) and
    is flagged via `auc_from_labels`.
    """
    undefined = {}

    def rate(num, den, name, reason):
        if den == 0:
            undefined[name] = reason
            return float("nan")
        return num / den

    total = cm.total
    acc = rate(cm.tp + cm.tn, total, "accuracy", "no samples")
    sens = rate(cm.tp, cm.tp + cm.fn, "sensitivity", "no positive samples (tp+fn == 0)")
    spec = rate(cm.tn, cm.tn + cm.fp, "specificity", "no negative samples (tn+fp == 0)")
    prec = rate(cm.tp, cm.tp + cm.fp, "precision", "no positive predictions (tp+fp == 0)")
    if "sensitivity" in undefined or "precision" in undefined:
        undefined["f1"] = "precision or sensitivity undefined"
        f1 = float("nan")
    elif prec + sens == 0:
        f1 = 0.0
    else:
        f1 = 2 * prec * sens / (prec + sens)
    auc_from_labels = False
    if scores is not None:
        if y_true is None:
            raise DataError("scores were given without y_true")
        try:
            auc = auc_score(y_true, scores)
        except SingleClass:
            undefined["auc"] = "only one class present"
            auc = float("nan")
    else:
        auc_from_labels = True
        if "sensitivity" in undefined or "specificity" in undefined:
            undefined["auc"] = "sensitivity or specificity undefined"
            auc = float("nan")
        else:
            auc = 0.5 * (sens + spec)
    return MetricSet(accuracy=acc, sensitivity=sens, specificity=spec,
                     precision=prec, f1=f1, auc=auc,
                     auc_from_labels=auc_from_labels, undefined=undefined)


def evaluate_predictions(y_true, y_pred, scores=None):
    return compute_metrics(confusion_matrix(y_true, y_pred), y_true=y_true, scores=scores)


# -- report rendering ---------------------------------------------------------

def _fmt_pct(v):
    return "n/a" if np.isnan(v) else f"{100.0 * v:.1f}"


def _ordered_models(per_model):
    """The report's columns: the model kinds' names in table order, then
    any other names in the order given."""
    known = [k.name for k in MODEL_KINDS.values()]
    return ([m for m in known if m in per_model]
            + [m for m in per_model if m not in known])


def render_report_text(per_model, title):
    """Fixed-width table: metric rows in report order, one column per model."""
    names = _ordered_models(per_model)
    width = max([len(m) for m in METRIC_FIELDS] + [10])
    cols = [max(len(n), 5) for n in names]
    lines = [title, ""]
    header = " " * width + "  " + "  ".join(n.rjust(c) for n, c in zip(names, cols))
    lines.append(header)
    lines.append("-" * len(header))
    for metric in METRIC_FIELDS:
        cells = [_fmt_pct(per_model[n].by_name()[metric]).rjust(c)
                 for n, c in zip(names, cols)]
        lines.append(metric.ljust(width) + "  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def render_report_csv(per_model):
    """Long-form CSV `metric,model,value_percent`; undefined cells are empty."""
    buf = io.StringIO()
    buf.write("metric,model,value_percent\n")
    for metric in METRIC_FIELDS:
        for name in _ordered_models(per_model):
            v = per_model[name].by_name()[metric]
            cell = "" if np.isnan(v) else f"{100.0 * v:.1f}"
            buf.write(f"{metric},{name},{cell}\n")
    return buf.getvalue()


def parse_report_csv(text):
    """Inverse of render_report_csv: {model: {metric: fraction or nan}}. A
    row that is not three fields ending in a number or an empty cell, names
    a metric outside METRIC_FIELDS, or repeats a (metric, model) pair
    raises DataError naming its line."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "metric,model,value_percent":
        raise DataError("report CSV must start with metric,model,value_percent")
    out = {}
    for n, ln in lines[1:]:
        try:
            metric, model, cell = ln.split(",")
            value = float(cell) / 100.0 if cell else float("nan")
        except ValueError:
            raise DataError(f"report CSV line {n}: expected metric,model,value_percent, "
                            f"got {ln!r}") from None
        if metric not in METRIC_FIELDS:
            raise DataError(f"report CSV line {n}: unknown metric {metric!r}; "
                            f"valid: {list(METRIC_FIELDS)}")
        values = out.setdefault(model, {})
        if metric in values:
            raise DataError(f"report CSV line {n}: a second {metric} for {model!r}")
        values[metric] = value
    return out
