"""Full-pipeline acceptance gates.

Each test checks one release criterion end to end and records a single
[PASS]/[FAIL] line (replayed after the run summary). Thresholds live
next to the checks; the cohort tests run the real experiment at the
published scale of 100 + 100 sessions.
"""
import dataclasses
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import record_gate

from gazescreen.data import SplitConfig, class_weights, split
from gazescreen.metrics import ConfusionMatrix, auc_score, compute_metrics
from gazescreen.models import (
    MODEL_KINDS,
    FeatureMatrix,
    PerceptronParams,
    fit_decision_tree,
    fit_logreg,
    fit_perceptron,
)
from gazescreen.models.gpc import gpc_lml_and_grad
from gazescreen.models.linear import logreg_objective
from gazescreen.novelty import (
    IsoForestParams,
    IsolationForestModel,
    OcsvmParams,
    fit_isolation_forest,
    fit_ocsvm,
)
from gazescreen.pipeline import RunConfig, reproduce, run_experiment
from gazescreen.simulate import ImpairmentParams, generate_cohort

DISPLAY_NAMES = {kind: entry.name for kind, entry in MODEL_KINDS.items()}


def _gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" | {detail}" if detail else "")
    record_gate(line)
    print(line)
    assert ok, line


# -- metric oracles ------------------------------------------------------------

# (tp, fp, tn, fn), all denominators nonzero so every metric is defined
_CONFUSIONS = [
    (50, 10, 30, 10), (1, 1, 1, 1), (90, 5, 4, 1), (10, 20, 30, 40),
    (7, 3, 9, 2), (100, 1, 100, 1), (33, 44, 55, 66), (2, 1, 9, 8),
    (60, 40, 1, 19), (5, 4, 3, 2),
]


def _pair_auc(y, s):
    pos = s[y == 1]
    neg = s[y == 0]
    greater = np.sum(pos[:, None] > neg[None, :])
    ties = np.sum(pos[:, None] == neg[None, :])
    return (greater + 0.5 * ties) / (len(pos) * len(neg))


def test_metric_oracles():
    worst = 0.0
    for tp, fp, tn, fn in _CONFUSIONS:
        ms = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        sens = Fraction(tp, tp + fn)
        spec = Fraction(tn, tn + fp)
        expected = {
            "accuracy": Fraction(tp + tn, tp + fp + tn + fn),
            "sensitivity": sens,
            "specificity": spec,
            "precision": Fraction(tp, tp + fp),
            "f1": Fraction(2 * tp, 2 * tp + fp + fn),
            "auc": (sens + spec) / 2,   # label-only fallback
        }
        for field_name, frac in expected.items():
            worst = max(worst, abs(getattr(ms, field_name) - float(frac)))
    hand_ok = worst <= 1e-9

    rng = np.random.default_rng(7)
    exact = 0
    for i in range(100):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, n)
        y[0], y[1] = 0, 1
        if i % 2:
            s = rng.integers(0, 5, n).astype(float)   # heavy ties
        else:
            s = rng.normal(0.0, 1.0, n)
        exact += auc_score(y, s) == _pair_auc(y, s)
    _gate("metric oracles: hand values within 1e-9, AUC == pair counting",
          hand_ok and exact == 100,
          f"max deviation {worst:.2e}, {exact}/100 AUC sets bit-equal")


# -- decision tree vs exhaustive search -------------------------------------------


def _exact_argmin_splits(X, y, rows):
    """All (feature, boundary value) minimising the exact weighted child
    Gini over `rows`, in (feature, threshold) order; [] when unsplittable.
    Per-candidate score: 2*l1*(nl-l1)/nl + 2*r1*(nr-r1)/nr as a Fraction."""
    best = None
    out = []
    n = len(rows)
    for f in range(X.shape[1]):
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        xs = vals[order]
        ones = np.cumsum(y[rows][order])
        total1 = int(ones[-1])
        for k in range(n - 1):
            if not xs[k + 1] > xs[k]:
                continue
            nl, nr = k + 1, n - k - 1
            l1 = int(ones[k])
            r1 = total1 - l1
            score = (Fraction(2 * l1 * (nl - l1), nl)
                     + Fraction(2 * r1 * (nr - r1), nr))
            if best is None or score < best:
                best = score
                out = []
            if score == best:
                out.append((f, float(xs[k])))
    return out


def _exhaustive_cart_correct(X, y):
    """Training rows classified correctly by greedy exhaustive-search CART
    (exact Gini, lowest feature/threshold on ties, leaves predict p1 > 1/2)."""
    correct = 0
    stack = [np.arange(len(y))]
    while stack:
        rows = stack.pop()
        ys = y[rows]
        splits = ([] if len(rows) < 2 or ys.min() == ys.max()
                  else _exact_argmin_splits(X, y, rows))
        if not splits:
            pred = 1 if 2 * int(ys.sum()) > len(ys) else 0
            correct += int(np.sum(ys == pred))
            continue
        f, bval = splits[0]
        go_left = X[rows, f] <= bval
        stack.append(rows[go_left])
        stack.append(rows[~go_left])
    return correct


def test_decision_tree_matches_exhaustive_search():
    root_ok = 0
    acc_ok = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(8, 31))
        X = rng.uniform(0.0, 1.0, (n, 2))
        y = (X[:, 0] + 0.7 * X[:, 1] > float(rng.uniform(0.6, 1.1))).astype(int)
        y ^= rng.random(n) < 0.2
        if y.min() == y.max():
            y[0] ^= 1
        model = fit_decision_tree(FeatureMatrix(X, y))

        f_i, thr_i = model.nodes["feature"][0], model.nodes["threshold"][0]
        members = _exact_argmin_splits(X, y, np.arange(n))
        root_ok += any(
            f_i == f and np.array_equal(X[:, f_i] <= thr_i, X[:, f] <= bv)
            for f, bv in members)
        impl_correct = int(np.sum(model.predict(X) == y))
        acc_ok += impl_correct == _exhaustive_cart_correct(X, y)
    _gate("decision tree: root split and training accuracy match exhaustive "
          "search on 50 random sets (n<=30, d=2)",
          root_ok == 50 and acc_ok == 50,
          f"root {root_ok}/50, accuracy {acc_ok}/50")


# -- analytic gradients vs central differences --------------------------------------


def test_gradient_checks():
    rng = np.random.default_rng(14)
    lr_worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        X = rng.normal(0, 1.5, (n, d))
        y = rng.integers(0, 2, n)
        sw = rng.uniform(0.5, 2.0, n)
        l2 = float(rng.uniform(0.0, 2.0))
        params = rng.normal(0, 0.8, d + 1)
        _, grad = logreg_objective(params, X, y, sw, l2)
        h = 1e-6
        fd = np.empty_like(params)
        for j in range(len(params)):
            e = np.zeros_like(params)
            e[j] = h
            fp, _ = logreg_objective(params + e, X, y, sw, l2)
            fm, _ = logreg_objective(params - e, X, y, sw, l2)
            fd[j] = (fp - fm) / (2 * h)
        lr_worst = max(lr_worst,
                       float(np.linalg.norm(fd - grad) / np.linalg.norm(grad)))

    rng = np.random.default_rng(22)
    gpc_worst = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 14))
        X = rng.normal(0, 1, (n, 2))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        ypm = np.where(y == 1, 1.0, -1.0)
        theta = rng.uniform(-1.0, 1.0, 2)
        _, grad = gpc_lml_and_grad(theta, X, ypm)
        h = 1e-5
        fd = np.empty(2)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fp, _ = gpc_lml_and_grad(theta + e, X, ypm)
            fm, _ = gpc_lml_and_grad(theta - e, X, ypm)
            fd[j] = (fp - fm) / (2 * h)
        gpc_worst = max(gpc_worst,
                        float(np.linalg.norm(fd - grad) / np.linalg.norm(grad)))
    _gate("gradients: logistic regression within 1e-6 and GP marginal "
          "likelihood within 1e-4 of central differences (20 cases each)",
          lr_worst <= 1e-6 and gpc_worst <= 1e-4,
          f"worst relative error LR {lr_worst:.2e}, GPC {gpc_worst:.2e}")


# -- perceptron convergence -------------------------------------------------------


def test_perceptron_converges_on_separable_data():
    errors = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        w = rng.normal(size=4)
        w /= np.linalg.norm(w)
        b = float(rng.normal() * 0.5)
        X = rng.normal(0.0, 2.0, (100, 4))
        z = X @ w + b
        # push every point to signed distance >= 1.05 from the plane
        short = np.abs(z) < 1.05
        X = X + (short * np.sign(z) * (1.05 - np.abs(z)))[:, None] * w
        y = ((X @ w + b) > 0).astype(int)
        assert 0 < y.sum() < len(y)
        hp = PerceptronParams(alpha=0.0, max_iter=500,
                              validation_fraction=0.0, n_iter_no_change=500)
        model = fit_perceptron(FeatureMatrix(X, y), hp, seed=seed)
        errors.append(int(np.sum(model.predict(X) != y)))
    _gate("perceptron: zero training errors on margin>=1 separable data "
          "(n=100, alpha=0, 10 seeds)",
          all(e == 0 for e in errors), f"error counts {errors}")


# -- novelty detector properties -----------------------------------------------------


def test_novelty_score_properties():
    # a single-leaf tree makes every expected path length exactly c(psi),
    # so the score must be exactly 2**-1
    leaf = {"feature": np.array([-1]), "threshold": np.array([0.0]),
            "left": np.array([-1]), "right": np.array([-1]),
            "size": np.array([256]), "depth": np.array([0])}
    scores = IsolationForestModel([leaf], 256, 2).anomaly_score(
        np.zeros((5, 2)))
    half_ok = bool(np.all(scores == 0.5))

    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        X = np.vstack([rng.normal(0.0, 1.0, (256, 2)), [[10.0, 10.0]]])
        model = fit_isolation_forest(X, IsoForestParams(seed=seed))
        hits += int(np.argmax(model.anomaly_score(X)) == 256)

    violations = []
    for nu in (0.05, 0.1, 0.25, 0.5):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(300 + seed)
            X = rng.normal(0.0, 1.0, (200, 2))
            m = fit_ocsvm(X, OcsvmParams(nu=nu))
            frac = float(np.mean(m.decision_score(X) < 0.0))
            if frac > nu + 1.0 / len(X):
                violations.append(f"nu={nu} seed={seed}: {frac:.3f}")
    _gate("novelty: score==0.5 at the mean path length, 10-sigma outlier "
          "most anomalous in >=19/20 seeds, one-class SVM outlier fraction "
          "<= nu + 1/n on all 12 fits",
          half_ok and hits >= 19 and not violations,
          f"exact-half {half_ok}, outlier top-ranked {hits}/20, "
          f"violations {violations or 'none'}")


# -- class weighting on heavy imbalance -----------------------------------------------


def test_class_weighting_lifts_minority_sensitivity():
    # 99:1 sessions; drop the pupil cue so the minority class is subtle
    # enough for an unweighted fit to under-detect
    imp = dataclasses.replace(ImpairmentParams.concussed(), pupil_shift_mm=0.0)
    diffs = []
    for seed in range(20):
        ds = generate_cohort(99, 1, "VMS", base_seed=seed,
                             concussed_impairment=imp, vms_repetitions=2)
        train, _, test = split(ds, SplitConfig(
            test_fraction=0.2, validation_fraction=0.0, seed=seed))
        cw = class_weights(train)
        weighted = fit_logreg(FeatureMatrix(
            train.features, train.labels, cw.per_sample(train.labels)))
        unweighted = fit_logreg(FeatureMatrix(train.features, train.labels))
        minority = test.labels == 1
        sens_w = float(np.mean(weighted.predict(test.features)[minority] == 1))
        sens_u = float(np.mean(unweighted.predict(test.features)[minority] == 1))
        diffs.append(sens_w - sens_u)
    med = statistics.median(diffs)
    _gate("class weights: weighted logistic regression beats unweighted by "
          ">=10 pp minority sensitivity (median of 20 seeds, 99:1 cohorts)",
          med >= 0.10, f"median lift {100 * med:.1f} pp")


# -- published-scale cohorts ---------------------------------------------------------

_TOP5 = ("RF", "DT", "SVC", "ADA", "GPC")


def test_pursuit_cohort_gates(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(test_kind="SP", n_control=100, n_concussed=100, seed=0,
                    outdir=str(tmp_path / "sp"),
                    models=_TOP5 + ("NB",),
                    test_fraction=0.2, validation_fraction=0.0)
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    problems = []
    for kind in _TOP5:
        ms = res.per_model[DISPLAY_NAMES[kind]]
        if ms.accuracy < 0.99:
            problems.append(f"{kind} accuracy {ms.accuracy:.2%}")
        if ms.sensitivity < 0.99:
            problems.append(f"{kind} sensitivity {ms.sensitivity:.2%}")
    nb = res.per_model[DISPLAY_NAMES["NB"]]
    if nb.accuracy < 0.95:
        problems.append(f"NB accuracy {nb.accuracy:.2%}")
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.0f}s > 300s")
    top5_min = min(min(res.per_model[DISPLAY_NAMES[k]].accuracy,
                       res.per_model[DISPLAY_NAMES[k]].sensitivity)
                   for k in _TOP5)
    _gate("smooth pursuit 100+100: RF/DT/SVM/AdaBoost/GPC >=99% accuracy "
          "and sensitivity, NB >=95%, runtime <=300s",
          not problems,
          "; ".join(problems) or
          f"top-5 floor {top5_min:.2%}, NB {nb.accuracy:.2%}, {elapsed:.0f}s")


def test_rotation_cohort_gates(tmp_path):
    cfg = RunConfig(test_kind="VMS", n_control=100, n_concussed=100, seed=0,
                    outdir=str(tmp_path / "vms"),
                    models=_TOP5 + ("LR", "PERC"),
                    test_fraction=0.2, validation_fraction=0.0)
    res = run_experiment(cfg)
    problems = []
    checks = [(kind, 0.98) for kind in _TOP5]
    checks += [("LR", 0.92), ("PERC", 0.92)]
    for kind, floor in checks:
        ms = res.per_model[DISPLAY_NAMES[kind]]
        for metric in ("accuracy", "f1", "auc"):
            v = getattr(ms, metric)
            if v < floor:
                problems.append(f"{kind} {metric} {v:.2%} < {floor:.0%}")
    floor5 = min(min(res.per_model[DISPLAY_NAMES[k]].accuracy,
                     res.per_model[DISPLAY_NAMES[k]].f1,
                     res.per_model[DISPLAY_NAMES[k]].auc) for k in _TOP5)
    floor_lin = min(min(res.per_model[DISPLAY_NAMES[k]].accuracy,
                        res.per_model[DISPLAY_NAMES[k]].f1,
                        res.per_model[DISPLAY_NAMES[k]].auc)
                    for k in ("LR", "PERC"))
    _gate("rotation 100+100: top five >=98% accuracy/F1/AUC, linear models "
          ">=92%",
          not problems,
          "; ".join(problems) or
          f"top-5 floor {floor5:.2%}, linear floor {floor_lin:.2%}")


# -- determinism ----------------------------------------------------------------------


def test_reproduce_is_deterministic(tmp_path):
    kw = dict(seed=0, n_control=2, n_concussed=2, models=("NB", "DT"),
              balanced_per_class=300, novelty_train=150,
              novelty_test_per_class=40, grid_resolution=4,
              novelty_methods=("iforest", "ocsvm"))
    reproduce(RunConfig(outdir=str(tmp_path / "a"), **kw))
    reproduce(RunConfig(outdir=str(tmp_path / "b"), **kw))
    same = []
    for rel in ("sp/report.csv", "vms/report.csv"):
        with open(tmp_path / "a" / rel, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / rel, "rb") as fh:
            same.append(first == fh.read())
    _gate("determinism: repeated full runs under one seed give "
          "byte-identical report CSVs",
          all(same), f"sp {same[0]}, vms {same[1]}")
