"""Spans around the public calls into each gazescreen layer, and the
per-layer metrics derived from them.

A `Tracer` replaces module and class attributes with timing wrappers while
it is installed and puts the originals back when it is removed, so untraced
runs execute the unmodified program. Every wrapped call becomes one `Span`
with its parent (the wrapped call it ran inside, if any), the time metric
its self-time is booked to, and the counts read from its arguments and
result. Nothing under ``src/`` is changed.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str               # the wrapped call, e.g. "pipeline.fit_model"
    metric: str             # time metric the span's self-time is booked to
    start: float
    end: float = None
    parent: int = None      # index of the enclosing span; None at top level
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self, targets):
        self.targets = targets  # [(owner, attr, labeler)]
        self.spans = []
        self._open = []
        self._saved = []

    def _wrapper(self, name, original, labeler):
        def traced(*args, **kwargs):
            span = Span(name, "", time.perf_counter(),
                        parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()
            span.metric, span.counts = labeler(args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("trace wrappers are already installed")
        for owner, attr, labeler in self.targets:
            original = getattr(owner, attr)
            name = f"{owner.__name__.removeprefix('gazescreen.')}.{attr}"
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, labeler))

    def remove(self):
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        leftover = [f"{owner.__name__}.{attr}" for owner, attr, original in saved
                    if getattr(owner, attr) is not original]
        if leftover:
            raise RuntimeError(f"trace wrappers still installed: {leftover}")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def dump(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls are sequential in one thread, so children of one span never
    overlap and their durations can simply be subtracted."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced iteration: self-times summed per
    time metric, counts summed over calls, and the share of the wall time
    that top-level spans account for."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.metric] = out.get(span.metric, 0.0) + own
        for key, value in span.counts.items():
            out[key] = out.get(key, 0) + value
    top = sum(s.seconds for s in spans if s.parent is None)
    out["pipeline.accounted_share"] = top / wall_s
    return out


# -- what is wrapped in gazescreen ---------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _model_counts(model):
    """Fit diagnostics read from a fitted or loaded model's public
    attributes and meta; they move no timing but must repeat exactly."""
    k, meta = model.kind, model.meta
    if k == "SVC":
        return {"models.SVC.n_support": meta["n_support"],
                "models.SVC.converged": int(model.converged)}
    if k == "GPC":
        return {"models.GPC.converged": int(model.converged)}
    if k == "LR":
        return {"models.LR.n_iter": meta["n_iter"]}
    if k == "PERC":
        return {"models.PERC.n_epochs": meta["n_epochs"]}
    if k == "DT":
        return {"models.DT.nodes": model.n_nodes}
    if k == "RF":
        return {"models.RF.nodes": sum(len(t["feature"]) for t in model.trees)}
    if k == "ADA":
        return {"models.ADA.rounds": meta["n_rounds"]}
    return {}


def _fixed(metric):
    return lambda args, kwargs, result: (metric, {})


def _cohort(args, kwargs, ds):
    return "simulate.cohort_s", {"simulate.frames": len(ds)}


def _split(args, kwargs, parts):
    train, _, test = parts
    return "data.split_s", {"data.rows_train": len(train), "data.rows_test": len(test)}


def _fit(args, kwargs, model):
    kind, fm = _arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "fm")
    return f"models.{kind}.fit_s", {f"models.{kind}.fit_rows": fm.n, **_model_counts(model)}


def _load(args, kwargs, model):
    return "models.load_s", _model_counts(model)


def _score(args, kwargs, scores):
    kind = args[0].kind
    return f"models.{kind}.score_s", {f"models.{kind}.score_calls": 1}


def _novelty_fit(method):
    def label(args, kwargs, model):
        counts = {"novelty.train_rows": len(_arg(args, kwargs, 0, "X"))}
        if method == "ocsvm":
            counts["novelty.ocsvm.n_support"] = len(model.alphas)
            counts["novelty.ocsvm.converged"] = int(model.converged)
        return f"novelty.{method}.fit_s", counts
    return label


def _grid(args, kwargs, grid):
    from gazescreen.novelty import IsolationForestModel

    model = _arg(args, kwargs, 0, "model")
    method = "iforest" if isinstance(model, IsolationForestModel) else "ocsvm"
    return f"novelty.{method}.grid_s", {}


def gazescreen_targets():
    """The public calls wrapped in a traced run, as (owner, attr, labeler).

    Functions are wrapped where the calling module looks them up
    (``pipeline`` imports them by name; the CLI imports ``load_csv``)."""
    from gazescreen import cli, metrics, pipeline
    from gazescreen.models import FittedModel
    from gazescreen.novelty import BoundaryGrid

    return [
        (pipeline, "synthesize_cohort", _cohort),
        (pipeline, "load_csv", _fixed("data.load_csv_s")),
        (cli, "load_csv", _fixed("data.load_csv_s")),
        (pipeline, "split", _split),
        (pipeline, "training_matrix", _fixed("pipeline.weight_s")),
        (pipeline, "fit_model", _fit),
        (pipeline, "load_model", _load),
        (FittedModel, "decision_score", _score),
        (FittedModel, "save", _fixed("models.save_s")),
        (metrics, "evaluate_predictions", _fixed("metrics.evaluate_s")),
        (metrics, "render_report_text", _fixed("metrics.render_s")),
        (metrics, "render_report_csv", _fixed("metrics.render_s")),
        (pipeline, "fit_isolation_forest", _novelty_fit("iforest")),
        (pipeline, "fit_ocsvm", _novelty_fit("ocsvm")),
        (pipeline, "export_boundary_grid", _grid),
        (BoundaryGrid, "to_csv_text", _fixed("novelty.grid_csv_s")),
    ]
