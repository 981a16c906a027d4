"""Gaze-frame dataset container, CSV wire format, splits and class weighting.

A frame is one eye-tracker sample: timestamp, three unit gaze directions
(left, right, cyclopean) in a right-handed camera frame (+z forward, +x
right, +y up), two pupil diameters in millimetres, two eyelid openness
values in [0, 1], and a binary label (0 = control, 1 = concussed).
"""
from __future__ import annotations

import csv
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidSpec, SingleClass

COLUMNS = [
    "session_id", "t",
    "lx", "ly", "lz", "rx", "ry", "rz", "cx", "cy", "cz",
    "lpupil", "rpupil", "lopen", "ropen",
    "label",
]
FEATURE_COLUMNS = COLUMNS[1:15]  # everything except session_id and label
N_FEATURES = len(FEATURE_COLUMNS)

TEST_KINDS = ("SP", "VMS")

# column slices inside the feature matrix: each eye's direction block
EYE_SLICES = {"left": slice(1, 4), "right": slice(4, 7), "cyclopean": slice(7, 10)}
_T = 0
_LPUPIL, _RPUPIL, _LOPEN, _ROPEN = 10, 11, 12, 13

UNIT_NORM_TOL = 1e-6       # constructor invariant on direction norms
CSV_NORM_TOL = 1e-3        # loader re-normalises deviations up to this


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so readers never see
    a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class GazeDataset:
    """Frames from one or more sessions, stored as a dense feature matrix.

    `features` has one row per frame in FEATURE_COLUMNS order; sessions are
    contiguous runs of equal `session_ids` and strictly increasing in t.
    """

    def __init__(self, features, labels, session_ids, test_kind, validate=True):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.session_ids = np.asarray(session_ids)
        self.test_kind = test_kind
        if validate:
            self._validate()

    # -- invariants ----------------------------------------------------------

    def _validate(self):
        if self.features.ndim != 2 or self.features.shape[1] != N_FEATURES:
            raise DataError(
                f"feature matrix must be (n, {N_FEATURES}), got {self.features.shape}")
        n = len(self.features)
        if len(self.labels) != n or len(self.session_ids) != n:
            raise DataError("features, labels and session_ids must align")
        if self.test_kind not in TEST_KINDS:
            raise InvalidSpec(f"unknown test kind {self.test_kind!r}")
        if n == 0:
            return
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite value in feature matrix")
        bad = ~np.isin(self.labels, (0, 1))
        if bad.any():
            raise DataError(f"labels must be 0 or 1, found {self.labels[bad][0]}")
        for name, sl in EYE_SLICES.items():
            norms = np.linalg.norm(self.features[:, sl], axis=1)
            dev = np.abs(norms - 1.0)
            if dev.max() > UNIT_NORM_TOL:
                i = int(dev.argmax())
                raise DataError(
                    f"{name} direction at row {i} has norm {norms[i]:.6f}")
        if self.features[:, [_LPUPIL, _RPUPIL]].min() <= 0:
            raise DataError("pupil diameters must be positive")
        op = self.features[:, [_LOPEN, _ROPEN]]
        if op.min() < 0 or op.max() > 1:
            raise DataError("openness must lie in [0, 1]")
        # strictly increasing time within each contiguous session run
        same = self.session_ids[1:] == self.session_ids[:-1]
        dt = np.diff(self.features[:, _T])
        if np.any(dt[same] <= 0):
            i = int(np.nonzero(same & (dt <= 0))[0][0])
            raise DataError(
                f"session {self.session_ids[i]!r}: t does not increase at row {i + 1}")

    # -- accessors -----------------------------------------------------------

    def __len__(self):
        return len(self.features)

    def eye_dirs(self, eye):
        """Direction block for eye in {'left', 'right', 'cyclopean'}."""
        sl = EYE_SLICES.get(eye)
        if sl is None:
            raise InvalidSpec(f"unknown eye channel {eye!r}")
        return self.features[:, sl]

    def class_counts(self):
        """(n_control, n_concussed), i.e. counts of labels 0 and 1."""
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))

    def subset(self, indices):
        """New dataset from `indices`, kept in ascending order so per-session
        time ordering survives."""
        idx = np.sort(np.asarray(indices, dtype=np.int64))
        return GazeDataset(
            self.features[idx], self.labels[idx], self.session_ids[idx],
            self.test_kind, validate=False)

    @classmethod
    def concatenate(cls, parts):
        parts = list(parts)
        if not parts:
            raise DataError("nothing to concatenate")
        kind = parts[0].test_kind
        if any(p.test_kind != kind for p in parts):
            raise InvalidSpec("cannot concatenate datasets of different test kinds")
        return cls(
            np.concatenate([p.features for p in parts]),
            np.concatenate([p.labels for p in parts]),
            np.concatenate([p.session_ids for p in parts]),
            kind, validate=False)


# -- CSV wire format ---------------------------------------------------------

def _csv_field(text):
    """`text` as one CSV field, with csv's minimal quoting: quoted, with
    each quote doubled, when it holds a comma, a quote, a CR or an LF, and
    as it is otherwise."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(ds, path):
    """Serialise to the 16-column CSV wire format; floats use repr so a
    load round-trips bit-exactly. Only a session id that needs it is
    quoted (`_csv_field`)."""
    sids = ds.session_ids.tolist()
    field = {sid: _csv_field(str(sid)) for sid in set(sids)}
    rows = zip(map(field.__getitem__, sids), ds.features.tolist(),
               map(str, ds.labels.tolist()))
    out = [",".join(COLUMNS)]
    out.extend([",".join([sid, *map(repr, feats), label]) for sid, feats, label in rows])
    atomic_write_text(path, "\n".join(out) + "\n")


def load_csv(path, test_kind):
    """Parse and validate the CSV wire format.

    A file laid out as write_csv writes it is parsed in one np.loadtxt
    pass; any other file is parsed row by row, which is also where every
    parse error is raised. Directions whose norm deviates from 1 by more
    than 1e-3 are rejected (DataError); smaller deviations are
    silently re-normalised.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not a text file: {e}") from None
    sids, feats, labels = _parse_written(text) or _parse_rows(text, path)
    for name, sl in EYE_SLICES.items():
        block = feats[:, sl]
        norms = np.linalg.norm(block, axis=1)
        dev = np.abs(norms - 1.0)
        if dev.max() > CSV_NORM_TOL:
            i = int(dev.argmax())
            raise DataError(
                f"{path}: row {i + 2}: {name} direction norm {norms[i]:.4f}")
        # re-normalise only rows that need it, so clean files round-trip
        # bit-exactly through repr()
        off = dev > UNIT_NORM_TOL
        if off.any():
            feats[np.nonzero(off)[0][:, None], np.arange(sl.start, sl.stop)] = (
                block[off] / norms[off, None])
    return GazeDataset(feats, labels, sids, test_kind)


_HEADER = ",".join(COLUMNS)
# one line with its end, as a file opened with newline="" yields it
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _parse_written(text):
    """(session_ids, features, labels) of a file in write_csv's exact
    shape, or None for any other file. Never raises a parse error.

    Every check below rules out a file on which np.loadtxt and the per-row
    parser could disagree: csv quoting, a CR that loadtxt strips silently,
    a NUL, a row whose extra or missing fields `usecols` would not notice,
    and a label the per-row parser rejects. loadtxt itself rejects what
    float() would not read the same way (blank fields, `1_0`), and
    `comments=None` keeps it from skipping `#` lines.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, *lines = text.split("\n")
    if header != _HEADER:
        return None
    lines = [line for line in lines if line]
    n_commas = len(COLUMNS) - 1
    if not lines or any(line.count(",") != n_commas for line in lines):
        return None
    labels = [line.rpartition(",")[2].strip() for line in lines]
    if not set(labels) <= {"0", "1"}:
        return None
    try:
        feats = np.loadtxt(lines, delimiter=",", usecols=range(1, 15),
                           comments=None, ndmin=2)
    except ValueError:
        return None
    sids = [line.partition(",")[0] for line in lines]
    return np.array(sids), feats, np.array(labels, dtype=np.int64)


def _parse_rows(text, path):
    """(session_ids, features, labels) read record by record with
    csv.reader; raises the loader's parse errors with their line numbers."""
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if header != COLUMNS:
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise DataError(f"{path}: missing column(s) {missing}")
        raise DataError(f"{path}: header must be exactly {COLUMNS}")
    sids, rows, labels = [], [], []
    for lineno, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(COLUMNS):
            raise DataError(
                f"{path}:{lineno}: expected {len(COLUMNS)} fields, got {len(rec)}")
        sids.append(rec[0])
        try:
            rows.append([float(v) for v in rec[1:15]])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from None
        lab = rec[15].strip()
        if lab not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {lab!r}")
        labels.append(int(lab))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.array(sids), np.array(rows, dtype=float), np.array(labels)


# -- splitting ---------------------------------------------------------------

@dataclass
class SplitConfig:
    """Train/validation/test partition parameters.

    Fractions are of the whole dataset (test) and of the remaining pool
    (validation). `by_session` switches the shuffled unit from frames to
    whole sessions.
    """

    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    seed: int = 0
    by_session: bool = False

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidSpec(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise InvalidSpec(
                f"validation_fraction must be in [0, 1), got {self.validation_fraction}")


def _round_half_up(x):
    return int(np.floor(x + 0.5))


def split_sizes(n, test_fraction, validation_fraction):
    """(n_train, n_val, n_test) under round-half-up arithmetic."""
    n_test = _round_half_up(test_fraction * n)
    n_val = _round_half_up(validation_fraction * (n - n_test))
    return n - n_test - n_val, n_val, n_test


def _allocate_per_class(counts, total_take):
    """Largest-remainder allocation of total_take across classes, proportional
    to counts; ties favour the lower class index."""
    counts = np.asarray(counts, dtype=float)
    ideal = counts * (total_take / counts.sum()) if counts.sum() else counts * 0.0
    base = np.floor(ideal).astype(int)
    base = np.minimum(base, counts.astype(int))
    left = int(total_take - base.sum())
    if left > 0:
        remainders = ideal - base
        # stable sort descending by remainder; ties keep class order
        order = np.argsort(-remainders, kind="stable")
        for c in order:
            if left == 0:
                break
            if base[c] < counts[c]:
                base[c] += 1
                left -= 1
    return base


def split(ds, cfg=None):
    """Partition into (train, validation, test) GazeDatasets.

    The shuffled unit is a frame, or under `by_session` a whole session.
    Every frame lands in exactly one part. The split is stratified: the
    per-class allocation uses largest remainders, so each class count is
    within one unit of the exact proportion.
    """
    cfg = cfg or SplitConfig()
    if len(ds) == 0:
        raise DataError("cannot split an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    # the label of each unit: of each frame, or of each session's first frame
    labels = ds.labels
    if cfg.by_session:
        sids, first = np.unique(ds.session_ids, return_index=True)
        labels = labels[first]
    n_train, n_val, n_test = split_sizes(len(labels), cfg.test_fraction,
                                         cfg.validation_fraction)
    by_class = [np.nonzero(labels == c)[0] for c in (0, 1)]
    if len(by_class[0]) == 0 or len(by_class[1]) == 0:
        raise SingleClass("stratified split needs both classes present")
    take_test = _allocate_per_class([len(u) for u in by_class], n_test)
    test_idx, pool_idx = [], []
    for c in (0, 1):
        perm = rng.permutation(by_class[c])
        test_idx.append(perm[: take_test[c]])
        pool_idx.append(perm[take_test[c]:])
    take_val = _allocate_per_class([len(p) for p in pool_idx], n_val)
    val_idx = np.concatenate([pool_idx[c][: take_val[c]] for c in (0, 1)])
    train_idx = np.concatenate([pool_idx[c][take_val[c]:] for c in (0, 1)])
    test_idx = np.concatenate(test_idx)
    parts = (train_idx, val_idx, test_idx)
    if cfg.by_session:
        parts = [np.nonzero(np.isin(ds.session_ids, sids[units]))[0] for units in parts]
    return tuple(ds.subset(frames) for frames in parts)


# -- class weighting ---------------------------------------------------------

@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency class weights: w_c = N / (2 * N_c), so each class
    contributes the same total weight N/2."""

    control: float
    concussed: float

    def per_sample(self, labels):
        labels = np.asarray(labels)
        return np.where(labels == 1, self.concussed, self.control)


def class_weights(ds_or_labels):
    labels = ds_or_labels.labels if isinstance(ds_or_labels, GazeDataset) else np.asarray(ds_or_labels)
    n = len(labels)
    if n == 0:
        raise DataError("cannot weight an empty dataset")
    n1 = int(np.sum(labels == 1))
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise SingleClass("class weighting needs both classes present")
    return ClassWeights(control=n / (2.0 * n0), concussed=n / (2.0 * n1))


def _draw_per_class(ds, take, seed):
    """take[c] frames of each label c, sampled without replacement from one
    generator, class 0 first (a draw of none consumes no randomness)."""
    rng = np.random.default_rng(seed)
    picked = [rng.choice(np.nonzero(ds.labels == c)[0], size=take[c], replace=False)
              for c in (0, 1)]
    return ds.subset(np.concatenate(picked))


def require_per_class(ds, per_class):
    """Raise DataError unless ds holds per_class frames of each label."""
    n0, n1 = ds.class_counts()
    if n0 < per_class or n1 < per_class:
        raise DataError(
            f"need {per_class} per class, have control={n0} concussed={n1}")


def balanced_subset(ds, per_class, seed=0):
    """Exactly per_class frames of each label, sampled without replacement."""
    require_per_class(ds, per_class)
    return _draw_per_class(ds, (per_class, per_class), seed)


def stratified_cap(ds, cap, seed=0):
    """At most cap frames, each label's share allocated by largest
    remainders and sampled without replacement; ds itself when it fits."""
    if len(ds) <= cap:
        return ds
    return _draw_per_class(ds, _allocate_per_class(ds.class_counts(), cap), seed)
