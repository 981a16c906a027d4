"""Dataset container, CSV wire format, split arithmetic and weighting."""
import csv
import io
import math
import os
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescreen import data as data_mod
from gazescreen.data import (
    COLUMNS,
    GazeDataset,
    SplitConfig,
    balanced_subset,
    class_weights,
    load_csv,
    split,
    split_sizes,
    write_csv,
)
from gazescreen.errors import DataError, InvalidSpec, SingleClass
from gazescreen.simulate import SessionSpec, generate_cohort, simulate_session


def toy_dataset(n=10, label_pattern=None, kind="SP"):
    """Minimal valid dataset: straight-ahead gaze, increasing t."""
    feats = np.zeros((n, 14))
    feats[:, 0] = np.arange(n) / 90.0
    for sl in (slice(1, 4), slice(4, 7), slice(7, 10)):
        feats[:, sl] = [0.0, 0.0, 1.0]
    feats[:, 10:12] = 3.5
    feats[:, 12:14] = 1.0
    labels = np.zeros(n, dtype=int) if label_pattern is None else np.asarray(label_pattern)
    return GazeDataset(feats, labels, np.array(["s0"] * n), kind)


class TestValidation:
    def test_accepts_valid(self):
        ds = toy_dataset()
        assert len(ds) == 10
        assert ds.class_counts() == (10, 0)

    def test_rejects_bad_label(self):
        with pytest.raises(DataError, match="labels must be 0 or 1, found 2"):
            toy_dataset(label_pattern=[0] * 9 + [2])

    def test_rejects_non_unit_direction(self):
        ds = toy_dataset()
        feats = ds.features.copy()
        feats[3, 1:4] = [0.0, 0.0, 1.01]
        with pytest.raises(DataError, match="left direction at row 3 has norm 1.01"):
            GazeDataset(feats, ds.labels, ds.session_ids, "SP")

    def test_rejects_non_monotonic_time(self):
        ds = toy_dataset()
        feats = ds.features.copy()
        feats[5, 0] = feats[4, 0]
        with pytest.raises(DataError, match="t does not increase at row 5"):
            GazeDataset(feats, ds.labels, ds.session_ids, "SP")

    def test_time_reset_allowed_across_sessions(self):
        ds = toy_dataset()
        sids = ds.session_ids.copy()
        sids[5:] = "s1"
        feats = ds.features.copy()
        feats[5:, 0] = feats[:5, 0]  # second session restarts at 0
        GazeDataset(feats, ds.labels, sids, "SP")

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            toy_dataset(kind="NEITHER")


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = simulate_session(SessionSpec(test_kind="SP", label=1, seed=9))
        path = tmp_path / "g.csv"
        write_csv(ds, path)
        back = load_csv(path, "SP")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert list(back.session_ids) == list(ds.session_ids)

    @pytest.mark.parametrize("sid, written", [
        ("a,b", '"a,b"'), ('q"t', '"q""t"'), ("line\nbreak", '"line\nbreak"'),
        ("cr\rlf\r\n", '"cr\rlf\r\n"')])
    def test_session_id_needing_quotes_round_trips(self, tmp_path, sid, written):
        ds = toy_dataset(3)
        ds = GazeDataset(ds.features, ds.labels, np.array([sid, "plain", sid]), "SP")
        path = tmp_path / "q.csv"
        write_csv(ds, path)
        with open(path, newline="") as fh:
            text = fh.read()
        assert text.split("\n", 1)[1].startswith(written + ",")
        assert "\nplain," in text
        back = load_csv(path, "SP")
        assert list(back.session_ids) == [sid, "plain", sid]
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.labels, ds.labels)

    def test_three_row_round_trip(self, tmp_path):
        ds = toy_dataset(3)
        path = tmp_path / "t.csv"
        write_csv(ds, path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ",".join(COLUMNS)
        back = load_csv(path, "SP")
        assert np.array_equal(back.features, ds.features)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("session_id,t,lx\n")
        with pytest.raises(DataError, match=r"bad\.csv: missing column\(s\)"):
            load_csv(path, "SP")

    def test_bad_label_rejected(self, tmp_path):
        ds = toy_dataset(3)
        path = tmp_path / "t.csv"
        write_csv(ds, path)
        text = path.read_text().replace("\n", ",", 0)
        lines = text.splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",7"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"t\.csv:2: label must be 0 or 1, got '7'"):
            load_csv(path, "SP")

    def test_slightly_off_norms_renormalised(self, tmp_path):
        ds = toy_dataset(3)
        path = tmp_path / "t.csv"
        write_csv(ds, path)
        text = path.read_text().replace("0.0,0.0,1.0", "0.0,0.0,1.0005")
        path.write_text(text)
        back = load_csv(path, "SP")
        assert np.allclose(np.linalg.norm(back.eye_dirs("left"), axis=1), 1.0, atol=1e-12)

    def test_badly_off_norms_rejected(self, tmp_path):
        ds = toy_dataset(3)
        path = tmp_path / "t.csv"
        write_csv(ds, path)
        path.write_text(path.read_text().replace("0.0,0.0,1.0", "0.0,0.0,1.2"))
        with pytest.raises(DataError, match=r"t\.csv: row 2: left direction norm 1\.2000"):
            load_csv(path, "SP")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataError, match=r"e\.csv: empty file"):
            load_csv(path, "SP")

    # the edges of the wire format; each file below is one that write_csv
    # does not produce, so the loader must read it (or reject it) row by row

    @staticmethod
    def toy_lines(tmp_path):
        """Header plus three rows of toy_dataset(3), as write_csv lays them out."""
        path = tmp_path / "toy.csv"
        write_csv(toy_dataset(3), path)
        return path.read_text().splitlines()

    @staticmethod
    def load_lines(tmp_path, lines, end="\n"):
        path = tmp_path / "edited.csv"
        path.write_bytes((end.join(lines) + end).encode())
        return path, load_csv(path, "SP")

    def test_blank_lines_skipped(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        _, back = self.load_lines(tmp_path, [lines[0], "", lines[1], "", "", *lines[2:], ""])
        assert np.array_equal(back.features, toy_dataset(3).features)
        assert list(back.session_ids) == ["s0"] * 3

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_loads_as_lf(self, tmp_path, end):
        lines = self.toy_lines(tmp_path)
        _, lf = self.load_lines(tmp_path, lines)
        _, crlf = self.load_lines(tmp_path, lines, end=end)
        assert np.array_equal(crlf.features, lf.features)
        assert np.array_equal(crlf.labels, lf.labels)
        assert list(crlf.session_ids) == list(lf.session_ids)

    def test_quoted_session_id_with_comma(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        lines[1:] = ['"s,0"' + ln[len("s0"):] for ln in lines[1:]]
        _, back = self.load_lines(tmp_path, lines)
        assert list(back.session_ids) == ["s,0"] * 3
        assert np.array_equal(back.features, toy_dataset(3).features)

    def test_whitespace_only_line_rejected_with_line_number(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        lines.insert(2, "   ")
        with pytest.raises(DataError, match=r"edited\.csv:3: expected 16 fields, got 1"):
            self.load_lines(tmp_path, lines)

    @pytest.mark.parametrize("n_fields", [15, 17])
    def test_wrong_field_count_rejected_with_line_number(self, tmp_path, n_fields):
        lines = self.toy_lines(tmp_path)
        fields = lines[3].split(",")
        lines[3] = ",".join(fields[:15] if n_fields == 15 else [*fields, "0"])
        with pytest.raises(DataError,
                           match=rf"edited\.csv:4: expected 16 fields, got {n_fields}"):
            self.load_lines(tmp_path, lines)

    def test_non_numeric_feature_rejected_with_line_number(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        fields = lines[2].split(",")
        fields[5] = "abc"
        lines[2] = ",".join(fields)
        with pytest.raises(DataError, match=r"edited\.csv:3: could not convert"):
            self.load_lines(tmp_path, lines)

    def test_label_with_spaces_accepted(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        lines[2] = lines[2].rsplit(",", 1)[0] + ", 1 "
        _, back = self.load_lines(tmp_path, lines)
        assert list(back.labels) == [0, 1, 0]

    def test_comment_line_rejected(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        lines.insert(2, "# a comment")
        with pytest.raises(DataError, match=r"edited\.csv:3: expected 16 fields"):
            self.load_lines(tmp_path, lines)

    def test_hash_is_an_ordinary_session_id_character(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        lines[1:] = ["#" + ln for ln in lines[1:]]
        _, back = self.load_lines(tmp_path, lines)
        assert list(back.session_ids) == ["#s0"] * 3

    def test_underscore_digits_read_as_float_reads_them(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        fields = lines[2].split(",")
        fields[11] = "1_0"                    # lpupil
        lines[2] = ",".join(fields)
        _, back = self.load_lines(tmp_path, lines)
        assert back.features[1, 10] == 10.0

    def test_nan_feature_rejected(self, tmp_path):
        lines = self.toy_lines(tmp_path)
        fields = lines[2].split(",")
        fields[1] = "nan"                     # t
        lines[2] = ",".join(fields)
        with pytest.raises(DataError, match="non-finite value in feature matrix"):
            self.load_lines(tmp_path, lines)


def write_csv_rows(ds):
    """Reference: the wire format written one numpy scalar at a time."""
    out = [",".join(COLUMNS)]
    feats = ds.features
    for i in range(len(ds)):
        row = [str(ds.session_ids[i])]
        row.extend(repr(float(v)) for v in feats[i])
        row.append(str(int(ds.labels[i])))
        out.append(",".join(row))
    return "\n".join(out) + "\n"


# values whose repr or parse is easy to get wrong, and their neighbours
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1e16, 1e22, 0.1, 1.0 / 3.0, 1.7976931348623157e308]
_floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(lambda v: math.nextafter(v, math.inf)),
    st.sampled_from(_EDGE_FLOATS).map(lambda v: math.nextafter(v, -math.inf)))


@st.composite
def wire_datasets(draw):
    """An unvalidated dataset of any finite or non-finite features, with
    session ids that write_csv can write without quoting."""
    n = draw(st.integers(1, 12))
    feats = draw(st.lists(st.lists(_floats, min_size=14, max_size=14),
                          min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sids = draw(st.lists(st.text("ab-_ #.09", max_size=6), min_size=n, max_size=n))
    return GazeDataset(np.array(feats), labels, np.array(sids), "SP", validate=False)


def same_parse(a, b):
    """Bit-for-bit equal (session_ids, features, labels)."""
    return (list(a[0]) == list(b[0]) and a[1].shape == b[1].shape
            and a[1].tobytes() == b[1].tobytes() and np.array_equal(a[2], b[2])
            and a[2].dtype == b[2].dtype)


class TestCsvOneParse:
    """The one-pass parse of write_csv's layout against the per-row parser."""

    @settings(max_examples=150, deadline=None)
    @given(wire_datasets())
    def test_write_csv_bytes_match_per_row_writer(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/w.csv"
            write_csv(ds, path)
            with open(path, "rb") as fh:
                assert fh.read() == write_csv_rows(ds).encode()

    @settings(max_examples=150, deadline=None)
    @given(wire_datasets())
    def test_written_file_parses_as_per_row(self, ds):
        text = write_csv_rows(ds)
        fast = data_mod._parse_written(text)
        assert fast is not None
        assert same_parse(fast, data_mod._parse_rows(text, "w.csv"))

    @settings(max_examples=300, deadline=None)
    @given(wire_datasets(), st.lists(st.tuples(
        st.integers(0, 10**6), st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from(list(',"\r\n\x00 \t#_e+-.naif019\x0b\x0c\x85\u2028\u0661'))),
        min_size=1, max_size=4))
    def test_edited_file_parses_as_per_row_or_falls_back(self, ds, edits):
        text = write_csv_rows(ds)
        for pos, op, ch in edits:
            pos %= len(text) + 1
            if op == "insert":
                text = text[:pos] + ch + text[pos:]
            elif op == "delete":
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + ch + text[pos + 1:]
        try:
            expected = data_mod._parse_rows(text, "e.csv")
        except (DataError, csv.Error):
            expected = None
        fast = data_mod._parse_written(text)         # never raises
        if expected is None:
            assert fast is None
        elif fast is not None:
            assert same_parse(fast, expected)

    @given(st.text(alphabet="a,\r\n", max_size=30))
    def test_lines_split_as_a_file_splits_them(self, text):
        expected = list(io.StringIO(text, newline=""))
        assert [m.group() for m in data_mod._LINE.finditer(text)] == expected

    def test_load_csv_same_as_per_row(self, tmp_path, monkeypatch):
        ds = simulate_session(SessionSpec(test_kind="SP", label=1, seed=3))
        path = tmp_path / "s.csv"
        write_csv(ds, path)
        fast = load_csv(path, "SP")
        monkeypatch.setattr(data_mod, "_parse_written", lambda text: None)
        rows = load_csv(path, "SP")
        assert same_parse((fast.session_ids, fast.features, fast.labels),
                          (rows.session_ids, rows.features, rows.labels))


class TestSplitArithmetic:
    def test_published_scale_counts(self):
        # 1,373,333 frames at test 0.2: 274,667 test / 1,098,666 train+val
        n_train, n_val, n_test = split_sizes(1_373_333, 0.2, 0.0)
        assert n_test == 274_667
        assert n_train + n_val == 1_098_666

    def test_small_exact(self):
        assert split_sizes(10, 0.2, 0.0) == (8, 0, 2)
        assert split_sizes(100, 0.2, 0.1) == (72, 8, 20)

    def test_stratified_allocation_example(self):
        # 100 frames, 90/10 classes, test 0.2 -> 18 + 2
        ds = toy_dataset(100, label_pattern=[0] * 90 + [1] * 10)
        tr, va, te = split(ds, SplitConfig(test_fraction=0.2,
                                           validation_fraction=0.0, seed=1))
        assert len(te) == 20
        assert te.class_counts() == (18, 2)

    def test_partition_and_ratio_preservation(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(997) < 0.3).astype(int)
        ds = toy_dataset(997, label_pattern=labels)
        cfg = SplitConfig(test_fraction=0.25, validation_fraction=0.1, seed=3)
        tr, va, te = split(ds, cfg)
        assert len(tr) + len(va) + len(te) == 997
        # class ratio within one frame of exact proportion per part
        n1 = labels.sum()
        for part in (te, va, tr):
            expect = n1 * len(part) / 997
            assert abs(part.class_counts()[1] - expect) <= 1.0 + 1e-9

    def test_deterministic_and_seed_sensitive(self):
        labels = np.tile([0, 0, 0, 1], 50)
        ds = toy_dataset(200, label_pattern=labels)
        a = split(ds, SplitConfig(seed=5))
        b = split(ds, SplitConfig(seed=5))
        c = split(ds, SplitConfig(seed=6))
        assert np.array_equal(a[2].features, b[2].features)
        assert not np.array_equal(a[2].features, c[2].features)

    def test_single_class_stratify_raises(self):
        ds = toy_dataset(50)
        with pytest.raises(SingleClass, match="stratified split needs both classes present"):
            split(ds, SplitConfig())

    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidSpec):
            SplitConfig(test_fraction=0.0)
        with pytest.raises(InvalidSpec):
            SplitConfig(test_fraction=1.2)
        with pytest.raises(InvalidSpec):
            SplitConfig(validation_fraction=1.0)

    def test_empty_dataset_raises(self):
        ds = toy_dataset(3).subset([])
        with pytest.raises(DataError, match="cannot split an empty dataset"):
            split(ds, SplitConfig())

    def test_split_by_session_keeps_sessions_whole(self):
        parts = [simulate_session(SessionSpec("SP", label=i % 2, seed=i,
                                              session_id=f"s{i}", sp_phase_s=0.5))
                 for i in range(10)]
        ds = GazeDataset.concatenate(parts)
        tr, va, te = split(ds, SplitConfig(test_fraction=0.2, seed=2,
                                           by_session=True))
        for a, b in ((tr, te), (tr, va), (va, te)):
            assert not set(a.session_ids) & set(b.session_ids)
        assert len(tr) + len(va) + len(te) == len(ds)

    @given(st.integers(1, 4000), st.floats(0.05, 0.9), st.floats(0.0, 0.5))
    @settings(deadline=None, max_examples=60)
    def test_sizes_partition_everything(self, n, tf, vf):
        n_train, n_val, n_test = split_sizes(n, tf, vf)
        assert n_train + n_val + n_test == n
        assert min(n_train, n_val, n_test) >= 0


class TestWeights:
    def test_tiny_example(self):
        w = class_weights([0, 0, 0, 1])
        assert w.control == pytest.approx(4 / 6, abs=0)
        assert w.concussed == pytest.approx(2.0, abs=0)

    def test_published_scale_values(self):
        # 1,089,990 control + 8,676 concussed training frames
        n0, n1 = 1_089_990, 8_676
        labels = np.concatenate([np.zeros(0)])  # arithmetic only below
        n = n0 + n1
        w0 = n / (2.0 * n0)
        w1 = n / (2.0 * n1)
        assert w0 == pytest.approx(0.50398, abs=5e-6)
        assert w1 == pytest.approx(63.3164, abs=5e-5)
        # both classes contribute the same total weight
        assert w0 * n0 == pytest.approx(w1 * n1, rel=1e-12)

    def test_equal_total_weight_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = rng.integers(0, 2, int(rng.integers(2, 500)))
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            w = class_weights(labels)
            n0 = int(np.sum(labels == 0))
            n1 = len(labels) - n0
            assert w.control * n0 == pytest.approx(w.concussed * n1, rel=1e-12)
            assert w.control * n0 == pytest.approx(len(labels) / 2, rel=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            class_weights([1, 1, 1])

    def test_balanced_subset(self):
        labels = np.array([0] * 700 + [1] * 300)
        ds = toy_dataset(1000, label_pattern=labels)
        sub = balanced_subset(ds, 250, seed=2)
        assert len(sub) == 500
        assert sub.class_counts() == (250, 250)
        again = balanced_subset(ds, 250, seed=2)
        assert np.array_equal(sub.features, again.features)

    def test_balanced_subset_insufficient(self):
        labels = np.array([0] * 900 + [1] * 100)
        ds = toy_dataset(1000, label_pattern=labels)
        with pytest.raises(DataError, match="need 101 per class, have control=900 concussed=100"):
            balanced_subset(ds, 101)


def test_cohort_concatenation_is_valid():
    ds = generate_cohort(2, 3, "VMS", base_seed=8, vms_repetitions=1)
    assert len(set(ds.session_ids)) == 5
    # constructor invariants all hold on the concatenation
    GazeDataset(ds.features, ds.labels, ds.session_ids, "VMS")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    # a report, model file or cohort CSV is as readable as any file the
    # user creates, and the temp file it was written through is gone
    old = os.umask(umask)
    try:
        data_mod.atomic_write_text(str(tmp_path / "report.csv"), "metric,model,value_percent\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "report.csv").st_mode) == mode
    assert os.listdir(tmp_path) == ["report.csv"]
