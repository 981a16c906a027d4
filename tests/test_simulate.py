"""Trajectory geometry, impairment semantics, and reproducibility."""
import math

import numpy as np
import pytest

from gazescreen.errors import InvalidSpec
from gazescreen.simulate import (
    ImpairmentParams,
    SessionSpec,
    generate_cohort,
    simulate_session,
    target_trajectory,
)

CLEAN = ImpairmentParams(pursuit_gain=1.0, latency_s=0.0, noise_deg=0.0,
                         intrusion_rate_hz=0.0, intrusion_amp_deg=0.0)

HALF_ANGLE = math.atan(0.5)  # 3 ft extent at 3 ft: endpoint yaw = atan(1.5/3)


def yaw(dirs):
    d = np.atleast_2d(dirs)
    return np.arctan2(d[:, 0], d[:, 2])


def pitch(dirs):
    d = np.atleast_2d(dirs)
    return np.arctan2(d[:, 1], d[:, 2])


def angle_between(a, b):
    # atan2 form stays accurate for tiny angles, unlike arccos(dot)
    cross = np.linalg.norm(np.cross(a, b), axis=-1)
    dot = np.einsum("ij,ij->i", a, b)
    return np.arctan2(cross, dot)


class TestTrajectoryGeometry:
    def test_sp_starts_at_left_endpoint(self):
        spec = SessionSpec("SP")
        d = target_trajectory(spec, 0.0)
        assert yaw(d)[0] == pytest.approx(-HALF_ANGLE, abs=1e-12)
        assert pitch(d)[0] == pytest.approx(0.0, abs=1e-12)
        assert math.degrees(HALF_ANGLE) == pytest.approx(26.565, abs=5e-4)

    def test_sp_crosses_centre_mid_beat(self):
        spec = SessionSpec("SP")
        d = target_trajectory(spec, spec.sweep_period_s / 4.0)
        assert np.allclose(d, [0.0, 0.0, 1.0], atol=1e-12)

    def test_sp_reaches_right_endpoint(self):
        spec = SessionSpec("SP")
        d = target_trajectory(spec, spec.sweep_period_s / 2.0)
        assert yaw(d)[0] == pytest.approx(HALF_ANGLE, abs=1e-12)

    def test_sp_vertical_phase(self):
        spec = SessionSpec("SP")
        d = target_trajectory(spec, spec.sp_phase_s)  # vertical sweep start
        assert pitch(d)[0] == pytest.approx(-HALF_ANGLE, abs=1e-12)
        assert yaw(d)[0] == pytest.approx(0.0, abs=1e-12)

    def test_sp_periods_and_length(self):
        spec = SessionSpec("SP")
        assert spec.metronome_bpm == 180.0
        assert spec.sweep_period_s == pytest.approx(2 / 3)
        assert spec.duration_s == pytest.approx(20.0)
        assert spec.n_frames == 1800

    def test_vms_quarter_points(self):
        spec = SessionSpec("VMS")
        d0 = target_trajectory(spec, 0.0)
        assert np.allclose(d0, [-1.0, 0.0, 0.0], atol=1e-12)
        d1 = target_trajectory(spec, 0.6)
        assert np.allclose(d1, [0.0, 0.0, 1.0], atol=1e-12)
        d2 = target_trajectory(spec, 1.2)
        assert np.allclose(d2, [1.0, 0.0, 0.0], atol=1e-12)

    def test_vms_periods_and_length(self):
        spec = SessionSpec("VMS")
        assert spec.metronome_bpm == 50.0
        assert spec.sweep_period_s == pytest.approx(2.4)
        assert spec.duration_s == pytest.approx(24.0)
        assert spec.n_frames == 2160

    def test_vms_periodicity(self):
        spec = SessionSpec("VMS")
        t = np.linspace(0.0, 2.4, 97)
        assert np.allclose(target_trajectory(spec, t),
                           target_trajectory(spec, t + 2.4), atol=1e-12)

    def test_trajectories_unit_norm(self):
        for kind in ("SP", "VMS"):
            spec = SessionSpec(kind)
            t = np.linspace(0.0, spec.duration_s, 500)
            norms = np.linalg.norm(target_trajectory(spec, t), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-12)

    def test_out_of_range_time(self):
        spec = SessionSpec("SP")
        with pytest.raises(InvalidSpec, match=r"t must lie in \[0, .*\], got \[-0\.5, -0\.5\]"):
            target_trajectory(spec, -0.5)
        with pytest.raises(InvalidSpec, match=r"t must lie in \[0, "):
            target_trajectory(spec, spec.duration_s + 1.0)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidSpec):
            SessionSpec("XX")

    def test_bad_label(self):
        with pytest.raises(InvalidSpec):
            SessionSpec("SP", label=3)

    def test_bad_impairment(self):
        with pytest.raises(InvalidSpec):
            ImpairmentParams(pursuit_gain=0.0)
        with pytest.raises(InvalidSpec):
            ImpairmentParams(latency_s=-0.1)
        with pytest.raises(InvalidSpec):
            ImpairmentParams(noise_deg=45.0)


class TestEyeModel:
    def test_clean_session_tracks_exactly(self):
        for kind in ("SP", "VMS"):
            spec = SessionSpec(kind, seed=3, impairment=CLEAN)
            ds = simulate_session(spec)
            target = target_trajectory(spec, ds.features[:, 0])
            assert np.array_equal(ds.eye_dirs("left"), target)
            assert np.array_equal(ds.eye_dirs("right"), target)
            assert np.allclose(ds.eye_dirs("cyclopean"), target, atol=1e-14)

    def test_emitted_directions_unit_norm(self):
        ds = simulate_session(SessionSpec("VMS", label=1, seed=11))
        for eye in ("left", "right", "cyclopean"):
            assert np.allclose(np.linalg.norm(ds.eye_dirs(eye), axis=1), 1.0, atol=1e-9)

    def test_gain_scales_eccentricity(self):
        imp = ImpairmentParams(pursuit_gain=0.75, latency_s=0.0, noise_deg=0.0,
                               intrusion_rate_hz=0.0, intrusion_amp_deg=0.0)
        spec = SessionSpec("VMS", seed=0, impairment=imp)
        ds = simulate_session(spec)
        target = target_trajectory(spec, ds.features[:, 0])
        ecc_target = np.arccos(np.clip(target[:, 2], -1, 1))
        ecc_eye = np.arccos(np.clip(ds.eye_dirs("left")[:, 2], -1, 1))
        assert np.allclose(ecc_eye, 0.75 * ecc_target, atol=1e-9)
        # undershoot keeps the sign of the yaw
        assert np.all(np.sign(np.round(ds.eye_dirs("left")[:, 0], 12))
                      == np.sign(np.round(target[:, 0], 12)))

    def test_latency_shifts_eye_behind_target(self):
        imp = ImpairmentParams(pursuit_gain=1.0, latency_s=0.1, noise_deg=0.0,
                               intrusion_rate_hz=0.0, intrusion_amp_deg=0.0)
        spec = SessionSpec("VMS", seed=0, impairment=imp)
        ds = simulate_session(spec)
        target = target_trajectory(spec, ds.features[:, 0])
        ex, tx = ds.eye_dirs("left")[:, 0], target[:, 0]

        def corr_at(lag):
            a, b = ex[lag:], tx[: len(tx) - lag if lag else None]
            return np.corrcoef(a, b)[0, 1]

        lags = np.arange(0, 30)
        best = lags[np.argmax([corr_at(k) for k in lags])]
        assert best == 9  # 0.1 s at 90 Hz

    def test_noise_scales_same_seed_draws(self):
        def errs(noise_deg):
            imp = ImpairmentParams(pursuit_gain=1.0, latency_s=0.0,
                                   noise_deg=noise_deg,
                                   intrusion_rate_hz=0.0, intrusion_amp_deg=0.0)
            spec = SessionSpec("SP", seed=7, impairment=imp)
            ds = simulate_session(spec)
            target = target_trajectory(spec, ds.features[:, 0])
            return angle_between(ds.eye_dirs("left"), target)

        small, big = errs(0.3), errs(1.2)
        nz = small > 1e-10
        assert np.allclose(big[nz] / small[nz], 4.0, rtol=1e-6)

    def test_intrusions_are_square_pulses(self):
        imp = ImpairmentParams(pursuit_gain=1.0, latency_s=0.0, noise_deg=0.0,
                               intrusion_rate_hz=1.0, intrusion_amp_deg=3.0)
        spec = SessionSpec("SP", seed=5, impairment=imp)
        ds = simulate_session(spec)
        target = target_trajectory(spec, ds.features[:, 0])
        err = angle_between(ds.eye_dirs("left"), target)
        nonzero = err[err > 1e-9]
        frac = len(nonzero) / len(err)
        assert 0.01 < frac < 0.3  # ~rate * pulse width of the session
        # single-event frames dominate, so the typical deviation is the
        # configured amplitude
        assert np.median(nonzero) == pytest.approx(np.deg2rad(3.0), abs=1e-9)

    def test_zero_rate_means_no_intrusions(self):
        spec = SessionSpec("SP", seed=5, impairment=CLEAN)
        ds = simulate_session(spec)
        target = target_trajectory(spec, ds.features[:, 0])
        assert np.array_equal(ds.eye_dirs("left"), target)

    def test_pupil_shift_and_floor(self):
        ctl = simulate_session(SessionSpec("SP", label=0, seed=1))
        con = simulate_session(SessionSpec("SP", label=1, seed=1))
        shift = con.features[:, 10].mean() - ctl.features[:, 10].mean()
        assert shift == pytest.approx(1.0, abs=0.05)
        # heavy negative shift pins readings at the device floor
        imp = ImpairmentParams(pupil_shift_mm=-3.2)
        ds = simulate_session(SessionSpec("SP", seed=2, impairment=imp))
        pupils = ds.features[:, 10:12]
        assert pupils.min() >= 0.5
        assert (pupils == 0.5).mean() > 0.5

    def test_openness_range(self):
        ds = simulate_session(SessionSpec("VMS", label=1, seed=4))
        openness = ds.features[:, 12:14]
        assert openness.min() >= 0.0 and openness.max() <= 1.0
        assert openness.mean() > 0.97


class TestSpectrum:
    def test_sp_sweep_frequency_matches_metronome(self):
        spec = SessionSpec("SP", seed=0, impairment=CLEAN)
        ds = simulate_session(spec)
        x = ds.eye_dirs("cyclopean")[:900, 0]  # horizontal phase: 10 s at 90 Hz
        mag = np.abs(np.fft.rfft(x - x.mean()))
        mag[0] = 0.0
        assert np.argmax(mag) == 15  # 1.5 Hz = 180 bpm / 120 in 0.1 Hz bins

    def test_vms_rotation_frequency_matches_metronome(self):
        spec = SessionSpec("VMS", seed=0, impairment=CLEAN)
        ds = simulate_session(spec)
        x = ds.eye_dirs("cyclopean")[:, 0]
        mag = np.abs(np.fft.rfft(x - x.mean()))
        mag[0] = 0.0
        assert np.argmax(mag) == 10  # (1/2.4) Hz in 1/24 Hz bins


class TestReproducibility:
    def test_same_spec_bit_identical(self):
        a = simulate_session(SessionSpec("VMS", label=1, seed=42))
        b = simulate_session(SessionSpec("VMS", label=1, seed=42))
        assert np.array_equal(a.features, b.features)

    def test_seed_changes_output(self):
        a = simulate_session(SessionSpec("VMS", label=1, seed=42))
        b = simulate_session(SessionSpec("VMS", label=1, seed=43))
        assert not np.array_equal(a.features, b.features)

    def test_cohort_reproducible_and_labelled(self):
        a = generate_cohort(3, 2, "SP", base_seed=1)
        b = generate_cohort(3, 2, "SP", base_seed=1)
        c = generate_cohort(3, 2, "SP", base_seed=2)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)
        assert a.class_counts() == (3 * 1800, 2 * 1800)
        ids = list(dict.fromkeys(a.session_ids))
        assert ids == ["SP-ctl-0000", "SP-ctl-0001", "SP-ctl-0002",
                       "SP-con-0000", "SP-con-0001"]

    def test_sessions_within_cohort_differ(self):
        ds = generate_cohort(2, 0, "SP", base_seed=1)
        first = ds.features[:1800]
        second = ds.features[1800:]
        assert not np.array_equal(first[:, 1:], second[:, 1:])

