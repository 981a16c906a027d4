"""Synthetic screening sessions: metronome-paced target trajectories and a
two-eye pursuit model with configurable impairment.

Two test kinds are supported:

* ``SP`` (smooth pursuit): the target sweeps a horizontal segment for the
  first phase of the session, then a vertical segment, both centred on the
  viewing axis, one full metronome beat per half sweep.
* ``VMS`` (visual motion sensitivity): the gaze target stays fused to a
  thumb held at arm's length while the whole body (and therefore the
  world-relative gaze direction) rotates +-90 degrees, one beat per half
  rotation. Directions are emitted in the world frame, so the sinusoidal
  yaw sweep is visible in the data.

Coordinates are right-handed with +z straight ahead, +x rightward, +y up.
All directions are unit vectors.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .data import GazeDataset, N_FEATURES, TEST_KINDS
from .errors import InvalidSpec

PUPIL_BASE_MM = 3.5
PUPIL_NOISE_STD_MM = 0.25
OPENNESS_NOISE_STD = 0.02
PUPIL_FLOOR_MM = 0.5

METERS_PER_FOOT = 0.3048


@dataclass(frozen=True)
class ImpairmentParams:
    """Oculomotor degradation knobs for one simulated participant.

    pursuit_gain scales the tracked eccentricity (1 = perfect pursuit),
    latency_s delays the eye behind the target, noise_deg is the per-frame
    angular jitter of each eye, and the intrusion_* fields describe
    saccadic intrusions: square offset pulses of the given amplitude,
    duration and Poisson rate. pupil_shift_mm adds a tonic pupil-diameter
    offset (autonomic arousal proxy); 0 disables it.
    """

    pursuit_gain: float = 0.95
    latency_s: float = 0.01
    noise_deg: float = 0.3
    intrusion_rate_hz: float = 0.1
    intrusion_amp_deg: float = 0.5
    intrusion_duration_s: float = 0.08
    pupil_shift_mm: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidSpec(f"{f.name} must be a number, got {value!r}")
        if not 0.0 < self.pursuit_gain <= 1.5:
            raise InvalidSpec(f"pursuit_gain must be in (0, 1.5], got {self.pursuit_gain}")
        if self.latency_s < 0:
            raise InvalidSpec("latency_s must be >= 0")
        if not 0.0 <= self.noise_deg < 30.0:
            raise InvalidSpec("noise_deg must be in [0, 30)")
        if self.intrusion_rate_hz < 0 or self.intrusion_amp_deg < 0:
            raise InvalidSpec("intrusion rate and amplitude must be >= 0")
        if self.intrusion_duration_s <= 0:
            raise InvalidSpec("intrusion_duration_s must be > 0")

    @classmethod
    def control(cls):
        return cls()

    @classmethod
    def concussed(cls):
        return cls(pursuit_gain=0.75, latency_s=0.08, noise_deg=1.2,
                   intrusion_rate_hz=1.0, intrusion_amp_deg=3.0,
                   pupil_shift_mm=1.0)

    @classmethod
    def for_label(cls, label):
        return cls.concussed() if label == 1 else cls.control()


@dataclass
class SessionSpec:
    """Everything needed to simulate one session deterministically.

    metronome_bpm and impairment default per test kind / label when left
    as None. Defaults mirror the screening protocol: 90 Hz sampling, a
    3 ft target extent at 3 ft viewing distance, 180 bpm for SP sweeps
    and 50 bpm for VMS rotations.
    """

    test_kind: str = "SP"
    label: int = 0
    seed: int = 0
    session_id: str = ""
    sample_rate_hz: float = 90.0
    metronome_bpm: float = None
    viewing_distance_m: float = 3 * METERS_PER_FOOT
    target_extent_m: float = 3 * METERS_PER_FOOT
    sp_phase_s: float = 10.0
    vms_repetitions: int = 10
    impairment: ImpairmentParams = None

    def __post_init__(self):
        if self.test_kind not in TEST_KINDS:
            raise InvalidSpec(f"test_kind must be SP or VMS, got {self.test_kind!r}")
        if self.label not in (0, 1):
            raise InvalidSpec(f"label must be 0 or 1, got {self.label!r}")
        if self.metronome_bpm is None:
            self.metronome_bpm = 180.0 if self.test_kind == "SP" else 50.0
        if self.impairment is None:
            self.impairment = ImpairmentParams.for_label(self.label)
        if not self.session_id:
            self.session_id = f"{self.test_kind}-{self.label}-{self.seed}"
        if self.sample_rate_hz <= 0 or self.metronome_bpm <= 0:
            raise InvalidSpec("sample_rate_hz and metronome_bpm must be > 0")
        # one half sweep per beat: need at least ~Nyquist sampling of the sweep
        if self.sample_rate_hz < self.metronome_bpm / 30.0:
            raise InvalidSpec("sample rate too low for the metronome pace")
        if self.viewing_distance_m <= 0 or self.target_extent_m <= 0:
            raise InvalidSpec("distances must be > 0")
        if self.sp_phase_s <= 0 or self.vms_repetitions < 1:
            raise InvalidSpec("sp_phase_s must be > 0 and vms_repetitions >= 1")

    @property
    def sweep_period_s(self):
        """Full there-and-back period: two metronome beats."""
        return 2.0 * 60.0 / self.metronome_bpm

    @property
    def duration_s(self):
        if self.test_kind == "SP":
            return 2.0 * self.sp_phase_s
        return self.vms_repetitions * self.sweep_period_s

    @property
    def n_frames(self):
        return int(round(self.duration_s * self.sample_rate_hz))


def _normalize_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def target_trajectory(spec, t):
    """Unit target direction(s) at time(s) t seconds into the session.

    SP: cosine sweep of the target offset, starting at the left (then
    bottom) endpoint, crossing centre mid-beat. VMS: world-frame yaw
    psi(t) = -90deg * cos(2 pi t / period), i.e. a +-90 degree rotation
    that starts at the leftmost orientation.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.size and (t_arr.min() < -1e-9 or t_arr.max() > spec.duration_s + 1e-9):
        raise InvalidSpec(
            f"t must lie in [0, {spec.duration_s}], got [{t_arr.min()}, {t_arr.max()}]")
    period = spec.sweep_period_s
    if spec.test_kind == "SP":
        half = 0.5 * spec.target_extent_m
        sweep_h = -half * np.cos(2.0 * np.pi * t_arr / period)
        sweep_v = -half * np.cos(2.0 * np.pi * (t_arr - spec.sp_phase_s) / period)
        horizontal = t_arr < spec.sp_phase_s
        x = np.where(horizontal, sweep_h, 0.0)
        y = np.where(horizontal, 0.0, sweep_v)
        z = np.full_like(t_arr, spec.viewing_distance_m)
        dirs = _normalize_rows(np.stack([x, y, z], axis=-1))
    else:
        psi = -0.5 * np.pi * np.cos(2.0 * np.pi * t_arr / period)
        dirs = np.stack([np.sin(psi), np.zeros_like(psi), np.cos(psi)], axis=-1)
    return dirs[0] if np.ndim(t) == 0 else dirs


def _scale_eccentricity(dirs, gain):
    """Rotate each direction toward +z so its angle from centre is scaled
    by gain (imperfect pursuit undershoots the target eccentricity)."""
    if gain == 1.0:
        return dirs
    cos_th = np.clip(dirs[:, 2], -1.0, 1.0)
    theta = np.arccos(cos_th)
    planar = dirs.copy()
    planar[:, 2] = 0.0
    norm = np.linalg.norm(planar, axis=1, keepdims=True)
    small = norm[:, 0] < 1e-12
    norm[small] = 1.0
    u = planar / norm
    scaled = np.empty_like(dirs)
    scaled[:, 0] = np.sin(gain * theta) * u[:, 0]
    scaled[:, 1] = np.sin(gain * theta) * u[:, 1]
    scaled[:, 2] = np.cos(gain * theta)
    scaled[small] = np.array([0.0, 0.0, 1.0])
    return scaled


def _tangent_basis(dirs):
    # well-defined while gaze stays away from straight up/down, which the
    # protocol guarantees (pitch <= ~27 degrees)
    up = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(np.broadcast_to(up, dirs.shape), dirs)
    e1 = _normalize_rows(e1)
    e2 = np.cross(dirs, e1)
    return e1, e2


def _offset_on_sphere(dirs, tangent_xy):
    """Rotate each unit direction by the tangent-plane offset vector
    (radians); exact sphere rotation, so outputs stay unit length."""
    angle = np.linalg.norm(tangent_xy, axis=1)
    out = dirs.copy()
    moving = angle > 0
    if not np.any(moving):
        return out
    e1, e2 = _tangent_basis(dirs[moving])
    a = angle[moving]
    u = (tangent_xy[moving, 0:1] * e1 + tangent_xy[moving, 1:2] * e2) / a[:, None]
    out[moving] = dirs[moving] * np.cos(a)[:, None] + u * np.sin(a)[:, None]
    return _normalize_rows(out)


def simulate_session(spec):
    """Simulate one session into a GazeDataset.

    Bit-reproducible for a given spec: all randomness flows from
    np.random.default_rng(spec.seed) in a fixed draw order, so changing
    e.g. noise_deg rescales the same noise draws instead of reshuffling
    everything.
    """
    imp = spec.impairment
    rng = np.random.default_rng(spec.seed)
    n = spec.n_frames
    t = np.arange(n) / spec.sample_rate_hz
    duration = spec.duration_s

    target = target_trajectory(spec, t)
    if imp.latency_s > 0:
        pursued = target_trajectory(spec, np.clip(t - imp.latency_s, 0.0, duration))
    else:
        pursued = target
    pursued = _scale_eccentricity(pursued, imp.pursuit_gain)

    # fixed draw order: left noise, right noise, intrusions, pupils, openness
    z_l = rng.standard_normal(n)
    phi_l = rng.uniform(0.0, 2.0 * np.pi, n)
    z_r = rng.standard_normal(n)
    phi_r = rng.uniform(0.0, 2.0 * np.pi, n)
    n_events = rng.poisson(imp.intrusion_rate_hz * duration)
    starts = np.sort(rng.uniform(0.0, duration, n_events))
    event_phi = rng.uniform(0.0, 2.0 * np.pi, n_events)
    pupil_l = PUPIL_BASE_MM + imp.pupil_shift_mm + PUPIL_NOISE_STD_MM * rng.standard_normal(n)
    pupil_r = PUPIL_BASE_MM + imp.pupil_shift_mm + PUPIL_NOISE_STD_MM * rng.standard_normal(n)
    open_l = np.clip(1.0 - np.abs(OPENNESS_NOISE_STD * rng.standard_normal(n)), 0.0, 1.0)
    open_r = np.clip(1.0 - np.abs(OPENNESS_NOISE_STD * rng.standard_normal(n)), 0.0, 1.0)

    # conjugate intrusions: both eyes jump together by a square pulse
    intrusion = np.zeros((n, 2))
    amp = np.deg2rad(imp.intrusion_amp_deg)
    for start, phi in zip(starts, event_phi):
        mask = (t >= start) & (t < start + imp.intrusion_duration_s)
        intrusion[mask, 0] += amp * np.cos(phi)
        intrusion[mask, 1] += amp * np.sin(phi)

    sigma = np.deg2rad(imp.noise_deg)
    tan_l = intrusion + sigma * np.stack([z_l * np.cos(phi_l), z_l * np.sin(phi_l)], axis=1)
    tan_r = intrusion + sigma * np.stack([z_r * np.cos(phi_r), z_r * np.sin(phi_r)], axis=1)
    left = _offset_on_sphere(pursued, tan_l)
    right = _offset_on_sphere(pursued, tan_r)
    cyclopean = _normalize_rows(left + right)

    feats = np.empty((n, N_FEATURES))
    feats[:, 0] = t
    feats[:, 1:4] = left
    feats[:, 4:7] = right
    feats[:, 7:10] = cyclopean
    feats[:, 10] = np.maximum(pupil_l, PUPIL_FLOOR_MM)
    feats[:, 11] = np.maximum(pupil_r, PUPIL_FLOOR_MM)
    feats[:, 12] = open_l
    feats[:, 13] = open_r
    labels = np.full(n, spec.label, dtype=np.int64)
    sids = np.full(n, spec.session_id, dtype=object)
    return GazeDataset(feats, labels, sids, spec.test_kind, validate=False)


def generate_cohort(n_control, n_concussed, test_kind="SP", base_seed=0,
                    control_impairment=None, concussed_impairment=None,
                    **spec_overrides):
    """Simulate a labelled cohort; per-session seeds are drawn from
    SeedSequence(base_seed) so cohorts are reproducible and sessions
    decorrelated."""
    if n_control + n_concussed == 0:
        raise InvalidSpec("cohort must contain at least one session")
    seeds = np.random.SeedSequence(base_seed).generate_state(
        n_control + n_concussed, np.uint64)
    parts = []
    k = 0
    for label, count, imp in ((0, n_control, control_impairment),
                              (1, n_concussed, concussed_impairment)):
        for i in range(count):
            spec = SessionSpec(
                test_kind=test_kind, label=label, seed=int(seeds[k]),
                session_id=f"{test_kind}-{'ctl' if label == 0 else 'con'}-{i:04d}",
                impairment=imp, **spec_overrides)
            parts.append(simulate_session(spec))
            k += 1
    return GazeDataset.concatenate(parts)
