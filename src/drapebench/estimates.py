"""Ingestion and normalization of externally produced pose estimates.

Vision models run out of process; the contract is a JSON file

    {"convention": "smpl24" | "h36m17" | "blaze33",
     "fps": <number>,
     "frames": [[[x, y, z] * J] * T]}

in meters, right-handed, y up. A clearly-labeled synthetic surrogate is
provided for closed-loop testing; it is an error model around the ground
truth, not a model of any real estimator's accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _inputs
from .kinematics import MotionSequence, sequence_transforms

CONVENTION_JOINTS = {"smpl24": 24, "h36m17": 17, "blaze33": 33}


@dataclass(frozen=True)
class ExternalEstimate:
    convention: str
    fps: float
    positions: np.ndarray  # (T, J, 3), meters
    source_label: str = ""

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", p)
        if self.convention not in CONVENTION_JOINTS:
            raise ValueError(f"unknown convention {self.convention!r}")
        _inputs.positive("fps", self.fps)
        j = CONVENTION_JOINTS[self.convention]
        if p.ndim != 3 or p.shape[1] != j or p.shape[2] != 3:
            raise ValueError(
                f"positions must be (frames, {j}, 3) for {self.convention}, got {p.shape}"
            )


# Per target (SMPL-24) joint, the source joint: an index, an index pair whose
# midpoint stands in for it, or None where the source has no such joint.
_H36M17_TO_SMPL24 = (
    0,            # pelvis
    4,            # left_hip
    1,            # right_hip
    7,            # spine1 <- spine
    5,            # left_knee
    2,            # right_knee
    (7, 8),       # spine2 <- spine/thorax midpoint
    6,            # left_ankle
    3,            # right_ankle
    8,            # spine3 <- thorax
    None,         # left_foot
    None,         # right_foot
    9,            # neck
    (8, 11),      # left_collar <- thorax/shoulder midpoint
    (8, 14),      # right_collar
    10,           # head
    11,           # left_shoulder
    14,           # right_shoulder
    12,           # left_elbow
    15,           # right_elbow
    13,           # left_wrist
    16,           # right_wrist
    None,         # left_hand
    None,         # right_hand
)

_BLAZE33_TO_SMPL24 = (
    (23, 24),     # pelvis <- hip midpoint
    23,           # left_hip
    24,           # right_hip
    None,         # spine1
    25,           # left_knee
    26,           # right_knee
    None,         # spine2
    27,           # left_ankle
    28,           # right_ankle
    None,         # spine3
    31,           # left_foot <- foot index
    32,           # right_foot
    (11, 12),     # neck <- shoulder midpoint
    None,         # left_collar
    None,         # right_collar
    0,            # head <- nose
    11,           # left_shoulder
    12,           # right_shoulder
    13,           # left_elbow
    14,           # right_elbow
    15,           # left_wrist
    16,           # right_wrist
    (17, 19),     # left_hand <- pinky/index midpoint
    (18, 20),     # right_hand
)


def _source_table(entries) -> tuple[np.ndarray, np.ndarray]:
    """(24, 2) source index pairs, a single index repeated, and the (24,)
    mask of joints the source provides (absent rows hold (0, 0))."""
    pairs = [(0, 0) if e is None else e if isinstance(e, tuple) else (e, e) for e in entries]
    return np.array(pairs), np.array([e is not None for e in entries])


BUILTIN_JOINT_MAPS = {
    "smpl24": _source_table(range(24)),
    "h36m17": _source_table(_H36M17_TO_SMPL24),
    "blaze33": _source_table(_BLAZE33_TO_SMPL24),
}


def ingest_estimates(text_or_path: str) -> ExternalEstimate:
    """Parse and validate an estimate: JSON text if it starts with "{" (an
    estimate is a JSON object), else a file path of any extension."""
    if text_or_path.lstrip().startswith("{"):
        text, label = text_or_path, "inline"
    else:
        with open(text_or_path) as fh:
            text = fh.read()
        label = f"file:{text_or_path}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"estimate file is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"estimate must be a JSON object, got {type(doc).__name__}")
    for key in ("convention", "fps", "frames"):
        if key not in doc:
            raise ValueError(f"estimate file missing required field '{key}'")
    convention = doc["convention"]
    if convention not in CONVENTION_JOINTS:
        raise ValueError(
            f"convention: unknown value {convention!r}, expected one of {sorted(CONVENTION_JOINTS)}"
        )
    j_expect = CONVENTION_JOINTS[convention]
    frames = doc["frames"]
    if not isinstance(frames, list) or not frames:
        raise ValueError("frames: must be a non-empty list")
    for t, frame in enumerate(frames):
        if not isinstance(frame, list) or len(frame) != j_expect:
            raise ValueError(
                f"frames[{t}]: has {len(frame) if isinstance(frame, list) else 'non-list'} joints, "
                f"expected {j_expect} for convention '{convention}'"
            )
        for j, p in enumerate(frame):
            if not isinstance(p, list) or len(p) != 3:
                raise ValueError(f"frames[{t}][{j}]: joint must be [x, y, z]")
            # JSON's true and false would read as 1.0 and 0.0, and a numeric
            # string as its number.
            if not all(type(c) in (int, float) for c in p):
                raise ValueError(f"frames[{t}][{j}]: coordinates must be numbers, got {p!r}")
    positions = np.asarray(frames, dtype=float)
    if not np.isfinite(positions).all():
        raise ValueError("frames: contain non-finite values")
    _inputs.positive("fps", doc["fps"])
    return ExternalEstimate(convention, float(doc["fps"]), positions, label)


def export_estimate(est: ExternalEstimate) -> str:
    doc = {
        "convention": est.convention,
        "fps": est.fps,
        "frames": est.positions.tolist(),
    }
    return json.dumps(doc)


def estimate_from_sequence(seq: MotionSequence, source_label: str = "ground_truth") -> ExternalEstimate:
    """Ground-truth FK joints packaged in the estimate schema (smpl24)."""
    positions, _ = sequence_transforms(seq)
    return ExternalEstimate("smpl24", seq.fps, positions, source_label)


@dataclass(frozen=True)
class NormalizedEstimate:
    """Estimate mapped to the 24-joint skeleton at the benchmark scale."""

    absolute: np.ndarray      # (T, 24, 3), rescaled, world frame
    root_aligned: np.ndarray  # (T, 24, 3), pelvis subtracted per frame
    valid: np.ndarray         # (24,) joints actually provided by the source
    scale: float


def normalize_estimate(est: ExternalEstimate, target_height: float = 1.70) -> NormalizedEstimate:
    """Remap to 24 joints and rescale so the subject stands target_height tall.

    A target joint is its source joint, or the midpoint of a source pair; a
    target joint the source lacks is 0 and flagged invalid, and metrics
    exclude it. The subject height of an estimate is its largest per-frame
    vertical extent over the mapped joints (the tallest frame stands in for
    the rest pose).
    """
    _inputs.positive("target_height", target_height)
    pairs, valid = BUILTIN_JOINT_MAPS[est.convention]
    p = est.positions
    mapped = np.where(valid[:, None], 0.5 * (p[:, pairs[:, 0]] + p[:, pairs[:, 1]]), 0.0)
    ys = mapped[:, valid, 1]
    height = float((ys.max(axis=1) - ys.min(axis=1)).max())
    if height <= 1e-9:
        raise ValueError("estimated height is zero; cannot rescale")
    scale = target_height / height
    absolute = mapped * scale
    root_aligned = absolute - absolute[:, :1, :]
    return NormalizedEstimate(absolute, root_aligned, valid, scale)


@dataclass(frozen=True)
class SurrogateProfile:
    """Error model for the synthetic estimator: white noise plus slow drift."""

    noise_sigma: float   # per-axis gaussian sigma, meters
    drift_amplitude: float
    drift_hz: float = 0.2


SURROGATE_PROFILES = {
    "basic_err": SurrogateProfile(0.030, 0.020),
    "fast_err": SurrogateProfile(0.050, 0.030),
    "extreme_err": SurrogateProfile(0.080, 0.050),
}


def surrogate_estimator(
    positions: np.ndarray, fps: float, profile: str | SurrogateProfile, seed: int
) -> ExternalEstimate:
    """Ground-truth joint positions (T, 24, 3) corrupted by a configurable error model.

    Clearly labeled "surrogate:<profile>" so it can never be mistaken for a
    real estimator's output in any report.
    """
    if isinstance(profile, str):
        name = profile
        profile = SURROGATE_PROFILES[profile]
    else:
        name = "custom"
    rng = np.random.default_rng(seed)
    t = np.arange(positions.shape[0]) / fps
    noisy = positions + rng.normal(0.0, profile.noise_sigma, size=positions.shape)
    if profile.drift_amplitude > 0.0:
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(1, positions.shape[1], 3))
        drift = profile.drift_amplitude * np.sin(
            2.0 * np.pi * profile.drift_hz * t[:, None, None] + phase
        )
        noisy = noisy + drift
    return ExternalEstimate("smpl24", fps, noisy, f"surrogate:{name}")
