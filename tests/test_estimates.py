import json
import re

import numpy as np
import pytest

from drapebench.estimates import (
    BUILTIN_JOINT_MAPS,
    SurrogateProfile,
    ExternalEstimate,
    estimate_from_sequence,
    export_estimate,
    ingest_estimates,
    normalize_estimate,
    surrogate_estimator,
)
from drapebench.kinematics import MotionSequence, procedural_motion, sequence_transforms
from drapebench.metrics import mpjpe


def rest_sequence(skeleton, frames=5, root_y=None):
    if root_y is None:
        from drapebench.kinematics import _standing_root_height

        root_y = _standing_root_height(skeleton)
    return MotionSequence.rest(skeleton, num_frames=frames, root_translation=(0.0, root_y, 0.0))


def test_ingest_valid_h36m17_file(tmp_path):
    frames = [[[0.0, 0.1 * j, 0.0] for j in range(17)] for _ in range(10)]
    doc = {"convention": "h36m17", "fps": 30, "frames": frames}
    path = tmp_path / "est.json"
    path.write_text(json.dumps(doc))
    est = ingest_estimates(str(path))
    assert est.convention == "h36m17"
    assert est.positions.shape == (10, 17, 3)
    assert est.source_label == f"file:{path}"


def test_ingest_wrong_joint_count_reports_path():
    frames = [[[0.0, 0.0, 0.0]] * 16]
    doc = {"convention": "h36m17", "fps": 30, "frames": frames}
    with pytest.raises(ValueError, match=r"frames\[0\]"):
        ingest_estimates(json.dumps(doc))


def test_ingest_missing_field():
    with pytest.raises(ValueError, match="fps"):
        ingest_estimates(json.dumps({"convention": "smpl24", "frames": [[[0, 0, 0]] * 24]}))


@pytest.mark.parametrize("fps", ["NaN", "Infinity", "0", "-30"])
def test_ingest_refuses_a_frame_rate_that_is_not_finite_and_positive(fps):
    text = '{"convention": "smpl24", "fps": %s, "frames": %s}' % (fps, json.dumps([[[0, 0, 0]] * 24]))
    with pytest.raises(ValueError, match=rf"fps must be positive and finite, got {json.loads(fps)!r}"):
        ingest_estimates(text)
    with pytest.raises(ValueError, match="fps must be positive and finite"):
        ExternalEstimate("smpl24", float(fps), np.zeros((1, 24, 3)))


@pytest.mark.parametrize("fps", ["true", '"30"'])
def test_ingest_refuses_a_frame_rate_that_is_not_a_number(fps):
    # JSON's true would read as 1.0 and a numeric string as its number.
    text = '{"convention": "smpl24", "fps": %s, "frames": %s}' % (fps, json.dumps([[[0, 0, 0]] * 24]))
    want = f"fps must be positive and finite, got {json.loads(fps)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ingest_estimates(text)


@pytest.mark.parametrize("value", [True, False, "1.5", None])
def test_ingest_refuses_a_coordinate_that_is_not_a_number(value):
    frames = [[[0.0, 0.1 * j, 0.0] for j in range(24)] for _ in range(3)]
    frames[2][5][1] = value
    text = json.dumps({"convention": "smpl24", "fps": 30, "frames": frames})
    with pytest.raises(ValueError, match=r"frames\[2\]\[5\]: coordinates must be numbers"):
        ingest_estimates(text)


@pytest.mark.parametrize("content", ["5", "[]", '"smpl24"', "null"])
def test_ingest_refuses_a_file_that_is_not_a_json_object(tmp_path, content):
    path = tmp_path / "est.json"
    path.write_text(content)
    with pytest.raises(ValueError, match="estimate must be a JSON object"):
        ingest_estimates(str(path))


def test_export_ingest_round_trip(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 3, skeleton)
    est = estimate_from_sequence(seq)
    back = ingest_estimates(export_estimate(est))
    assert np.abs(back.positions - est.positions).max() < 1e-6
    assert back.convention == "smpl24"
    assert back.fps == est.fps


def test_normalize_identity_at_target_height(skeleton):
    est = estimate_from_sequence(rest_sequence(skeleton))
    norm = normalize_estimate(est, target_height=1.70)
    assert abs(norm.scale - 1.0) < 1e-9
    assert np.abs(norm.absolute - est.positions).max() < 1e-9


def test_normalize_doubles_half_scale(skeleton):
    est = estimate_from_sequence(rest_sequence(skeleton))
    half = ExternalEstimate("smpl24", est.fps, est.positions * 0.5, "half")
    norm = normalize_estimate(half, target_height=1.70)
    assert abs(norm.scale - 2.0) < 1e-9
    assert np.abs(norm.absolute - est.positions).max() < 1e-9


def test_normalize_idempotent(skeleton):
    est = estimate_from_sequence(rest_sequence(skeleton))
    once = normalize_estimate(est, target_height=1.70)
    again = normalize_estimate(
        ExternalEstimate("smpl24", est.fps, once.absolute, "again"), target_height=1.70
    )
    assert np.abs(again.absolute - once.absolute).max() < 1e-12


def test_normalize_zero_height_rejected():
    flat = ExternalEstimate("smpl24", 30.0, np.zeros((3, 24, 3)), "flat")
    with pytest.raises(ValueError, match="height"):
        normalize_estimate(flat)


@pytest.mark.parametrize("height", [0.0, -1.7, float("nan"), float("inf")])
def test_normalize_refuses_a_target_height_that_is_not_positive_and_finite(skeleton, height):
    est = estimate_from_sequence(rest_sequence(skeleton))
    with pytest.raises(ValueError, match=f"target_height must be positive and finite, got {height!r}"):
        normalize_estimate(est, target_height=height)


def test_h36m_absent_joints_masked(skeleton):
    _, mask = BUILTIN_JOINT_MAPS["h36m17"]
    names = skeleton.joint_names
    absent = {names[j] for j in range(24) if not mask[j]}
    assert absent == {"left_foot", "right_foot", "left_hand", "right_hand"}
    # masked joints are excluded from the MPJPE average
    gt = np.zeros((2, 24, 3))
    est = np.zeros((2, 24, 3))
    est[:, ~mask] = 100.0  # absurd values on absent joints must not matter
    assert mpjpe(gt, est, mask[None, :]) == 0.0


def _reference_map(entries, positions):
    """The per-joint remap the index tables replaced: index, pair midpoint or absent."""
    out = np.zeros((positions.shape[0], len(entries), 3))
    for j, e in enumerate(entries):
        if isinstance(e, tuple):
            out[:, j] = 0.5 * (positions[:, e[0]] + positions[:, e[1]])
        elif e is not None:
            out[:, j] = positions[:, e]
    return out


@pytest.mark.parametrize("convention", ["smpl24", "h36m17", "blaze33"])
def test_joint_tables_match_reference_remap(convention, rng):
    from drapebench.estimates import CONVENTION_JOINTS, _BLAZE33_TO_SMPL24, _H36M17_TO_SMPL24

    entries = {"smpl24": range(24), "h36m17": _H36M17_TO_SMPL24, "blaze33": _BLAZE33_TO_SMPL24}
    positions = rng.normal(size=(6, CONVENTION_JOINTS[convention], 3)) + [0.0, 1.0, 0.0]
    norm = normalize_estimate(ExternalEstimate(convention, 30.0, positions), target_height=1.0)
    mapped = _reference_map(entries[convention], positions)
    assert np.array_equal(norm.valid, [e is not None for e in entries[convention]])
    assert np.array_equal(norm.absolute, mapped * norm.scale)


def test_root_alignment(skeleton):
    seq = procedural_motion("basic", 0.5, 30, 5, skeleton)
    est = estimate_from_sequence(seq)
    norm = normalize_estimate(est, target_height=1.70)
    assert np.abs(norm.root_aligned[:, 0]).max() < 1e-12


def test_surrogate_zero_noise_is_exact(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 2, skeleton)
    gt, _ = sequence_transforms(seq)
    est = surrogate_estimator(gt, seq.fps, SurrogateProfile(0.0, 0.0), 1)
    assert mpjpe(gt, est.positions) == 0.0


def test_surrogate_sigma_matches_monte_carlo(skeleton):
    seq = procedural_motion("basic", 4.0, 30, 2, skeleton)
    gt, _ = sequence_transforms(seq)
    sigma = 0.05
    est = surrogate_estimator(gt, seq.fps, SurrogateProfile(sigma, 0.0), 7)
    measured = mpjpe(gt, est.positions)
    # Monte Carlo expectation of the norm of an isotropic gaussian offset.
    rng = np.random.default_rng(999)
    expected = np.linalg.norm(rng.normal(0.0, sigma, size=(200000, 3)), axis=1).mean()
    assert abs(measured - expected) / expected < 0.05


def test_surrogate_deterministic_and_labeled(skeleton):
    seq = procedural_motion("basic", 0.5, 30, 2, skeleton)
    gt, _ = sequence_transforms(seq)
    a = surrogate_estimator(gt, seq.fps, "basic_err", 3)
    b = surrogate_estimator(gt, seq.fps, "basic_err", 3)
    assert np.array_equal(a.positions, b.positions)
    assert a.source_label == "surrogate:basic_err"
    assert a.source_label.startswith("surrogate")


def test_estimate_validation():
    with pytest.raises(ValueError, match="convention"):
        ExternalEstimate("coco", 30.0, np.zeros((1, 17, 3)))
    with pytest.raises(ValueError):
        ExternalEstimate("smpl24", 0.0, np.zeros((1, 24, 3)))
    with pytest.raises(ValueError):
        ExternalEstimate("smpl24", 30.0, np.zeros((1, 23, 3)))


def test_blaze33_map_produces_positions(skeleton):
    rng = np.random.default_rng(0)
    positions = rng.normal(size=(4, 33, 3))
    est = ExternalEstimate("blaze33", 30.0, positions, "test")
    norm = normalize_estimate(est, target_height=1.70)
    mask = norm.valid
    assert mask[0] and mask[16] and mask[22]
    assert not mask[3] and not mask[13]
    mid_hips = 0.5 * (positions[:, 23] + positions[:, 24])
    assert np.abs(norm.absolute[:, 0] / norm.scale - mid_hips).max() < 1e-12
