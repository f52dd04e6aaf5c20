import numpy as np
import pytest

from drapebench import rotations as rot
from drapebench.kinematics import procedural_motion, sequence_transforms
from drapebench.metrics import angles_from_positions, crmse, mpjpe


def test_mpjpe_identity():
    x = np.random.default_rng(0).normal(size=(5, 24, 3))
    assert mpjpe(x, x) == 0.0


def test_mpjpe_345_triangle():
    gt = np.zeros((3, 24, 3))
    est = gt + np.array([0.03, 0.04, 0.0])
    assert abs(mpjpe(gt, est) - 0.05) < 1e-9


def test_mpjpe_brute_force_oracle(rng):
    gt = rng.normal(size=(10, 24, 3))
    est = rng.normal(size=(10, 24, 3))
    valid = rng.random((10, 24)) > 0.3
    total = 0.0
    count = 0
    for t in range(10):
        for j in range(24):
            if valid[t, j]:
                total += float(np.sqrt(((gt[t, j] - est[t, j]) ** 2).sum()))
                count += 1
    assert abs(mpjpe(gt, est, valid) - total / count) < 1e-12


def test_mpjpe_symmetric_and_rigid_invariant(rng):
    gt = rng.normal(size=(4, 24, 3))
    est = rng.normal(size=(4, 24, 3))
    assert abs(mpjpe(gt, est) - mpjpe(est, gt)) < 1e-15
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    assert abs(mpjpe(rot.rotate(q, gt) + t, rot.rotate(q, est) + t) - mpjpe(gt, est)) < 1e-12


def test_mpjpe_requires_valid_pairs():
    x = np.zeros((2, 4, 3))
    with pytest.raises(ValueError):
        mpjpe(x, x, np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValueError):
        mpjpe(x, np.zeros((3, 4, 3)))


def test_crmse_identity():
    a = np.random.default_rng(1).uniform(0, np.pi, size=(5, 19))
    value, degrees = crmse(a, a)
    assert value == 0.0
    assert degrees == 0.0


def test_crmse_constant_error_closed_form():
    for delta_deg in (1.0, 10.0, 45.0, 90.0, 179.0, 180.0):
        delta = np.deg2rad(delta_deg)
        gt = np.zeros((3, 8))
        value, degrees = crmse(gt, gt + delta)
        assert abs(value - np.sqrt(1.0 - np.cos(delta))) < 1e-12
        assert abs(degrees - delta_deg) < 1e-9


def test_crmse_180_degrees_is_sqrt2():
    gt = np.zeros((1, 4))
    value, _ = crmse(gt, gt + np.pi)
    assert abs(value - np.sqrt(2.0)) < 1e-12


def test_crmse_range_and_wrap(rng):
    gt = rng.uniform(0, np.pi, size=(6, 19))
    est = rng.uniform(0, np.pi, size=(6, 19))
    value, _ = crmse(gt, est)
    assert 0.0 <= value <= np.sqrt(2.0)
    wrapped, _ = crmse(gt, est + 2.0 * np.pi)
    assert abs(wrapped - value) < 1e-9


def test_angles_from_positions_round_trip(skeleton):
    seq = procedural_motion("extreme", 1.0, 30, 13, skeleton)
    positions, _ = sequence_transforms(seq)
    angles, mask = angles_from_positions(skeleton, positions)
    true_angles = rot.angle_of(seq.local_rotations)
    assert np.abs((angles - true_angles)[mask]).max() < 1e-9


def test_angles_rest_pose_zero(skeleton):
    from drapebench.kinematics import MotionSequence

    seq = MotionSequence.rest(skeleton)
    positions, _ = sequence_transforms(seq)
    angles, mask = angles_from_positions(skeleton, positions)
    assert np.abs(angles[mask]).max() < 1e-12


def test_angles_mask_propagates_missing_joint(skeleton):
    seq = procedural_motion("basic", 0.3, 30, 2, skeleton)
    positions, _ = sequence_transforms(seq)
    valid = np.ones(24, dtype=bool)
    knee = skeleton.joint_names.index("left_knee")
    valid[knee] = False
    _, mask = angles_from_positions(skeleton, positions, valid)
    hip = skeleton.joint_names.index("left_hip")
    assert not mask[:, knee].any()   # joint's own bone not observable
    assert not mask[:, hip].any()    # parent loses its primary bone too
    assert mask[:, skeleton.joint_names.index("right_hip")].all()


def test_leaf_joints_masked(skeleton):
    seq = procedural_motion("basic", 0.2, 30, 2, skeleton)
    positions, _ = sequence_transforms(seq)
    _, mask = angles_from_positions(skeleton, positions)
    for leaf in ("left_foot", "right_foot", "head", "left_hand", "right_hand"):
        assert not mask[:, skeleton.joint_names.index(leaf)].any()
