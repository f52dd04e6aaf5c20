"""Pose error metrics: MPJPE over positions, CRMSE over joint angles.

Angles compared by CRMSE are swing magnitudes recovered from joint positions
(twist about a bone is unobservable from positions and is excluded); every
report produced by the benchmark states this convention.
"""

from __future__ import annotations

import numpy as np

from . import _inputs, rotations as rot
from .kinematics import Skeleton, poses_from_joint_positions


def _mask_pair(gt: np.ndarray, est: np.ndarray, valid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gt = _inputs.array("gt", gt, None)
    est = _inputs.array("est", est, gt.shape)
    return gt, est, np.broadcast_to(_inputs.mask("valid", True if valid is None else valid), gt.shape[:2])


def mpjpe(gt: np.ndarray, est: np.ndarray, valid: np.ndarray | None = None) -> float:
    """Mean Euclidean distance between matching joints, in meters.

    gt and est are (T, J, 3); valid masks (frame, joint) pairs out of the
    average. Raises when nothing is valid.
    """
    gt, est, valid = _mask_pair(gt, est, valid)
    if not valid.any():
        raise ValueError("no valid (frame, joint) pairs for MPJPE")
    d = np.linalg.norm(gt - est, axis=-1)
    return float(d[valid].mean())


def crmse(gt_angles: np.ndarray, est_angles: np.ndarray, valid: np.ndarray | None = None) -> tuple[float, float]:
    """Circular RMSE over joint angles plus its degree equivalent.

    Value is sqrt(mean(1 - cos(delta))), in [0, sqrt(2)] and insensitive to
    2*pi wraps. The degree equivalent inverts the formula for a constant
    error, arccos(1 - c^2), which reproduces delta exactly when the error is
    uniform across joints.
    """
    gt_angles, est_angles, valid = _mask_pair(gt_angles, est_angles, valid)
    if not valid.any():
        raise ValueError("no valid joint angles for CRMSE")
    delta = gt_angles[valid] - est_angles[valid]
    value = float(np.sqrt(np.mean(1.0 - np.cos(delta))))
    degrees = float(np.degrees(np.arccos(np.clip(1.0 - value * value, -1.0, 1.0))))
    return value, degrees


def angles_from_positions(
    skeleton: Skeleton, positions: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-joint swing angles (T, J) recovered from joint positions.

    The same hierarchical swing recovery the marker reconstruction uses; the
    returned mask excludes leaves and joints whose bone was unobservable.
    """
    _, local_rotations, observed = poses_from_joint_positions(skeleton, positions, valid)
    return rot.angle_of(local_rotations), observed
