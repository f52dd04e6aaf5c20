"""Skeleton representation, forward kinematics, and procedural motion clips.

Conventions: right-handed coordinates, y up, z forward, units in meters.
Local joint rotations are parent-relative unit quaternions (w, x, y, z).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _inputs, rotations as rot

MOTION_CLASSES = ("basic", "fast", "extreme")

# SMPL-style 24-joint body. Offsets are a neutral T-pose template that gets
# uniformly rescaled so the rest-pose joint extent is exactly the requested
# height. +x is the subject's left, +y up, +z forward.
SMPL_JOINT_NAMES = (
    "pelvis",
    "left_hip",
    "right_hip",
    "spine1",
    "left_knee",
    "right_knee",
    "spine2",
    "left_ankle",
    "right_ankle",
    "spine3",
    "left_foot",
    "right_foot",
    "neck",
    "left_collar",
    "right_collar",
    "head",
    "left_shoulder",
    "right_shoulder",
    "left_elbow",
    "right_elbow",
    "left_wrist",
    "right_wrist",
    "left_hand",
    "right_hand",
)

SMPL_PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19, 20, 21)

_TEMPLATE_OFFSETS = np.array(
    [
        [0.000, 0.000, 0.000],   # pelvis (root)
        [+0.085, -0.080, 0.000],  # left_hip
        [-0.085, -0.080, 0.000],  # right_hip
        [0.000, +0.120, 0.000],   # spine1
        [0.000, -0.400, 0.000],   # left_knee
        [0.000, -0.400, 0.000],   # right_knee
        [0.000, +0.130, 0.000],   # spine2
        [0.000, -0.410, 0.000],   # left_ankle
        [0.000, -0.410, 0.000],   # right_ankle
        [0.000, +0.055, 0.000],   # spine3
        [0.000, -0.060, +0.120],  # left_foot
        [0.000, -0.060, +0.120],  # right_foot
        [0.000, +0.210, 0.000],   # neck
        [+0.075, +0.115, 0.000],  # left_collar
        [-0.075, +0.115, 0.000],  # right_collar
        [0.000, +0.065, 0.000],   # head
        [+0.095, 0.000, 0.000],   # left_shoulder
        [-0.095, 0.000, 0.000],   # right_shoulder
        [+0.260, 0.000, 0.000],   # left_elbow
        [-0.260, 0.000, 0.000],   # right_elbow
        [+0.250, 0.000, 0.000],   # left_wrist
        [-0.250, 0.000, 0.000],   # right_wrist
        [+0.080, 0.000, 0.000],   # left_hand
        [-0.080, 0.000, 0.000],   # right_hand
    ]
)


class Depth(NamedTuple):
    """The joints one step further from the root than the previous depth's.

    Only joints of shallower depths feed them, so a tree walk handles each
    depth in one batched step.
    """

    joints: np.ndarray          # (K,) joints at this depth
    parents: np.ndarray         # (K,) their parents
    swing_joints: np.ndarray    # the joints here that have a primary child
    swing_parents: np.ndarray   # their parents
    swing_children: np.ndarray  # their primary children


@dataclass(frozen=True)
class Skeleton:
    """Joint hierarchy with fixed parent-frame rest offsets.

    The benchmark body is the 24-joint set from :func:`default_skeleton`;
    arbitrary joint counts are allowed so externally parsed hierarchies can be
    represented too. Construction also plans the tree walk: every joint's
    primary child and the non-root joints grouped by depth.
    """

    joint_names: tuple[str, ...]
    parents: tuple[int, ...]
    rest_offsets: np.ndarray  # (J, 3)
    primary_children: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    depths: tuple[Depth, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        j = len(self.joint_names)
        offsets = _inputs.array("rest_offsets", self.rest_offsets, (j, 3))
        object.__setattr__(self, "rest_offsets", offsets)
        if len(self.parents) != j:
            raise ValueError("joint_names and parents disagree on joint count")
        if len(set(self.joint_names)) != j:
            name = next(n for i, n in enumerate(self.joint_names) if n in self.joint_names[:i])
            raise ValueError(f"joint name {name!r} repeats; joints are looked up by name")
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if roots != [0]:
            raise ValueError("joint 0 must be the unique root")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise ValueError(f"parent of joint {i} must precede it (got {p})")
            if np.linalg.norm(offsets[i]) == 0.0:
                raise ValueError(f"non-root joint {i} has zero rest offset")
        # The primary child is the child with the longest rest bone, the
        # first of equals; these lengths are np.linalg.norm's bits.
        lengths = np.sqrt(rot.dot(offsets, offsets))
        primary: list[int | None] = [None] * j
        depth = [0] * j
        for i, p in enumerate(self.parents[1:], start=1):
            depth[i] = depth[p] + 1
            if primary[p] is None or lengths[i] > lengths[primary[p]]:
                primary[p] = i
        levels = []
        for d in range(1, max(depth) + 1):
            joints = [i for i in range(j) if depth[i] == d]
            swing = [i for i in joints if primary[i] is not None]
            levels.append(Depth(*(np.array(a, dtype=np.int64) for a in (
                joints, [self.parents[i] for i in joints],
                swing, [self.parents[i] for i in swing], [primary[i] for i in swing],
            ))))
        object.__setattr__(self, "primary_children", tuple(primary))
        object.__setattr__(self, "depths", tuple(levels))

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    def children(self, joint: int) -> list[int]:
        return [i for i, p in enumerate(self.parents) if p == joint]

    def rest_positions(self) -> np.ndarray:
        """Joint positions (J, 3) at the rest pose, root at the origin.

        Every rest orientation is the identity, so FK reduces to summing the
        rest offsets down the chain, one depth at a time.
        """
        pos = np.zeros((self.num_joints, 3))
        for level in self.depths:
            pos[level.joints] = pos[level.parents] + self.rest_offsets[level.joints]
        return pos

    def rest_height(self) -> float:
        pos = self.rest_positions()
        return float(pos[:, 1].max() - pos[:, 1].min())

    def scaled(self, factor: float) -> "Skeleton":
        return replace(self, rest_offsets=self.rest_offsets * factor)


@dataclass(frozen=True)
class MotionSequence:
    """A clip held as arrays: world root translations and local rotations.

    root_translations is (T, 3); local_rotations is (T, J, 4), parent-relative
    unit quaternions, w first.
    """

    skeleton: Skeleton
    fps: float
    root_translations: np.ndarray
    local_rotations: np.ndarray
    motion_class: str = "basic"

    def __post_init__(self):
        _inputs.positive("fps", self.fps)
        if self.motion_class not in MOTION_CLASSES:
            raise ValueError(f"motion_class must be one of {MOTION_CLASSES}")
        q = _inputs.array("local_rotations", self.local_rotations, (None, self.skeleton.num_joints, 4))
        if len(q) < 1:
            raise ValueError("a motion sequence needs at least one frame")
        root = _inputs.array("root_translations", self.root_translations, (len(q), 3))
        if not np.all(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= 1e-9):
            raise ValueError("local_rotations must be unit quaternions (within 1e-9)")
        object.__setattr__(self, "root_translations", root)
        object.__setattr__(self, "local_rotations", q)

    @staticmethod
    def rest(
        skeleton: Skeleton,
        fps: float = 30.0,
        num_frames: int = 1,
        root_translation=(0.0, 0.0, 0.0),
        motion_class: str = "basic",
    ) -> "MotionSequence":
        """A clip that holds the rest pose for num_frames frames."""
        q = np.zeros((num_frames, skeleton.num_joints, 4))
        q[..., 0] = 1.0
        root = np.tile(_inputs.array("root_translation", root_translation, (3,)), (num_frames, 1))
        return MotionSequence(skeleton, fps, root, q, motion_class)

    @property
    def num_frames(self) -> int:
        return len(self.local_rotations)


def sequence_transforms(seq: MotionSequence) -> tuple[np.ndarray, np.ndarray]:
    """FK over all frames: positions (T, J, 3) and orientations (T, J, 4).

    Child position = parent position + parent orientation applied to the rest
    offset; orientations compose down the chain. Walks the skeleton one depth
    at a time, each step batched over that depth's joints and all frames.
    """
    sk = seq.skeleton
    q = seq.local_rotations
    positions = np.empty(q.shape[:2] + (3,))
    orientations = np.empty_like(q)
    positions[:, 0] = seq.root_translations
    orientations[:, 0] = q[:, 0]
    for level in sk.depths:
        parent_q = orientations[:, level.parents]
        positions[:, level.joints] = positions[:, level.parents] + rot.rotate(
            parent_q, sk.rest_offsets[level.joints]
        )
        orientations[:, level.joints] = rot.multiply(parent_q, q[:, level.joints])
    return positions, orientations


def ride_joints(
    joint_positions: np.ndarray, joint_orientations: np.ndarray, joints: np.ndarray, local: np.ndarray
) -> np.ndarray:
    """Points that ride their joint's frame: (..., N, 3) world positions.

    joint_positions (..., J, 3) and joint_orientations (..., J, 4) are FK
    results for one frame or a stack of them; point n is held at offset
    local[n] in the frame of joint joints[n].
    """
    return joint_positions[..., joints, :] + rot.rotate(joint_orientations[..., joints, :], local)


def default_skeleton(height: float = 1.70) -> Skeleton:
    """The built-in 24-joint body scaled so rest joint extent equals height."""
    _inputs.positive("height", height)
    raw = Skeleton(SMPL_JOINT_NAMES, SMPL_PARENTS, _TEMPLATE_OFFSETS.copy())
    return raw.scaled(height / raw.rest_height())


def rescale_to_height(seq: MotionSequence, target_height: float) -> MotionSequence:
    """Uniformly rescale offsets and root translations; rotations unchanged."""
    _inputs.positive("target_height", target_height)
    current = seq.skeleton.rest_height()
    if current <= 0.0:
        raise ValueError("skeleton rest height is zero; cannot rescale")
    factor = target_height / current
    return MotionSequence(
        seq.skeleton.scaled(factor), seq.fps, seq.root_translations * factor,
        seq.local_rotations, seq.motion_class,
    )


def _standing_root_height(skeleton: Skeleton) -> float:
    return float(-skeleton.rest_positions()[:, 1].min())


def clip_frames(duration: float, fps: float) -> int:
    """The frame count of a procedural clip: duration * fps, rounded.

    A duration or rate that is not positive and finite is refused, and so is
    a clip shorter than two frames rather than lengthened to two, so a row
    never describes a longer clip than the one asked for.
    """
    _inputs.positive("duration", duration)
    _inputs.positive("fps", fps)
    _inputs.positive("duration * fps", duration * fps)  # finite factors can overflow
    n_frames = int(round(duration * fps))
    if n_frames < 2:
        raise ValueError(
            f"duration {duration!r} s at {fps!r} fps gives {n_frames} frames; a clip needs at least 2"
        )
    return n_frames


def procedural_motion(
    motion_class: str,
    duration: float,
    fps: float,
    seed: int,
    skeleton: Skeleton | None = None,
) -> MotionSequence:
    """Deterministic synthetic clips for the three motion intensities.

    basic: walk-cycle sinusoid swings below 45 deg and 1 Hz. fast: the same
    joints at 2-4 Hz with up to 90 deg amplitude. extreme: quasi-static ramps
    pushing hips, knees and spine toward joint limits (knee flexion exceeds
    120 deg mid-clip).

    Only single-child joints are driven and every rotation axis is
    perpendicular to the child bone, so clips are pure-swing: marker-based
    reconstruction and swing angle recovery are exact on them.
    """
    n_frames = clip_frames(duration, fps)
    if motion_class not in MOTION_CLASSES:
        raise ValueError(f"unknown motion class {motion_class!r}")
    skeleton = skeleton if skeleton is not None else default_skeleton()
    names = {n: i for i, n in enumerate(skeleton.joint_names)}
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames) / fps
    root_y = _standing_root_height(skeleton)

    x, y, z = np.eye(3)
    joint_angle = {}  # joint index -> (axis, angles over time, radians)

    if motion_class in ("basic", "fast"):
        if motion_class == "basic":
            f = rng.uniform(0.6, 0.95)
            a_hip = np.deg2rad(rng.uniform(18.0, 32.0))
            a_knee = np.deg2rad(rng.uniform(25.0, 44.0))
            speed = rng.uniform(0.5, 1.1)
        else:
            f = rng.uniform(2.0, 3.8)
            a_hip = np.deg2rad(rng.uniform(45.0, 75.0))
            a_knee = np.deg2rad(rng.uniform(55.0, 88.0))
            speed = rng.uniform(1.8, 3.0)
        w = 2.0 * np.pi * f
        swing = np.sin(w * t)
        joint_angle[names["left_hip"]] = (x, a_hip * swing)
        joint_angle[names["right_hip"]] = (x, -a_hip * swing)
        # Knees flex (never hyper-extend); peak while the same-side leg swings back.
        joint_angle[names["left_knee"]] = (x, a_knee * 0.5 * (1.0 - np.cos(w * t + np.pi)))
        joint_angle[names["right_knee"]] = (x, a_knee * 0.5 * (1.0 - np.cos(w * t)))
        # Arms counter-swing about the vertical axis, elbows flex slightly.
        a_arm = 0.55 * a_hip
        joint_angle[names["left_shoulder"]] = (y, -a_arm * swing)
        joint_angle[names["right_shoulder"]] = (y, -a_arm * swing)
        joint_angle[names["left_elbow"]] = (y, np.deg2rad(12.0) * (1.0 - np.cos(w * t)) * 0.5)
        joint_angle[names["right_elbow"]] = (y, -np.deg2rad(12.0) * (1.0 - np.cos(w * t + np.pi)) * 0.5)
        joint_angle[names["spine1"]] = (z, np.deg2rad(4.0) * swing)
        joint_angle[names["neck"]] = (z, -np.deg2rad(3.0) * swing)
        root = np.stack([np.zeros_like(t), root_y + 0.02 * np.sin(2 * w * t), speed * t], axis=-1)
    else:
        # Slow ramp peaking mid-clip: deep crouch with spine and arm involvement.
        ramp = np.sin(np.pi * t / duration) ** 2
        a_knee = np.deg2rad(rng.uniform(125.0, 145.0))
        a_hip = np.deg2rad(rng.uniform(95.0, 115.0))
        a_spine = np.deg2rad(rng.uniform(25.0, 40.0))
        joint_angle[names["left_knee"]] = (x, a_knee * ramp)
        joint_angle[names["right_knee"]] = (x, a_knee * ramp)
        joint_angle[names["left_hip"]] = (x, -a_hip * ramp)
        joint_angle[names["right_hip"]] = (x, -a_hip * ramp)
        joint_angle[names["spine1"]] = (x, -a_spine * 0.6 * ramp)
        joint_angle[names["spine2"]] = (x, -a_spine * 0.4 * ramp)
        joint_angle[names["left_shoulder"]] = (z, np.deg2rad(50.0) * ramp)
        joint_angle[names["right_shoulder"]] = (z, -np.deg2rad(50.0) * ramp)
        root = np.stack(
            [np.zeros_like(t), root_y - 0.35 * root_y * ramp, np.zeros_like(t)], axis=-1
        )

    q = np.zeros((n_frames, skeleton.num_joints, 4))
    q[..., 0] = 1.0
    for j, (axis, angles) in joint_angle.items():
        q[:, j] = rot.from_axis_angle(axis, angles)
    return MotionSequence(skeleton, fps, root, q, motion_class)


def _fit_rotation(rest_dirs: np.ndarray, obs_dirs: np.ndarray) -> np.ndarray:
    """Orthogonal Procrustes fits mapping unit rest directions (K, 3) onto
    observed ones (N, K, 3); one quaternion per frame, (N, 4)."""
    h = obs_dirs.swapaxes(-1, -2) @ rest_dirs
    u, _, vt = np.linalg.svd(h)
    flip = np.zeros_like(h)
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(u @ vt))
    return rot.from_matrix(u @ flip @ vt)


def poses_from_joint_positions(
    skeleton: Skeleton,
    positions: np.ndarray,
    valid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover parent-relative swing poses from per-frame joint positions.

    Each joint's local rotation is the minimal rotation (in its parent's
    frame) aligning the rest direction of its primary bone with the observed
    one; twist about the bone is left at rest. The root, whose parent frame is
    the world, is fit over all of its child bones so the recovery is
    equivariant under rigid motions of the input.

    A bone is usable in a frame when both of its joints are valid and it is
    longer than 1e-12. Every frame is recovered on its own, so clips stacked
    along the frame axis each get the bits they get alone. Returns root
    translations (T, 3), local rotations (T, J, 4) and a (T, J) mask of
    joints whose rotation was actually observed (invalid or leaf joints fall
    back to identity).
    """
    positions = _inputs.array("positions", positions, (None, skeleton.num_joints, 3))
    t_count, j_count = positions.shape[:2]
    valid = np.broadcast_to(_inputs.mask("valid", True if valid is None else valid), (t_count, j_count))
    locals_q = np.zeros((t_count, j_count, 4))
    locals_q[..., 0] = 1.0
    observed = np.zeros((t_count, j_count), dtype=bool)

    def usable_bones(joints, children) -> tuple[np.ndarray, np.ndarray]:
        """Bones joints[k] -> children[k] per frame, (T, K, 3), and where each is usable."""
        bones = positions[:, children] - positions[:, joints]
        ok = valid[:, joints] & valid[:, children] & (np.sqrt(rot.dot(bones, bones)) > 1e-12)
        return bones, ok

    # Root: all usable child bones vote for its orientation. Frames are
    # grouped by which child bones they can use.
    kids = skeleton.children(0)
    bones, use = usable_bones([0] * len(kids), kids)
    rest = skeleton.rest_offsets[kids]
    for pattern in np.unique(use, axis=0):
        if not pattern.any():
            continue
        frames = (use == pattern).all(axis=1)
        if pattern.sum() == 1:
            c = int(np.argmax(pattern))
            locals_q[frames, 0] = rot.between(rest[c], bones[frames, c])
        else:
            locals_q[frames, 0] = _fit_rotation(
                rot.normalize(rest[pattern]), rot.normalize(bones[frames][:, pattern])
            )
        observed[frames, 0] = True
    # Below the root, one depth at a time: each joint swings its primary
    # bone, seen in its parent's frame, from rest to observed.
    globals_q = np.empty_like(locals_q)
    globals_q[:, 0] = locals_q[:, 0]
    for level in skeleton.depths:
        joints, children = level.swing_joints, level.swing_children
        bones, ok = usable_bones(joints, children)
        frames, k = np.nonzero(ok)
        d_parent = rot.rotate(rot.conjugate(globals_q[frames, level.swing_parents[k]]), bones[frames, k])
        locals_q[frames, joints[k]] = rot.between(skeleton.rest_offsets[children[k]], d_parent)
        observed[frames, joints[k]] = True
        globals_q[:, level.joints] = rot.multiply(globals_q[:, level.parents], locals_q[:, level.joints])
    root_translations = np.where(valid[:, :1], positions[:, 0], 0.0)
    return root_translations, locals_q, observed


def max_joint_speed(seq: MotionSequence) -> float:
    """Largest per-joint angular speed (rad/s) between consecutive frames."""
    q = seq.local_rotations
    dq = rot.multiply(rot.conjugate(q[:-1]), q[1:])
    return float(rot.angle_of(dq).max(initial=0.0)) * seq.fps


def max_joint_angle(seq: MotionSequence) -> float:
    """Largest per-joint rotation angle (radians) over the clip."""
    return float(rot.angle_of(seq.local_rotations).max())
