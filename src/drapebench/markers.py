"""Virtual marker-based motion capture.

48 markers (2 per joint, on opposite sides of the bone axis) are attached at
the T-pose: over the garment where it covers the nominal marker position,
directly on the skin otherwise. Skin markers move rigidly with their joint's
bone frame -- the idealization that makes the unclothed, noise-free pipeline
an exact identity. Cloth markers ride the simulated garment surface.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rotations as rot
from .body import SkinnedBody
from .cloth import ClothState
from .kinematics import MotionSequence, Skeleton, poses_from_joint_positions
from .mesh import TriMesh, SurfacePoint, ray_union_exits, surface_point_position

MARKER_BASE_HEIGHT = 0.005  # marker center sits 5 mm off the skin
DEFAULT_NOISE_RMS_M = 0.005  # RMS 3D displacement of the added noise


@dataclass(frozen=True)
class MarkerSpec:
    joint: int
    slot: str                       # "A" (+lateral) or "B" (-lateral)
    target: str                     # "skin" or "cloth"
    attachment: SurfacePoint        # on the target mesh at T-pose
    rest_offset: np.ndarray         # marker minus joint position at T-pose

    def __post_init__(self):
        if self.slot not in ("A", "B"):
            raise ValueError("slot must be 'A' or 'B'")
        if self.target not in ("skin", "cloth"):
            raise ValueError("target must be 'skin' or 'cloth'")
        object.__setattr__(self, "rest_offset", np.asarray(self.rest_offset, dtype=float))


@dataclass(frozen=True)
class MarkerTrajectory:
    positions: np.ndarray  # (T, M, 3)
    fps: float
    noise_seed: int | None = None

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", p)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("positions must be (frames, markers, 3)")
        if not np.isfinite(p).all():
            raise ValueError("marker positions must be finite")

    @property
    def num_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def num_markers(self) -> int:
        return self.positions.shape[1]


def _lateral_axis(bone_dir: np.ndarray) -> np.ndarray:
    """Marker offset axis: z (front/back) unless the bone runs along z."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b = bone_dir / np.linalg.norm(bone_dir)
    return x if abs(float(b @ z)) > 0.7 else z


def place_markers(body: SkinnedBody, garment: TriMesh | None = None) -> list[MarkerSpec]:
    """Attach two markers per joint at the T-pose.

    Rays are cast from each joint outward along +-lateral; the marker targets
    the garment if the ray crosses it, otherwise the skin. Raises when a ray
    misses both surfaces (malformed garment or body).
    """
    sk = body.skeleton
    joint_pos = sk.rest_positions()
    rays = []  # (joint, slot, direction)
    for j in range(sk.num_joints):
        c = sk.primary_child(j)
        bone = sk.rest_offsets[c] if c is not None else sk.rest_offsets[j]
        lateral = _lateral_axis(bone)
        for sign, slot in ((1.0, "A"), (-1.0, "B")):
            rays.append((j, slot, sign * lateral))
    origins = joint_pos[[j for j, _, _ in rays]]
    directions = np.array([d for _, _, d in rays])
    if garment is not None:
        cloth_sps = ray_union_exits(origins, directions, garment)
    else:
        cloth_sps = [None] * len(rays)
    uncovered = [i for i, sp in enumerate(cloth_sps) if sp is None]
    skin_sps = {}
    if uncovered:
        skin = ray_union_exits(origins[uncovered], directions[uncovered], body.template)
        skin_sps = dict(zip(uncovered, skin))
    specs: list[MarkerSpec] = []
    for i, (j, slot, direction) in enumerate(rays):
        cloth_sp = cloth_sps[i]
        if cloth_sp is not None:
            marker_pos = surface_point_position(garment, cloth_sp)
            specs.append(MarkerSpec(j, slot, "cloth", cloth_sp, marker_pos - joint_pos[j]))
            continue
        skin_sp = skin_sps[i]
        if skin_sp is None:
            raise ValueError(
                f"marker ray at joint {sk.joint_names[j]} ({slot}) misses both surfaces"
            )
        skin_pos = surface_point_position(body.template, skin_sp)
        offset = skin_pos - joint_pos[j] + direction * MARKER_BASE_HEIGHT
        specs.append(MarkerSpec(j, slot, "skin", skin_sp, offset))
    return specs


def track_markers(
    specs: list[MarkerSpec],
    joint_positions: np.ndarray,
    joint_orientations: np.ndarray,
    fps: float,
    cloth_frames: list[ClothState] | None = None,
    garment_faces: np.ndarray | None = None,
) -> MarkerTrajectory:
    """Marker world positions per frame.

    joint_positions/orientations are FK results over the motion, shape
    (T, J, 3) and (T, J, 4). Cloth markers need the simulated cloth states and
    the garment face array; skin markers follow their joint's bone frame.
    """
    t_count = joint_positions.shape[0]
    has_cloth = any(s.target == "cloth" for s in specs)
    if has_cloth:
        if cloth_frames is None or garment_faces is None:
            raise ValueError("cloth markers present but no cloth frames supplied")
        if len(cloth_frames) != t_count:
            raise ValueError(
                f"cloth frames ({len(cloth_frames)}) misaligned with motion frames ({t_count})"
            )
        frames = np.stack([s.positions for s in cloth_frames])
    out = np.empty((t_count, len(specs), 3))
    for m, spec in enumerate(specs):
        if spec.target == "skin":
            q = joint_orientations[:, spec.joint]
            out[:, m] = joint_positions[:, spec.joint] + rot.rotate(q, spec.rest_offset)
        else:
            face = garment_faces[spec.attachment.face]
            out[:, m] = spec.attachment.barycentric @ frames[:, face]
    return MarkerTrajectory(out, fps)


def add_marker_noise(
    traj: MarkerTrajectory, seed: int, rms_3d_m: float = DEFAULT_NOISE_RMS_M
) -> MarkerTrajectory:
    """Add i.i.d. zero-mean Gaussian noise per marker, frame and axis.

    The per-axis sigma is rms_3d_m / sqrt(3) so the RMS 3D displacement of a
    marker equals rms_3d_m. rms_3d_m = 0 returns the input unchanged.
    """
    if rms_3d_m < 0:
        raise ValueError("noise RMS must be non-negative")
    if rms_3d_m == 0.0:
        return replace(traj, noise_seed=seed)
    rng = np.random.default_rng(seed)
    sigma = rms_3d_m / np.sqrt(3.0)
    noisy = traj.positions + rng.normal(0.0, sigma, size=traj.positions.shape)
    return MarkerTrajectory(noisy, traj.fps, noise_seed=seed)


def marker_pair_midpoints(traj: MarkerTrajectory) -> np.ndarray:
    """(T, J, 3) midpoints of the A/B marker pairs."""
    if traj.num_markers % 2 != 0:
        raise ValueError("trajectory does not hold complete marker pairs")
    return 0.5 * (traj.positions[:, 0::2] + traj.positions[:, 1::2])


def reconstruct_pose_from_markers(
    traj: MarkerTrajectory, skeleton: Skeleton, motion_class: str = "basic"
) -> MotionSequence:
    """Estimate a motion from a 48-marker trajectory.

    Joint positions are the pair midpoints; the root translation is the root
    pair's midpoint and rotations are recovered hierarchically as bone swings,
    so re-running FK on the result enforces the skeleton's bone lengths.
    """
    if traj.num_markers != 2 * skeleton.num_joints:
        raise ValueError(
            f"need {2 * skeleton.num_joints} markers for this skeleton, got {traj.num_markers}"
        )
    midpoints = marker_pair_midpoints(traj)
    root, local_rotations, _ = poses_from_joint_positions(skeleton, midpoints)
    return MotionSequence(skeleton, traj.fps, root, local_rotations, motion_class)


def trajectory_to_csv(traj: MarkerTrajectory) -> str:
    lines = ["frame,marker_id,x,y,z"]
    for t in range(traj.num_frames):
        for m in range(traj.num_markers):
            x, y, z = (float(v) for v in traj.positions[t, m])
            lines.append(f"{t},{m},{x!r},{y!r},{z!r}")
    return "\n".join(lines) + "\n"
