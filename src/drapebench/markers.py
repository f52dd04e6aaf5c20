"""Virtual marker-based motion capture.

48 markers (2 per joint, on opposite sides of the bone axis) are attached at
the T-pose: over the garment where it covers the nominal marker position,
directly on the skin otherwise. The skin is the union of the bone capsules,
so a skin marker's ray exit is closed form. Skin markers move rigidly with
their joint's bone frame -- the idealization that makes the unclothed,
noise-free pipeline an exact identity. Cloth markers ride the simulated
garment surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import SkinnedBody, skin_exits
from .cloth import ClothState
from .kinematics import MotionSequence, Skeleton, poses_from_joint_positions, ride_joints
from .mesh import TriMesh, ray_union_exits, surface_points

MARKER_BASE_HEIGHT = 0.005  # marker center sits 5 mm off the skin
DEFAULT_NOISE_RMS_M = 0.005  # RMS 3D displacement of the added noise


@dataclass(frozen=True)
class MarkerPlacement:
    """The marker set at the T-pose: marker 2j is joint j's A (+lateral)
    marker and 2j + 1 its B (-lateral) marker."""

    joint: np.ndarray        # (M,) joint each marker belongs to
    on_cloth: np.ndarray     # (M,) rides the garment (else the skin)
    offset: np.ndarray       # (M, 3) marker minus joint position at T-pose
    face: np.ndarray         # (M,) garment face of a cloth marker; 0 for skin
    barycentric: np.ndarray  # (M, 3) weights on that face's vertices; (1, 0, 0) for skin

    @property
    def num_markers(self) -> int:
        return len(self.joint)


@dataclass(frozen=True)
class MarkerTrajectory:
    positions: np.ndarray  # (T, M, 3)
    fps: float

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", p)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("positions must be (frames, markers, 3)")
        if not np.isfinite(p).all():
            raise ValueError("marker positions must be finite")

    @property
    def num_markers(self) -> int:
        return self.positions.shape[1]


def _lateral_axes(bones: np.ndarray) -> np.ndarray:
    """Marker offset axis per bone: z (front/back) unless the bone runs along z."""
    along_z = np.abs(bones[:, 2] / np.linalg.norm(bones, axis=1)) > 0.7
    return np.where(along_z[:, None], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])


def place_markers(body: SkinnedBody, garment: TriMesh | None = None) -> MarkerPlacement:
    """Attach two markers per joint at the T-pose.

    Rays are cast from each joint outward along +-lateral; the marker targets
    the garment if the ray crosses it, otherwise the skin, where it sits
    MARKER_BASE_HEIGHT beyond the ray's exit from the bone capsules. Every
    joint is an endpoint of its own bones' capsules, so every ray starts
    inside the skin.
    """
    sk = body.skeleton
    children = [sk.primary_child(j) for j in range(sk.num_joints)]
    bones = sk.rest_offsets[[j if c is None else c for j, c in enumerate(children)]]
    joint = np.repeat(np.arange(sk.num_joints), 2)
    n = len(joint)
    origins = sk.rest_positions()[joint]
    signs = np.tile([[1.0], [-1.0]], (sk.num_joints, 1))  # A, B
    directions = np.repeat(_lateral_axes(bones), 2, axis=0) * signs
    on_cloth = np.zeros(n, dtype=bool)
    face = np.zeros(n, dtype=np.int64)
    barycentric = np.tile([1.0, 0.0, 0.0], (n, 1))
    offset = directions * (skin_exits(body, origins, directions) + MARKER_BASE_HEIGHT)[:, None]
    if garment is not None:
        on_cloth, face, barycentric = ray_union_exits(origins, directions, garment)
        offset[on_cloth] = surface_points(
            garment.vertices, garment.faces, face[on_cloth], barycentric[on_cloth]
        ) - origins[on_cloth]
    return MarkerPlacement(joint, on_cloth, offset, face, barycentric)


def track_markers(
    placement: MarkerPlacement,
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
    cloth = placement.on_cloth
    out = np.empty((t_count, placement.num_markers, 3))
    if cloth.any():
        if cloth_frames is None or garment_faces is None:
            raise ValueError("cloth markers present but no cloth frames supplied")
        if len(cloth_frames) != t_count:
            raise ValueError(
                f"cloth frames ({len(cloth_frames)}) misaligned with motion frames ({t_count})"
            )
        frames = np.stack([s.positions for s in cloth_frames])
        out[:, cloth] = surface_points(
            frames, garment_faces, placement.face[cloth], placement.barycentric[cloth]
        )
    skin = ~cloth
    out[:, skin] = ride_joints(
        joint_positions, joint_orientations, placement.joint[skin], placement.offset[skin]
    )
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
        return traj
    rng = np.random.default_rng(seed)
    sigma = rms_3d_m / np.sqrt(3.0)
    noisy = traj.positions + rng.normal(0.0, sigma, size=traj.positions.shape)
    return MarkerTrajectory(noisy, traj.fps)


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
