"""Parametric capsule bodies and bone colliders.

The six build labels are engine constants for desk-scale benchmarking; they
are not measurements of any particular person or dataset. The body surface
is never posed: skin markers ride their joint's bone frame and collisions
use per-bone capsules, so only the rest-pose template is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import Skeleton, default_skeleton
from .mesh import TriMesh, merge_meshes
from .primitives import capsule_mesh


@dataclass(frozen=True)
class Capsule:
    """Collision capsule: segment from p0 to p1 with a radius."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "p1", np.asarray(self.p1, dtype=float))
        if self.radius <= 0:
            raise ValueError("capsule radius must be positive")


@dataclass(frozen=True)
class BodyBuild:
    height: float
    shoulder_scale: float
    torso_scale: float
    limb_scale: float
    hip_scale: float


BUILD_CATALOG: dict[str, BodyBuild] = {
    "female_small": BodyBuild(1.55, 0.92, 0.90, 0.88, 1.06),
    "female_average": BodyBuild(1.63, 0.97, 1.00, 1.00, 1.08),
    "female_large": BodyBuild(1.70, 1.02, 1.22, 1.18, 1.10),
    "male_small": BodyBuild(1.65, 1.04, 0.95, 0.92, 1.00),
    "male_average": BodyBuild(1.75, 1.10, 1.08, 1.05, 1.00),
    "male_large": BodyBuild(1.86, 1.16, 1.30, 1.25, 1.02),
}

# Base capsule radius per bone (child joint name -> radius at average build).
# Torso-group radii scale with torso girth, limb-group with limb girth.
_BONE_RADII = {
    "left_hip": 0.095,
    "right_hip": 0.095,
    "spine1": 0.125,
    "spine2": 0.130,
    "spine3": 0.125,
    "neck": 0.055,
    "left_collar": 0.070,
    "right_collar": 0.070,
    "head": 0.088,
    "left_shoulder": 0.060,
    "right_shoulder": 0.060,
    "left_elbow": 0.046,
    "right_elbow": 0.046,
    "left_wrist": 0.038,
    "right_wrist": 0.038,
    "left_hand": 0.032,
    "right_hand": 0.032,
    "left_knee": 0.077,
    "right_knee": 0.077,
    "left_ankle": 0.056,
    "right_ankle": 0.056,
    "left_foot": 0.042,
    "right_foot": 0.042,
}
_TORSO_BONES = {
    "left_hip", "right_hip", "spine1", "spine2", "spine3",
    "neck", "left_collar", "right_collar", "head",
}


@dataclass(frozen=True)
class SkinnedBody:
    """Rest-pose template mesh of a build over its skeleton."""

    template: TriMesh
    skeleton: Skeleton
    build_label: str


def body_skeleton(build_label: str) -> Skeleton:
    """Skeleton for a build: default joints scaled to the label's proportions."""
    if build_label not in BUILD_CATALOG:
        raise ValueError(f"unknown build label {build_label!r}; choose from {sorted(BUILD_CATALOG)}")
    b = BUILD_CATALOG[build_label]
    sk = default_skeleton(b.height)
    offsets = sk.rest_offsets.copy()
    names = list(sk.joint_names)
    for side in ("left", "right"):
        offsets[names.index(f"{side}_hip"), 0] *= b.hip_scale
        offsets[names.index(f"{side}_collar"), 0] *= b.shoulder_scale
        offsets[names.index(f"{side}_shoulder"), 0] *= b.shoulder_scale
    sk = Skeleton(sk.joint_names, sk.parents, offsets)
    # Re-normalize: girth tweaks leave height along y untouched, but keep exact.
    return sk.scaled(b.height / sk.rest_height())


def bone_radius(build_label: str, child_joint_name: str) -> float:
    b = BUILD_CATALOG[build_label]
    base = _BONE_RADII[child_joint_name]
    scale = b.torso_scale if child_joint_name in _TORSO_BONES else b.limb_scale
    return base * scale


def body_capsules(
    skeleton: Skeleton,
    build_label: str,
    joint_positions: np.ndarray | None = None,
) -> list[Capsule]:
    """One capsule per bone at the given (default: rest) joint positions."""
    if joint_positions is None:
        joint_positions = skeleton.rest_positions()
    caps = []
    for j in range(1, skeleton.num_joints):
        p = skeleton.parents[j]
        r = bone_radius(build_label, skeleton.joint_names[j])
        caps.append(Capsule(joint_positions[p], joint_positions[j], r))
    return caps


def build_parametric_body(build_label: str) -> SkinnedBody:
    """Capsule-per-bone body template (one capsule mesh per bone, merged)."""
    skeleton = body_skeleton(build_label)
    capsules = body_capsules(skeleton, build_label)
    pieces = [capsule_mesh(c.p0, c.p1, c.radius, n_theta=14, n_axial=3, n_cap=3) for c in capsules]
    return SkinnedBody(merge_meshes(pieces), skeleton, build_label)
