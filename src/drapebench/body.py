"""Parametric capsule bodies and bone colliders.

The six build labels are engine constants for desk-scale benchmarking; they
are not measurements of any particular person or dataset. The body is its
bone capsules: the cloth collides with them, garments are fitted around them,
and skin markers sit where a ray leaves their union, all in closed form. No
body mesh is built, and the body is never posed: skin markers ride their
joint's bone frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _inputs, rotations as rot
from .kinematics import Skeleton, default_skeleton


@dataclass(frozen=True)
class Capsule:
    """Collision capsule: segment from p0 to p1 with a radius."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        for name in ("p0", "p1"):
            object.__setattr__(self, name, _inputs.array(f"capsule {name}", getattr(self, name), (3,)))
        _inputs.positive("capsule radius", self.radius)


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
    """A build's skeleton; its bone capsules are `body_capsules(skeleton, build_label)`."""

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
    """The capsule body of a build: its skeleton and label."""
    return SkinnedBody(body_skeleton(build_label), build_label)


def _closest_on_segments(
    points: np.ndarray, p0: np.ndarray, seg: np.ndarray, seg_sq: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest point to each point on the segment p0 + t * seg, t in [0, 1].

    Rows of points, p0 and seg pair up; a single (3,) segment serves every
    point. seg_sq, if given, is max(|seg|^2, 1e-18) per segment, computed
    once by a caller that reuses its segments. Every step is elementwise, so
    transposed views of (3, K) columns give the same bits as rows, and the
    results follow the layout of points. Returns (closest, points - closest,
    distance).
    """
    if seg_sq is None:
        seg_sq = np.maximum(rot.rowdot(seg, seg), 1e-18)
    rel = points - p0
    t = rot.rowdot(rel, seg)
    t /= seg_sq
    np.clip(t, 0.0, 1.0, out=t)
    closest = np.multiply(seg, t[..., None], out=np.empty_like(points))
    closest += p0
    delta = points - closest
    dist = rot.rowdot(delta, delta)
    np.sqrt(dist, out=dist)
    return closest, delta, dist


def _ray_capsule_exit(origins: np.ndarray, dirs: np.ndarray, cap: Capsule) -> np.ndarray:
    """Largest t where origin + t*dir crosses the capsule surface.

    origins (K, 3), dirs (K, 3) unit. Returns (K,) with -inf for misses. The
    t is the exit when the origin lies inside the capsule; it is negative
    when the whole capsule lies behind the origin.
    """
    a, b, r = cap.p0, cap.p1, cap.radius
    best = np.full(len(origins), -np.inf)
    # Sphere caps.
    for center in (a, b):
        oc = origins - center
        beta = rot.rowdot(dirs, oc)
        gamma = rot.rowdot(oc, oc) - r * r
        disc = beta * beta - gamma
        ok = disc >= 0.0
        t = -beta + np.sqrt(np.maximum(disc, 0.0))
        best = np.where(ok & (t > best), t, best)
    # Finite cylinder side.
    axis = b - a
    length = np.linalg.norm(axis)
    if length > 1e-12:
        u = axis / length
        oc = origins - a
        d_perp = dirs - np.outer(dirs @ u, u)
        o_perp = oc - np.outer(oc @ u, u)
        aa = rot.rowdot(d_perp, d_perp)
        bb = rot.rowdot(o_perp, d_perp)
        cc = rot.rowdot(o_perp, o_perp) - r * r
        disc = bb * bb - aa * cc
        ok = (disc >= 0.0) & (aa > 1e-18)
        t = np.where(ok, (-bb + np.sqrt(np.maximum(disc, 0.0))) / np.where(aa > 1e-18, aa, 1.0), 0.0)
        s = (oc + t[:, None] * dirs) @ u
        ok &= (s >= 0.0) & (s <= length)
        best = np.where(ok & (t > best), t, best)
    return best


def skin_exits(body: SkinnedBody, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(K,) distance along each unit ray to where it leaves the rest-pose
    capsules that contain its origin.

    A capsule is convex, so the ray leaves it once; the ray has left all of
    them at the largest of those exits. An origin inside no capsule gets 0.
    """
    t = np.zeros(len(origins))
    for cap in body_capsules(body.skeleton, body.build_label):
        inside = _closest_on_segments(origins, cap.p0, cap.p1 - cap.p0)[2] <= cap.radius
        t = np.where(inside, np.maximum(t, _ray_capsule_exit(origins, directions, cap)), t)
    return t
