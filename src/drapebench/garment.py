"""Garment generation at target drape levels, drape measurement and classes.

Garments are open tube meshes that follow bone chains and wrap the body's
capsule silhouette with a radial slack. Ring vertices and cap centroids are
affine in slack, so a category's capped volume is a cubic in it: four volumes
fix the cubic, and its one root in the slack bounds is the class's aim point.
The "covered body" used as the drape denominator is the same tube at zero
slack, i.e. a garment that fits the body perfectly. A garment of several
categories has one drape ratio, over their summed volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _inputs, rotations as rot
from .body import Capsule, SkinnedBody, _ray_capsule_exit, body_capsules
from .mesh import (
    TriMesh, boundary_caps, cap_vertices, enclosed_volume, is_closed, merge_meshes, signed_volume,
)

GARMENT_CATEGORIES = ("tshirt", "trousers", "unicloth")

# Class thresholds over the drape ratio. The six classes are the half-open
# intervals between consecutive thresholds (class 1 starts at 0, class 6 is
# unbounded above). Engine constants.
DRAPE_THRESHOLDS = (0.05, 0.15, 0.30, 0.60, 1.00)

_MIN_RING_RADIUS = 0.02
_MIN_SLACK = 0.002
_MAX_SLACK = 0.80
# A ring radius may fall by at most this much per meter of arc or of axis to
# its neighbors: a wall of atan(1.1) = 48 degrees. Fabric spans hollows with
# steeper walls, such as the crotch and the armpits, and follows gentler ones.
_BRIDGE_SLOPE = 1.1
# Each pass moves a cap one column or ring further. On every build at
# resolution 0.5-2.0 the radii stop changing after at most 8 passes; further
# passes leave them as they are.
_BRIDGE_PASSES = 12


@dataclass(frozen=True)
class Garment:
    """Generated garment: open tube mesh plus simulation metadata."""

    mesh: TriMesh
    pinned: np.ndarray          # (V,) bool, anchor ring vertices
    binding_joint: np.ndarray   # (V,) int, nearest chain joint per vertex
    drape_ratio: float          # over the summed volumes of all categories
    slack: tuple[float, ...]    # radial slack per category, in order


def measure_drape(garment: TriMesh, covered_body: TriMesh) -> float:
    """(V_garment - V_covered) / V_covered over watertight meshes.

    A garment smaller than the body it covers does not fit and is refused.
    """
    v_body = enclosed_volume(covered_body)
    if v_body <= 0.0:
        raise ValueError("covered body volume must be positive")
    v_garment = enclosed_volume(garment)
    if v_garment < v_body:
        raise ValueError(
            f"garment volume {v_garment:.6g} is below covered-body volume {v_body:.6g}"
        )
    return float((v_garment - v_body) / v_body)


def classify_drape(ratio: float) -> int:
    if not ratio >= 0:  # a NaN fails it too
        raise ValueError(f"drape ratio must be non-negative, got {ratio!r}")
    return int(np.searchsorted(DRAPE_THRESHOLDS, ratio, side="right")) + 1


def _target_ratio(drape_class: int) -> float:
    """Aim point inside a class: interval midpoint (class 6: 1.5x its floor)."""
    if not 1 <= drape_class <= 6:
        raise ValueError(f"drape class must be 1..6, got {drape_class!r}")
    edges = (0.0,) + DRAPE_THRESHOLDS
    if drape_class == 6:
        return 1.5 * edges[5]
    return 0.5 * (edges[drape_class - 1] + edges[drape_class])


# --- tube construction ----------------------------------------------------


def _grid_tube_faces(n_rings: int, n_theta: int) -> np.ndarray:
    """Quad-strip faces between consecutive rings of n_theta vertices each.

    Ring k, step i contributes [a, b, c] and [a, c, d], in that order.
    """
    i = np.arange(n_theta)
    a = np.arange(n_rings - 1)[:, None] * n_theta + i
    b = a - i + (i + 1) % n_theta
    c = b + n_theta
    d = a + n_theta
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _orthonormal_frame(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors u, w with (u, w, t) right-handed."""
    t = t / np.linalg.norm(t)
    helper = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = rot.cross(helper, t)
    u /= np.linalg.norm(u)
    w = rot.cross(t, u)
    return u, w


def _bridge_hollows(radii: np.ndarray, stations: np.ndarray) -> np.ndarray:
    """Cap how fast ring radii may shrink between neighbors (a closing pass).

    Limits the radial gradient along the ring and along the tube axis so the
    surface spans concavities the way taut fabric does.
    """
    radii = radii.copy()
    n_theta = radii.shape[1]
    ds_axial = np.linalg.norm(np.diff(stations, axis=0), axis=1)[:, None]
    for _ in range(_BRIDGE_PASSES):
        arc = radii.mean(axis=1, keepdims=True) * (2.0 * np.pi / n_theta)
        ring_floor = np.maximum(np.roll(radii, 1, axis=1), np.roll(radii, -1, axis=1)) - _BRIDGE_SLOPE * arc
        radii = np.maximum(radii, ring_floor)
        axial = radii.copy()
        axial[1:] = np.maximum(axial[1:], radii[:-1] - _BRIDGE_SLOPE * ds_axial)
        axial[:-1] = np.maximum(axial[:-1], radii[1:] - _BRIDGE_SLOPE * ds_axial)
        radii = axial
    return radii


@dataclass(frozen=True)
class _SleeveSpec:
    chain: tuple[str, ...]        # joint names along the tube axis
    wrap: tuple[str, ...]         # bones (child-joint names) to enclose
    start_extend: float           # meters before the first joint
    end_extend: float             # meters past the last joint (< 0 trims)
    pin_at_start: bool            # anchor ring at the chain start or end


_SLEEVES: dict[str, tuple[_SleeveSpec, ...]] = {
    "tshirt": (
        _SleeveSpec(
            ("pelvis", "spine1", "spine2", "spine3", "neck"),
            ("left_hip", "right_hip", "left_knee", "right_knee", "spine1", "spine2",
             "spine3", "left_collar", "right_collar", "neck"),
            0.12, 0.02, False,
        ),
        _SleeveSpec(("left_shoulder", "left_elbow"), ("left_shoulder", "left_elbow"), 0.03, 0.05, True),
        _SleeveSpec(("right_shoulder", "right_elbow"), ("right_shoulder", "right_elbow"), 0.03, 0.05, True),
    ),
    "trousers": (
        _SleeveSpec(
            ("pelvis", "spine1"), ("left_hip", "right_hip", "spine1"), 0.14, -0.06, False
        ),
        _SleeveSpec(("left_hip", "left_knee", "left_ankle"),
                    ("left_hip", "right_hip", "spine1", "left_knee", "left_ankle"), 0.05, -0.04, True),
        _SleeveSpec(("right_hip", "right_knee", "right_ankle"),
                    ("left_hip", "right_hip", "spine1", "right_knee", "right_ankle"), 0.05, -0.04, True),
    ),
    "unicloth": (
        _SleeveSpec(
            ("pelvis", "spine1", "spine2", "spine3", "neck", "head"),
            ("left_hip", "right_hip", "left_knee", "right_knee", "spine1", "spine2",
             "spine3", "left_collar", "right_collar", "neck", "head"),
            0.13, 0.10, False,
        ),
        _SleeveSpec(("left_shoulder", "left_elbow", "left_wrist"),
                    ("left_shoulder", "left_elbow", "left_wrist", "left_hand"), 0.03, 0.14, True),
        _SleeveSpec(("right_shoulder", "right_elbow", "right_wrist"),
                    ("right_shoulder", "right_elbow", "right_wrist", "right_hand"), 0.03, 0.14, True),
        _SleeveSpec(("left_hip", "left_knee", "left_ankle"),
                    ("left_hip", "right_hip", "spine1", "left_knee", "left_ankle"), 0.05, -0.02, True),
        _SleeveSpec(("right_hip", "right_knee", "right_ankle"),
                    ("left_hip", "right_hip", "spine1", "right_knee", "right_ankle"), 0.05, -0.02, True),
        _SleeveSpec(("left_ankle", "left_foot"), ("left_foot",), 0.02, 0.08, True),
        _SleeveSpec(("right_ankle", "right_foot"), ("right_foot",), 0.02, 0.08, True),
    ),
}


class _SleeveGeometry:
    """Slack-independent ring layout and topology: stations, frames, base
    radii, tube faces and their end-capped closure."""

    def __init__(
        self,
        spec: _SleeveSpec,
        joint_pos: np.ndarray,
        name_to_index: dict[str, int],
        capsules_by_bone: dict[str, Capsule],
        n_theta: int,
        ring_spacing: float,
    ):
        pts = np.array([joint_pos[name_to_index[n]] for n in spec.chain])
        d0 = pts[1] - pts[0]
        d0 /= np.linalg.norm(d0)
        d1 = pts[-1] - pts[-2]
        d1 /= np.linalg.norm(d1)
        poly = np.concatenate([[pts[0] - spec.start_extend * d0], pts, [pts[-1] + spec.end_extend * d1]])
        # A negative end extension trims; drop points that fold back on the polyline.
        if spec.end_extend < 0:
            keep = [(poly[-1] - p) @ d1 > 1e-9 for p in poly[:-1]]
            poly = np.concatenate([poly[:-1][keep], [poly[-1]]])

        seg = np.linalg.norm(np.diff(poly, axis=0), axis=1)
        arc = np.concatenate([[0.0], np.cumsum(seg)])
        total = arc[-1]
        n_rings = int(round(total / ring_spacing)) + 1
        if n_rings < 3:
            raise ValueError(
                f"a {total:.3f} m sleeve gets {n_rings} rings at {ring_spacing:.4f} m spacing, fewer than 3; "
                "raise resolution_scale"
            )
        s = np.linspace(0.0, total, n_rings)
        self.stations = np.stack([np.interp(s, arc, poly[:, k]) for k in range(3)], axis=-1)

        tangents = np.gradient(self.stations, axis=0)
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        u, w = _orthonormal_frame(tangents[0])
        frames_u = [u]
        frames_w = [w]
        # Parallel transport: each ring's frame is the previous one carried
        # by the minimal rotation between their tangents.
        turns = rot.between(tangents[:-1], tangents[1:])
        for k in range(1, n_rings):
            u = rot.rotate(turns[k - 1], frames_u[-1])
            u = u - (u @ tangents[k]) * tangents[k]
            u /= np.linalg.norm(u)
            frames_u.append(u)
            frames_w.append(rot.cross(tangents[k], u))
        self.u = np.stack(frames_u)
        self.w = np.stack(frames_w)

        theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
        self.dirs = (
            np.cos(theta)[None, :, None] * self.u[:, None, :]
            + np.sin(theta)[None, :, None] * self.w[:, None, :]
        )  # (K, n_theta, 3)

        wrap_caps = [capsules_by_bone[n] for n in spec.wrap]
        flat_o = np.repeat(self.stations, n_theta, axis=0)
        flat_d = self.dirs.reshape(-1, 3)
        rho = np.full(len(flat_o), -np.inf)
        for cap in wrap_caps:
            rho = np.maximum(rho, _ray_capsule_exit(flat_o, flat_d, cap))
        # A ray that misses every capsule (-inf) gets the minimum radius.
        rho = np.maximum(rho.reshape(n_rings, n_theta), _MIN_RING_RADIUS)
        # Fabric bridges hollows (crotch, armpit) instead of following them;
        # without this, rings dip between capsules and the cloth gets trapped
        # oscillating between two collision surfaces.
        self.base_radii = _bridge_hollows(rho, self.stations)

        # Nearest chain joint per ring, for pinning and initial pose fitting.
        chain_idx = np.array([name_to_index[n] for n in spec.chain])
        d2 = ((self.stations[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        self.ring_joint = chain_idx[np.argmin(d2, axis=1)]
        self.pin_ring = 0 if spec.pin_at_start else n_rings - 1
        self.n_theta = n_theta
        self.n_rings = n_rings

        # Slack moves ring vertices only, so the capped topology is derived
        # and checked once rather than at every drape evaluation.
        self.faces = _grid_tube_faces(n_rings, n_theta)
        self.cap_loops, self.capped_faces = boundary_caps(self.faces, n_rings * n_theta)
        if not is_closed(self.capped_faces):
            raise ValueError("sleeve tube does not close with end caps")

    def vertices(self, slack: float) -> np.ndarray:
        rings = self.stations[:, None, :] + (self.base_radii[:, :, None] + slack) * self.dirs
        return rings.reshape(-1, 3)

    def mesh(self, slack: float) -> TriMesh:
        return TriMesh(self.vertices(slack), self.faces)

    def capped(self, slack: float) -> TriMesh:
        """The tube at this slack with its ring ends fanned shut."""
        return TriMesh(cap_vertices(self.vertices(slack), self.cap_loops), self.capped_faces)

    def capped_volume(self, slack: float) -> float:
        capped = self.capped(slack)
        return signed_volume(capped.vertices, capped.faces)

    def vertex_joints(self) -> np.ndarray:
        return np.repeat(self.ring_joint, self.n_theta)

    def pinned_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_rings * self.n_theta, dtype=bool)
        start = self.pin_ring * self.n_theta
        mask[start:start + self.n_theta] = True
        return mask


def sleeve_columns(resolution_scale: float) -> tuple[int, int]:
    """(torso, limb) vertex columns of a sleeve ring at this resolution.

    Every category has a torso sleeve and limb sleeves, so a scale that gives
    fewer than 8 torso or 6 limb columns is refused for any garment.
    """
    n_theta_torso = int(round(22 * resolution_scale))
    n_theta_limb = int(round(14 * resolution_scale))
    if n_theta_torso < 8 or n_theta_limb < 6:
        raise ValueError(
            f"resolution_scale {resolution_scale!r} gives {n_theta_torso} torso and {n_theta_limb} limb "
            "columns, fewer than 8 and 6"
        )
    return n_theta_torso, n_theta_limb


def _sleeves(body: SkinnedBody, category: str, resolution_scale: float) -> list[_SleeveGeometry]:
    joint_pos = body.skeleton.rest_positions()
    name_to_index = {n: i for i, n in enumerate(body.skeleton.joint_names)}
    capsules = body_capsules(body.skeleton, body.build_label)
    caps_by_bone = {
        body.skeleton.joint_names[j]: cap for j, cap in zip(range(1, body.skeleton.num_joints), capsules)
    }
    n_theta_torso, n_theta_limb = sleeve_columns(resolution_scale)
    spacing = 0.045 / resolution_scale
    return [
        _SleeveGeometry(
            sl, joint_pos, name_to_index, caps_by_bone,
            n_theta_torso if sl.chain[0] == "pelvis" else n_theta_limb, spacing,
        )
        for sl in _SLEEVES[category]
    ]


def _fit_slack(
    sleeves: list[_SleeveGeometry], category: str, drape_class: int
) -> tuple[float, float, float]:
    """Solve one category's radial slack for the class's aim point.

    The drape ratio is a cubic in slack (module docstring), fixed by its
    values at the Chebyshev-Lobatto nodes of the slack bounds; the fit
    refuses a target it does not cross exactly once. Returns the slack and
    the capped garment and covered-body volumes at it.
    """
    covered = merge_meshes([s.capped(0.0) for s in sleeves])
    # Each sleeve's capped faces were checked closed, so the merge is closed too.
    v_body = signed_volume(covered.vertices, covered.faces)

    def volume_at(slack: float) -> float:
        return sum(s.capped_volume(slack) for s in sleeves)

    def ratio_at(slack: float) -> float:
        return (volume_at(slack) - v_body) / v_body

    target = _target_ratio(drape_class)
    r_lo, r_hi = ratio_at(_MIN_SLACK), ratio_at(_MAX_SLACK)
    half = 0.5 * (_MAX_SLACK - _MIN_SLACK)  # slack = _MIN_SLACK + half * (1 + t), t in [-1, 1]
    roots = [-1.0] if target <= r_lo else []  # -1: the tightest manufacturable garment
    if r_lo < target < r_hi:
        nodes = np.array([-1.0, -0.5, 0.5, 1.0])
        ratios = [r_lo, ratio_at(_MIN_SLACK + 0.5 * half), ratio_at(_MIN_SLACK + 1.5 * half), r_hi]
        cubic = np.linalg.solve(np.vander(nodes, 4), np.subtract(ratios, target))
        roots = [t.real for t in np.roots(cubic) if t.imag == 0 and -1.0 <= t.real <= 1.0]
    if len(roots) != 1:
        raise ValueError(
            f"{category}: target class {drape_class} unreachable: achievable drape range "
            f"[{r_lo:.4f}, {r_hi:.4f}] does not cross target {target:.4f} exactly once"
        )
    slack = float(_MIN_SLACK + half * (1.0 + roots[0]))

    v_garment = volume_at(slack)
    ratio = (v_garment - v_body) / v_body
    achieved = classify_drape(ratio)
    if achieved != drape_class:
        raise ValueError(
            f"{category}: target class {drape_class} unreachable with slack bounds: "
            f"closest achieved drape {ratio:.4f} (class {achieved})"
        )
    return slack, v_garment, v_body


def generate_garment(
    body: SkinnedBody,
    categories: tuple[str, ...] | list[str],
    drape_class: int,
    resolution_scale: float = 1.0,
) -> Garment:
    """Dress the body in one garment of `categories` at one drape class.

    Each category's slack is fitted to the class on its own; the garment's
    drape ratio is (summed garment volume - summed covered-body volume) /
    summed covered-body volume. Deterministic for identical inputs.
    """
    _inputs.positive("resolution_scale", resolution_scale)
    unknown = [c for c in categories if c not in GARMENT_CATEGORIES]
    if unknown or not categories:
        raise ValueError(
            f"garment categories must be one or more of {GARMENT_CATEGORIES}, got {list(categories)}"
        )
    if len(set(categories)) != len(categories):
        raise ValueError(f"garment categories repeat, got {list(categories)}; a garment lists each once")
    sleeves, slacks = [], []
    v_garment = v_body = 0.0
    for category in categories:
        pieces = _sleeves(body, category, resolution_scale)
        slack, v_g, v_b = _fit_slack(pieces, category, drape_class)
        sleeves += [(s, slack) for s in pieces]
        slacks.append(slack)
        v_garment += v_g
        v_body += v_b
    mesh = merge_meshes([s.mesh(slack) for s, slack in sleeves])
    pinned = np.concatenate([s.pinned_mask() for s, _ in sleeves])
    binding = np.concatenate([s.vertex_joints() for s, _ in sleeves])
    return Garment(mesh, pinned, binding, (v_garment - v_body) / v_body, tuple(slacks))
