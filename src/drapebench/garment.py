"""Garment generation at target drape levels, drape measurement and classes.

Garments are open tube meshes that follow bone chains and wrap the body's
capsule silhouette with a radial slack; the slack is bisected until the
measured drape ratio lands inside the requested class interval. The "covered
body" used as the drape denominator is the same tube at zero slack, i.e. a
garment that fits the body perfectly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import rotations as rot
from .body import Capsule, SkinnedBody, body_capsules
from .mesh import (
    TriMesh, boundary_caps, cap_vertices, enclosed_volume, is_closed, merge_meshes, signed_volume,
)
from .primitives import _grid_tube_faces, _orthonormal_frame

GARMENT_CATEGORIES = ("tshirt", "trousers", "unicloth")

# Class thresholds over the drape ratio. The six classes are the half-open
# intervals between consecutive thresholds (class 1 starts at 0, class 6 is
# unbounded above). Engine constants, overridable per run.
DEFAULT_DRAPE_THRESHOLDS = (0.05, 0.15, 0.30, 0.60, 1.00)

_MIN_RING_RADIUS = 0.02
_MIN_SLACK = 0.002
_MAX_SLACK = 0.80
_BISECTION_STEPS = 40


@dataclass(frozen=True)
class DrapeClassTable:
    thresholds: tuple[float, ...] = DEFAULT_DRAPE_THRESHOLDS

    def __post_init__(self):
        t = tuple(float(x) for x in self.thresholds)
        object.__setattr__(self, "thresholds", t)
        if len(t) != 5 or any(b <= a for a, b in zip(t, t[1:])) or t[0] <= 0:
            raise ValueError("need 5 increasing positive thresholds for 6 classes")

    def classify(self, ratio: float) -> int:
        if ratio < 0:
            raise ValueError("drape ratio must be non-negative")
        return int(np.searchsorted(self.thresholds, ratio, side="right")) + 1

    def target_ratio(self, drape_class: int) -> float:
        """Aim point inside a class: interval midpoint (class 6: 1.5x its floor)."""
        if not 1 <= drape_class <= 6:
            raise ValueError("drape class must be 1..6")
        edges = (0.0,) + self.thresholds
        if drape_class == 6:
            return 1.5 * edges[5]
        return 0.5 * (edges[drape_class - 1] + edges[drape_class])


@dataclass(frozen=True)
class GarmentSpec:
    category: str
    target_class: int
    body: str  # build label

    def __post_init__(self):
        if self.category not in GARMENT_CATEGORIES:
            raise ValueError(f"category must be one of {GARMENT_CATEGORIES}")
        if not 1 <= self.target_class <= 6:
            raise ValueError("target_class must be in 1..6")


@dataclass(frozen=True)
class Garment:
    """Generated garment: open tube mesh plus simulation metadata."""

    mesh: TriMesh
    pinned: np.ndarray          # (V,) bool, anchor ring vertices
    binding_joint: np.ndarray   # (V,) int, nearest chain joint per vertex
    covered_body: TriMesh       # zero-slack capped mesh (drape denominator)
    drape_ratio: float
    drape_class: int
    slack: float
    category: str


def measure_drape(garment: TriMesh, covered_body: TriMesh) -> float:
    """(V_garment - V_covered) / V_covered over watertight meshes.

    Negative values indicate the garment is smaller than the body it covers;
    they are clamped to zero with a warning.
    """
    v_body = enclosed_volume(covered_body)
    if v_body <= 0.0:
        raise ValueError("covered body volume must be positive")
    v_garment = enclosed_volume(garment)
    ratio = (v_garment - v_body) / v_body
    if ratio < 0.0:
        warnings.warn("garment volume below covered-body volume; clamping drape to 0")
        return 0.0
    return float(ratio)


def classify_drape(ratio: float, table: DrapeClassTable | None = None) -> int:
    return (table or DrapeClassTable()).classify(ratio)


# --- tube construction ----------------------------------------------------


def _ray_capsule_exit(origins: np.ndarray, dirs: np.ndarray, cap: Capsule) -> np.ndarray:
    """Largest t >= 0 where origin + t*dir crosses the capsule surface.

    origins (K, 3), dirs (K, 3) unit. Returns (K,) with -inf for misses.
    """
    a, b, r = cap.p0, cap.p1, cap.radius
    best = np.full(len(origins), -np.inf)
    # Sphere caps.
    for center in (a, b):
        oc = origins - center
        beta = np.einsum("ij,ij->i", dirs, oc)
        gamma = np.einsum("ij,ij->i", oc, oc) - r * r
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
        aa = np.einsum("ij,ij->i", d_perp, d_perp)
        bb = np.einsum("ij,ij->i", o_perp, d_perp)
        cc = np.einsum("ij,ij->i", o_perp, o_perp) - r * r
        disc = bb * bb - aa * cc
        ok = (disc >= 0.0) & (aa > 1e-18)
        t = np.where(ok, (-bb + np.sqrt(np.maximum(disc, 0.0))) / np.where(aa > 1e-18, aa, 1.0), 0.0)
        s = (oc + t[:, None] * dirs) @ u
        ok &= (s >= 0.0) & (s <= length)
        best = np.where(ok & (t > best), t, best)
    return best


def _bridge_hollows(radii: np.ndarray, stations: np.ndarray, slope: float = 1.1, passes: int = 12) -> np.ndarray:
    """Cap how fast ring radii may shrink between neighbors (a closing pass).

    Limits the radial gradient along the ring and along the tube axis so the
    surface spans concavities the way taut fabric does.
    """
    radii = radii.copy()
    n_theta = radii.shape[1]
    ds_axial = np.linalg.norm(np.diff(stations, axis=0), axis=1)[:, None]
    for _ in range(passes):
        arc = radii.mean(axis=1, keepdims=True) * (2.0 * np.pi / n_theta)
        ring_floor = np.maximum(np.roll(radii, 1, axis=1), np.roll(radii, -1, axis=1)) - slope * arc
        radii = np.maximum(radii, ring_floor)
        axial = radii.copy()
        axial[1:] = np.maximum(axial[1:], radii[:-1] - slope * ds_axial)
        axial[:-1] = np.maximum(axial[:-1], radii[1:] - slope * ds_axial)
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
        n_rings = max(3, int(round(total / ring_spacing)) + 1)
        s = np.linspace(0.0, total, n_rings)
        self.stations = np.stack([np.interp(s, arc, poly[:, k]) for k in range(3)], axis=-1)

        tangents = np.gradient(self.stations, axis=0)
        tangents /= np.linalg.norm(tangents, axis=1, keepdims=True)
        u, w = _orthonormal_frame(tangents[0])
        frames_u = [u]
        frames_w = [w]
        for k in range(1, n_rings):
            q = rot.between(tangents[k - 1], tangents[k])
            u = rot.rotate(q, frames_u[-1])
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


def _sleeves(body: SkinnedBody, category: str, resolution_scale: float) -> list[_SleeveGeometry]:
    joint_pos = body.skeleton.rest_positions()
    name_to_index = {n: i for i, n in enumerate(body.skeleton.joint_names)}
    capsules = body_capsules(body.skeleton, body.build_label)
    caps_by_bone = {
        body.skeleton.joint_names[j]: cap for j, cap in zip(range(1, body.skeleton.num_joints), capsules)
    }
    n_theta_torso = max(8, int(round(22 * resolution_scale)))
    n_theta_limb = max(6, int(round(14 * resolution_scale)))
    spacing = 0.045 / max(resolution_scale, 1e-6)
    return [
        _SleeveGeometry(
            sl, joint_pos, name_to_index, caps_by_bone,
            n_theta_torso if sl.chain[0] == "pelvis" else n_theta_limb, spacing,
        )
        for sl in _SLEEVES[category]
    ]


def generate_garment(
    body: SkinnedBody,
    spec: GarmentSpec,
    table: DrapeClassTable | None = None,
    resolution_scale: float = 1.0,
) -> Garment:
    """Build a garment whose measured drape classifies to the target class.

    A single radial slack is bisected against the drape ratio, which is
    strictly increasing in slack. Deterministic for identical inputs.
    """
    if spec.body != body.build_label:
        raise ValueError(f"garment spec is for build {spec.body!r}, body is {body.build_label!r}")
    table = table or DrapeClassTable()
    sleeves = _sleeves(body, spec.category, resolution_scale)
    covered = merge_meshes([s.capped(0.0) for s in sleeves])
    # Each sleeve's capped faces were checked closed, so the merge is closed too.
    v_body = signed_volume(covered.vertices, covered.faces)

    def ratio_at(slack: float) -> float:
        v = sum(s.capped_volume(slack) for s in sleeves)
        return (v - v_body) / v_body

    target = table.target_ratio(spec.target_class)
    lo, hi = _MIN_SLACK, _MAX_SLACK
    r_lo, r_hi = ratio_at(lo), ratio_at(hi)
    if target <= r_lo:
        slack = lo  # tightest manufacturable garment
    elif target >= r_hi:
        raise ValueError(
            f"target class {spec.target_class} unreachable: achievable drape range "
            f"[{r_lo:.4f}, {r_hi:.4f}], target {target:.4f}"
        )
    else:
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if ratio_at(mid) < target:
                lo = mid
            else:
                hi = mid
        slack = 0.5 * (lo + hi)

    ratio = ratio_at(slack)
    achieved = table.classify(ratio)
    if achieved != spec.target_class:
        raise ValueError(
            f"target class {spec.target_class} unreachable with slack bounds: "
            f"closest achieved drape {ratio:.4f} (class {achieved})"
        )
    mesh = merge_meshes([s.mesh(slack) for s in sleeves])
    pinned = np.concatenate([s.pinned_mask() for s in sleeves])
    binding = np.concatenate([s.vertex_joints() for s in sleeves])
    return Garment(mesh, pinned, binding, covered, ratio, achieved, slack, spec.category)


def merge_garments(pieces: list[Garment]) -> Garment:
    """Combine garment pieces (e.g. an upper and a lower) into one garment.

    Pieces must share a drape class; the combined drape ratio is volume-pooled
    over all pieces.
    """
    if not pieces:
        raise ValueError("nothing to merge")
    classes = {p.drape_class for p in pieces}
    if len(classes) != 1:
        raise ValueError("pieces must share one combined drape class")
    mesh = merge_meshes([p.mesh for p in pieces])
    pinned = np.concatenate([p.pinned for p in pieces])
    binding = np.concatenate([p.binding_joint for p in pieces])
    covered = merge_meshes([p.covered_body for p in pieces])
    volumes = [enclosed_volume(p.covered_body) for p in pieces]
    v_body = sum(volumes)
    v_garment = sum((1.0 + p.drape_ratio) * v for p, v in zip(pieces, volumes))
    ratio = (v_garment - v_body) / v_body
    return Garment(
        mesh, pinned, binding, covered, ratio, pieces[0].drape_class,
        float(np.mean([p.slack for p in pieces])), "+".join(p.category for p in pieces),
    )
