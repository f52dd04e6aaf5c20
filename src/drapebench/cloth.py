"""Mass-spring cloth with capsule collision.

Integrator: semi-implicit Euler with fixed substeps of at most 1 ms.
Stiffness and damping constants are the dimensionless Blender-style numbers;
they map to spring constants as

    k = stiffness * vertex_mass * g0 / (strain_ref * rest_length)
    c = damping  * vertex_mass * sqrt(g0 / rest_length)

with g0 = 9.81 m/s^2 and strain_ref = 0.08, i.e. a spring of stiffness S
stretches by (strain_ref / S) of its rest length under one vertex weight.
The mapping is an engine constant; only relative comparisons are meaningful.
Each spring family (structural, shear, bend) has one stiffness and one
damping, alike in tension and compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotations as rot
from .body import Capsule, _closest_on_segments
from .mesh import TriMesh, edge_table

STANDARD_GRAVITY = 9.81
STRAIN_REF = 0.08
MAX_SUBSTEP = 1e-3
COLLISION_OFFSET = 0.003  # cloth thickness folded into the collision radius
# Linear air drag (1/s). Spring damping only acts along spring axes, so
# without drag a hanging garment swings as an undamped pendulum and a static
# scene never settles. Fabric motion in air is drag-dominated anyway.
AIR_DRAG = 4.0
# Two hops from a vertex make a bend spring when the angle between them
# exceeds this, i.e. the path through the vertex is nearly straight.
BEND_STRAIGHT_DEG = 150.0
_BEND_COS = np.cos(np.deg2rad(BEND_STRAIGHT_DEG))


class ClothSimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ClothParams:
    """Cloth material constants; defaults model woven cotton.

    stiffness_structural and damping_structural act on the structural
    springs (the mesh edges) alike in tension and compression.
    """

    vertex_mass: float = 0.05
    stiffness_structural: float = 15.0
    stiffness_shear: float = 10.0
    stiffness_bending: float = 0.5
    damping_structural: float = 5.0
    damping_shear: float = 5.0
    damping_bending: float = 0.5
    gravity: float = 9.81

    def __post_init__(self):
        if self.vertex_mass <= 0:
            raise ValueError("vertex_mass must be positive")
        for name in (
            "stiffness_structural", "stiffness_shear", "stiffness_bending",
            "damping_structural", "damping_shear", "damping_bending", "gravity",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SpringNetwork:
    """Structural, shear and bend spring pairs with rest lengths."""

    structural: np.ndarray       # (Es, 2) int
    structural_rest: np.ndarray  # (Es,)
    shear: np.ndarray            # (Eh, 2)
    shear_rest: np.ndarray
    bend: np.ndarray             # (Eb, 2)
    bend_rest: np.ndarray

    def __post_init__(self):
        for name in ("structural_rest", "shear_rest", "bend_rest"):
            rest = getattr(self, name)
            if len(rest) and rest.min() <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ClothState:
    positions: np.ndarray   # (N, 3)
    velocities: np.ndarray  # (N, 3)
    pinned: np.ndarray      # (N,) bool
    time: float = 0.0

    @staticmethod
    def resting(mesh: TriMesh, pinned: np.ndarray | None = None) -> "ClothState":
        n = mesh.num_vertices
        return ClothState(
            mesh.vertices.copy(),
            np.zeros((n, 3)),
            np.zeros(n, dtype=bool) if pinned is None else np.asarray(pinned, dtype=bool).copy(),
        )


def build_spring_network(mesh: TriMesh) -> SpringNetwork:
    """Derive springs from mesh topology.

    structural: unique mesh edges. shear: the opposite-vertex pair of each
    interior edge (two triangles sharing it). bend: second structural
    neighbors whose two hops are within BEND_STRAIGHT_DEG of collinear.
    Every pair array is sorted by row.
    """
    faces = mesh.faces
    _, structural, inverse, counts = edge_table(faces)
    if counts.max(initial=0) > 2:
        raise ValueError("non-manifold edge (more than two incident faces)")
    # The vertex opposite each directed edge of edge_table, in the same order.
    opposite = np.concatenate([faces[:, 2], faces[:, 0], faces[:, 1]])

    # Group the opposite vertices by edge; an interior edge owns two in a row.
    opp = opposite[np.argsort(inverse, kind="stable")]
    first = (np.cumsum(counts) - counts)[counts == 2]
    o1, o2 = opp[first], opp[first + 1]
    distinct = o1 != o2
    lo, hi = np.minimum(o1, o2)[distinct], np.maximum(o1, o2)[distinct]
    order = np.lexsort((hi, lo))
    shear = np.stack([lo[order], hi[order]], axis=-1)

    # Every vertex's neighbors, ascending, and all pairs a < b among them.
    hub = np.concatenate([structural[:, 0], structural[:, 1]])
    nbr = np.concatenate([structural[:, 1], structural[:, 0]])
    order = np.lexsort((nbr, hub))
    hub, nbr = hub[order], nbr[order]
    group_end = np.searchsorted(hub, hub, side="right")
    # Entry p pairs with each of the `later[p]` entries after it in its group.
    later = group_end - np.arange(len(hub)) - 1
    a_idx = np.repeat(np.arange(len(hub)), later)
    b_idx = a_idx + 1 + np.arange(len(a_idx)) - np.repeat(np.cumsum(later) - later, later)
    verts = mesh.vertices
    center = verts[hub[a_idx]]
    da = verts[nbr[a_idx]] - center
    db = verts[nbr[b_idx]] - center
    cos_ab = rot.dot(da, db) / (np.sqrt(rot.dot(da, da)) * np.sqrt(rot.dot(db, db)))
    straight = cos_ab < _BEND_COS  # nearly opposite directions: straight path
    bend = np.unique(np.stack([nbr[a_idx][straight], nbr[b_idx][straight]], axis=-1), axis=0)

    def rest(pairs):
        if len(pairs) == 0:
            return np.zeros(0)
        return np.linalg.norm(verts[pairs[:, 1]] - verts[pairs[:, 0]], axis=-1)

    return SpringNetwork(structural, rest(structural), shear, rest(shear), bend, rest(bend))


class _Solver:
    """Spring arrays compiled from (network, params)."""

    def __init__(self, net: SpringNetwork, params: ClothParams, num_particles: int):
        groups = (
            (net.structural, net.structural_rest, params.stiffness_structural, params.damping_structural),
            (net.shear, net.shear_rest, params.stiffness_shear, params.damping_shear),
            (net.bend, net.bend_rest, params.stiffness_bending, params.damping_bending),
        )
        self.ei, self.ej = np.concatenate([g[0] for g in groups]).T.copy()
        self.rest = np.concatenate([g[1] for g in groups])
        sizes = [len(g[0]) for g in groups]
        m = params.vertex_mass
        self.k = np.repeat([g[2] for g in groups], sizes) * (m * STANDARD_GRAVITY / (STRAIN_REF * self.rest))
        self.damp = np.repeat([g[3] for g in groups], sizes) * (m * np.sqrt(STANDARD_GRAVITY / self.rest))
        self.n = num_particles
        # Flat (particle, axis) bins of each spring end: bin 3 * i + axis sums
        # the same springs in the same order as a per-axis bincount over i.
        axes = np.arange(3)
        self.flat_i = (3 * self.ei[:, None] + axes).ravel()
        self.flat_j = (3 * self.ej[:, None] + axes).ravel()
        # Gather buffers for the spring ends, reused by every call.
        self._d, self._xi, self._dv, self._vi = (np.empty((len(self.rest), 3)) for _ in range(4))

    def forces(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        d = np.take(x, self.ej, axis=0, out=self._d)
        d -= np.take(x, self.ei, axis=0, out=self._xi)
        dv = np.take(v, self.ej, axis=0, out=self._dv)
        dv -= np.take(v, self.ei, axis=0, out=self._vi)
        length = np.sqrt(np.einsum("ij,ij->i", d, d))
        np.maximum(length, 1e-12, out=length)
        stretch = length - self.rest
        v_along = np.einsum("ij,ij->i", dv, d) / length
        scalar = (self.k * stretch + self.damp * v_along) / length
        fvec = d
        fvec *= scalar[:, None]
        weights = fvec.ravel()
        out = np.bincount(self.flat_i, weights=weights, minlength=3 * self.n)
        out -= np.bincount(self.flat_j, weights=weights, minlength=3 * self.n)
        return out.reshape(self.n, 3)


def _collision_candidates(
    x: np.ndarray,
    v: np.ndarray,
    p0: np.ndarray,
    seg: np.ndarray,
    reach: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (particle, capsule) candidate pairs valid for one frame.

    p0/seg are the capsules' mid-frame poses and reach their radii plus half
    their travel over the frame, so every pose the frame lerps through lies
    within reach of the mid pose. A pair is kept when the particle is within
    reach plus the particle's worst-case travel. Pairs come in capsule-major
    order. Returns (particle_index, capsule_index).
    """
    speeds = np.sqrt(np.einsum("ij,ij->i", v, v))
    # Worst-case particle travel this frame: current velocity plus gravity,
    # plus a base allowance for spring-driven acceleration.
    margin = 0.02 + dt * speeds + STANDARD_GRAVITY * dt * dt
    # Seeded with empty arrays so that a step without capsules has no pairs.
    part_idx = [np.zeros(0, dtype=np.int64)]
    cap_idx = [np.zeros(0, dtype=np.int64)]
    for c in range(len(reach)):
        hits = np.nonzero(_closest_on_segments(x, p0[c], seg[c])[2] < reach[c] + margin)[0]
        part_idx.append(hits)
        cap_idx.append(np.full(len(hits), c, dtype=np.int64))
    return np.concatenate(part_idx), np.concatenate(cap_idx)


def _collide_pairs(
    x: np.ndarray,
    v: np.ndarray,
    pidx: np.ndarray,
    p0: np.ndarray,
    seg: np.ndarray,
    radius: np.ndarray,
) -> None:
    """Resolve candidate pairs in one vectorized pass, in place.

    p0/seg/radius are already gathered per pair. Where a particle penetrates
    several capsules the deepest projection wins (written last, sorted by
    depth, so the result is deterministic).
    """
    closest, delta, dist = _closest_on_segments(np.take(x, pidx, axis=0), p0, seg)
    depth = radius - dist
    hit = np.flatnonzero(depth > 0.0)
    if not len(hit):
        return
    sel = hit[np.argsort(depth[hit], kind="stable")]
    sub = pidx[sel]
    n = delta[sel] / np.maximum(dist[sel], 1e-12)[:, None]
    x[sub] = closest[sel] + n * radius[sel][:, None]
    # One gather of v serves both uses: every read precedes the write.
    vs = v[sub]
    vn = np.einsum("ij,ij->i", vs, n)
    vs -= np.minimum(vn, 0.0)[:, None] * n
    v[sub] = vs


def _capsule_arrays(colliders: list[Capsule]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p0, p1 - p0, collision radius) of the capsules, one row each."""
    p0 = np.array([c.p0 for c in colliders]).reshape(-1, 3)
    p1 = np.array([c.p1 for c in colliders]).reshape(-1, 3)
    radius = np.array([c.radius for c in colliders]) + COLLISION_OFFSET
    return p0, p1 - p0, radius


def _shaped(name: str, array, expected: tuple) -> np.ndarray:
    """array as floats, refused with a ValueError unless its shape is expected."""
    array = np.asarray(array, dtype=float)
    if array.shape != expected:
        raise ValueError(f"{name} has shape {array.shape}, expected {expected}")
    return array


def _substep_count(dt: float) -> int:
    return max(1, int(np.ceil(dt / MAX_SUBSTEP - 1e-12)))


def _advance(
    state: ClothState,
    solver: _Solver,
    params: ClothParams,
    dt: float,
    cap_from: tuple,
    cap_to: tuple,
    pin_to: np.ndarray,
    frame_label: str = "",
) -> ClothState:
    """Substep the cloth by dt, lerping capsules and pin targets across substeps.

    Passing one capsule pose as both cap_from and cap_to holds the body still.
    """
    x = state.positions.copy()
    v = state.velocities.copy()
    pinned = state.pinned
    free = ~pinned
    n_sub = _substep_count(dt)
    h = dt / n_sub
    g_vec = np.array([0.0, -params.gravity, 0.0])
    pin_from = x[pinned]
    p0, seg, radius = cap_from
    p0_move, seg_move = cap_to[0] - p0, cap_to[1] - seg
    # Half the farthest either capsule end travels: a still body adds exactly 0.
    half_travel = 0.5 * np.maximum(np.linalg.norm(p0_move, axis=-1), np.linalg.norm(p0_move + seg_move, axis=-1))
    pidx, cidx = _collision_candidates(x, v, p0 + 0.5 * p0_move, seg + 0.5 * seg_move, radius + half_travel, dt)
    p0_a, seg_a, r_pair, p0_move, seg_move = (a[cidx] for a in (p0, seg, radius, p0_move, seg_move))
    # Whole-array integration: pinned rows get +0 and *1, and the pin lerp
    # then overwrites their positions.
    free_col = free[:, None].astype(float)
    drag_col = np.where(free, max(0.0, 1.0 - AIR_DRAG * h), 1.0)[:, None]
    step_x = np.empty_like(x)
    for s in range(n_sub):
        f = solver.forces(x, v)
        f /= params.vertex_mass
        f += g_vec
        f *= h
        f *= free_col
        v += f
        v *= drag_col
        x += np.multiply(v, h, out=step_x)
        alpha = (s + 1) / n_sub
        x[pinned] = pin_from + alpha * (pin_to - pin_from)
        _collide_pairs(x, v, pidx, p0_a + alpha * p0_move, seg_a + alpha * seg_move, r_pair)
        if not np.isfinite(x).all():
            bad = int(np.nonzero(~np.isfinite(x).all(axis=1))[0][0])
            raise ClothSimulationError(
                f"{frame_label}non-finite position for particle {bad} at substep {s}"
            )
    v[pinned] = 0.0
    return ClothState(x, v, pinned.copy(), state.time + dt)


def step(
    state: ClothState,
    net: SpringNetwork,
    params: ClothParams,
    colliders: list[Capsule] | None = None,
    dt: float = 1.0 / 60.0,
    pin_targets: np.ndarray | None = None,
) -> ClothState:
    """Advance the cloth by dt (at most 1/60 s) using substeps of at most 1 ms.

    Colliders are held fixed for the step; pinned particles stay put unless
    pin_targets, shape (n_pinned, 3), gives them destinations. Raises
    ClothSimulationError naming the first non-finite particle and the
    substep where it appeared.
    """
    if not 0.0 < dt <= 1.0 / 60.0 + 1e-12:
        raise ValueError("dt must be in (0, 1/60]")
    if pin_targets is None:
        pin_targets = state.positions[state.pinned]
    pin_targets = _shaped("pin_targets", pin_targets, (int(state.pinned.sum()), 3))
    caps = _capsule_arrays(colliders or [])
    solver = _Solver(net, params, len(state.positions))
    return _advance(state, solver, params, dt, caps, caps, pin_targets)


def simulate_sequence(
    garment: TriMesh,
    pinned: np.ndarray,
    pin_frames: np.ndarray,
    collider_frames: list[list[Capsule]],
    params: ClothParams,
    fps: float,
    warmup: float = 2.0,
    initial_positions: np.ndarray | None = None,
) -> list[ClothState]:
    """Simulate the garment over a motion and record one state per frame.

    pin_frames holds per-frame world targets for the pinned vertices, shape
    (T, n_pinned, 3); collider_frames the per-frame body capsules, the same
    number in every frame; initial_positions, if given, shape (N, 3). Other
    shapes are refused. The state is settled for `warmup` seconds of
    simulated time at frame 0 before recording begins. Deterministic for
    identical inputs.
    """
    pinned = np.asarray(pinned, dtype=bool)
    n_frames = len(collider_frames)
    pin_frames = _shaped("pin_frames", pin_frames, (n_frames, int(pinned.sum()), 3))
    if len({len(frame) for frame in collider_frames}) > 1:
        raise ValueError("collider frames disagree on capsule count")
    caps = [_capsule_arrays(frame) for frame in collider_frames]
    solver = _Solver(build_spring_network(garment), params, garment.num_vertices)
    state = ClothState.resting(garment, pinned)
    if initial_positions is not None:
        state.positions = _shaped("initial_positions", initial_positions, (garment.num_vertices, 3)).copy()
    state.positions[pinned] = pin_frames[0]

    dt = 1.0 / fps
    for _ in range(int(np.ceil(warmup / dt))):
        state = _advance(state, solver, params, dt, caps[0], caps[0], pin_frames[0], "warmup: ")
    # _advance returns fresh arrays, so each recorded state owns its own.
    recorded = [state]
    for fidx in range(1, n_frames):
        state = _advance(
            state, solver, params, dt, caps[fidx - 1], caps[fidx], pin_frames[fidx],
            f"frame {fidx}: ",
        )
        recorded.append(state)
    return recorded


def kinetic_energy(state: ClothState, params: ClothParams) -> float:
    return float(0.5 * params.vertex_mass * np.einsum("ij,ij->", state.velocities, state.velocities))


def max_capsule_penetration(positions: np.ndarray, colliders: list[Capsule]) -> float:
    """Deepest penetration (m) of any particle into any capsule surface."""
    worst = 0.0
    for c in colliders:
        dist = _closest_on_segments(positions, c.p0, c.p1 - c.p0)[2]
        worst = max(worst, float((c.radius - dist).max()))
    return worst
