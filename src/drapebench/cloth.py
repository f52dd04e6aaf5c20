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

simulate_sequence is the one entry. It compiles the run once (_Solver):
the spring arrays, the flat pinned index, the substep count and length, the
gravity column, the free and drag factors and a step buffer. Each frame
then advances the run's (3, N) position and velocity columns in place, and
a recorded frame copies them out. The forces, integration, pin and capsule
lerps, candidate search and collision response all read contiguous rows.
Spring ends are gathered with np.take(..., mode="clip"), which writes
straight into its buffer; the default mode="raise" gathers into a hidden
one and copies it. Clipping would hide a bad index, so _Solver checks every
spring index once, when it compiles the network.

The spring forces are scattered onto their ends with np.add.at, once per
end, into zeroed flat (axis, particle) bins. ufunc.at adds a bin's springs
one at a time in spring order onto 0.0, as a weighted np.bincount does, so
the sums keep bincount's bits at about two thirds of its cost. One add.at
over both ends at once would interleave their springs and change the bits.
The pin lerp and the contact response write x and v through flat indices
with ndarray.put, which, like fancy assignment, keeps the last of repeated
indices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _inputs, rotations as rot
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
        _inputs.positive("vertex_mass", self.vertex_mass)
        for constant in fields(self)[1:]:  # every constant after the mass may be zero
            _inputs.non_negative(constant.name, getattr(self, constant.name))


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
        for kind in ("structural", "shear", "bend"):
            rest = _inputs.array(f"{kind}_rest", getattr(self, f"{kind}_rest"), (len(getattr(self, kind)),))
            if not (rest > 0).all():
                raise ValueError(f"{kind}_rest must be positive")
            object.__setattr__(self, f"{kind}_rest", rest)


@dataclass
class ClothState:
    positions: np.ndarray   # (N, 3)
    velocities: np.ndarray  # (N, 3)
    pinned: np.ndarray      # (N,) bool
    time: float = 0.0


def _bend_pairs(structural: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """build_spring_network's bend pairs (Eb, 2), sorted by row."""
    # Every vertex's neighbors, ascending, as directed edges hub -> nbr.
    hub = np.concatenate([structural[:, 0], structural[:, 1]])
    nbr = np.concatenate([structural[:, 1], structural[:, 0]])
    order = np.lexsort((nbr, hub))
    hub, nbr = hub[order], nbr[order]
    d = verts[nbr] - verts[hub]
    length = np.sqrt(rot.dot(d, d))
    # Entry p pairs with entry p + k for each k up to the `later[p]` entries
    # after it in its hub's group: one offset k at a time, no array holds
    # every pair.
    later = np.searchsorted(hub, hub, side="right") - np.arange(len(hub)) - 1
    # Neighbors ascend within a hub, so each pair is (lo, hi): unique rows by
    # their int64 key lo * span + hi, with span the vertex count (edge_table).
    span = len(verts)
    keys = [np.zeros(0, dtype=np.int64)]
    for k in range(1, later.max(initial=0) + 1):
        a = np.flatnonzero(later >= k)
        b = a + k
        cos_ab = rot.dot(d[a], d[b]) / (length[a] * length[b])
        straight = cos_ab < _BEND_COS  # nearly opposite directions: straight path
        keys.append(nbr[a[straight]] * span + nbr[b[straight]])
    keys = np.unique(np.concatenate(keys))
    return np.stack(np.divmod(keys, span), axis=-1)


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

    verts = mesh.vertices
    bend = _bend_pairs(structural, verts)

    def rest(pairs):
        if len(pairs) == 0:
            return np.zeros(0)
        return np.linalg.norm(verts[pairs[:, 1]] - verts[pairs[:, 0]], axis=-1)

    return SpringNetwork(structural, rest(structural), shear, rest(shear), bend, rest(bend))


class _Solver:
    """One compiled run: built from (network, params, pinned mask, frame dt)."""

    def __init__(self, net: SpringNetwork, params: ClothParams, pinned: np.ndarray, dt: float):
        num_particles = len(pinned)
        groups = (
            (net.structural, net.structural_rest, params.stiffness_structural, params.damping_structural),
            (net.shear, net.shear_rest, params.stiffness_shear, params.damping_shear),
            (net.bend, net.bend_rest, params.stiffness_bending, params.damping_bending),
        )
        # The substep gathers with mode="clip", which would clamp a bad index
        # silently, so every spring end is checked here once, per group
        # before the concatenation can turn a bool into an index.
        pairs = np.concatenate([
            _inputs.indices(f"{kind} springs", g[0], num_particles, (None, 2))
            for kind, g in zip(("structural", "shear", "bend"), groups)
        ])
        self.ei, self.ej = pairs.T.copy()
        self.rest = np.concatenate([g[1] for g in groups])
        sizes = [len(g[0]) for g in groups]
        m = params.vertex_mass
        self.k = np.repeat([g[2] for g in groups], sizes) * (m * STANDARD_GRAVITY / (STRAIN_REF * self.rest))
        self.damp = np.repeat([g[3] for g in groups], sizes) * (m * np.sqrt(STANDARD_GRAVITY / self.rest))
        self.n = num_particles
        # Flat (axis, particle) bins of each spring end: bin axis * n + i sums
        # the same springs in the same order as a per-axis scatter over i.
        axes = num_particles * np.arange(3)[:, None]
        self.flat_i = (axes + self.ei).ravel()
        self.flat_j = (axes + self.ej).ravel()
        # Buffers reused by every call: x over v, so that one gather per
        # spring end fetches both. The spring forces are written over the
        # first three rows of the ei ends, which nothing reads once subtracted.
        self._xv = np.empty((6, num_particles))
        self._end_i, self._end_j = (np.empty((6, len(self.rest))) for _ in range(2))

        # Flat (axis, particle) index of the pinned columns, for take and put.
        self.pin_flat = np.flatnonzero(pinned) + num_particles * np.arange(3)[:, None]
        self.dt = dt
        self.n_sub = _substep_count(dt)
        self.h = dt / self.n_sub
        self.mass = params.vertex_mass
        self.gravity = params.gravity
        self.g_col = np.array([[0.0], [-params.gravity], [0.0]])
        # Whole-array integration: pinned columns get +0 and *1, and the pin
        # lerp then overwrites their positions.
        self.free_factor = (~pinned).astype(float)
        self.drag_factor = np.where(pinned, 1.0, max(0.0, 1.0 - AIR_DRAG * self.h))
        self.step_x = np.empty((3, num_particles))

    def forces(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Spring forces (3, N) on the columns x, v (3, N)."""
        xv = self._xv
        xv[:3] = x
        xv[3:] = v
        diff = np.take(xv, self.ej, axis=1, out=self._end_j, mode="clip")
        diff -= np.take(xv, self.ei, axis=1, out=self._end_i, mode="clip")
        d, dv = diff[:3], diff[3:]
        length = rot.rowdot(d.T, d.T)
        np.sqrt(length, out=length)
        np.maximum(length, 1e-12, out=length)
        stretch = length - self.rest
        v_along = rot.rowdot(dv.T, d.T)
        v_along /= length
        scalar = self.k * stretch
        scalar += self.damp * v_along
        scalar /= length
        fvec = np.multiply(d, scalar, out=self._end_i[:3])
        weights = fvec.ravel()
        out = np.zeros(3 * self.n)
        np.add.at(out, self.flat_i, weights)
        out_j = np.zeros(3 * self.n)
        np.add.at(out_j, self.flat_j, weights)
        out -= out_j
        return out.reshape(3, self.n)


def _collision_candidates(
    x: np.ndarray,
    v: np.ndarray,
    p0: np.ndarray,
    seg: np.ndarray,
    reach: np.ndarray,
    dt: float,
    gravity: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (particle, capsule) candidate pairs valid for one frame.

    x and v are (3, N) columns. p0/seg are the capsules' mid-frame poses,
    one row each, and reach their radii plus half their travel over the
    frame, so every pose the frame lerps through lies within reach of the
    mid pose. A pair is kept when the particle is within reach plus the
    particle's worst-case travel under `gravity`. Pairs come in
    capsule-major order. Returns (particle_index, capsule_index).
    """
    speeds = rot.rowdot(v.T, v.T)
    np.sqrt(speeds, out=speeds)
    # Worst-case particle travel this frame: current velocity plus gravity,
    # plus a base allowance for spring-driven acceleration.
    margin = 0.02 + dt * speeds + gravity * dt * dt
    # Seeded with empty arrays so that a frame without capsules has no pairs.
    part_idx = [np.zeros(0, dtype=np.int64)]
    cap_idx = [np.zeros(0, dtype=np.int64)]
    for c in range(len(reach)):
        hits = np.flatnonzero(_closest_on_segments(x.T, p0[c], seg[c])[2] < reach[c] + margin)
        part_idx.append(hits)
        cap_idx.append(np.full(len(hits), c, dtype=np.int64))
    return np.concatenate(part_idx), np.concatenate(cap_idx)


def _collide_pairs(
    x: np.ndarray,
    v: np.ndarray,
    pidx: np.ndarray,
    p0: np.ndarray,
    seg: np.ndarray,
    seg_sq: np.ndarray,
    radius: np.ndarray,
) -> None:
    """Resolve candidate pairs in one vectorized pass, in place.

    x and v are (3, N) columns; p0/seg are (3, P) columns and seg_sq/radius
    (P,), already gathered per pair (seg_sq as in _closest_on_segments).
    Where a particle penetrates several capsules the deepest projection
    wins; of equally deep ones, the later pair.
    """
    closest, delta, dist = _closest_on_segments(np.take(x, pidx, axis=1).T, p0.T, seg.T, seg_sq)
    closest, delta = closest.T, delta.T
    depth = radius - dist
    hit = np.flatnonzero(depth > 0.0)
    if not len(hit):
        return
    # Each particle's deepest pairs, in pair order: writing them in that
    # order leaves the later of two equally deep pairs.
    sub = pidx[hit]
    deepest = np.zeros(x.shape[1])
    np.maximum.at(deepest, sub, depth[hit])
    keep = depth[hit] == deepest[sub]
    sel, sub = hit[keep], sub[keep]
    # Flat (axis, particle) index into x and v; put, like fancy assignment,
    # keeps the last of repeated indices.
    flat = sub + x.shape[1] * np.arange(3)[:, None]
    n = np.take(delta, sel, axis=1)
    n /= np.maximum(np.take(dist, sel), 1e-12)
    x.put(flat, np.take(closest, sel, axis=1) + n * np.take(radius, sel))
    # One gather of v serves both uses: every read precedes the write.
    vs = np.take(v, flat)
    vn = rot.rowdot(vs.T, n.T)
    vs -= np.minimum(vn, 0.0) * n
    v.put(flat, vs)


def _capsule_arrays(colliders: list[Capsule]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p0, p1 - p0, collision radius) of the capsules, one row each."""
    p0 = np.array([c.p0 for c in colliders]).reshape(-1, 3)
    p1 = np.array([c.p1 for c in colliders]).reshape(-1, 3)
    radius = np.array([c.radius for c in colliders]) + COLLISION_OFFSET
    return p0, p1 - p0, radius


def _refuse_non_finite(columns: np.ndarray, what: str, substep: int) -> None:
    """Raise ClothSimulationError naming the first particle whose column is not finite."""
    if not np.isfinite(columns).all():
        bad = int(np.nonzero(~np.isfinite(columns).all(axis=0))[0][0])
        raise ClothSimulationError(f"{what} for particle {bad} at substep {substep}")


def _substep_count(dt: float) -> int:
    return max(1, int(np.ceil(dt / MAX_SUBSTEP - 1e-12)))


def _advance(
    run: _Solver,
    x: np.ndarray,
    v: np.ndarray,
    cap_from: tuple,
    cap_to: tuple,
    pin_to: np.ndarray,
    frame_label: str = "",
) -> None:
    """Advance the run's columns x and v (3, N) by one frame, in place.

    Capsules and pin targets are lerped across the substeps; passing one
    capsule pose as both cap_from and cap_to holds the body still.
    """
    _refuse_non_finite(np.vstack([x, v]), f"{frame_label}non-finite state", 0)
    n_sub, h = run.n_sub, run.h
    pin_from = np.take(x, run.pin_flat)
    pin_move = pin_to.T - pin_from
    p0, seg, radius = cap_from
    p0_move, seg_move = cap_to[0] - p0, cap_to[1] - seg
    # Half the farthest either capsule end travels: a still body adds exactly 0.
    half_travel = 0.5 * np.maximum(np.linalg.norm(p0_move, axis=-1), np.linalg.norm(p0_move + seg_move, axis=-1))
    pidx, cidx = _collision_candidates(
        x, v, p0 + 0.5 * p0_move, seg + 0.5 * seg_move, radius + half_travel, run.dt, run.gravity
    )
    r_pair = np.take(radius, cidx)
    p0, seg, p0_move, seg_move = (a.T.copy() for a in (p0, seg, p0_move, seg_move))
    for s in range(n_sub):
        f = run.forces(x, v)
        f /= run.mass
        f += run.g_col
        f *= h
        f *= run.free_factor
        v += f
        v *= run.drag_factor
        x += np.multiply(v, h, out=run.step_x)
        # After integration, one ordered block: the pin lerp, then the contact
        # response on capsules lerped once each and gathered to their pairs.
        alpha = (s + 1) / n_sub
        x.put(run.pin_flat, pin_from + alpha * pin_move)
        p0_s = p0 + alpha * p0_move
        seg_s = seg + alpha * seg_move
        seg_sq = np.maximum(rot.rowdot(seg_s.T, seg_s.T), 1e-18)
        _collide_pairs(
            x, v, pidx, np.take(p0_s, cidx, axis=1), np.take(seg_s, cidx, axis=1),
            np.take(seg_sq, cidx), r_pair,
        )
        _refuse_non_finite(x, f"{frame_label}non-finite position", s)
    v.put(run.pin_flat, 0.0)


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
    number and radii in every frame; initial_positions, if given, shape
    (N, 3). Other shapes, a motion without frames, an fps that is not
    positive and finite and a warmup that is negative or not finite are
    refused. The state is settled for `warmup` seconds of simulated time at
    frame 0 before recording begins. Deterministic for identical inputs.
    """
    _inputs.positive("fps", fps)
    _inputs.non_negative("warmup", warmup)
    n_frames = len(collider_frames)
    if n_frames == 0:
        raise ValueError("the motion has no frames")
    # One read-only copy of the mask, shared by every recorded state.
    pinned = _inputs.mask("pinned", pinned, (garment.num_vertices,)).copy()
    pinned.flags.writeable = False
    pin_frames = _inputs.array("pin_frames", pin_frames, (n_frames, int(pinned.sum()), 3))
    if len({len(frame) for frame in collider_frames}) > 1:
        raise ValueError("collider frames disagree on capsule count")
    caps = [_capsule_arrays(frame) for frame in collider_frames]
    # _advance sweeps each capsule's pose between frames but reads only the
    # from-frame radius, so a radius may not change.
    for fidx, (_, _, radius) in enumerate(caps[1:], start=1):
        changed = radius != caps[0][2]
        if changed.any():
            raise ValueError(f"collider frame {fidx} changes the radius of capsule {int(np.argmax(changed))}")
    dt = 1.0 / fps
    run = _Solver(build_spring_network(garment), params, pinned, dt)
    if initial_positions is None:
        initial_positions = garment.vertices
    x = _inputs.array("initial_positions", initial_positions, (garment.num_vertices, 3)).T.copy()
    x.put(run.pin_flat, pin_frames[0].T)
    v = np.zeros_like(x)

    t = 0.0
    for _ in range(int(np.ceil(warmup / dt))):
        _advance(run, x, v, caps[0], caps[0], pin_frames[0], "warmup: ")
        t += dt
    # x and v are advanced in place, so each record copies them out.
    recorded = [ClothState(x.T.copy(), v.T.copy(), pinned, t)]
    for fidx in range(1, n_frames):
        _advance(run, x, v, caps[fidx - 1], caps[fidx], pin_frames[fidx], f"frame {fidx}: ")
        t += dt
        recorded.append(ClothState(x.T.copy(), v.T.copy(), pinned, t))
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
