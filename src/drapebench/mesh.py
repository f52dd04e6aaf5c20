"""Triangle mesh geometry: volume, boundary capping, surface points, ray casts, OBJ I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotations as rot


@dataclass(frozen=True)
class TriMesh:
    """Immutable triangle mesh. Faces are counter-clockwise seen from outside."""

    vertices: np.ndarray  # (V, 3) float
    faces: np.ndarray     # (F, 3) int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        f = np.asarray(self.faces)
        # A cast to int64 truncates, so 1.7 would name vertex 1. Only a
        # non-integer dtype pays for the check.
        if f.dtype.kind not in "iu" and not (f.dtype.kind == "f" and np.array_equal(f, np.trunc(f))):
            raise ValueError("face indices must be integers")
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be (V, 3)")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be (F, 3)")
        if len(f) and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("face index out of range")
        f = np.ascontiguousarray(f, dtype=np.int64)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)
        if not np.isfinite(v).all():
            bad = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise ValueError(f"vertices must be finite; vertex {bad} is not")
        areas = face_areas(v, f)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise ValueError(f"degenerate (zero-area) face {bad}")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_watertight(self) -> bool:
        return is_closed(self.faces)

    def translated(self, offset) -> "TriMesh":
        return TriMesh(self.vertices + np.asarray(offset, dtype=float), self.faces)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        return TriMesh(vertices, self.faces)


def face_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    if len(faces) == 0:
        return np.zeros(0)
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    return 0.5 * np.linalg.norm(rot.cross(b - a, c - a), axis=-1)


def edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(directed, edges, inverse, counts) of a face array.

    directed (3F, 2): every face's (0, 1) edges, then (1, 2), then (2, 0).
    edges (E, 2): the distinct undirected edges, rows ascending and sorted.
    inverse (3F,): each directed edge's row in edges; counts (E,): its faces.

    An edge (lo, hi) is found by its int64 key lo * span + hi, with span the
    largest vertex index plus one. The keys sort in (lo, hi) row order, so a
    1-D np.unique of the keys gives the rows, inverse and counts of a
    row-wise unique at a fraction of its cost. span**2 fits int64 for any
    mesh below about 3e9 vertices.
    """
    faces = np.asarray(faces, dtype=np.int64)
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    span = int(directed.max(initial=0)) + 1
    keys = np.minimum(directed[:, 0], directed[:, 1]) * span + np.maximum(directed[:, 0], directed[:, 1])
    keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return directed, np.stack(np.divmod(keys, span), axis=-1), inverse, counts


def is_closed(faces: np.ndarray) -> bool:
    """Whether faces form a watertight surface: every edge is shared by exactly two faces."""
    return bool((edge_table(faces)[3] == 2).all())


def signed_volume(vertices: np.ndarray, faces: np.ndarray) -> float:
    """Divergence-theorem volume of closed faces; the caller vouches for closure.

    Positive for outward-oriented surfaces. Vertices are re-centered on their
    mean first so translated copies of a mesh report identical volumes.
    """
    v = vertices - vertices.mean(axis=0)
    a = v[faces[:, 0]]
    b = v[faces[:, 1]]
    c = v[faces[:, 2]]
    return float(rot.rowdot(a, rot.cross(b, c)).sum() / 6.0)


def enclosed_volume(mesh: TriMesh) -> float:
    """Signed volume of a watertight mesh (see signed_volume)."""
    if not mesh.is_watertight:
        raise ValueError(
            "mesh is not watertight; close its boundary loops with cap_boundaries first"
        )
    return signed_volume(mesh.vertices, mesh.faces)


def _boundary_loops(edges: np.ndarray) -> list[list[int]]:
    """Directed boundary edges chained into closed loops, each from its lowest vertex."""
    nxt: dict[int, int] = {}
    for a, b in edges:
        if int(a) in nxt:
            raise ValueError("boundary is not a set of simple loops (vertex reused)")
        nxt[int(a)] = int(b)
    loops = []
    remaining = set(nxt)
    while remaining:
        start = min(remaining)
        loop = [start]
        remaining.discard(start)
        cur = nxt[start]
        while cur != start:
            if cur not in remaining:
                raise ValueError("boundary loop does not close")
            loop.append(cur)
            remaining.discard(cur)
            cur = nxt[cur]
        loops.append(loop)
    return loops


def boundary_caps(faces: np.ndarray, num_vertices: int) -> tuple[list[list[int]], np.ndarray]:
    """Boundary loops of a surface, and its faces with each loop fanned shut.

    Loop i closes on a new vertex num_vertices + i, which cap_vertices places
    at the loop centroid. Fan triangles run opposite to the boundary's winding
    so the caps face outward. A closed surface has no loops and keeps its faces.
    """
    directed, _, inverse, counts = edge_table(faces)
    if counts.max(initial=0) > 2:
        raise ValueError("non-manifold edge (shared by more than two faces); cannot cap")
    loops = _boundary_loops(directed[counts[inverse] == 1])
    if not loops:
        return loops, faces
    fans = []
    for i, loop in enumerate(loops):
        a = np.array(loop)
        fans.append(np.stack([np.roll(a, -1), a, np.full(len(a), num_vertices + i)], axis=-1))
    return loops, np.concatenate([faces] + fans)


def cap_vertices(vertices: np.ndarray, loops: list[list[int]]) -> np.ndarray:
    """Vertices with the centroid of each boundary loop appended, in loop order."""
    return np.concatenate([vertices] + [vertices[loop].mean(axis=0)[None, :] for loop in loops])


def cap_boundaries(mesh: TriMesh) -> TriMesh:
    """Close every boundary loop with a triangle fan to the loop centroid.

    Already-watertight meshes are returned unchanged.
    """
    loops, faces = boundary_caps(mesh.faces, mesh.num_vertices)
    if not loops:
        return mesh
    return TriMesh(cap_vertices(mesh.vertices, loops), faces)


def surface_points(
    positions: np.ndarray, faces: np.ndarray, face: np.ndarray, barycentric: np.ndarray
) -> np.ndarray:
    """Points at barycentric weights on faces of a mesh, riding its vertices.

    positions is one vertex set (V, 3) or a stack of them (..., V, 3); face
    (N,) and barycentric (N, 3) locate N points. Returns (..., N, 3).
    """
    face = np.asarray(face)
    barycentric = np.asarray(barycentric, dtype=float)
    if len(face) and (face.min() < 0 or face.max() >= len(faces)):
        raise ValueError("face index out of range")
    if np.any(barycentric < -1e-12) or np.any(np.abs(barycentric.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("barycentric weights must be non-negative and sum to 1")
    return (barycentric[:, None, :] @ positions[..., faces[face], :])[..., 0, :]


# For a unit ray direction, the Moeller-Trumbore determinant is twice a face's
# area projected across the ray, and garment faces span square millimeters or
# more: below this the ray runs in the face's plane and 1 / det would amplify
# rounding. A hit this close ahead is the ray's own origin.
_RAY_EPS = 1e-12


def _ray_hits(
    origin: np.ndarray, direction: np.ndarray, v0: np.ndarray, e1: np.ndarray, e2: np.ndarray
) -> np.ndarray:
    """All ray/triangle hits as rows (t, face, u, v), unsorted.

    Moeller-Trumbore over every face, given each face's first vertex v0 and
    its edges e1, e2 to the other two, vectorized. u, v are barycentric
    coordinates of the 2nd and 3rd face vertices.
    """
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    pvec = rot.cross(direction, e2)
    det = rot.rowdot(e1, pvec)
    ok = np.abs(det) > _RAY_EPS
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    tvec = origin - v0
    u = rot.rowdot(tvec, pvec) * inv_det
    qvec = rot.cross(tvec, e1)
    v = (qvec @ direction) * inv_det
    t = rot.rowdot(e2, qvec) * inv_det
    mask = ok & (u >= -1e-9) & (v >= -1e-9) & (u + v <= 1.0 + 1e-9) & (t > _RAY_EPS)
    idx = np.nonzero(mask)[0]
    return np.stack([t[idx], idx.astype(float), u[idx], v[idx]], axis=-1) if len(idx) else np.zeros((0, 4))


def face_components(mesh: TriMesh) -> np.ndarray:
    """Connected-component label per face (faces joined by shared vertices).

    Components are numbered in the order of their lowest vertex index.
    """
    faces = mesh.faces
    root = np.arange(mesh.num_vertices)
    while True:
        # Hook the root of every face vertex onto the lowest root in the face,
        # then compress paths until each vertex points at a root. Roots only
        # decrease, and the loop stops once every face has a single root.
        face_roots = root[faces]
        hooked = root.copy()
        np.minimum.at(hooked, face_roots.ravel(), np.repeat(face_roots.min(axis=1), 3))
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked
    _, compact = np.unique(root[faces[:, 0]], return_inverse=True)
    return compact


def _union_exit(hits: np.ndarray, components: np.ndarray) -> int | None:
    """Row of hits where the ray leaves every component enclosing its origin."""
    if len(hits) == 0:
        return None
    comp_of_hit = components[hits[:, 1].astype(int)]
    order = np.argsort(hits[:, 0])
    # A ray through a shared triangle edge registers on both triangles; those
    # duplicates land at the same parameter on the same component and must
    # count as one crossing or the parity logic breaks.
    kept = []
    last_t: dict[int, float] = {}
    for idx in order:
        comp = int(comp_of_hit[idx])
        t = float(hits[idx, 0])
        if comp in last_t and t - last_t[comp] < 1e-9 * (1.0 + abs(t)):
            continue
        last_t[comp] = t
        kept.append(idx)
    inside: set[int] = set()
    for idx in kept:
        inside.symmetric_difference_update({int(comp_of_hit[idx])})
    if not inside:
        return None
    # `inside` now holds components with odd crossing counts = those enclosing
    # the origin. Walk forward until the ray has left all of them.
    for idx in kept:
        inside.symmetric_difference_update({int(comp_of_hit[idx])})
        if not inside:
            return int(idx)
    return int(kept[-1])


def ray_union_exits(origins, directions, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each ray leaves the union of mesh components enclosing its origin.

    Crossing parity per component decides which components contain the origin;
    the exit is the first crossing after which none of them does. Returns
    (hit (N,), face (N,), barycentric (N, 3)); a ray whose origin is outside
    every component (the point is not covered) has hit False, face 0 and
    weights (1, 0, 0). The face edges and component labels are derived once
    for all rays.
    """
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    components = face_components(mesh)
    hit = np.zeros(len(origins), dtype=bool)
    exits = np.zeros((len(origins), 4))  # (t, face, u, v) per ray
    for i, (o, d) in enumerate(zip(origins, directions)):
        hits = _ray_hits(o, d, v0, e1, e2)
        row = _union_exit(hits, components)
        if row is not None:
            hit[i] = True
            exits[i] = hits[row]
    u = np.minimum(np.maximum(exits[:, 2], 0.0), 1.0)
    v = np.minimum(np.maximum(exits[:, 3], 0.0), 1.0 - u)
    return hit, exits[:, 1].astype(np.int64), np.stack([1.0 - u - v, u, v], axis=-1)


def merge_meshes(meshes: list[TriMesh]) -> TriMesh:
    """Concatenate meshes into one (components stay topologically separate)."""
    if not meshes:
        raise ValueError("nothing to merge")
    verts = []
    faces = []
    base = 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + base)
        base += m.num_vertices
    return TriMesh(np.concatenate(verts), np.concatenate(faces))


def load_obj(text: str) -> TriMesh:
    """Parse Wavefront OBJ text (v/f records, triangles only, 1-based).

    A record that does not parse is refused with its 1-based line number: a
    coordinate that is not a number, a face index that is not an integer, and
    index 0 or a negative index reaching before the first vertex, which name
    no vertex.
    """
    verts = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex coordinates must be numbers, got {parts[1:4]}") from None
        elif parts[0] == "f":
            try:
                ids = [int(p.split("/")[0]) for p in parts[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: face indices must be integers, got {parts[1:]}") from None
            if len(ids) != 3:
                raise ValueError(f"line {lineno}: only triangular faces are supported")
            if any(i == 0 or i < -len(verts) for i in ids):
                raise ValueError(
                    f"line {lineno}: face {ids} names no vertex; OBJ counts from 1, or back from -1"
                )
            faces.append([i - 1 if i > 0 else len(verts) + i for i in ids])
    if not verts or not faces:
        raise ValueError("OBJ contains no usable geometry")
    return TriMesh(np.array(verts), np.array(faces))


def dump_obj(mesh: TriMesh) -> str:
    lines = [f"v {v[0]:.8f} {v[1]:.8f} {v[2]:.8f}" for v in mesh.vertices]
    lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in mesh.faces]
    return "\n".join(lines) + "\n"
