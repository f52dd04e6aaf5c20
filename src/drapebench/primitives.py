"""Procedural mesh primitives: cube, icosphere, tubes and capsules."""

from __future__ import annotations

import numpy as np

from . import rotations as rot
from .mesh import TriMesh


def unit_cube() -> TriMesh:
    """Axis-aligned unit cube, 12 outward-facing triangles, volume exactly 1."""
    v = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    f = np.array(
        [
            [0, 3, 2], [0, 2, 1],  # z = 0
            [4, 5, 6], [4, 6, 7],  # z = 1
            [0, 1, 5], [0, 5, 4],  # y = 0
            [3, 7, 6], [3, 6, 2],  # y = 1
            [0, 4, 7], [0, 7, 3],  # x = 0
            [1, 2, 6], [1, 6, 5],  # x = 1
        ]
    )
    return TriMesh(v, f)


def icosphere(radius: float = 1.0, subdivisions: int = 2) -> TriMesh:
    """Subdivided icosahedron with vertices projected to the sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ]
    )
    for _ in range(subdivisions):
        verts_list = list(verts)
        midpoint: dict[tuple[int, int], int] = {}

        def midpoint_index(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts_list[a] + verts_list[b]
                verts_list.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts_list) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return TriMesh(verts * radius, faces)


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


def open_cylinder(radius: float, height: float, n_theta: int = 48, n_rings: int = 8) -> TriMesh:
    """Uncapped cylinder along +y starting at the origin."""
    t = np.array([0.0, 1.0, 0.0])
    u, w = _orthonormal_frame(t)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    circle = radius * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * w)
    ys = np.linspace(0.0, height, n_rings)
    rings = np.stack([circle + y * t for y in ys])
    return TriMesh(rings.reshape(-1, 3), _grid_tube_faces(n_rings, n_theta))


def _orthonormal_frame(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors u, w with (u, w, t) right-handed."""
    t = t / np.linalg.norm(t)
    helper = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = rot.cross(helper, t)
    u /= np.linalg.norm(u)
    w = rot.cross(t, u)
    return u, w


def capsule_mesh(
    p0: np.ndarray,
    p1: np.ndarray,
    radius: float,
    n_theta: int = 16,
    n_axial: int = 3,
    n_cap: int = 4,
) -> TriMesh:
    """Watertight capsule around segment p0-p1 (cylinder plus hemisphere caps)."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    axis = p1 - p0
    length = np.linalg.norm(axis)
    t = axis / length
    u, w = _orthonormal_frame(t)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    circle = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * w

    rings = []
    # Bottom hemisphere (excluding pole), from just above the pole to the seam.
    for i in range(1, n_cap + 1):
        phi = -np.pi / 2.0 + (np.pi / 2.0) * i / n_cap
        rings.append(p0 + radius * np.cos(phi) * circle + radius * np.sin(phi) * t)
    # Cylinder interior rings.
    for j in range(1, n_axial):
        rings.append(p0 + t * (length * j / n_axial) + radius * circle)
    # Top hemisphere from seam toward the pole (excluding pole).
    for i in range(n_cap):
        phi = (np.pi / 2.0) * i / n_cap
        rings.append(p1 + radius * np.cos(phi) * circle + radius * np.sin(phi) * t)

    ring_arr = np.stack(rings)
    n_rings = len(rings)
    verts = np.concatenate([ring_arr.reshape(-1, 3), [p0 - radius * t], [p1 + radius * t]])
    faces = list(_grid_tube_faces(n_rings, n_theta))
    bottom_pole = n_rings * n_theta
    top_pole = bottom_pole + 1
    last = (n_rings - 1) * n_theta
    for i in range(n_theta):
        j = (i + 1) % n_theta
        faces.append([bottom_pole, j, i])
        faces.append([top_pole, last + i, last + j])
    return TriMesh(verts, np.array(faces))
