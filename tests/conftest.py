import numpy as np
import pytest

from drapebench.body import build_parametric_body
from drapebench.garment import _grid_tube_faces, _orthonormal_frame
from drapebench.kinematics import default_skeleton
from drapebench.mesh import TriMesh


@pytest.fixture(scope="session")
def skeleton():
    return default_skeleton()


@pytest.fixture(scope="session")
def body():
    return build_parametric_body("female_average")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# --- mesh primitives for oracles ------------------------------------------


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


def open_cylinder(radius: float, height: float, n_theta: int = 48, n_rings: int = 8) -> TriMesh:
    """Uncapped cylinder along +y starting at the origin."""
    t = np.array([0.0, 1.0, 0.0])
    u, w = _orthonormal_frame(t)
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    circle = radius * (np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * w)
    ys = np.linspace(0.0, height, n_rings)
    rings = np.stack([circle + y * t for y in ys])
    return TriMesh(rings.reshape(-1, 3), _grid_tube_faces(n_rings, n_theta))
