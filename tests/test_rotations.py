import numpy as np
import pytest
from scipy.spatial.transform import Rotation as R

from drapebench import rotations as rot
from drapebench.mesh import merge_meshes
from drapebench.primitives import icosphere


def _random_quats(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _same_rotation(a, b, tol=1e-9):
    return min(np.abs(a - b).max(), np.abs(a + b).max()) < tol


def test_multiply_matches_scipy(rng):
    for a, b in zip(_random_quats(rng, 50), _random_quats(rng, 50)):
        ours = rot.multiply(a, b)
        ra = R.from_quat([a[1], a[2], a[3], a[0]])
        rb = R.from_quat([b[1], b[2], b[3], b[0]])
        sx, sy, sz, sw = (ra * rb).as_quat()
        assert _same_rotation(ours, np.array([sw, sx, sy, sz]))


def test_rotate_matches_matrix(rng):
    for q in _random_quats(rng, 50):
        v = rng.normal(size=3)
        assert np.allclose(rot.rotate(q, v), rot.to_matrix(q) @ v, atol=1e-12)


def test_matrix_round_trip(rng):
    for q in _random_quats(rng, 100):
        assert _same_rotation(q, rot.from_matrix(rot.to_matrix(q)))


def test_euler_zxy_round_trip(rng):
    for q in _random_quats(rng, 100):
        e = rot.to_euler_zxy(q, degrees=True)
        q2 = rot.from_euler("ZXY", e, degrees=True)
        assert _same_rotation(q, q2)


def test_euler_zxy_matches_scipy(rng):
    for _ in range(50):
        angles = rng.uniform(-170, 170, size=3)
        q = rot.from_euler("ZXY", angles, degrees=True)
        s = R.from_euler("ZXY", angles, degrees=True)
        sx, sy, sz, sw = s.as_quat()
        assert _same_rotation(q, np.array([sw, sx, sy, sz]))


def test_between_is_minimal_swing(rng):
    for _ in range(100):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        q = rot.between(u, v)
        aligned = rot.rotate(q, u / np.linalg.norm(u))
        assert np.allclose(aligned, v / np.linalg.norm(v), atol=1e-9)
        # Axis perpendicular to both: zero twist about the source direction.
        axis = q[1:]
        if np.linalg.norm(axis) > 1e-12:
            assert abs(axis @ u) / (np.linalg.norm(axis) * np.linalg.norm(u)) < 1e-9


def test_between_antipodal():
    q = rot.between(np.array([0.0, 1.0, 0.0]), np.array([0.0, -1.0, 0.0]))
    assert abs(rot.angle_of(q) - np.pi) < 1e-12
    assert np.allclose(rot.rotate(q, [0.0, 1.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-12)


def test_angle_of():
    q = rot.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.3)
    assert abs(rot.angle_of(q) - 0.3) < 1e-12
    assert rot.angle_of(rot.IDENTITY) == 0.0


def _between_one(u, v):
    """Per-pair reference for the batched between: the 1-D formulas."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    d = float(np.dot(u, v))
    if d < -1.0 + 1e-12:
        axis = np.cross(u, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-8:
            axis = np.cross(u, [0.0, 1.0, 0.0])
        return rot.from_axis_angle(axis, np.pi)
    q = np.empty(4)
    q[0] = 1.0 + d
    q[1:] = np.cross(u, v)
    return rot.normalize(q)


def _from_matrix_one(m):
    """Per-matrix reference for the batched from_matrix: Shepperd's branches."""
    t = np.trace(m)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        return rot.normalize(
            np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
        )
    i = int(np.argmax(np.diag(m)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(max(m[i, i] - m[j, j] - m[k, k] + 1.0, 0.0)) * 2.0
    q = np.empty(4)
    q[0] = (m[k, j] - m[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (m[j, i] + m[i, j]) / s
    q[1 + k] = (m[k, i] + m[i, k]) / s
    return rot.normalize(q)


def test_dot_matches_1d_dot_bit_for_bit(rng):
    a = rng.normal(size=(2000, 3))
    b = rng.normal(size=(2000, 3))
    assert np.array_equal(rot.dot(a, b), np.array([np.dot(x, y) for x, y in zip(a, b)]))


def test_cross_matches_np_cross_bit_for_bit(rng):
    def same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))

    a, b = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
    assert same_bits(rot.cross(a, b), np.cross(a, b))
    many, few = rng.normal(size=(500, 24, 3)), rng.normal(size=(24, 3))
    assert same_bits(rot.cross(many, few), np.cross(many, few))
    assert same_bits(rot.cross(few, many), np.cross(few, many))
    assert same_bits(rot.cross(a[0], b[0]), np.cross(a[0], b[0]))
    # The mesh call sites: a mesh's edge vectors against each other, and a
    # ray direction against every face edge.
    spheres = merge_meshes([icosphere(0.1 + 0.02 * k, 2).translated((0.15 * k, 0.0, 0.0)) for k in range(5)])
    v0, v1, v2 = (spheres.vertices[spheres.faces[:, k]] for k in range(3))
    assert same_bits(rot.cross(v1 - v0, v2 - v0), np.cross(v1 - v0, v2 - v0))
    direction = rng.normal(size=3)
    assert same_bits(rot.cross(direction, v2 - v0), np.cross(direction, v2 - v0))
    assert same_bits(rot.cross(np.array([1.0, 0.0, 0.0]), a[1]), np.cross([1.0, 0.0, 0.0], a[1]))


def test_between_batched_matches_per_pair_bit_for_bit(rng):
    u = rng.normal(size=(2000, 3))
    v = rng.normal(size=(2000, 3))
    v[:20] = -u[:20] * rng.uniform(0.5, 2.0, size=(20, 1))  # antipodal
    u[20:30] = [2.0, 0.0, 0.0]  # antipodal along x: the y fallback axis
    v[20:30] = [-1.0, 0.0, 0.0]
    batched = rot.between(u, v)
    assert np.array_equal(batched, np.stack([_between_one(a, b) for a, b in zip(u, v)]))
    assert np.allclose(rot.rotate(batched[:30], u[:30] / np.linalg.norm(u[:30], axis=1, keepdims=True)),
                       v[:30] / np.linalg.norm(v[:30], axis=1, keepdims=True), atol=1e-9)
    # One direction against many, and a single pair, broadcast the same way.
    assert np.array_equal(rot.between(u[0], v), np.stack([_between_one(u[0], b) for b in v]))
    assert rot.between(u[0], v[0]).shape == (4,)


def test_between_rejects_zero_direction():
    with pytest.raises(ValueError):
        rot.between(np.array([[1.0, 0, 0], [0.0, 0, 0]]), np.array([0.0, 1.0, 0]))


def test_from_matrix_batched_matches_per_matrix_bit_for_bit(rng):
    q = _random_quats(rng, 2000)
    q[:10] = rot.from_axis_angle(rng.normal(size=(10, 3)), np.full(10, np.pi))  # trace -1
    m = rot.to_matrix(q)
    traces = np.trace(m, axis1=1, axis2=2)
    assert (traces > 0).any() and (traces <= 0).sum() > 500
    batched = rot.from_matrix(m)
    assert np.array_equal(batched, np.stack([_from_matrix_one(x) for x in m]))
    assert rot.from_matrix(m.reshape(40, 50, 3, 3)).shape == (40, 50, 4)
    assert np.array_equal(rot.from_matrix(m[3]), batched[3])
