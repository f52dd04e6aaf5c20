"""Quaternion and rotation utilities.

Quaternions are numpy arrays in (w, x, y, z) order. Functions accept either a
single quaternion of shape (4,) or a batch of shape (..., 4) and broadcast the
way numpy users expect.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, broadcast over the leading ones.

    Taken as a stack of (1, n) @ (n, 1) products, which reproduces the 1-D
    np.dot bit for bit; einsum, rowdot and (a * b).sum(-1) differ from it
    in the last bit on some inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of 3-vectors over the last axis, broadcast over the leading ones.

    Summed as (a0*b0 + a2*b2) + a1*b1 on the columns: the order in which
    np.einsum sums a "...j,...j->..." row of three, so its bits, for
    strided views and broadcast operands too. The two other orders differ
    from einsum in the last bit on about 30% of rows. On many short rows it
    costs about half what einsum does. Where np.dot's bits are wanted, use
    dot.
    """
    out = a[..., 0] * b[..., 0]
    out += a[..., 2] * b[..., 2]
    out += a[..., 1] * b[..., 1]
    return out


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcast over the leading ones.

    The same multiplies and subtractions as np.cross on 3-vectors, so the
    same bits, without its per-call axis handling.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize zero quaternion")
    return q / n


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (apply b first, then a)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector(s) v by quaternion(s) q.

    Uses the expanded sandwich product; broadcasts q (..., 4) against v (..., 3).
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    w = q[..., :1]
    u = q[..., 1:]
    uv = cross(u, v)
    return v + 2.0 * (w * uv + cross(u, uv))


def from_axis_angle(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    n = np.linalg.norm(axis, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("rotation axis must be non-zero")
    axis = axis / n
    half = angle / 2.0
    return np.concatenate(
        [np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1
    )


def angle_of(q: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] of quaternion(s)."""
    q = np.asarray(q, dtype=float)
    w = np.clip(np.abs(q[..., 0]) / np.linalg.norm(q, axis=-1), -1.0, 1.0)
    return 2.0 * np.arccos(w)


def to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix (or batch of them) from unit quaternion(s)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def from_matrix(m: np.ndarray) -> np.ndarray:
    """Unit quaternion(s) from 3x3 rotation matrices (Shepperd's method).

    m has shape (..., 3, 3). A positive trace takes the w-led branch;
    otherwise the branch is led by the largest diagonal element.
    """
    m = np.asarray(m, dtype=float)
    flat = m.reshape(-1, 3, 3)
    t = np.trace(flat, axis1=1, axis2=2)
    q = np.empty((len(flat), 4))
    pos = t > 0.0
    a = flat[pos]
    s = np.sqrt(t[pos] + 1.0) * 2.0
    q[pos] = np.stack(
        [
            0.25 * s,
            (a[:, 2, 1] - a[:, 1, 2]) / s,
            (a[:, 0, 2] - a[:, 2, 0]) / s,
            (a[:, 1, 0] - a[:, 0, 1]) / s,
        ],
        axis=-1,
    )
    b = flat[~pos]
    n = np.arange(len(b))
    i = np.argmax(np.diagonal(b, axis1=1, axis2=2), axis=1)
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(np.maximum(b[n, i, i] - b[n, j, j] - b[n, k, k] + 1.0, 0.0)) * 2.0
    r = np.empty((len(b), 4))
    r[:, 0] = (b[n, k, j] - b[n, j, k]) / s
    r[n, 1 + i] = 0.25 * s
    r[n, 1 + j] = (b[n, j, i] + b[n, i, j]) / s
    r[n, 1 + k] = (b[n, k, i] + b[n, i, k]) / s
    q[~pos] = r
    return normalize(q).reshape(m.shape[:-2] + (4,))


def between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimal rotation(s) taking direction(s) u onto v (pure swings).

    u and v broadcast against each other over leading axes.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    u = np.broadcast_to(u, shape).reshape(-1, 3)
    v = np.broadcast_to(v, shape).reshape(-1, 3)
    nu = np.sqrt(dot(u, u))
    nv = np.sqrt(dot(v, v))
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("directions must be non-zero")
    u = u / nu[:, None]
    v = v / nv[:, None]
    d = dot(u, v)
    q = np.empty((len(u), 4))
    # Antipodal: rotate pi about any axis perpendicular to u.
    anti = d < -1.0 + 1e-12
    axis = cross(u[anti], [1.0, 0.0, 0.0])
    near_x = np.sqrt(dot(axis, axis)) < 1e-8
    axis[near_x] = cross(u[anti][near_x], [0.0, 1.0, 0.0])
    q[anti] = from_axis_angle(axis, np.full(len(axis), np.pi))
    swing = np.empty((len(u) - len(axis), 4))
    swing[:, 0] = 1.0 + d[~anti]
    swing[:, 1:] = cross(u[~anti], v[~anti])
    q[~anti] = normalize(swing)
    return q.reshape(shape[:-1] + (4,))


# BVH-style Euler angles. Channel order ZXY means the matrix Rz @ Rx @ Ry,
# i.e. the first listed channel is the outermost rotation.

_AXES = {"X": np.array([1.0, 0, 0]), "Y": np.array([0, 1.0, 0]), "Z": np.array([0, 0, 1.0])}


def from_euler(order: str, angles: np.ndarray, degrees: bool = False) -> np.ndarray:
    """Compose rotations about the listed axes, first axis outermost.

    angles has shape (..., len(order)).
    """
    angles = np.asarray(angles, dtype=float)
    if degrees:
        angles = np.deg2rad(angles)
    q = None
    for i, ax in enumerate(order.upper()):
        qi = from_axis_angle(_AXES[ax], angles[..., i])
        q = qi if q is None else multiply(q, qi)
    return q


def to_euler_zxy(q: np.ndarray, degrees: bool = False) -> np.ndarray:
    """Extract (z, x, y) angles such that R = Rz @ Rx @ Ry.

    At the gimbal singularity (x = +-90 deg) the z angle is set to 0.
    """
    m = to_matrix(q)
    sx = np.clip(m[..., 2, 1], -1.0, 1.0)
    x = np.arcsin(sx)
    cx = np.cos(x)
    gimbal = np.abs(cx) < 1e-9
    y = np.where(
        gimbal,
        np.arctan2(m[..., 0, 2], m[..., 0, 0]),
        np.arctan2(-m[..., 2, 0], m[..., 2, 2]),
    )
    z = np.where(gimbal, 0.0, np.arctan2(-m[..., 0, 1], m[..., 1, 1]))
    out = np.stack([z, x, y], axis=-1)
    return np.rad2deg(out) if degrees else out
