import numpy as np
import pytest

from drapebench.body import (
    BUILD_CATALOG,
    Capsule,
    body_capsules,
    body_skeleton,
    build_parametric_body,
)


def test_all_builds_normalized():
    for label in BUILD_CATALOG:
        b = build_parametric_body(label)
        assert abs(b.skeleton.rest_height() - BUILD_CATALOG[label].height) < 1e-9


def _capsule_volume(body):
    """Summed capsule volumes, pi r^2 L + 4/3 pi r^3 each (overlaps counted twice)."""
    return sum(
        np.pi * c.radius**2 * np.linalg.norm(c.p1 - c.p0) + 4.0 / 3.0 * np.pi * c.radius**3
        for c in body_capsules(body.skeleton, body.build_label)
    )


def test_larger_builds_have_larger_volume():
    for gender in ("female", "male"):
        small = _capsule_volume(build_parametric_body(f"{gender}_small"))
        large = _capsule_volume(build_parametric_body(f"{gender}_large"))
        assert large > small


def test_build_deterministic():
    a = build_parametric_body("male_small")
    b = build_parametric_body("male_small")
    assert np.array_equal(a.skeleton.rest_offsets, b.skeleton.rest_offsets)
    caps_a = body_capsules(a.skeleton, a.build_label)
    caps_b = body_capsules(b.skeleton, b.build_label)
    for ca, cb in zip(caps_a, caps_b, strict=True):
        assert np.array_equal(ca.p0, cb.p0) and np.array_equal(ca.p1, cb.p1)
        assert ca.radius == cb.radius


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown build label"):
        build_parametric_body("giant")
    with pytest.raises(ValueError):
        body_skeleton("giant")


def test_body_capsules_cover_every_bone(body):
    caps = body_capsules(body.skeleton, body.build_label)
    assert len(caps) == body.skeleton.num_joints - 1
    assert all(isinstance(c, Capsule) and c.radius > 0 for c in caps)
