import numpy as np
import pytest

from drapebench.body import (
    BUILD_CATALOG,
    Capsule,
    body_capsules,
    body_skeleton,
    build_parametric_body,
)
from drapebench.mesh import enclosed_volume


def test_all_builds_watertight_and_normalized():
    for label in BUILD_CATALOG:
        b = build_parametric_body(label)
        assert b.template.is_watertight, label
        assert enclosed_volume(b.template) > 0, label
        assert abs(b.skeleton.rest_height() - BUILD_CATALOG[label].height) < 1e-9


def test_larger_builds_have_larger_volume():
    for gender in ("female", "male"):
        small = enclosed_volume(build_parametric_body(f"{gender}_small").template)
        large = enclosed_volume(build_parametric_body(f"{gender}_large").template)
        assert large > small


def test_build_deterministic():
    a = build_parametric_body("male_small")
    b = build_parametric_body("male_small")
    assert np.array_equal(a.template.vertices, b.template.vertices)
    assert np.array_equal(a.template.faces, b.template.faces)


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown build label"):
        build_parametric_body("giant")
    with pytest.raises(ValueError):
        body_skeleton("giant")


def test_body_capsules_cover_every_bone(body):
    caps = body_capsules(body.skeleton, body.build_label)
    assert len(caps) == body.skeleton.num_joints - 1
    assert all(isinstance(c, Capsule) and c.radius > 0 for c in caps)
