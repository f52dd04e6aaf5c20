import numpy as np
import pytest

from drapebench import garment
from drapebench.body import body_capsules, build_parametric_body
from drapebench.garment import (
    _MAX_SLACK,
    _MIN_SLACK,
    _SLEEVES,
    GARMENT_CATEGORIES,
    _SleeveGeometry,
    _sleeves,
    classify_drape,
    generate_garment,
    measure_drape,
)
from drapebench.mesh import cap_boundaries, enclosed_volume, merge_meshes, signed_volume

from conftest import open_cylinder


def capped_cylinder(r, h, n_theta=48):
    return cap_boundaries(open_cylinder(r, h, n_theta, 6))


def test_identical_meshes_have_zero_drape():
    body = capped_cylinder(0.1, 0.6)
    assert measure_drape(body, body) == 0.0


def test_coaxial_cylinder_drape_oracle():
    body = capped_cylinder(0.10, 0.6)
    shell = capped_cylinder(0.11, 0.6)
    ratio = measure_drape(shell, body)
    assert abs(ratio - 0.21) / 0.21 < 0.02


def test_drape_monotone_in_shell_radius():
    body = capped_cylinder(0.10, 0.6)
    previous = -1.0
    for r in np.linspace(0.105, 0.2, 10):
        ratio = measure_drape(capped_cylinder(float(r), 0.6), body)
        assert ratio > previous
        previous = ratio


def test_drape_rigid_motion_invariant(rng):
    from drapebench import rotations as rot

    body = capped_cylinder(0.1, 0.5)
    shell = capped_cylinder(0.13, 0.5)
    base = measure_drape(shell, body)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    body2 = body.with_vertices(rot.rotate(q, body.vertices) + t)
    shell2 = shell.with_vertices(rot.rotate(q, shell.vertices) + t)
    assert abs(measure_drape(shell2, body2) - base) < 1e-9


def test_smaller_garment_refused():
    body = capped_cylinder(0.1, 0.6)
    tight = capped_cylinder(0.08, 0.6)
    with pytest.raises(ValueError, match="below covered-body volume"):
        measure_drape(tight, body)


def test_classify_boundaries():
    assert classify_drape(0.0) == 1
    assert classify_drape(0.05) == 2  # lower boundary belongs to the class above
    assert classify_drape(0.15) == 3
    assert classify_drape(0.30) == 4
    assert classify_drape(0.60) == 5
    assert classify_drape(1.00) == 6
    assert classify_drape(7.5) == 6
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError, match="must be non-negative"):
            classify_drape(bad)


def test_classify_monotone(rng):
    ratios = np.sort(rng.uniform(0.0, 2.0, size=50))
    classes = [classify_drape(float(r)) for r in ratios]
    assert all(a <= b for a, b in zip(classes, classes[1:]))


@pytest.mark.parametrize("target", [1, 6])
def test_generate_hits_target_class(body, target):
    g = generate_garment(body, ("tshirt",), target)
    assert classify_drape(g.drape_ratio) == target


def test_class1_garment_hugs_body(body):
    from drapebench.body import body_capsules

    g = generate_garment(body, ("tshirt",), 1)
    best = np.full(g.mesh.num_vertices, np.inf)
    for c in body_capsules(body.skeleton, body.build_label):
        d = c.p1 - c.p0
        denom = max(float(d @ d), 1e-18)
        t = np.clip(((g.mesh.vertices - c.p0) @ d) / denom, 0.0, 1.0)
        closest = c.p0 + t[:, None] * d[None, :]
        best = np.minimum(best, np.linalg.norm(g.mesh.vertices - closest, axis=-1) - c.radius)
    assert best.max() < 0.01


def test_generate_deterministic(body):
    a = generate_garment(body, ("trousers",), 3)
    b = generate_garment(body, ("trousers",), 3)
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert a.slack == b.slack


def test_generated_garment_caps_watertight(body):
    g = generate_garment(body, ("unicloth",), 4)
    capped = cap_boundaries(g.mesh)
    assert capped.is_watertight
    assert enclosed_volume(capped) > 0
    assert np.isfinite(g.drape_ratio)


def test_all_categories_and_classes(body):
    for category in ("tshirt", "trousers", "unicloth"):
        for cls in (2, 5):
            g = generate_garment(body, (category,), cls)
            assert classify_drape(g.drape_ratio) == cls
            assert g.pinned.any()


def test_merged_pair_shares_class(body):
    a = generate_garment(body, ("tshirt",), 3)
    b = generate_garment(body, ("trousers",), 3)
    combined = generate_garment(body, ("tshirt", "trousers"), 3)
    assert classify_drape(combined.drape_ratio) == 3
    assert combined.mesh.num_vertices == a.mesh.num_vertices + b.mesh.num_vertices
    assert combined.slack == a.slack + b.slack


def test_spec_validation(body):
    with pytest.raises(ValueError, match="poncho"):
        generate_garment(body, ("tshirt", "poncho"), 3)
    with pytest.raises(ValueError, match="categories"):
        generate_garment(body, (), 3)
    for cls in (0, 7):
        with pytest.raises(ValueError, match="1..6"):
            generate_garment(body, ("tshirt",), cls)
    for scale in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"resolution_scale must be positive and finite, got {scale!r}"):
            generate_garment(body, ("tshirt",), 3, resolution_scale=scale)
    with pytest.raises(ValueError, match=r"garment categories repeat, got \['tshirt', 'trousers', 'tshirt'\]"):
        generate_garment(body, ("tshirt", "trousers", "tshirt"), 3)


@pytest.mark.parametrize("category", GARMENT_CATEGORIES)
@pytest.mark.parametrize("scale, torso, limb", [(1e-9, 0, 0), (1e-3, 0, 0), (0.05, 1, 1), (0.38, 8, 5)])
def test_too_coarse_a_resolution_is_refused(body, category, scale, torso, limb):
    with pytest.raises(ValueError, match=f"resolution_scale {scale!r} gives {torso} torso and {limb} limb columns"):
        generate_garment(body, (category,), 3, resolution_scale=scale)


def test_sleeve_of_fewer_than_three_rings_is_refused(body):
    joint_pos = body.skeleton.rest_positions()
    names = {n: i for i, n in enumerate(body.skeleton.joint_names)}
    caps = dict(zip(body.skeleton.joint_names[1:], body_capsules(body.skeleton, body.build_label)))
    arm = _SLEEVES["tshirt"][1]
    assert _SleeveGeometry(arm, joint_pos, names, caps, 14, 0.045).n_rings >= 3
    with pytest.raises(ValueError, match="gets 2 rings at 0.3000 m spacing, fewer than 3"):
        _SleeveGeometry(arm, joint_pos, names, caps, 14, 0.3)


def test_unreachable_target_reports_achieved_range(body, monkeypatch):
    # A slack bound far too tight for class 6's aim point.
    monkeypatch.setattr(garment, "_MAX_SLACK", 0.01)
    with pytest.raises(ValueError, match="tshirt: target class 6 unreachable.*range"):
        generate_garment(body, ("tshirt",), 6)


def _lagrange(xs, ys, x):
    """The polynomial through the points (xs, ys), evaluated at x."""
    return sum(
        y * np.prod([(x - xj) / (xi - xj) for xj in xs if xj != xi]) for xi, y in zip(xs, ys)
    )


@pytest.mark.parametrize("resolution", [1.0, 1.5])
@pytest.mark.parametrize("category", ["tshirt", "trousers", "unicloth"])
def test_capped_volume_is_a_cubic_in_slack(body, category, resolution):
    # Ring vertices and cap centroids are affine in slack, so each signed
    # tetrahedron, and the sum of them, is a cubic: the fit solves that cubic.
    probes = np.linspace(_MIN_SLACK, _MAX_SLACK, 4)
    for sleeve in _sleeves(body, category, resolution):
        volumes = [sleeve.capped_volume(x) for x in probes]
        for x in (0.0, 0.1234, 0.5678):
            want = sleeve.capped_volume(x)
            assert abs(_lagrange(probes, volumes, x) - want) <= 1e-12 * want, (category, x)


def test_fit_evaluates_four_probes_and_the_slack(body, monkeypatch):
    calls = {}
    capped_volume = garment._SleeveGeometry.capped_volume

    def counting(self, slack):
        calls.setdefault(id(self), []).append(slack)
        return capped_volume(self, slack)

    monkeypatch.setattr(garment._SleeveGeometry, "capped_volume", counting)
    g = generate_garment(body, ("tshirt",), 6)
    assert len(calls) == len(garment._SLEEVES["tshirt"])
    for slacks in calls.values():
        assert len(slacks) <= 5
        assert slacks[-1] == g.slack[0]


# Aim point per class: the midpoint of its interval, 1.5x the floor of class 6.
_TARGETS = {1: 0.025, 2: 0.10, 3: 0.225, 4: 0.45, 5: 0.80, 6: 1.5}


def _assert_on_aim(body, category, cls, resolution_scale, slack):
    """The fitted slack, judged by re-capping every sleeve: the tightest
    garment when the aim point lies below it, else the aim point itself."""
    sleeves = _sleeves(body, category, resolution_scale)
    v_body = enclosed_volume(merge_meshes([cap_boundaries(s.mesh(0.0)) for s in sleeves]))

    def ratio_at(x):
        return (sum(enclosed_volume(cap_boundaries(s.mesh(x))) for s in sleeves) - v_body) / v_body

    target = _TARGETS[cls]
    if target <= ratio_at(_MIN_SLACK):
        assert slack == _MIN_SLACK, (category, cls)
    else:
        assert abs(ratio_at(slack) - target) <= 1e-12 * target, (category, cls)


def _reference_fit(body, category, slack, resolution_scale):
    """Reference: every sleeve re-capped and re-checked at the fitted slack."""
    sleeves = _sleeves(body, category, resolution_scale)
    v_body = enclosed_volume(merge_meshes([cap_boundaries(s.mesh(0.0)) for s in sleeves]))
    v_garment = sum(enclosed_volume(cap_boundaries(s.mesh(slack))) for s in sleeves)
    return (v_garment - v_body) / v_body, merge_meshes([s.mesh(slack) for s in sleeves]).vertices


@pytest.mark.parametrize(
    "build, classes, resolution",
    [("female_average", range(1, 7), 1.0), ("male_large", (6,), 1.5)],
)
def test_fit_matches_per_evaluation_reference(build, classes, resolution):
    body = build_parametric_body(build)
    for category in ("tshirt", "trousers"):
        for cls in classes:
            g = generate_garment(body, (category,), cls, resolution_scale=resolution)
            (slack,) = g.slack
            ratio, vertices = _reference_fit(body, category, slack, resolution)
            _assert_on_aim(body, category, cls, resolution, slack)
            assert g.drape_ratio == ratio, (category, cls)
            assert np.array_equal(g.mesh.vertices, vertices), (category, cls)


def _piece_reference(body, category, slack, resolution_scale):
    """Reference: one category at its fitted slack as a garment of its own,
    with its zero-slack covered body kept for the merge."""
    sleeves = _sleeves(body, category, resolution_scale)
    covered = merge_meshes([s.capped(0.0) for s in sleeves])
    v_body = signed_volume(covered.vertices, covered.faces)
    return dict(
        mesh=merge_meshes([s.mesh(slack) for s in sleeves]),
        pinned=np.concatenate([s.pinned_mask() for s in sleeves]),
        binding=np.concatenate([s.vertex_joints() for s in sleeves]),
        covered=covered, slack=slack,
        ratio=(sum(s.capped_volume(slack) for s in sleeves) - v_body) / v_body,
    )


def _merge_reference(pieces):
    """Reference: separately fitted pieces merged, the drape ratio pooled
    over each piece's re-measured covered-body volume."""
    volumes = [enclosed_volume(p["covered"]) for p in pieces]
    v_body = sum(volumes)
    v_garment = sum((1.0 + p["ratio"]) * v for p, v in zip(pieces, volumes))
    return dict(
        mesh=merge_meshes([p["mesh"] for p in pieces]),
        pinned=np.concatenate([p["pinned"] for p in pieces]),
        binding=np.concatenate([p["binding"] for p in pieces]),
        ratio=(v_garment - v_body) / v_body,
        slack=tuple(p["slack"] for p in pieces),
    )


@pytest.mark.parametrize(
    "build, resolution", [("female_average", 1.0), ("female_small", 1.5), ("male_large", 1.5)]
)
def test_one_fit_matches_two_fits_and_merge(build, resolution):
    body = build_parametric_body(build)
    categories = ("tshirt", "trousers")
    for cls in range(1, 7):
        g = generate_garment(body, categories, cls, resolution_scale=resolution)
        ref = _merge_reference(
            [_piece_reference(body, c, slack, resolution) for c, slack in zip(categories, g.slack)]
        )
        assert np.array_equal(g.mesh.vertices, ref["mesh"].vertices), cls
        assert np.array_equal(g.mesh.faces, ref["mesh"].faces), cls
        assert np.array_equal(g.pinned, ref["pinned"]), cls
        assert np.array_equal(g.binding_joint, ref["binding"]), cls
        assert g.slack == ref["slack"], cls
        assert abs(g.drape_ratio - ref["ratio"]) <= 1e-14 * ref["ratio"], cls
        # The ratio of summed volumes, each sleeve re-capped and re-checked.
        v_body = v_garment = 0.0
        for category, slack in zip(categories, g.slack):
            # Each category is fitted on its own: alone it gets the same slack.
            assert generate_garment(body, (category,), cls, resolution_scale=resolution).slack == (slack,)
            _assert_on_aim(body, category, cls, resolution, slack)
            for s in _sleeves(body, category, resolution):
                v_body += enclosed_volume(cap_boundaries(s.mesh(0.0)))
                v_garment += enclosed_volume(cap_boundaries(s.mesh(slack)))
        want = (v_garment - v_body) / v_body
        assert abs(g.drape_ratio - want) <= 1e-12 * want, cls
        assert classify_drape(g.drape_ratio) == cls
