import numpy as np
import pytest

from drapebench.body import build_parametric_body
from drapebench.garment import (
    DrapeClassTable,
    GarmentSpec,
    classify_drape,
    generate_garment,
    measure_drape,
    merge_garments,
)
from drapebench.mesh import cap_boundaries, enclosed_volume, merge_meshes
from drapebench.primitives import open_cylinder


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


def test_smaller_garment_clamps_with_warning():
    body = capped_cylinder(0.1, 0.6)
    tight = capped_cylinder(0.08, 0.6)
    with pytest.warns(UserWarning, match="clamping"):
        assert measure_drape(tight, body) == 0.0


def test_classify_boundaries():
    table = DrapeClassTable()
    assert classify_drape(0.0) == 1
    assert classify_drape(0.05) == 2  # lower boundary belongs to the class above
    assert classify_drape(0.15) == 3
    assert classify_drape(0.30) == 4
    assert classify_drape(0.60) == 5
    assert classify_drape(1.00) == 6
    assert classify_drape(7.5) == 6
    with pytest.raises(ValueError):
        table.classify(-0.1)


def test_classify_monotone(rng):
    ratios = np.sort(rng.uniform(0.0, 2.0, size=50))
    classes = [classify_drape(float(r)) for r in ratios]
    assert all(a <= b for a, b in zip(classes, classes[1:]))


def test_table_validation():
    with pytest.raises(ValueError):
        DrapeClassTable((0.1, 0.05, 0.3, 0.6, 1.0))
    with pytest.raises(ValueError):
        DrapeClassTable((0.1, 0.2))


@pytest.mark.parametrize("target", [1, 6])
def test_generate_hits_target_class(body, target):
    g = generate_garment(body, GarmentSpec("tshirt", target, "female_average"))
    assert g.drape_class == target
    assert classify_drape(g.drape_ratio) == target


def test_class1_garment_hugs_body(body):
    from drapebench.body import body_capsules

    g = generate_garment(body, GarmentSpec("tshirt", 1, "female_average"))
    best = np.full(g.mesh.num_vertices, np.inf)
    for c in body_capsules(body.skeleton, body.build_label):
        d = c.p1 - c.p0
        denom = max(float(d @ d), 1e-18)
        t = np.clip(((g.mesh.vertices - c.p0) @ d) / denom, 0.0, 1.0)
        closest = c.p0 + t[:, None] * d[None, :]
        best = np.minimum(best, np.linalg.norm(g.mesh.vertices - closest, axis=-1) - c.radius)
    assert best.max() < 0.01


def test_generate_deterministic(body):
    a = generate_garment(body, GarmentSpec("trousers", 3, "female_average"))
    b = generate_garment(body, GarmentSpec("trousers", 3, "female_average"))
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
    assert a.slack == b.slack


def test_generated_garment_caps_watertight(body):
    g = generate_garment(body, GarmentSpec("unicloth", 4, "female_average"))
    capped = cap_boundaries(g.mesh)
    assert capped.is_watertight
    assert enclosed_volume(capped) > 0
    assert np.isfinite(g.drape_ratio)


def test_all_categories_and_classes(body):
    for category in ("tshirt", "trousers", "unicloth"):
        for cls in (2, 5):
            g = generate_garment(body, GarmentSpec(category, cls, "female_average"))
            assert g.drape_class == cls
            assert g.pinned.any()


def test_merge_requires_same_class(body):
    a = generate_garment(body, GarmentSpec("tshirt", 2, "female_average"))
    b = generate_garment(body, GarmentSpec("trousers", 3, "female_average"))
    with pytest.raises(ValueError, match="share"):
        merge_garments([a, b])


def test_merged_pair_shares_class(body):
    a = generate_garment(body, GarmentSpec("tshirt", 3, "female_average"))
    b = generate_garment(body, GarmentSpec("trousers", 3, "female_average"))
    combined = merge_garments([a, b])
    assert combined.drape_class == 3
    assert classify_drape(combined.drape_ratio) == 3
    assert combined.mesh.num_vertices == a.mesh.num_vertices + b.mesh.num_vertices


def test_spec_validation():
    with pytest.raises(ValueError):
        GarmentSpec("poncho", 3, "female_average")
    with pytest.raises(ValueError):
        GarmentSpec("tshirt", 7, "female_average")


def test_spec_for_another_build_refused():
    small = build_parametric_body("female_small")
    with pytest.raises(ValueError, match="'male_large', body is 'female_small'"):
        generate_garment(small, GarmentSpec("tshirt", 3, "male_large"))


def test_unreachable_target_reports_achieved_range(body):
    # Thresholds far beyond what any slack within bounds can reach.
    table = DrapeClassTable((1000.0, 2000.0, 3000.0, 4000.0, 5000.0))
    with pytest.raises(ValueError, match="unreachable.*range"):
        generate_garment(body, GarmentSpec("tshirt", 2, "female_average"), table)


def _reference_fit(body, spec, resolution_scale):
    """Reference: the bisection with every sleeve re-capped and re-checked per slack."""
    from drapebench.garment import _MAX_SLACK, _MIN_SLACK, _sleeves

    sleeves = _sleeves(body, spec.category, resolution_scale)
    v_body = enclosed_volume(merge_meshes([cap_boundaries(s.mesh(0.0)) for s in sleeves]))

    def ratio_at(slack):
        v = sum(enclosed_volume(cap_boundaries(s.mesh(slack))) for s in sleeves)
        return (v - v_body) / v_body

    target = DrapeClassTable().target_ratio(spec.target_class)
    lo, hi = _MIN_SLACK, _MAX_SLACK
    if target <= ratio_at(lo):
        slack = lo
    else:
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if ratio_at(mid) < target:
                lo = mid
            else:
                hi = mid
        slack = 0.5 * (lo + hi)
    return slack, ratio_at(slack), merge_meshes([s.mesh(slack) for s in sleeves]).vertices


@pytest.mark.parametrize(
    "build, classes, resolution",
    [("female_average", range(1, 7), 1.0), ("male_large", (6,), 1.5)],
)
def test_fit_matches_per_evaluation_reference(build, classes, resolution):
    body = build_parametric_body(build)
    for category in ("tshirt", "trousers"):
        for cls in classes:
            spec = GarmentSpec(category, cls, build)
            g = generate_garment(body, spec, resolution_scale=resolution)
            slack, ratio, vertices = _reference_fit(body, spec, resolution)
            assert g.slack == slack, (category, cls)
            assert g.drape_ratio == ratio, (category, cls)
            assert np.array_equal(g.mesh.vertices, vertices), (category, cls)
