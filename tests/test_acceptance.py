"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The timed criteria measure
wall time on whatever hardware runs them; the sweep budget assumes a small
multicore desktop.
"""

import json
import time

import numpy as np
from scipy.spatial.transform import Rotation as R

from drapebench.bench import (
    BenchConfig,
    MethodSpec,
    MotionSpec,
    report_to_csv,
    run_benchmark,
    run_cell,
)
from drapebench.body import body_capsules, build_parametric_body
from drapebench.bvh import parse_bvh, write_bvh
from drapebench.cloth import (
    ClothParams,
    max_capsule_penetration,
    simulate_sequence,
)
from drapebench.estimates import estimate_from_sequence, export_estimate, ingest_estimates
from drapebench.garment import generate_garment, measure_drape
from drapebench.kinematics import (
    MotionSequence,
    default_skeleton,
    procedural_motion,
    sequence_transforms,
)
from drapebench.markers import (
    add_marker_noise,
    marker_pair_midpoints,
    place_markers,
    track_markers,
)
from drapebench.mesh import cap_boundaries, enclosed_volume
from drapebench.metrics import angles_from_positions, crmse, mpjpe

from conftest import icosphere, open_cylinder, unit_cube


def _ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_metric_oracles():
    gt = np.zeros((4, 24, 3))
    assert mpjpe(gt, gt) == 0.0
    est = gt + np.array([0.03, 0.04, 0.0])
    assert abs(mpjpe(gt, est) - 0.05) < 1e-9
    for delta_deg in (5.0, 10.0, 60.0, 120.0, 180.0):
        delta = np.deg2rad(delta_deg)
        value, degrees = crmse(np.zeros((2, 19)), np.full((2, 19), delta))
        assert abs(value - np.sqrt(1.0 - np.cos(delta))) < 1e-12
        assert abs(degrees - delta_deg) < 1e-9
    _ok(1, "MPJPE analytic cases exact to 1e-9; CRMSE constant-delta to 1e-12 with exact degree inversion")


def test_criterion_2_fk_oracle():
    skeleton = default_skeleton()
    rng = np.random.default_rng(99)
    tic = time.perf_counter()
    q = rng.normal(size=(100, 24, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    seq = MotionSequence(skeleton, 30.0, rng.normal(size=(100, 3)), q)
    ours, _ = sequence_transforms(seq)
    worst = 0.0
    for t in range(seq.num_frames):
        transforms = np.zeros((24, 4, 4))
        for i in range(24):
            local = np.eye(4)
            qi = seq.local_rotations[t, i]
            local[:3, :3] = R.from_quat([qi[1], qi[2], qi[3], qi[0]]).as_matrix()
            local[:3, 3] = seq.root_translations[t] if i == 0 else skeleton.rest_offsets[i]
            p = skeleton.parents[i]
            transforms[i] = local if p < 0 else transforms[p] @ local
        worst = max(worst, float(np.abs(ours[t] - transforms[:, :3, 3]).max()))
    elapsed = time.perf_counter() - tic
    assert worst < 1e-9
    assert elapsed < 1.0
    _ok(2, f"a 100-frame random sequence matches the matrix-chain oracle to {worst:.1e} m in {elapsed:.2f}s")


def test_criterion_3_volume_oracles():
    tic = time.perf_counter()
    assert enclosed_volume(unit_cube()) == 1.0
    sphere_v = enclosed_volume(icosphere(1.0, 4))
    sphere_exact = 4.0 * np.pi / 3.0
    assert abs(sphere_v - sphere_exact) / sphere_exact < 0.01
    cyl = cap_boundaries(open_cylinder(0.1, 0.5, 64, 6))
    cyl_exact = np.pi * 0.1**2 * 0.5
    assert abs(enclosed_volume(cyl) - cyl_exact) / cyl_exact < 0.02
    elapsed = time.perf_counter() - tic
    assert elapsed < 1.0
    _ok(3, f"cube exact, icosphere {abs(sphere_v-sphere_exact)/sphere_exact:.2%}, cylinder within 2%, in {elapsed:.2f}s")


def test_criterion_4_drape_oracle():
    body = cap_boundaries(open_cylinder(0.10, 0.6, 48, 6))
    shell = cap_boundaries(open_cylinder(0.11, 0.6, 48, 6))
    ratio = measure_drape(shell, body)
    assert abs(ratio - 0.21) / 0.21 < 0.02
    previous = -1.0
    for r in np.linspace(0.105, 0.22, 10):
        v = measure_drape(cap_boundaries(open_cylinder(float(r), 0.6, 48, 6)), body)
        assert v > previous
        previous = v
    _ok(4, f"coaxial cylinder drape {ratio:.4f} (target 0.21 +/- 2%); monotone over 10 slacks")


def test_criterion_5_closed_loop_identity():
    tic = time.perf_counter()
    body = build_parametric_body("female_average")
    seq = procedural_motion("basic", 2.0, 30, 21, body.skeleton)
    jp, jq = sequence_transforms(seq)
    placement = place_markers(body, None)
    assert not placement.on_cloth.any()
    traj = track_markers(placement, jp, jq, seq.fps)
    est_pos = marker_pair_midpoints(traj)
    err = mpjpe(jp, est_pos)
    gt_ang, gt_mask = angles_from_positions(body.skeleton, jp)
    est_ang, est_mask = angles_from_positions(body.skeleton, est_pos)
    _, degrees = crmse(gt_ang, est_ang, gt_mask & est_mask)
    elapsed = time.perf_counter() - tic
    assert err < 1e-6
    assert degrees < 0.01
    assert elapsed < 10.0
    _ok(5, f"noise-free skin pipeline: MPJPE {err:.2e} m, CRMSE {degrees:.2e} deg, {elapsed:.1f}s")


def test_criterion_6_noise_calibration():
    sigma_axis = 0.005 / np.sqrt(3.0)
    samples = np.random.default_rng(123).normal(0.0, sigma_axis, size=(100000, 3))
    rms = np.sqrt((np.linalg.norm(samples, axis=1) ** 2).mean())
    assert abs(rms - 0.005) / 0.005 < 0.02

    body = build_parametric_body("female_average")
    seq = procedural_motion("basic", 2.0, 30, 21, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(place_markers(body, None), jp, jq, seq.fps)
    seed = 4242
    noisy = add_marker_noise(traj, seed)
    pipeline = mpjpe(jp, marker_pair_midpoints(noisy))
    # Monte Carlo oracle, same seed: draw the identical noise stream and push
    # it through plain pair averaging onto the true joints.
    draws = np.random.default_rng(seed).normal(0.0, sigma_axis, size=traj.positions.shape)
    oracle_mid = jp + 0.5 * (draws[:, 0::2] + draws[:, 1::2])
    total, count = 0.0, 0
    for t in range(jp.shape[0]):
        for j in range(jp.shape[1]):
            total += float(np.linalg.norm(oracle_mid[t, j] - jp[t, j]))
            count += 1
    oracle = total / count
    assert abs(pipeline - oracle) / oracle < 0.05
    _ok(6, f"noise RMS {rms*1000:.3f} mm (target 5 +/- 2%); noisy MPJPE {pipeline*1000:.2f} mm vs oracle {oracle*1000:.2f} mm")


def test_criterion_7_drape_monotonicity():
    tic = time.perf_counter()
    cfg = BenchConfig(
        seed=7,
        motions=(MotionSpec("basic", duration_s=5.0, fps=30.0),),
        builds=("female_average",),
        drape_classes=(1, 2, 3, 4, 5, 6),
        methods=(MethodSpec("marker_based"),),
        warmup_s=2.0,
        resolution_scale=1.3,  # ~2k cloth particles
    )
    all_m = []
    cloth_m = []
    for drape in cfg.drape_classes:
        cell = run_cell(cfg, cfg.motions[0], "female_average", drape, cfg.methods[0])
        assert cell.status == "ok", cell.error
        all_m.append(cell.variants["all_markers"]["mpjpe_m"])
        cloth_m.append(cell.variants["cloth_only"]["mpjpe_m"])
    elapsed = time.perf_counter() - tic
    for k in range(1, 6):
        assert all_m[k] >= 0.95 * all_m[k - 1], (k + 1, all_m)
    for k in range(2, 6):
        assert cloth_m[k] > all_m[k], (k + 1, cloth_m[k], all_m[k])
    assert elapsed < 300.0
    trend = " -> ".join(f"{m*100:.2f}" for m in all_m)
    _ok(7, f"MPJPE cm by class: {trend}; cloth-only exceeds all-marker at classes >= 3; {elapsed:.0f}s")


def test_criterion_8_cloth_stability():
    # Zero-gravity rest state is a fixed point.
    verts = np.array([[0, 0, 0], [0.1, 0, 0], [0.1, 0.1, 0], [0, 0.1, 0]], dtype=float)
    mesh_faces = np.array([[0, 1, 2], [0, 2, 3]])
    from drapebench.mesh import TriMesh

    mesh = TriMesh(verts, mesh_faces)
    rest, stepped = simulate_sequence(
        mesh, np.zeros(4, dtype=bool), np.zeros((2, 0, 3)), [[], []],
        ClothParams(gravity=0.0), 60.0, warmup=0.0,
    )
    assert np.array_equal(rest.positions, verts)
    drift = np.abs(stepped.positions - rest.positions).max()
    assert drift < 1e-12

    body = build_parametric_body("female_average")
    garment = generate_garment(body, ("tshirt",), 3)
    caps = body_capsules(body.skeleton, body.build_label)
    frames = 90
    pin_idx = np.nonzero(garment.pinned)[0]
    pins = np.repeat(garment.mesh.vertices[pin_idx][None], frames, axis=0)
    states = simulate_sequence(
        garment.mesh, garment.pinned, pins, [caps] * frames, ClothParams(), 30.0, warmup=2.0
    )
    inter = np.abs(states[-1].positions - states[-2].positions).max()
    pen = max_capsule_penetration(states[-1].positions, caps)
    assert inter < 1e-4
    assert pen < 1e-3
    _ok(8, f"zero-g fixed point drift {drift:.1e}; settled inter-frame {inter*1000:.4f} mm; penetration {pen*1000:.3f} mm")


def _determinism_config():
    return BenchConfig(
        seed=31,
        motions=(MotionSpec("basic", duration_s=1.5, fps=30.0),),
        builds=("male_average",),
        drape_classes=(1, 3),
        methods=(MethodSpec("marker_based"), MethodSpec("markerless_surrogate")),
        resolution_scale=0.8,
        warmup_s=0.5,
    )


def test_criterion_9_determinism_and_cell_independence():
    cfg = _determinism_config()
    first = run_benchmark(cfg)
    second = run_benchmark(cfg)
    assert first.body_json().encode() == second.body_json().encode()
    assert report_to_csv(first).encode() == report_to_csv(second).encode()
    alone = run_cell(cfg, cfg.motions[0], "male_average", 3, cfg.methods[0])
    row = [c for c in first.cells if c.key() == alone.key()][0]
    assert json.dumps(alone.to_dict(), sort_keys=True) == json.dumps(row.to_dict(), sort_keys=True)
    _ok(9, "two identical runs byte-identical; isolated cell rerun matches its sweep row")


def test_criterion_10_interchange_and_sweep():
    skeleton = default_skeleton()
    seq = procedural_motion("fast", 1.0, 30, 2, skeleton)
    once = parse_bvh(write_bvh(seq))
    twice = parse_bvh(write_bvh(once))
    from drapebench import rotations as rot

    assert np.abs(once.root_translations - twice.root_translations).max() < 1e-4
    ea = rot.to_euler_zxy(once.local_rotations, degrees=True)
    eb = rot.to_euler_zxy(twice.local_rotations, degrees=True)
    assert np.abs(ea - eb).max() < 1e-4

    est = estimate_from_sequence(seq)
    back = ingest_estimates(export_estimate(est))
    assert np.abs(back.positions - est.positions).max() < 1e-6

    cfg = BenchConfig(
        seed=1,
        motions=(
            MotionSpec("basic", duration_s=10.0, fps=30.0),
            MotionSpec("fast", duration_s=10.0, fps=30.0),
            MotionSpec("extreme", duration_s=10.0, fps=30.0),
        ),
        builds=("female_average",),
        drape_classes=(1, 2, 3, 4, 5, 6),
        methods=(MethodSpec("marker_based"), MethodSpec("markerless_surrogate")),
        workers=2,
    )
    tic = time.perf_counter()
    report = run_benchmark(cfg)
    elapsed = time.perf_counter() - tic
    assert len(report.cells) == 36
    failed = report.failed_cells
    assert not failed, [(c.key(), c.error) for c in failed]
    assert elapsed < 600.0
    _ok(10, f"BVH and estimate round trips in tolerance; 6x3x2 sweep of 10 s clips in {elapsed:.0f}s")
