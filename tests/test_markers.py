import tracemalloc

import numpy as np
import pytest

from drapebench import bench, rotations as rot
from drapebench.bench import BenchConfig, MotionSpec, _load_motion, _simulate_garment
from drapebench.body import BUILD_CATALOG, _closest_on_segments, body_capsules, build_parametric_body
from drapebench.cloth import ClothState
from drapebench.garment import generate_garment
from drapebench.kinematics import procedural_motion, sequence_transforms
from drapebench.markers import (
    MARKER_BASE_HEIGHT,
    MarkerTrajectory,
    add_marker_noise,
    marker_pair_midpoints,
    place_markers,
    reconstruct_pose_from_markers,
    track_markers,
)
from drapebench.mesh import _ray_hits, _union_exit, face_components, surface_points
from drapebench.metrics import mpjpe


@pytest.fixture(scope="module")
def unclothed_placement(body):
    return place_markers(body, None)


def test_marker_count_and_pairing(unclothed_placement):
    assert unclothed_placement.num_markers == 48
    # Marker 2j is joint j's A (+lateral) marker, 2j + 1 its B marker.
    assert np.array_equal(unclothed_placement.joint, np.repeat(np.arange(24), 2))


def test_unclothed_markers_all_skin(unclothed_placement):
    assert not unclothed_placement.on_cloth.any()


def test_pairs_symmetric_about_joint(unclothed_placement):
    offsets = unclothed_placement.offset
    assert np.linalg.norm(offsets[0::2] + offsets[1::2], axis=-1).max() < 1e-9


def test_unicloth_covers_all_markers(body):
    uni = generate_garment(body, ("unicloth",), 3)
    assert place_markers(body, uni.mesh).on_cloth.all()


def test_tshirt_coverage_split(body):
    tee = generate_garment(body, ("tshirt",), 3)
    placement = place_markers(body, tee.mesh)
    names = body.skeleton.joint_names
    targets = {}
    for j, on_cloth in zip(placement.joint, placement.on_cloth):
        targets.setdefault(names[j], set()).add("cloth" if on_cloth else "skin")
    for joint in ("left_wrist", "right_wrist", "left_ankle", "right_ankle", "head",
                  "left_hand", "right_hand", "left_foot", "right_foot"):
        assert targets[joint] == {"skin"}, joint
    for joint in ("spine1", "spine2", "spine3", "left_shoulder", "right_shoulder",
                  "left_elbow", "right_elbow", "left_collar", "right_collar"):
        assert targets[joint] == {"cloth"}, joint


# The per-marker placement and tracking of the MarkerSpec / SurfacePoint
# objects that the placement record replaced, kept as the bit-level reference
# for cloth markers and tracking. Skin markers are checked against a marched
# oracle instead: the ray steps out until its point lies in no bone capsule.

MARCH_STEP = 1e-5


def _reference_exits(origins, directions, mesh):
    """(face, weights) where each ray leaves the enclosing union, else None."""
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    components = face_components(mesh)
    out = []
    for o, d in zip(origins, directions):
        hits = _ray_hits(o, d, v0, e1, e2)
        row = _union_exit(hits, components)
        if row is None:
            out.append(None)
            continue
        _, face, u, v = hits[row]
        u = min(max(u, 0.0), 1.0)
        v = min(max(v, 0.0), 1.0 - u)
        out.append((int(face), np.array([1.0 - u - v, u, v])))
    return out


def _marched_skin_exits(body, origins, directions, reach=0.3):
    """(K,) first marched t at which each ray's point lies in no bone capsule;
    the true union exit lies within one step before it."""
    capsules = body_capsules(body.skeleton, body.build_label)
    t = np.arange(1, int(round(reach / MARCH_STEP)) + 1) * MARCH_STEP
    out = []
    for o, d in zip(origins, directions):
        points = o + t[:, None] * d
        inside = np.zeros(len(t), dtype=bool)
        for c in capsules:
            inside |= _closest_on_segments(points, c.p0, c.p1 - c.p0)[2] <= c.radius
        assert not inside.all(), "ray still inside the body at the end of the march"
        out.append(t[np.argmin(inside)])
    return np.array(out)


def _reference_lateral_axis(bone_dir):
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b = bone_dir / np.linalg.norm(bone_dir)
    return x if abs(float(b @ z)) > 0.7 else z


def _reference_rays(body):
    """(joints, origins, directions) of the A-then-B marker rays per joint."""
    sk = body.skeleton
    rays = []
    for j in range(sk.num_joints):
        c = sk.primary_child(j)
        bone = sk.rest_offsets[c] if c is not None else sk.rest_offsets[j]
        lateral = _reference_lateral_axis(bone)
        for sign in (1.0, -1.0):
            rays.append((j, sign * lateral))
    joints = np.array([j for j, _ in rays])
    return joints, sk.rest_positions()[joints], np.array([d for _, d in rays])


def _reference_place(body, garment):
    """[(joint, target, face, weights, rest offset)] in A-then-B order per joint."""
    joint_pos = body.skeleton.rest_positions()
    joints, origins, directions = _reference_rays(body)
    cloth = _reference_exits(origins, directions, garment) if garment is not None else [None] * len(joints)
    skin = _marched_skin_exits(body, origins, directions)
    specs = []
    for j, direction, cloth_sp, t in zip(joints, directions, cloth, skin):
        if cloth_sp is not None:
            face, bary = cloth_sp
            pos = bary @ garment.vertices[garment.faces[face]]
            specs.append((j, "cloth", face, bary, pos - joint_pos[j]))
        else:
            specs.append((j, "skin", 0, np.array([1.0, 0.0, 0.0]), direction * (t + MARKER_BASE_HEIGHT)))
    return specs


def _reference_track(specs, joint_positions, joint_orientations, cloth_frames, garment_faces):
    out = np.empty((joint_positions.shape[0], len(specs), 3))
    frames = np.stack([s.positions for s in cloth_frames]) if cloth_frames else None
    for m, (j, target, face, bary, offset) in enumerate(specs):
        if target == "skin":
            out[:, m] = joint_positions[:, j] + rot.rotate(joint_orientations[:, j], offset)
        else:
            out[:, m] = bary @ frames[:, garment_faces[face]]
    return out


def _assert_matches_reference(body, garment, jp, jq, cloth_frames=None):
    placement = place_markers(body, garment)
    ref = _reference_place(body, garment)
    cloth = placement.on_cloth
    assert np.array_equal(placement.joint, [r[0] for r in ref])
    assert np.array_equal(cloth, [r[1] == "cloth" for r in ref])
    assert np.array_equal(placement.face, [r[2] for r in ref])
    assert np.array_equal(placement.barycentric, np.array([r[3] for r in ref]))
    ref_offset = np.array([r[4] for r in ref])
    assert np.array_equal(placement.offset[cloth], ref_offset[cloth])
    assert np.abs(placement.offset[~cloth] - ref_offset[~cloth]).max() <= 2 * MARCH_STEP
    # Tracking is bit-level against the per-marker loop, given the same offsets.
    ref = [(*r[:4], offset) for r, offset in zip(ref, placement.offset)]
    faces = garment.faces if garment is not None else None
    traj = track_markers(placement, jp, jq, 30.0, cloth_frames, faces)
    assert np.array_equal(traj.positions, _reference_track(ref, jp, jq, cloth_frames, faces))
    return placement


@pytest.mark.parametrize("label", sorted(BUILD_CATALOG))
def test_skin_offsets_match_marched_union_exit(label):
    body = build_parametric_body(label)
    placement = place_markers(body, None)
    _, origins, directions = _reference_rays(body)
    exits = _marched_skin_exits(body, origins, directions)
    assert exits.min() > MARCH_STEP  # every ray starts inside the body
    expected = directions * (exits + MARKER_BASE_HEIGHT)[:, None]
    assert np.abs(placement.offset - expected).max() <= 2 * MARCH_STEP
    # The A and B exits are the same distance, so a pair's midpoint is its joint.
    assert np.array_equal(placement.offset[0::2] + placement.offset[1::2], np.zeros((24, 3)))


def test_placement_and_tracking_match_reference_unclothed(body):
    seq = procedural_motion("fast", 0.5, 30, 4, body.skeleton)
    jp, jq = sequence_transforms(seq)
    _assert_matches_reference(body, None, jp, jq)


def test_placement_and_tracking_match_reference_tshirt(body, rng):
    tee = generate_garment(body, ("tshirt",), 3).mesh
    seq = procedural_motion("basic", 0.5, 30, 4, body.skeleton)
    jp, jq = sequence_transforms(seq)
    # Tracking gathers the cloth frames; any frames serve, so perturb the rest shape.
    frames = [
        ClothState(tee.vertices + rng.normal(0.0, 0.01, tee.vertices.shape), None, None)
        for _ in range(seq.num_frames)
    ]
    placement = _assert_matches_reference(body, tee, jp, jq, frames)
    assert placement.on_cloth.any() and not placement.on_cloth.all()


def test_placement_and_tracking_match_reference_merged_fast():
    config = BenchConfig(
        seed=1, motions=(MotionSpec("fast", duration_s=0.5, fps=30.0),),
        drape_classes=(6,), resolution_scale=1.0, warmup_s=0.2,
    )
    body = build_parametric_body("female_average")
    seq = _load_motion(config, config.motions[0], body.skeleton)
    jp, jq = sequence_transforms(seq)
    garment = generate_garment(body, config.garment_categories, 6)
    states = _simulate_garment(config, body, garment, seq, jp, jq)
    placement = _assert_matches_reference(body, garment.mesh, jp, jq, states)
    assert placement.on_cloth.sum() > 24


def test_tracking_stacks_only_the_markers_face_vertices():
    """Tracking reads only the vertices of the cloth markers' faces from each
    recorded frame: over about 100 frames of a 3204-vertex garment it
    allocates far less than one (T, N, 3) stack of whole frames, and gives
    that stack's marker positions bit for bit."""
    body = build_parametric_body("male_large")
    garment = generate_garment(body, ("tshirt", "trousers"), 6, resolution_scale=1.5).mesh
    seq = procedural_motion("basic", 3.3, 30, 2, body.skeleton)
    jp, jq = sequence_transforms(seq)
    rng = np.random.default_rng(3)
    frames = [
        ClothState(garment.vertices + rng.normal(0.0, 0.01, garment.vertices.shape), None, None)
        for _ in range(seq.num_frames)
    ]
    placement = place_markers(body, garment)
    tracemalloc.start()
    try:
        traj = track_markers(placement, jp, jq, seq.fps, frames, garment.faces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = np.stack([s.positions for s in frames])
    assert peak < stack.nbytes / 4
    cloth = placement.on_cloth
    assert cloth.any()
    want = surface_points(stack, garment.faces, placement.face[cloth], placement.barycentric[cloth])
    assert _same_bits(traj.positions[:, cloth], want)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_bone_frame_ride_matches_inline_formulas(body, monkeypatch):
    """Pin targets, the frame-0 guess and skin markers ride their joints'
    frames through one kernel; the inline formulas it replaced are kept here
    as the bit-level reference."""
    config = BenchConfig(
        seed=1, motions=(MotionSpec("fast", duration_s=0.5, fps=30.0),),
        drape_classes=(6,), resolution_scale=1.0, warmup_s=0.2,
    )
    seq = _load_motion(config, config.motions[0], body.skeleton)
    jp, jq = sequence_transforms(seq)
    garment = generate_garment(body, config.garment_categories, 6)
    captured = {}

    def capture(mesh, pinned, pin_frames, *args, initial_positions):
        captured.update(pin_frames=pin_frames, initial=initial_positions)
        return [ClothState(initial_positions, None, None)] * len(pin_frames)

    monkeypatch.setattr(bench, "simulate_sequence", capture)
    states = _simulate_garment(config, body, garment, seq, jp, jq)

    rest_pos = body.skeleton.rest_positions()
    pin_idx = np.nonzero(garment.pinned)[0]
    pin_joints = garment.binding_joint[pin_idx]
    local = garment.mesh.vertices[pin_idx] - rest_pos[pin_joints]
    pin_frames = jp[:, pin_joints] + rot.rotate(jq[:, pin_joints], local)
    assert _same_bits(captured["pin_frames"], pin_frames)
    all_local = garment.mesh.vertices - rest_pos[garment.binding_joint]
    q0 = jq[0, garment.binding_joint]
    initial = jp[0, garment.binding_joint] + rot.rotate(q0, all_local)
    assert _same_bits(captured["initial"], initial)

    placement = place_markers(body, garment.mesh)
    traj = track_markers(placement, jp, jq, seq.fps, states, garment.mesh.faces)
    skin = ~placement.on_cloth
    joint = placement.joint[skin]
    skin_markers = jp[:, joint] + rot.rotate(jq[:, joint], placement.offset[skin])
    assert skin.any() and placement.on_cloth.any()
    assert _same_bits(traj.positions[:, skin], skin_markers)


def test_static_skin_markers_constant(body, unclothed_placement):
    from drapebench.kinematics import MotionSequence

    seq = MotionSequence.rest(body.skeleton, num_frames=4)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_placement, jp, jq, 30.0)
    assert np.abs(traj.positions - traj.positions[0]).max() < 1e-15


def test_rigid_translation_equivariance(body, unclothed_placement):
    seq = procedural_motion("basic", 0.5, 30, 3, body.skeleton)
    jp, jq = sequence_transforms(seq)
    base = track_markers(unclothed_placement, jp, jq, 30.0)
    moved = track_markers(unclothed_placement, jp + np.array([1.0, 2.0, 3.0]), jq, 30.0)
    assert np.abs(moved.positions - base.positions - np.array([1.0, 2.0, 3.0])).max() < 1e-12


def test_noiseless_midpoints_equal_joints(body, unclothed_placement):
    seq = procedural_motion("fast", 1.0, 30, 11, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_placement, jp, jq, seq.fps)
    assert np.abs(marker_pair_midpoints(traj) - jp).max() < 1e-9


def test_end_to_end_noiseless_identity(body, unclothed_placement):
    seq = procedural_motion("basic", 2.0, 30, 11, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_placement, jp, jq, seq.fps)
    est = reconstruct_pose_from_markers(traj, body.skeleton)
    est_jp, _ = sequence_transforms(est)
    assert mpjpe(jp, est_jp) < 1e-6


def test_reconstructed_bone_lengths_are_rest_lengths(body, unclothed_placement):
    seq = procedural_motion("basic", 0.5, 30, 2, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = add_marker_noise(track_markers(unclothed_placement, jp, jq, seq.fps), 8)
    est = reconstruct_pose_from_markers(traj, body.skeleton)
    est_jp, _ = sequence_transforms(est)
    sk = body.skeleton
    for j in range(1, sk.num_joints):
        lengths = np.linalg.norm(est_jp[:, j] - est_jp[:, sk.parents[j]], axis=-1)
        assert np.abs(lengths - np.linalg.norm(sk.rest_offsets[j])).max() < 1e-9


def test_reconstruction_equivariant_under_rigid_motion(body, unclothed_placement, rng):
    seq = procedural_motion("basic", 0.5, 30, 6, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = add_marker_noise(track_markers(unclothed_placement, jp, jq, seq.fps), 5)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    moved = MarkerTrajectory(rot.rotate(q, traj.positions) + t, traj.fps)
    base_fk, _ = sequence_transforms(reconstruct_pose_from_markers(traj, body.skeleton))
    moved_fk, _ = sequence_transforms(reconstruct_pose_from_markers(moved, body.skeleton))
    assert np.abs(moved_fk - (rot.rotate(q, base_fk) + t)).max() < 1e-9


def test_noise_rms_calibration(body, unclothed_placement):
    seq = procedural_motion("basic", 2.0, 30, 1, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_placement, jp, jq, seq.fps)
    noisy = add_marker_noise(traj, seed=9)
    d = noisy.positions - traj.positions
    n_samples = d.shape[0] * d.shape[1]
    assert n_samples >= 2000
    rms = np.sqrt((np.linalg.norm(d, axis=-1) ** 2).mean())
    assert abs(rms - 0.005) / 0.005 < 0.05


def test_noise_deterministic_and_disableable(body, unclothed_placement):
    seq = procedural_motion("basic", 0.5, 30, 1, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_placement, jp, jq, seq.fps)
    a = add_marker_noise(traj, seed=4)
    b = add_marker_noise(traj, seed=4)
    assert np.array_equal(a.positions, b.positions)
    off = add_marker_noise(traj, seed=4, rms_3d_m=0.0)
    assert np.array_equal(off.positions, traj.positions)


@pytest.mark.parametrize("rms", [-0.001, float("nan"), float("inf"), float("-inf")])
def test_noise_rms_must_be_non_negative_and_finite(rms):
    traj = MarkerTrajectory(np.zeros((2, 48, 3)), 30.0)
    with pytest.raises(ValueError, match=f"rms_3d_m must be non-negative and finite, got {rms!r}"):
        add_marker_noise(traj, seed=1, rms_3d_m=rms)


def test_cloth_frame_misalignment_rejected(body):
    tee = generate_garment(body, ("tshirt",), 2)
    placement = place_markers(body, tee.mesh)
    seq = procedural_motion("basic", 0.5, 30, 3, body.skeleton)
    jp, jq = sequence_transforms(seq)
    with pytest.raises(ValueError, match="misaligned"):
        track_markers(placement, jp, jq, seq.fps, cloth_frames=[], garment_faces=tee.mesh.faces)


def test_reconstruct_requires_full_marker_set(body):
    traj = MarkerTrajectory(np.zeros((2, 10, 3)), 30.0)
    with pytest.raises(ValueError, match="markers"):
        reconstruct_pose_from_markers(traj, body.skeleton)
