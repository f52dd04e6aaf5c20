import numpy as np
import pytest

from drapebench import rotations as rot
from drapebench.garment import GarmentSpec, generate_garment
from drapebench.kinematics import procedural_motion, sequence_transforms
from drapebench.markers import (
    MarkerTrajectory,
    add_marker_noise,
    marker_pair_midpoints,
    place_markers,
    reconstruct_pose_from_markers,
    track_markers,
    trajectory_to_csv,
)
from drapebench.metrics import mpjpe


@pytest.fixture(scope="module")
def unclothed_specs(body):
    return place_markers(body, None)


def test_marker_count_and_pairing(unclothed_specs):
    assert len(unclothed_specs) == 48
    for j in range(24):
        a, b = unclothed_specs[2 * j], unclothed_specs[2 * j + 1]
        assert a.joint == b.joint == j
        assert (a.slot, b.slot) == ("A", "B")


def test_unclothed_markers_all_skin(unclothed_specs):
    assert all(s.target == "skin" for s in unclothed_specs)


def test_pairs_symmetric_about_joint(unclothed_specs):
    for j in range(24):
        a, b = unclothed_specs[2 * j], unclothed_specs[2 * j + 1]
        assert np.linalg.norm(a.rest_offset + b.rest_offset) < 1e-9


def test_unicloth_covers_all_markers(body):
    uni = generate_garment(body, GarmentSpec("unicloth", 3, "female_average"))
    specs = place_markers(body, uni.mesh)
    assert all(s.target == "cloth" for s in specs)


def test_tshirt_coverage_split(body):
    tee = generate_garment(body, GarmentSpec("tshirt", 3, "female_average"))
    specs = place_markers(body, tee.mesh)
    names = body.skeleton.joint_names
    targets = {}
    for s in specs:
        targets.setdefault(names[s.joint], set()).add(s.target)
    for joint in ("left_wrist", "right_wrist", "left_ankle", "right_ankle", "head",
                  "left_hand", "right_hand", "left_foot", "right_foot"):
        assert targets[joint] == {"skin"}, joint
    for joint in ("spine1", "spine2", "spine3", "left_shoulder", "right_shoulder",
                  "left_elbow", "right_elbow", "left_collar", "right_collar"):
        assert targets[joint] == {"cloth"}, joint


def test_static_skin_markers_constant(body, unclothed_specs):
    from drapebench.kinematics import MotionSequence

    seq = MotionSequence.rest(body.skeleton, num_frames=4)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, 30.0)
    assert np.abs(traj.positions - traj.positions[0]).max() < 1e-15


def test_rigid_translation_equivariance(body, unclothed_specs):
    seq = procedural_motion("basic", 0.5, 30, 3, body.skeleton)
    jp, jq = sequence_transforms(seq)
    base = track_markers(unclothed_specs, jp, jq, 30.0)
    moved = track_markers(unclothed_specs, jp + np.array([1.0, 2.0, 3.0]), jq, 30.0)
    assert np.abs(moved.positions - base.positions - np.array([1.0, 2.0, 3.0])).max() < 1e-12


def test_noiseless_midpoints_equal_joints(body, unclothed_specs):
    seq = procedural_motion("fast", 1.0, 30, 11, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, seq.fps)
    assert np.abs(marker_pair_midpoints(traj) - jp).max() < 1e-9


def test_end_to_end_noiseless_identity(body, unclothed_specs):
    seq = procedural_motion("basic", 2.0, 30, 11, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, seq.fps)
    est = reconstruct_pose_from_markers(traj, body.skeleton)
    est_jp, _ = sequence_transforms(est)
    assert mpjpe(jp, est_jp) < 1e-6


def test_reconstructed_bone_lengths_are_rest_lengths(body, unclothed_specs):
    seq = procedural_motion("basic", 0.5, 30, 2, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = add_marker_noise(track_markers(unclothed_specs, jp, jq, seq.fps), 8)
    est = reconstruct_pose_from_markers(traj, body.skeleton)
    est_jp, _ = sequence_transforms(est)
    sk = body.skeleton
    for j in range(1, sk.num_joints):
        lengths = np.linalg.norm(est_jp[:, j] - est_jp[:, sk.parents[j]], axis=-1)
        assert np.abs(lengths - np.linalg.norm(sk.rest_offsets[j])).max() < 1e-9


def test_reconstruction_equivariant_under_rigid_motion(body, unclothed_specs, rng):
    seq = procedural_motion("basic", 0.5, 30, 6, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = add_marker_noise(track_markers(unclothed_specs, jp, jq, seq.fps), 5)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    moved = MarkerTrajectory(rot.rotate(q, traj.positions) + t, traj.fps)
    base_fk, _ = sequence_transforms(reconstruct_pose_from_markers(traj, body.skeleton))
    moved_fk, _ = sequence_transforms(reconstruct_pose_from_markers(moved, body.skeleton))
    assert np.abs(moved_fk - (rot.rotate(q, base_fk) + t)).max() < 1e-9


def test_noise_rms_calibration(body, unclothed_specs):
    seq = procedural_motion("basic", 2.0, 30, 1, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, seq.fps)
    noisy = add_marker_noise(traj, seed=9)
    d = noisy.positions - traj.positions
    n_samples = d.shape[0] * d.shape[1]
    assert n_samples >= 2000
    rms = np.sqrt((np.linalg.norm(d, axis=-1) ** 2).mean())
    assert abs(rms - 0.005) / 0.005 < 0.05


def test_noise_deterministic_and_disableable(body, unclothed_specs):
    seq = procedural_motion("basic", 0.5, 30, 1, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, seq.fps)
    a = add_marker_noise(traj, seed=4)
    b = add_marker_noise(traj, seed=4)
    assert np.array_equal(a.positions, b.positions)
    off = add_marker_noise(traj, seed=4, rms_3d_m=0.0)
    assert np.array_equal(off.positions, traj.positions)
    assert off.noise_seed == 4


def test_cloth_frame_misalignment_rejected(body):
    tee = generate_garment(body, GarmentSpec("tshirt", 2, "female_average"))
    specs = place_markers(body, tee.mesh)
    seq = procedural_motion("basic", 0.5, 30, 3, body.skeleton)
    jp, jq = sequence_transforms(seq)
    with pytest.raises(ValueError, match="misaligned"):
        track_markers(specs, jp, jq, seq.fps, cloth_frames=[], garment_faces=tee.mesh.faces)


def test_reconstruct_requires_full_marker_set(body):
    traj = MarkerTrajectory(np.zeros((2, 10, 3)), 30.0)
    with pytest.raises(ValueError, match="markers"):
        reconstruct_pose_from_markers(traj, body.skeleton)


def test_csv_export(body, unclothed_specs):
    seq = procedural_motion("basic", 0.2, 30, 3, body.skeleton)
    jp, jq = sequence_transforms(seq)
    traj = track_markers(unclothed_specs, jp, jq, seq.fps)
    csv = trajectory_to_csv(traj)
    lines = csv.strip().splitlines()
    assert lines[0] == "frame,marker_id,x,y,z"
    assert len(lines) == 1 + traj.num_frames * 48
    frame, marker, x, y, z = lines[1].split(",")
    assert (frame, marker) == ("0", "0")
    assert float(x) == traj.positions[0, 0, 0]
