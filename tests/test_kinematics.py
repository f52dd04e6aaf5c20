import re

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as R

from drapebench import kinematics, rotations as rot
from drapebench.bvh import parse_bvh, write_bvh
from drapebench.kinematics import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    max_joint_angle,
    max_joint_speed,
    poses_from_joint_positions,
    procedural_motion,
    rescale_to_height,
    sequence_transforms,
)


def matrix_chain_fk(skeleton, root_translation, local_rotations):
    """Independent FK oracle for one frame: 4x4 transforms chained with scipy."""
    j = skeleton.num_joints
    transforms = np.zeros((j, 4, 4))
    for i in range(j):
        q = local_rotations[i]
        local = np.eye(4)
        local[:3, :3] = R.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        local[:3, 3] = root_translation if i == 0 else skeleton.rest_offsets[i]
        p = skeleton.parents[i]
        transforms[i] = local if p < 0 else transforms[p] @ local
    return transforms[:, :3, 3]


def random_motion(skeleton, rng, frames):
    q = rng.normal(size=(frames, skeleton.num_joints, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return MotionSequence(skeleton, 30.0, rng.normal(size=(frames, 3)), q)


def test_fk_identity_is_cumulative_offsets(skeleton):
    pos, orient = sequence_transforms(MotionSequence.rest(skeleton, num_frames=2))
    assert np.array_equal(pos[0], pos[1])
    assert np.array_equal(pos[0], skeleton.rest_positions())
    pos = pos[0]
    for j in range(skeleton.num_joints):
        expected = np.zeros(3)
        i = j
        while i > 0:
            expected += skeleton.rest_offsets[i]
            i = skeleton.parents[i]
        assert np.allclose(pos[j], expected, atol=1e-12)
    assert np.allclose(orient[..., 0], 1.0)


def test_fk_two_joint_rotation():
    sk = Skeleton(("root", "tip"), (-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    q = np.stack([rot.from_axis_angle([0, 0, 1], np.pi / 2), rot.IDENTITY])
    pos, _ = sequence_transforms(MotionSequence(sk, 30.0, np.zeros((1, 3)), q[None]))
    assert np.allclose(pos[0, 1], [0.0, 1.0, 0.0], atol=1e-12)


def test_fk_matches_matrix_chain_oracle(skeleton, rng):
    seq = random_motion(skeleton, rng, 100)
    ours, _ = sequence_transforms(seq)
    for t in range(seq.num_frames):
        oracle = matrix_chain_fk(skeleton, seq.root_translations[t], seq.local_rotations[t])
        assert np.abs(ours[t] - oracle).max() < 1e-9


def test_fk_preserves_bone_lengths(skeleton, rng):
    pos, _ = sequence_transforms(random_motion(skeleton, rng, 20))
    for j in range(1, skeleton.num_joints):
        p = skeleton.parents[j]
        length = np.linalg.norm(pos[:, j] - pos[:, p], axis=-1)
        assert np.abs(length - np.linalg.norm(skeleton.rest_offsets[j])).max() < 1e-9


def test_fk_rejects_topology_mismatch(skeleton):
    small = MotionSequence.rest(Skeleton(("a", "b"), (-1, 0), np.array([[0.0, 0, 0], [1.0, 0, 0]])))
    with pytest.raises(ValueError, match=r"^local_rotations has shape \(1, 2, 4\), expected \(any, 24, 4\)$"):
        MotionSequence(skeleton, 30.0, small.root_translations, small.local_rotations)


def test_default_skeleton_shape(skeleton):
    assert skeleton.num_joints == 24
    assert skeleton.parents[0] == -1
    assert abs(skeleton.rest_height() - 1.70) < 1e-12
    assert skeleton.joint_names[0] == "pelvis"


def test_skeleton_rejects_cycles_and_bad_roots():
    with pytest.raises(ValueError):
        Skeleton(("a", "b"), (1, 0), np.ones((2, 3)))
    with pytest.raises(ValueError):
        Skeleton(("a", "b"), (-1, -1), np.ones((2, 3)))


def test_skeleton_refuses_repeated_joint_names():
    with pytest.raises(ValueError, match="joint name 'hips' repeats"):
        Skeleton(("hips", "chest", "hips"), (-1, 0, 1), np.ones((3, 3)))


BAD_SIZES = [0.0, -1.7, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("height", BAD_SIZES)
def test_heights_must_be_positive_and_finite(skeleton, height):
    with pytest.raises(ValueError, match=f"height must be positive and finite, got {height!r}"):
        default_skeleton(height)
    with pytest.raises(ValueError, match=f"target_height must be positive and finite, got {height!r}"):
        rescale_to_height(MotionSequence.rest(skeleton), height)


@pytest.mark.parametrize("argument", ["duration", "fps"])
@pytest.mark.parametrize("value", BAD_SIZES)
def test_procedural_motion_refuses_a_bad_duration_or_rate_before_any_work(monkeypatch, argument, value):
    def no_work(*args):
        raise AssertionError("the skeleton was built before the inputs were checked")

    monkeypatch.setattr(kinematics, "default_skeleton", no_work)
    kwargs = {"duration": 1.0, "fps": 30.0, argument: value}
    with pytest.raises(ValueError, match=f"{argument} must be positive and finite, got {value!r}"):
        procedural_motion("basic", seed=1, **kwargs)


@pytest.mark.parametrize("duration, fps, frames", [(0.01, 30.0, 0), (0.04, 30.0, 1), (1.0, 1.4, 1)])
def test_procedural_motion_refuses_a_clip_shorter_than_two_frames(skeleton, duration, fps, frames):
    want = f"duration {duration!r} s at {fps!r} fps gives {frames} frames; a clip needs at least 2"
    with pytest.raises(ValueError, match=re.escape(want)):
        procedural_motion("basic", duration, fps, 1, skeleton)
    assert len(procedural_motion("basic", 0.05, 30.0, 1, skeleton).root_translations) == 2


def test_procedural_motion_refuses_a_frame_count_that_overflows(skeleton):
    with pytest.raises(ValueError, match=r"duration \* fps must be positive and finite, got inf"):
        procedural_motion("basic", 1e308, 30.0, 1, skeleton)


def test_rescale_identity(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 5, skeleton)
    same = rescale_to_height(seq, 1.70)
    assert np.abs(same.skeleton.rest_offsets - skeleton.rest_offsets).max() < 1e-12


def test_rescale_doubles(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 5, skeleton)
    half = rescale_to_height(seq, 0.85)
    assert np.abs(half.skeleton.rest_offsets * 2 - skeleton.rest_offsets).max() < 1e-12
    assert np.abs(half.root_translations * 2 - seq.root_translations).max() < 1e-12
    assert np.array_equal(half.local_rotations, seq.local_rotations)


def test_rescale_round_trip_positions(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 9, skeleton)
    back = rescale_to_height(rescale_to_height(seq, 0.85), 1.70)
    orig, _ = sequence_transforms(seq)
    again, _ = sequence_transforms(back)
    assert np.abs(orig - again).max() < 1e-9


def test_procedural_deterministic(skeleton):
    a = procedural_motion("basic", 2.0, 30, 7, skeleton)
    b = procedural_motion("basic", 2.0, 30, 7, skeleton)
    assert np.array_equal(a.local_rotations, b.local_rotations)
    assert np.array_equal(a.root_translations, b.root_translations)


def test_fast_is_faster_than_basic(skeleton):
    for seed in (1, 7, 23):
        basic = procedural_motion("basic", 2.0, 30, seed, skeleton)
        fast = procedural_motion("fast", 2.0, 30, seed, skeleton)
        assert max_joint_speed(fast) > max_joint_speed(basic)


def test_extreme_exceeds_120_degrees(skeleton):
    for seed in (1, 7, 23):
        ext = procedural_motion("extreme", 2.0, 30, seed, skeleton)
        assert np.rad2deg(max_joint_angle(ext)) > 120.0


def test_procedural_amplitude_bounds(skeleton):
    basic = procedural_motion("basic", 2.0, 30, 3, skeleton)
    assert np.rad2deg(max_joint_angle(basic)) <= 45.0
    fast = procedural_motion("fast", 2.0, 30, 3, skeleton)
    assert np.rad2deg(max_joint_angle(fast)) <= 90.0


def test_swing_recovery_round_trip(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 17, skeleton)
    positions, _ = sequence_transforms(seq)
    root, local_rotations, observed = poses_from_joint_positions(skeleton, positions)
    redone, _ = sequence_transforms(MotionSequence(skeleton, seq.fps, root, local_rotations))
    assert np.abs(redone - positions).max() < 1e-9
    assert observed[:, 0].all()


def test_swing_recovery_equivariance(skeleton, rng):
    seq = procedural_motion("basic", 0.5, 30, 4, skeleton)
    positions, _ = sequence_transforms(seq)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.normal(size=3)
    moved = rot.rotate(q, positions) + t
    base_fk = _recovered_fk(skeleton, positions)
    moved_fk = _recovered_fk(skeleton, moved)
    assert np.abs(moved_fk - (rot.rotate(q, base_fk) + t)).max() < 1e-9


def _recovered_fk(skeleton, positions, valid=None):
    root, local_rotations, _ = poses_from_joint_positions(skeleton, positions, valid)
    return sequence_transforms(MotionSequence(skeleton, 30.0, root, local_rotations))[0]


def test_motion_sequence_validation(skeleton):
    rest = MotionSequence.rest(skeleton, num_frames=3)
    root, q = rest.root_translations, rest.local_rotations
    for fps in (0.0, -30.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"fps must be positive and finite, got {fps!r}"):
            MotionSequence(skeleton, fps, root, q)
    with pytest.raises(ValueError, match="at least one frame"):
        MotionSequence(skeleton, 30.0, root[:0], q[:0])
    with pytest.raises(ValueError, match="motion_class"):
        MotionSequence(skeleton, 30.0, root, q, "jogging")
    with pytest.raises(ValueError, match=r"^root_translations has shape \(2, 3\), expected \(3, 3\)$"):
        MotionSequence(skeleton, 30.0, root[:2], q)
    bad = q.copy()
    bad[1, 5, 0] += 1e-8
    with pytest.raises(ValueError, match="unit quaternions"):
        MotionSequence(skeleton, 30.0, root, bad)
    bad[1, 5, 0] = 1.0 + 5e-10
    assert MotionSequence(skeleton, 30.0, root, bad).num_frames == 3
    for value in (np.nan, np.inf, -np.inf):
        bad = q.copy()
        bad[1, 5, 2] = value
        with pytest.raises(ValueError, match=rf"^local_rotations must be finite; entry \[1, 5, 2\] is {value}$"):
            MotionSequence(skeleton, 30.0, root, bad)
        moved = root.copy()
        moved[2, 1] = value
        with pytest.raises(ValueError, match="root_translations must be finite"):
            MotionSequence(skeleton, 30.0, moved, q)
        offsets = skeleton.rest_offsets.copy()
        offsets[3, 0] = value
        with pytest.raises(ValueError, match="rest_offsets must be finite"):
            Skeleton(skeleton.joint_names, skeleton.parents, offsets)


def test_rest_positions_match_fk_bit_for_bit():
    from drapebench.body import BUILD_CATALOG, body_skeleton

    for label in BUILD_CATALOG:
        sk = body_skeleton(label)
        pos, _ = sequence_transforms(MotionSequence.rest(sk))
        assert np.array_equal(sk.rest_positions(), pos[0]), label


def test_swing_recovery_masks_unusable_bones(skeleton, rng):
    """Invalid joints and degenerate bones fall back to identity, frame by frame."""
    seq = procedural_motion("fast", 1.0, 30, 8, skeleton)
    positions, _ = sequence_transforms(seq)
    valid = rng.uniform(size=positions.shape[:2]) > 0.25
    knee = skeleton.joint_names.index("left_knee")
    hip = skeleton.joint_names.index("left_hip")
    positions[3, knee] = positions[3, hip]  # a zero-length bone in frame 3
    root, local_rotations, observed = poses_from_joint_positions(skeleton, positions, valid)
    assert not observed[3, hip]
    assert np.array_equal(root[~valid[:, 0]], np.zeros(((~valid[:, 0]).sum(), 3)))
    unobserved = local_rotations[~observed]
    assert np.array_equal(unobserved, np.tile([1.0, 0.0, 0.0, 0.0], (len(unobserved), 1)))
    for j in range(1, skeleton.num_joints):
        c = skeleton.primary_children[j]
        want = np.zeros(len(valid), dtype=bool) if c is None else valid[:, j] & valid[:, c]
        if j == hip:
            want[3] = False
        assert np.array_equal(observed[:, j], want), skeleton.joint_names[j]
    # The root is fit from every usable child bone: 2 or more vote through
    # the Procrustes fit, 1 gives a swing, 0 leaves it unobserved.
    kids = skeleton.children(0)
    n_usable = (valid[:, :1] & valid[:, kids]).sum(axis=1)
    assert np.array_equal(observed[:, 0], n_usable >= 1)
    assert {0, 1, 2, 3} <= set(n_usable.tolist())


def _loop_fk(seq):
    """Reference FK: one frame and one joint at a time."""
    sk = seq.skeleton
    positions = np.empty(seq.local_rotations.shape[:2] + (3,))
    orientations = np.empty_like(seq.local_rotations)
    for t in range(seq.num_frames):
        positions[t, 0] = seq.root_translations[t]
        orientations[t, 0] = seq.local_rotations[t, 0]
        for i in range(1, sk.num_joints):
            p = sk.parents[i]
            positions[t, i] = positions[t, p] + rot.rotate(orientations[t, p], sk.rest_offsets[i])
            orientations[t, i] = rot.multiply(orientations[t, p], seq.local_rotations[t, i])
    return positions, orientations


def _loop_swing_recovery(skeleton, positions, valid):
    """Reference swing recovery: one frame and one joint at a time."""
    t_count, j_count = valid.shape
    root = np.zeros((t_count, 3))
    locals_q = np.tile([1.0, 0.0, 0.0, 0.0], (t_count, j_count, 1))
    observed = np.zeros((t_count, j_count), dtype=bool)
    for t in range(t_count):
        p, ok = positions[t], valid[t]
        kids = [c for c in skeleton.children(0)
                if ok[0] and ok[c] and np.linalg.norm(p[c] - p[0]) > 1e-12]
        if len(kids) >= 2:
            rest = skeleton.rest_offsets[kids]
            rest = rest / np.linalg.norm(rest, axis=1, keepdims=True)
            obs = p[kids] - p[0]
            obs = obs / np.linalg.norm(obs, axis=1, keepdims=True)
            u, _, vt = np.linalg.svd(obs.T @ rest)
            d = np.sign(np.linalg.det(u @ vt))
            locals_q[t, 0] = rot.from_matrix(u @ np.diag([1.0, 1.0, d]) @ vt)
        elif len(kids) == 1:
            locals_q[t, 0] = rot.between(skeleton.rest_offsets[kids[0]], p[kids[0]] - p[0])
        observed[t, 0] = len(kids) > 0
        globals_q = np.empty((j_count, 4))
        globals_q[0] = locals_q[t, 0]
        for j in range(1, j_count):
            parent, c = skeleton.parents[j], skeleton.primary_children[j]
            if c is not None and ok[j] and ok[c] and np.linalg.norm(p[c] - p[j]) > 1e-12:
                d_parent = rot.rotate(rot.conjugate(globals_q[parent]), p[c] - p[j])
                locals_q[t, j] = rot.between(skeleton.rest_offsets[c], d_parent)
                observed[t, j] = True
            globals_q[j] = rot.multiply(globals_q[parent], locals_q[t, j])
        if ok[0]:
            root[t] = p[0]
    return root, locals_q, observed


def _depth_first_skeleton():
    """The SMPL body with its joints in the depth-first order write_bvh writes."""
    return parse_bvh(write_bvh(MotionSequence.rest(default_skeleton()))).skeleton


def _chain_skeleton():
    """Nine joints in one chain: one joint per depth."""
    rng = np.random.default_rng(7)
    offsets = rng.normal(0.0, 0.2, (9, 3))
    offsets[0] = 0.0
    return Skeleton(tuple(f"j{i}" for i in range(9)), (-1, *range(8)), offsets)


TOPOLOGIES = {"smpl": default_skeleton, "depth_first": _depth_first_skeleton, "chain": _chain_skeleton}


@pytest.fixture(params=list(TOPOLOGIES))
def topology(request):
    return TOPOLOGIES[request.param]()


def test_fk_matches_per_frame_loop_bit_for_bit(rng):
    for make in TOPOLOGIES.values():
        seq = random_motion(make(), rng, 50)
        for ours, loop in zip(sequence_transforms(seq), _loop_fk(seq)):
            assert np.array_equal(ours, loop)


def test_swing_recovery_matches_per_frame_loop_bit_for_bit(skeleton, rng):
    seq = procedural_motion("extreme", 1.0, 30, 3, skeleton)
    positions, _ = sequence_transforms(seq)
    positions = positions + rng.normal(0.0, 0.01, positions.shape)
    valid = rng.uniform(size=positions.shape[:2]) > 0.3
    ours = poses_from_joint_positions(skeleton, positions, valid)
    for got, want in zip(ours, _loop_swing_recovery(skeleton, positions, valid)):
        assert np.array_equal(got, want)


def test_swing_recovery_with_a_depth_masked_out_matches_per_frame_loop_bit_for_bit(topology, rng):
    sk = topology
    positions, _ = sequence_transforms(random_motion(sk, rng, 40))
    positions = positions + rng.normal(0.0, 0.01, positions.shape)
    valid = rng.uniform(size=positions.shape[:2]) > 0.2
    # No bone from or to depth 3 is usable in any frame, so two depths find
    # nothing to swing; depth 5 loses its joints in some frames only.
    valid[:, sk.depths[2].joints] = False
    valid[::3, sk.depths[4].joints] = False
    ours = poses_from_joint_positions(sk, positions, valid)
    for got, want in zip(ours, _loop_swing_recovery(sk, positions, valid)):
        assert np.array_equal(got, want)
    observed = ours[2]
    assert not observed[:, sk.depths[1].swing_joints].any()
    assert not observed[:, sk.depths[2].swing_joints].any()
    assert observed[:, sk.depths[4].swing_joints].any()


def test_swing_recovery_of_stacked_clips_matches_each_clip_alone_bit_for_bit(skeleton, rng):
    """Frames are recovered on their own, so a stack of clips gives each clip its own bits."""
    seq = procedural_motion("extreme", 1.0, 30, 5, skeleton)
    clean, _ = sequence_transforms(seq)
    noisy = clean + rng.normal(0.0, 0.01, clean.shape)
    # Invalid joints: every fourth frame leaves the root one usable child
    # bone, so it falls back from the Procrustes fit to a single swing.
    masked = clean + rng.normal(0.0, 0.01, clean.shape)
    masked_valid = rng.uniform(size=clean.shape[:2]) > 0.2
    kids = skeleton.children(0)
    masked_valid[::4, [0, kids[0]]] = True
    masked_valid[::4, kids[1:]] = False
    # A bone antipodal to its rest direction: the left elbow's, in frame 2
    # of a clip at rest.
    antipodal = np.repeat(skeleton.rest_positions()[None], 6, axis=0)
    elbow = skeleton.joint_names.index("left_elbow")
    wrist = skeleton.primary_children[elbow]
    antipodal[2, wrist] = antipodal[2, elbow] - skeleton.rest_offsets[wrist]
    clips = [
        (noisy, np.ones(clean.shape[:2], dtype=bool)),
        (masked, masked_valid),
        (antipodal, np.ones(antipodal.shape[:2], dtype=bool)),
    ]
    stacked = poses_from_joint_positions(
        skeleton, np.concatenate([p for p, _ in clips]), np.concatenate([v for _, v in clips])
    )
    start = 0
    for positions, valid in clips:
        alone = poses_from_joint_positions(skeleton, positions, valid)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[start:start + len(positions)], want)
        start += len(positions)
    assert start == len(stacked[0])
    _, local_rotations, observed = poses_from_joint_positions(skeleton, masked, masked_valid)
    assert ((masked_valid[:, :1] & masked_valid[:, kids]).sum(axis=1) == 1).sum() >= 8
    assert observed[::4, 0].all()
    _, local_rotations, _ = poses_from_joint_positions(skeleton, antipodal)
    assert abs(rot.angle_of(local_rotations[2, elbow]) - np.pi) < 1e-9


def test_depth_first_order_interleaves_depths(skeleton):
    """SMPL numbers its joints depth by depth; the BVH order does not."""
    def by_depth(sk):
        return np.concatenate([level.joints for level in sk.depths])

    assert (np.diff(by_depth(skeleton)) > 0).all()
    assert (np.diff(by_depth(_depth_first_skeleton())) < 0).any()


def test_tree_plan_matches_its_definition(topology):
    sk = topology
    for j in range(sk.num_joints):
        kids = sk.children(j)
        lengths = [np.linalg.norm(sk.rest_offsets[c]) for c in kids]
        assert sk.primary_children[j] == (kids[int(np.argmax(lengths))] if kids else None)
    order = np.concatenate([[0]] + [level.joints for level in sk.depths])
    assert sorted(order.tolist()) == list(range(sk.num_joints))
    rest = np.zeros((sk.num_joints, 3))
    for i in range(1, sk.num_joints):
        rest[i] = rest[sk.parents[i]] + sk.rest_offsets[i]
    assert np.array_equal(sk.rest_positions(), rest)


def test_primary_child_takes_the_first_of_equal_bones():
    sk = Skeleton(("root", "a", "b", "c"), (-1, 0, 0, 0), [[0.0, 0, 0], [0, 1, 0], [0, 0, 2], [2, 0, 0]])
    assert sk.primary_children[0] == 2
    assert sk.primary_children == (2, None, None, None)


def test_tree_walks_multiply_once_per_depth(skeleton, monkeypatch):
    seq = procedural_motion("basic", 0.5, 30, 2, skeleton)
    positions, _ = sequence_transforms(seq)
    calls = []
    multiply = rot.multiply

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(rot, "multiply", counted)
    sequence_transforms(seq)
    assert len(calls) == 8  # SMPL-24 is 8 joints deep below the root
    calls.clear()
    poses_from_joint_positions(skeleton, positions)
    assert len(calls) == 8
    assert len(skeleton.depths) == 8
