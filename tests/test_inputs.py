"""The one refusal rule for numbers, integers, flags and arrays from outside.

A number is a real other than a bool, and finite; an integer is a Python int
other than a bool; a flag is True or False. Every entry point that takes such
a value refuses the others with a ValueError naming the field and the value.
An array holds integers or floats, has the expected shape and is finite, and
comes back as float64; an index array holds whole numbers below its bound
and comes back as int64; a mask holds booleans. Every other array is refused
naming the field and, where one entry is at fault, that entry's index.
"""

import os
import re
import sys

import numpy as np
import pytest

from drapebench.bench import BenchConfig, MethodSpec, MotionSpec
from drapebench.body import Capsule, build_parametric_body
from drapebench.cloth import ClothParams, SpringNetwork, _Solver, simulate_sequence
from drapebench.estimates import ExternalEstimate, normalize_estimate
from drapebench.garment import generate_garment
from drapebench.kinematics import (
    MotionSequence,
    Skeleton,
    default_skeleton,
    poses_from_joint_positions,
    procedural_motion,
    rescale_to_height,
    sequence_transforms,
)
from drapebench.markers import MarkerTrajectory, add_marker_noise
from drapebench.mesh import TriMesh, surface_points
from drapebench.metrics import mpjpe

SKELETON = default_skeleton()
REST = MotionSequence.rest(SKELETON, num_frames=2)
TRIANGLE = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
SQUARE = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float), np.array([[0, 1, 2], [0, 2, 3]]))
ESTIMATE = ExternalEstimate("smpl24", 30.0, np.arange(72.0).reshape(1, 24, 3))
TRAJECTORY = MarkerTrajectory(np.zeros((2, 4, 3)), 30.0)
NO_SPRINGS = np.zeros((0, 2), dtype=np.int64)


def _simulate(
    fps=30.0, warmup=0.0, pin_frames=TRIANGLE.vertices[None, :1], initial_positions=None, pinned=(True, False, False)
):
    return simulate_sequence(
        TRIANGLE, pinned, pin_frames, [[]], ClothParams(), fps, warmup, initial_positions
    )


# (id, field named in the message, rule, entry point taking the value, a valid value)
POSITIVE, NON_NEGATIVE, INTEGER = "positive", "non_negative", "integer"
NUMBER_ENTRIES = [
    ("MotionSpec.duration_s", "motion duration_s", POSITIVE, lambda v: MotionSpec("basic", duration_s=v), 1),
    ("MotionSpec.fps", "motion fps", POSITIVE, lambda v: MotionSpec("basic", fps=v), 30),
    ("BenchConfig.seed", "seed", INTEGER, lambda v: BenchConfig(seed=v), 0),
    ("BenchConfig.drape_classes", "drape_classes", INTEGER, lambda v: BenchConfig(drape_classes=(v,)), 1),
    ("BenchConfig.workers", "workers", INTEGER, lambda v: BenchConfig(workers=v), 1),
    ("BenchConfig.resolution_scale", "resolution_scale", POSITIVE, lambda v: BenchConfig(resolution_scale=v), 1),
    ("BenchConfig.warmup_s", "warmup_s", NON_NEGATIVE, lambda v: BenchConfig(warmup_s=v), 0),
    ("BenchConfig.noise_rms_m", "noise_rms_m", NON_NEGATIVE, lambda v: BenchConfig(noise_rms_m=v), 0),
    ("Capsule.radius", "capsule radius", POSITIVE, lambda v: Capsule(np.zeros(3), np.ones(3), v), 1),
    ("ClothParams.vertex_mass", "vertex_mass", POSITIVE, lambda v: ClothParams(vertex_mass=v), 1),
    *[
        (f"ClothParams.{name}", name, NON_NEGATIVE, lambda v, name=name: ClothParams(**{name: v}), 0)
        for name in (
            "stiffness_structural", "stiffness_shear", "stiffness_bending",
            "damping_structural", "damping_shear", "damping_bending", "gravity",
        )
    ],
    ("simulate_sequence.fps", "fps", POSITIVE, lambda v: _simulate(fps=v), 30),
    ("simulate_sequence.warmup", "warmup", NON_NEGATIVE, lambda v: _simulate(warmup=v), 0),
    ("ExternalEstimate.fps", "fps", POSITIVE, lambda v: ExternalEstimate("smpl24", v, np.zeros((1, 24, 3))), 30),
    ("normalize_estimate.target_height", "target_height", POSITIVE, lambda v: normalize_estimate(ESTIMATE, v), 2),
    (
        "generate_garment.resolution_scale", "resolution_scale", POSITIVE,
        lambda v: generate_garment(build_parametric_body("female_average"), ("tshirt",), 1, v), 1,
    ),
    ("MotionSequence.fps", "fps", POSITIVE, lambda v: MotionSequence.rest(SKELETON, fps=v), 30),
    ("default_skeleton.height", "height", POSITIVE, lambda v: default_skeleton(v), 2),
    ("rescale_to_height.target_height", "target_height", POSITIVE, lambda v: rescale_to_height(REST, v), 2),
    ("procedural_motion.duration", "duration", POSITIVE, lambda v: procedural_motion("basic", v, 30, 1, SKELETON), 1),
    ("procedural_motion.fps", "fps", POSITIVE, lambda v: procedural_motion("basic", 1, v, 1, SKELETON), 30),
    ("MarkerTrajectory.fps", "fps", POSITIVE, lambda v: MarkerTrajectory(np.zeros((2, 4, 3)), v), 30),
    ("add_marker_noise.rms_3d_m", "rms_3d_m", NON_NEGATIVE, lambda v: add_marker_noise(TRAJECTORY, 1, v), 0),
]
NOT_NUMBERS = [True, False, "1", None, float("nan"), float("inf"), float("-inf")]
# 10**400 is finite as an int but has no float.
OUT_OF_RANGE = {POSITIVE: [0, -1.0, 10**400], NON_NEGATIVE: [-1.0, 10**400], INTEGER: [1.5]}

FLAG_ENTRIES = [
    ("MethodSpec.noise", "method noise", lambda v: MethodSpec("marker_based", noise=v)),
    ("BenchConfig.export_bvh", "export_bvh", lambda v: BenchConfig(export_bvh=v)),
]


# (id, field named in the message, entry point returning the array it keeps or
# makes from the value, a valid value of whole numbers)
ARRAY_ENTRIES = [
    ("Capsule.p0", "capsule p0", lambda v: Capsule(v, np.ones(3), 1).p0, np.zeros(3)),
    ("Capsule.p1", "capsule p1", lambda v: Capsule(np.zeros(3), v, 1).p1, np.ones(3)),
    (
        "Skeleton.rest_offsets", "rest_offsets",
        lambda v: Skeleton(SKELETON.joint_names, SKELETON.parents, v).rest_offsets, np.ones((24, 3)),
    ),
    (
        "MotionSequence.root_translations", "root_translations",
        lambda v: MotionSequence(SKELETON, 30, v, REST.local_rotations).root_translations, np.zeros((2, 3)),
    ),
    (
        "MotionSequence.local_rotations", "local_rotations",
        lambda v: MotionSequence(SKELETON, 30, REST.root_translations, v).local_rotations,
        REST.local_rotations,
    ),
    ("TriMesh.vertices", "vertices", lambda v: TriMesh(v, TRIANGLE.faces).vertices, TRIANGLE.vertices),
    ("MarkerTrajectory.positions", "marker positions", lambda v: MarkerTrajectory(v, 30).positions, np.zeros((2, 4, 3))),
    ("ExternalEstimate.positions", "positions", lambda v: ExternalEstimate("smpl24", 30, v).positions, np.zeros((1, 24, 3))),
    ("simulate_sequence.pin_frames", "pin_frames", lambda v: _simulate(pin_frames=v)[0].positions, np.zeros((1, 1, 3))),
    (
        "simulate_sequence.initial_positions", "initial_positions",
        lambda v: _simulate(initial_positions=v)[0].positions, TRIANGLE.vertices,
    ),
    (
        "SpringNetwork.structural_rest", "structural_rest",
        lambda v: SpringNetwork([[0, 1], [1, 2], [0, 2]], v, NO_SPRINGS, [], NO_SPRINGS, []).structural_rest,
        np.ones(3),
    ),
    (
        "surface_points.barycentric", "barycentric",
        lambda v: surface_points(TRIANGLE.vertices, TRIANGLE.faces, [0, 0], v), np.array([[1, 0, 0], [0, 0, 1]]),
    ),
]


def _ragged(good):
    return [good.tolist(), good.tolist()[:-1]]


def _with_last(good, value):
    bad = good.astype(float)
    bad.flat[-1] = value
    return bad


def _listed_with_last(good, value):
    """good as a nested list whose last entry is value."""
    bad = np.asarray(good).astype(object)
    bad.flat[-1] = value
    return bad.tolist()


def _index_of_last(good):
    return re.escape(str([int(i) for i in np.unravel_index(np.size(good) - 1, np.shape(good))]))


@pytest.mark.parametrize("field, make, good", [pytest.param(*entry[1:], id=entry[0]) for entry in ARRAY_ENTRIES])
@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(lambda g: g.astype(bool), "must hold numbers; entry [0", id="bool"),
        pytest.param(lambda g: _listed_with_last(g, True), "must hold numbers; entry [", id="bool_in_list"),
        pytest.param(lambda g: g.astype(int).astype(str), "must hold numbers; entry [0", id="string"),
        pytest.param(_ragged, "must hold numbers, got a ragged list", id="ragged"),
        pytest.param(lambda g: g[..., :2], "has shape ", id="shape"),
        pytest.param(lambda g: _with_last(g, np.nan), "must be finite; entry ", id="nan"),
        pytest.param(lambda g: _with_last(g, np.inf), "must be finite; entry ", id="inf"),
    ],
)
def test_an_array_that_is_not_finite_numbers_of_its_shape_is_refused_by_name(field, make, good, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} {re.escape(message)}"):
        make(bad(good))


@pytest.mark.parametrize("field, make, good", [pytest.param(*entry[1:], id=entry[0]) for entry in ARRAY_ENTRIES])
def test_a_refused_entry_is_named_by_its_index(field, make, good):
    last = [int(i) for i in np.unravel_index(good.size - 1, good.shape)]
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite; entry {re.escape(str(last))} is {value}$"):
            make(_with_last(good, value))


@pytest.mark.parametrize("field, make, good", [pytest.param(*entry[1:], id=entry[0]) for entry in ARRAY_ENTRIES])
def test_an_entry_of_a_list_that_is_not_a_number_is_named_by_its_index(field, make, good):
    # np.asarray would read True as 1 among integers, a numeric string as
    # text and None as an object; the list is scanned before it converts.
    for value in (True, np.True_, None, "1"):
        want = rf"^{re.escape(field)} must hold numbers; entry {_index_of_last(good)} is {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=want):
            make(_listed_with_last(good, value))


@pytest.mark.parametrize("field, make, good", [pytest.param(*entry[1:], id=entry[0]) for entry in ARRAY_ENTRIES])
def test_a_ragged_list_is_named_by_its_first_uneven_entry(field, make, good):
    want = rf"got a ragged list; entry \[1\] has length {len(good) - 1} where entry \[0\] has length {len(good)}$"
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must hold numbers, {want}"):
        make(_ragged(good))


@pytest.mark.parametrize("make, good", [pytest.param(*entry[2:], id=entry[0]) for entry in ARRAY_ENTRIES])
def test_valid_arrays_load_as_float64(make, good):
    want = make(good.astype(float))
    for value in (good.astype(int), good.astype(np.float32), good.tolist()):
        got = make(value)
        assert got.dtype == np.float64 and np.array_equal(got, want)


def test_a_spring_rest_length_is_positive():
    for rest in (0, -0.1):
        with pytest.raises(ValueError, match="^shear_rest must be positive$"):
            SpringNetwork(NO_SPRINGS, [], [[0, 1]], [rest], NO_SPRINGS, [])


def _springs(structural):
    """A solver over three particles joined by the given structural springs."""
    net = SpringNetwork(structural, np.full(len(structural), 0.1), NO_SPRINGS, [], NO_SPRINGS, [])
    return _Solver(net, ClothParams(), np.zeros(3, dtype=bool), 1.0 / 60.0)


# (id, field named in the message, entry point taking the index array, a
# valid value, the bound the indices stay below)
INDEX_ENTRIES = [
    ("TriMesh.faces", "faces", lambda v: TriMesh(TRIANGLE.vertices, v), [[0, 1, 2]], 3),
    (
        "surface_points.face", "face",
        lambda v: surface_points(TRIANGLE.vertices, TRIANGLE.faces, v, [[1, 0, 0], [0, 0, 1]]), [0, 0], 1,
    ),
    ("SpringNetwork.structural", "structural springs", _springs, [[0, 1]], 3),
]


def _index_cases(good, bound):
    """(id, a bad value, the tail of its message) for each way an index array goes wrong.

    A bool is refused by its type, before a cast could read it as 0 or 1; a
    number by its value. Either way the entry is named.
    """
    last = _index_of_last(good)
    fraction = np.ravel(good)[-1] + 0.5
    in_range = rf" in \[0, {bound}\); entry {last} is"
    return [
        ("bool_in_list", _listed_with_last(good, True), f"; entry {last} is True"),
        ("bool_array", np.ones(np.shape(good), dtype=bool), f"; entry {re.escape(str([0] * np.ndim(good)))} is True"),
        ("fraction", _with_last(np.array(good), fraction), f"{in_range} {fraction}"),
        ("negative", _listed_with_last(good, -1), f"{in_range} -1"),
        ("too_large", _listed_with_last(good, bound), f"{in_range} {bound}"),
    ]


@pytest.mark.parametrize(
    "field, make, bad, tail",
    [
        pytest.param(field, make, bad, tail, id=f"{case}-{name}")
        for name, field, make, good, bound in INDEX_ENTRIES
        for case, bad, tail in _index_cases(good, bound)
    ],
)
def test_an_index_that_is_not_a_whole_number_in_range_is_refused_by_name(field, make, bad, tail):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must hold integers{tail}$"):
        make(bad)


@pytest.mark.parametrize("make, good", [pytest.param(*e[2:4], id=e[0]) for e in INDEX_ENTRIES])
def test_valid_indices_load(make, good):
    # A whole number stored as a float names its entry, as an integer does.
    for value in (good, np.array(good), np.array(good, dtype=float)):
        make(value)


REST_JOINTS = sequence_transforms(REST)[0]

# (id, field named in the message, entry point taking the mask, a valid mask)
MASK_ENTRIES = [
    ("simulate_sequence.pinned", "pinned", lambda v: _simulate(pinned=v), [True, False, False]),
    (
        "poses_from_joint_positions.valid", "valid",
        lambda v: poses_from_joint_positions(SKELETON, REST_JOINTS, v), np.ones((2, 24), dtype=bool).tolist(),
    ),
    ("mpjpe.valid", "valid", lambda v: mpjpe(np.zeros((2, 4, 3)), np.zeros((2, 4, 3)), v), [[True] * 4, [False] * 4]),
]


@pytest.mark.parametrize("field, make, good", [pytest.param(*e[1:], id=e[0]) for e in MASK_ENTRIES])
@pytest.mark.parametrize("value", [0.5, 1, "yes"])
def test_a_mask_entry_that_is_not_a_boolean_is_refused_by_name(field, make, good, value):
    # np.asarray(..., dtype=bool) would read 0.5, 1 and "yes" as True.
    want = rf"^{re.escape(field)} must hold booleans; entry {_index_of_last(good)} is {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=want):
        make(_listed_with_last(good, value))
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must hold booleans, got {re.escape(repr(value))}$"):
        make(value)


@pytest.mark.parametrize("make, good", [pytest.param(*e[2:], id=e[0]) for e in MASK_ENTRIES])
def test_valid_masks_load(make, good):
    for value in (good, np.array(good), list(np.array(good))):
        make(value)


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(
            lambda: Capsule([0, True, 0], [0, 1, 0], 0.1), "capsule p0 must hold numbers; entry [1] is True",
            id="capsule_end",
        ),
        pytest.param(
            lambda: Skeleton(SKELETON.joint_names, SKELETON.parents, [[0, 0, 0]] + [[0, True, 0]] * 23),
            "rest_offsets must hold numbers; entry [1, 1] is True", id="rest_offset",
        ),
        pytest.param(
            lambda: TriMesh(TRIANGLE.vertices, [[0, True, 2]]), "faces must hold integers; entry [0, 1] is True",
            id="face",
        ),
        pytest.param(
            lambda: surface_points(SQUARE.vertices, SQUARE.faces, np.array([True, False]), [[1, 0, 0]] * 2),
            "face must hold integers; entry [0] is True", id="surface_point_face",
        ),
        pytest.param(
            lambda: _simulate(pinned=[0.5, 0, 0]), "pinned must hold booleans; entry [0] is 0.5", id="pin_mask",
        ),
    ],
)
def test_a_value_a_cast_would_misread_is_refused_by_name(make, message):
    # Each of these once loaded: True as 1 among numbers or indices, a bool
    # array as a mask of faces (two points on the square's first face), and
    # 0.5 as a pinned vertex.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "field, rule, make", [pytest.param(*entry[1:4], id=entry[0]) for entry in NUMBER_ENTRIES]
)
def test_a_value_that_is_not_a_number_in_range_is_refused_by_name(field, rule, make):
    for value in NOT_NUMBERS + OUT_OF_RANGE[rule] + ([0] if field == "workers" else []):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be .*, got {re.escape(repr(value))}$"):
            make(value)


@pytest.mark.parametrize("field, make", [pytest.param(*entry[1:], id=entry[0]) for entry in FLAG_ENTRIES])
def test_a_flag_is_true_or_false(field, make):
    for value in ("no", "", "1", 1, 0, None, float("nan")):
        want = f"{field} must be true or false, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            make(value)
    make(True)
    make(False)


@pytest.mark.parametrize(
    "rule, make, good", [pytest.param(*entry[2:], id=entry[0]) for entry in NUMBER_ENTRIES]
)
def test_valid_values_pass(rule, make, good):
    make(good)
    if rule != INTEGER:
        make(float(good))
        make(np.float64(good))  # numpy's floats are numbers too


def test_checks_convert_nothing():
    # An int stays an int, so a config keeps the JSON it was written with.
    config = BenchConfig(resolution_scale=1, warmup_s=0, noise_rms_m=0, cloth={"gravity": 10})
    assert type(config.resolution_scale) is int and type(config.warmup_s) is int
    assert type(config.cloth_params().gravity) is int
    assert config.to_json() == BenchConfig.from_json(config.to_json()).to_json()


def test_benchmark_workload_configs_keep_their_hash(tmp_path, monkeypatch):
    # The benchmark's configs, written from seed 1 under a relative directory,
    # hash as they did before the checks moved into one module.
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))
    try:
        from perfbench.workloads import generate
    finally:
        sys.path.pop(0)
    monkeypatch.chdir(tmp_path)
    hashes = {
        name: [BenchConfig.load(path).config_hash() for path in generate(name, 1, name).config_paths]
        for name in ("cloth_motion", "garment_builds", "markerless")
    }
    assert hashes == {
        "cloth_motion": ["b4a77d636806d618"],
        "garment_builds": ["5f17436d2f591c27"],
        "markerless": ["8ccff669e5e250b6", "a8000dc4b18d577b"],
    }
