"""The one refusal rule for numbers, integers and flags from outside.

A number is a real other than a bool, and finite; an integer is a Python int
other than a bool; a flag is True or False. Every entry point that takes such
a value refuses the others with a ValueError naming the field and the value.
"""

import os
import re
import sys

import numpy as np
import pytest

from drapebench.bench import BenchConfig, MethodSpec, MotionSpec
from drapebench.body import Capsule, build_parametric_body
from drapebench.cloth import ClothParams, simulate_sequence
from drapebench.estimates import ExternalEstimate, normalize_estimate
from drapebench.garment import generate_garment
from drapebench.kinematics import (
    MotionSequence,
    default_skeleton,
    procedural_motion,
    rescale_to_height,
)
from drapebench.markers import MarkerTrajectory, add_marker_noise
from drapebench.mesh import TriMesh

SKELETON = default_skeleton()
REST = MotionSequence.rest(SKELETON, num_frames=2)
TRIANGLE = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float), np.array([[0, 1, 2]]))
ESTIMATE = ExternalEstimate("smpl24", 30.0, np.arange(72.0).reshape(1, 24, 3))
TRAJECTORY = MarkerTrajectory(np.zeros((2, 4, 3)), 30.0)


def _simulate(fps=30.0, warmup=0.0):
    pinned = np.zeros(3, dtype=bool)
    return simulate_sequence(TRIANGLE, pinned, np.zeros((1, 0, 3)), [[]], ClothParams(), fps, warmup)


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
OUT_OF_RANGE = {POSITIVE: [0, -1.0], NON_NEGATIVE: [-1.0], INTEGER: [1.5]}

FLAG_ENTRIES = [
    ("MethodSpec.noise", "method noise", lambda v: MethodSpec("marker_based", noise=v)),
    ("BenchConfig.export_bvh", "export_bvh", lambda v: BenchConfig(export_bvh=v)),
]


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
