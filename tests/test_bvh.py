import numpy as np
import pytest

from drapebench import rotations as rot
from drapebench.bvh import BvhParseError, parse_bvh, write_bvh
from drapebench.kinematics import procedural_motion

MINIMAL = """HIERARCHY
ROOT hips
{
  OFFSET 0.0 0.0 0.0
  CHANNELS 0
  JOINT chest
  {
    OFFSET 0.0 0.3 0.0
    CHANNELS 0
    End Site
    {
      OFFSET 0.0 0.2 0.0
    }
  }
}
MOTION
Frames: 1
Frame Time: 0.033333
"""


@pytest.mark.parametrize("frame_time", ["nan", "inf", "0", "-0.04"])
def test_frame_time_must_be_finite_and_positive(frame_time):
    text = MINIMAL.replace("Frame Time: 0.033333", f"Frame Time: {frame_time}")
    with pytest.raises(BvhParseError, match=f"finite and positive, got {float(frame_time)!r}") as err:
        parse_bvh(text)
    assert text.splitlines()[err.value.line - 1].startswith("Frame Time:")


def test_minimal_zero_channel_file():
    seq = parse_bvh(MINIMAL)
    assert seq.skeleton.num_joints == 2
    assert seq.num_frames == 1
    assert np.allclose(seq.local_rotations[..., 0], 1.0)
    assert np.allclose(seq.skeleton.rest_offsets[1], [0.0, 0.3, 0.0])


def test_write_has_frame_time_line(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 1, skeleton)
    text = write_bvh(seq)
    assert "Frame Time: 0.0333333" in text
    assert text.startswith("HIERARCHY")
    assert "CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation" in text


def test_rest_pose_writes_zero_rotations(skeleton):
    from drapebench.kinematics import MotionSequence

    seq = MotionSequence.rest(skeleton)
    text = write_bvh(seq)
    data = text.strip().splitlines()[-1].split()
    assert len(data) == 3 + 3 * skeleton.num_joints
    assert all(abs(float(v)) < 1e-9 for v in data)


def _channels(seq):
    """Per-frame root translation and per-joint euler channels keyed by name."""
    eul = rot.to_euler_zxy(seq.local_rotations, degrees=True)
    out = {name: eul[:, j] for j, name in enumerate(seq.skeleton.joint_names)}
    out["__root__"] = seq.root_translations
    return out


def test_round_trip_fixed_point(skeleton):
    seq = procedural_motion("fast", 1.0, 30, 3, skeleton)
    once = parse_bvh(write_bvh(seq))
    twice = parse_bvh(write_bvh(once))
    a = _channels(once)
    b = _channels(twice)
    for key in a:
        assert np.abs(a[key] - b[key]).max() < 1e-4, key


def test_round_trip_against_source(skeleton):
    seq = procedural_motion("basic", 1.0, 30, 5, skeleton)
    back = parse_bvh(write_bvh(seq))
    a = _channels(seq)
    b = _channels(back)
    for key in a:
        assert np.abs(a[key] - b[key]).max() < 1e-4, key


CHANNELED = """HIERARCHY
ROOT hips
{
  OFFSET 0 0 0
  CHANNELS 3 Zrotation Xrotation Yrotation
  End Site
  {
    OFFSET 0 1 0
  }
}
MOTION
Frames: 2
Frame Time: 0.04
1.0 2.0 3.0
4.0 5.0 6.0
"""


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("column", [0, 5])
def test_non_finite_channel_is_error(skeleton, value, column):
    # Column 0 is the root's Xposition, column 5 its Yrotation.
    text = write_bvh(procedural_motion("basic", 0.2, 30, 1, skeleton))
    lines = text.splitlines()
    row = lines.index("Frame Time: " + repr(1.0 / 30.0)) + 3
    words = lines[row].split()
    words[column] = value
    lines[row] = " ".join(words)
    with pytest.raises(BvhParseError, match="frame values must be finite") as err:
        parse_bvh("\n".join(lines) + "\n")
    assert err.value.line == row + 1


def test_non_finite_offset_is_error():
    text = MINIMAL.replace("OFFSET 0.0 0.3 0.0", "OFFSET 0.0 nan 0.0")
    with pytest.raises(ValueError, match="rest_offsets must be finite"):
        parse_bvh(text)


def test_frame_count_mismatch_is_error():
    bad = CHANNELED.replace("Frames: 2", "Frames: 5")
    with pytest.raises(BvhParseError, match="frames"):
        parse_bvh(bad)
    assert parse_bvh(CHANNELED).num_frames == 2


def test_missing_hierarchy_is_error():
    with pytest.raises(BvhParseError) as err:
        parse_bvh("MOTION\nFrames: 0\n")
    assert err.value.line == 1


def test_channel_count_mismatch_reports_line():
    text = """HIERARCHY
ROOT hips
{
  OFFSET 0 0 0
  CHANNELS 3 Zrotation Xrotation Yrotation
}
MOTION
Frames: 1
Frame Time: 0.04
1.0 2.0
"""
    with pytest.raises(BvhParseError) as err:
        parse_bvh(text)
    assert "channels" in str(err.value)
    assert err.value.line == 10


def test_unsupported_channel_is_error():
    text = MINIMAL.replace("CHANNELS 0", "CHANNELS 1 Wrotation", 1)
    with pytest.raises(BvhParseError):
        parse_bvh(text)


def test_parse_arbitrary_rotation_order():
    text = """HIERARCHY
ROOT hips
{
  OFFSET 0 0 0
  CHANNELS 6 Xposition Yposition Zposition Xrotation Yrotation Zrotation
  End Site
  {
    OFFSET 0 1 0
  }
}
MOTION
Frames: 1
Frame Time: 0.04
1.0 2.0 3.0 10.0 20.0 30.0
"""
    seq = parse_bvh(text)
    assert np.allclose(seq.root_translations[0], [1.0, 2.0, 3.0])
    expected = rot.from_euler("XYZ", np.array([10.0, 20.0, 30.0]), degrees=True)
    got = seq.local_rotations[0, 0]
    assert min(np.abs(got - expected).max(), np.abs(got + expected).max()) < 1e-12


@pytest.mark.parametrize("fps", [24.0, 25.0, 30.0, 60.0, 120.0])
def test_frame_rate_round_trips_exactly(skeleton, fps):
    seq = procedural_motion("basic", 0.5, fps, 1, skeleton)
    assert parse_bvh(write_bvh(seq)).fps == fps
