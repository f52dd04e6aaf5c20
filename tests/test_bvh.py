import re

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
    # The declared count is kept, and blank lines after 'Frame Time:' are not rows.
    assert parse_bvh(MINIMAL.replace("Frames: 1", "Frames: 4") + "\n  \n").num_frames == 4


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


# Two joints with channels, an End Site and two frames; line numbers below
# count from 1 in this text.
TWO_JOINTS = """HIERARCHY
ROOT hips
{
  OFFSET 0 0 0
  CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
  JOINT chest
  {
    OFFSET 0 0.3 0
    CHANNELS 3 Zrotation Xrotation Yrotation
    End Site
    {
      OFFSET 0 0.2 0
    }
  }
}
MOTION
Frames: 2
Frame Time: 0.04
0 1 0 0 0 0 10 20 30
0 1 0 0 0 0 15 25 35
"""


def _edit(old: str, new: str) -> str:
    assert TWO_JOINTS.count(old) == 1, old
    return TWO_JOINTS.replace(old, new)


REFUSALS = [
    ("empty", "", "unexpected end of file", 1),
    ("not_hierarchy", "\n" + _edit("HIERARCHY", "HIERARCHIE"), "expected HIERARCHY, got 'HIERARCHIE'", 2),
    ("no_root", _edit("ROOT hips", "JOINT hips"), "expected ROOT", 2),
    ("root_without_name", _edit("ROOT hips", "ROOT"), "ROOT missing a name", 2),
    ("joint_without_name", _edit("JOINT chest", "JOINT"), "JOINT missing a name", 6),
    ("unknown_keyword", _edit("JOINT chest", "BONE chest"), "expected ROOT, JOINT or End Site, got 'BONE chest'", 6),
    ("missing_brace", _edit("  {\n    OFFSET 0 0.3 0", "  (\n    OFFSET 0 0.3 0"), "expected '{'", 7),
    ("offset_arity", _edit("OFFSET 0 0.3 0", "OFFSET 0 0.3"), "expected 'OFFSET x y z'", 8),
    ("offset_not_numeric", _edit("OFFSET 0 0.3 0", "OFFSET 0 a 0"), "OFFSET values must be numbers", 8),
    ("channels_missing", _edit("    CHANNELS 3 Zrotation Xrotation Yrotation\n", ""), "expected CHANNELS", 9),
    ("channels_without_count", _edit("CHANNELS 3 Zrotation Xrotation Yrotation", "CHANNELS"), "CHANNELS needs a count", 9),
    ("channels_count_disagrees", _edit("CHANNELS 3 Z", "CHANNELS 2 Z"), "CHANNELS declares 2 but lists 3", 9),
    ("unsupported_channel", _edit("Zrotation Xrotation Yrotation\n    End", "Zrotation Xrotation Wrotation\n    End"),
     "unsupported channel 'Wrotation'", 9),
    ("end_site_not_closed", _edit("OFFSET 0 0.2 0", "OFFSET 0 0.2 0\n      OFFSET 0 0.2 0"),
     "End Site must close after OFFSET", 13),
    ("hierarchy_cut_short", "\n".join(TWO_JOINTS.splitlines()[:9]) + "\n", "unexpected end of hierarchy", 9),
    ("motion_missing", _edit("MOTION", "MOTIONS"), "expected MOTION, got 'MOTIONS'", 16),
    ("frames_missing", _edit("Frames: 2", "Frame: 2"), "expected 'Frames:' count", 17),
    ("frames_not_integer", _edit("Frames: 2", "Frames: 2.0"), "Frames count must be an integer", 17),
    ("frame_time_missing", _edit("Frame Time: 0.04", "FrameTime: 0.04"), "expected 'Frame Time:'", 18),
    ("frame_time_not_number", _edit("Frame Time: 0.04", "Frame Time: fast"), "Frame Time must be a number", 18),
    ("frame_time_zero", _edit("Frame Time: 0.04", "Frame Time: 0"), "Frame Time must be finite and positive, got 0.0", 18),
    ("row_value_count", _edit("15 25 35", "15 25"), "frame row has 8 values, hierarchy declares 9 channels", 20),
    ("row_not_number", _edit("10 20 30", "ten 20 30"), "frame values must be numbers", 19),
    ("frames_disagree_with_rows", _edit("Frames: 2", "Frames: 3"), "MOTION declares 3 frames but 2 data rows found", 20),
    ("no_frame_data", TWO_JOINTS.replace("Frames: 2", "Frames: 0").split("0 1 0")[0], "no frame data", 18),
    ("nan_value", _edit("15 25 35", "15 25 nan"), "frame values must be finite", 20),
    # A file without channels: the Frames count is checked first, then every
    # line after 'Frame Time:' is a row of too many values.
    ("no_channels_frames_negative", MINIMAL.replace("Frames: 1", "Frames: -3") + "garbage row here\n",
     "Frames count must be at least 1, got -3", 17),
    ("no_channels_frames_zero", MINIMAL.replace("Frames: 1", "Frames: 0"), "Frames count must be at least 1, got 0", 17),
    ("no_channels_row", MINIMAL + "\ngarbage row here\n", "frame row has 3 values, hierarchy declares 0 channels", 20),
]


@pytest.mark.parametrize(
    "text, message, line", [pytest.param(*case[1:], id=case[0]) for case in REFUSALS]
)
def test_refusals_name_their_line(text, message, line):
    assert parse_bvh(TWO_JOINTS).num_frames == 2
    with pytest.raises(BvhParseError, match=re.escape(message)) as err:
        parse_bvh(text)
    assert err.value.line == line


def test_root_inside_the_hierarchy_is_refused():
    with pytest.raises(BvhParseError, match="ROOT inside joint 'hips'") as err:
        parse_bvh(_edit("JOINT chest", "ROOT chest"))
    assert err.value.line == 6


def test_repeated_joint_name_is_refused():
    with pytest.raises(ValueError, match="joint name 'hips' repeats"):
        parse_bvh(_edit("JOINT chest", "JOINT hips"))


CHEST_Y = _edit("CHANNELS 3 Zrotation Xrotation Yrotation", "CHANNELS 4 Zrotation Yposition Xrotation Yrotation")


def _with_chest_y(first: str, second: str) -> str:
    return CHEST_Y.replace("0 10 20 30", f"0 10 {first} 20 30").replace("0 15 25 35", f"0 15 {second} 25 35")


@pytest.mark.parametrize("first, second", [("0.3", "0.3"), ("0.3", "0.3000005"), ("0.2999995", "0.3")])
def test_non_root_position_channel_equal_to_its_offset_is_read(first, second):
    # chest's OFFSET is (0, 0.3, 0); within 1e-6 the channel repeats it.
    with_channel, without = parse_bvh(_with_chest_y(first, second)), parse_bvh(TWO_JOINTS)
    assert np.array_equal(with_channel.skeleton.rest_offsets, without.skeleton.rest_offsets)
    assert np.array_equal(with_channel.root_translations, without.root_translations)
    assert np.array_equal(with_channel.local_rotations, without.local_rotations)


@pytest.mark.parametrize(
    "first, second, line", [("0.3", "0.5", 20), ("0.3", "0.300002", 20), ("0", "0.3", 19), ("0", "0", 19)]
)
def test_non_root_position_channel_that_moves_is_refused(first, second, line):
    with pytest.raises(BvhParseError, match="position channels of joint 'chest' must equal its OFFSET") as err:
        parse_bvh(_with_chest_y(first, second))
    assert err.value.line == line
