"""BVH motion-capture file reading and writing.

Reading accepts any mix of rotation channels in any order. Only the root
translates: a position channel on another joint must equal that joint's
OFFSET on its axis, within 1e-6 in file units, in every frame. That, a
malformed line, a ROOT inside the hierarchy, a Frames count below 1, a row
that disagrees with the channels (any row, in a file without channels) and
a non-finite value are refused with a BvhParseError naming its
1-based line; Skeleton refuses repeated joint names. Writing always emits ZXY
rotation channels and a 6-channel root. Offsets and positions keep the
skeleton's native units (meters for sequences produced by this package).
"""

from __future__ import annotations

import numpy as np

from . import rotations as rot
from .kinematics import MotionSequence, Skeleton

_POSITION_CHANNELS = {"Xposition": 0, "Yposition": 1, "Zposition": 2}
_ROTATION_CHANNELS = {"Xrotation": "X", "Yrotation": "Y", "Zrotation": "Z"}


class BvhParseError(ValueError):
    """Malformed BVH input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _numbers(convert, words: list[str], message: str, line: int) -> list:
    """Each word converted, or a BvhParseError at line if one does not convert."""
    try:
        return list(map(convert, words))
    except ValueError:
        raise BvhParseError(message, line) from None


def parse_bvh(text: str, motion_class: str = "basic") -> MotionSequence:
    """Parse a BVH document into a MotionSequence.

    One pass over the numbered non-empty lines: a stack of open joints reads
    the hierarchy, and the lines after 'Frame Time:' are the frame rows. End
    Sites are dropped; Euler channels become quaternions in each joint's order.
    """
    raw = text.splitlines()
    last = max(len(raw), 1)  # the line a refusal at the end of the text names
    numbered = ((s, n) for n, line in enumerate(raw, 1) if (s := line.strip()))

    def take(at_end: str = "unexpected end of file") -> tuple[str, list[str], int]:
        item = next(numbered, None)
        if item is None:
            raise BvhParseError(at_end, last)
        return item[0], item[0].split(), item[1]

    line, words, num = take()
    if line != "HIERARCHY":
        raise BvhParseError(f"expected HIERARCHY, got {line!r}", num)
    line, words, num = take("expected ROOT")
    if not line.startswith("ROOT"):
        raise BvhParseError("expected ROOT", num)

    joints, open_joints = [], []  # (name, parent, offset, channels); indices of the open ones
    while True:
        keyword = words[0]
        if line == "}":
            open_joints.pop()
            if not open_joints:
                break
        elif keyword not in ("ROOT", "JOINT", "End"):
            raise BvhParseError(f"expected ROOT, JOINT or End Site, got {line!r}", num)
        elif keyword != "End" and len(words) < 2:
            raise BvhParseError(f"{keyword} missing a name", num)
        elif keyword == "ROOT" and open_joints:
            raise BvhParseError(f"ROOT inside joint {joints[open_joints[-1]][0]!r}; a file has one ROOT", num)
        else:
            name = "_".join(words[1:])
            line, words, num = take()
            if line != "{":
                raise BvhParseError("expected '{'", num)
            line, words, num = take()
            if words[0] != "OFFSET" or len(words) != 4:
                raise BvhParseError("expected 'OFFSET x y z'", num)
            offset = np.array(_numbers(float, words[1:], "OFFSET values must be numbers", num))
            line, words, num = take()
            if keyword == "End" and line != "}":
                raise BvhParseError("End Site must close after OFFSET", num)
            elif keyword != "End":
                if words[0] != "CHANNELS":
                    raise BvhParseError("expected CHANNELS", num)
                count = _numbers(int, words[1:2] or [""], "CHANNELS needs a count", num)[0]
                if len(words) - 2 != count:
                    raise BvhParseError(f"CHANNELS declares {count} but lists {len(words) - 2}", num)
                for c in words[2:]:
                    if c not in _POSITION_CHANNELS and c not in _ROTATION_CHANNELS:
                        raise BvhParseError(f"unsupported channel {c!r}", num)
                joints.append((name, open_joints[-1] if open_joints else -1, offset, words[2:]))
                open_joints.append(len(joints) - 1)
        line, words, num = take("unexpected end of hierarchy")

    line, words, num = take()
    if line != "MOTION":
        raise BvhParseError(f"expected MOTION, got {line!r}", num)
    line, words, num = take()
    if not line.startswith("Frames:"):
        raise BvhParseError("expected 'Frames:' count", num)
    declared_frames = _numbers(int, [line.split(":", 1)[1]], "Frames count must be an integer", num)[0]
    frames_line = num
    line, words, num = take()
    if not line.startswith("Frame Time:"):
        raise BvhParseError("expected 'Frame Time:'", num)
    frame_time = _numbers(float, [line.split(":", 1)[1]], "Frame Time must be a number", num)[0]
    if not 0 < frame_time < np.inf:
        raise BvhParseError(f"Frame Time must be finite and positive, got {frame_time!r}", num)

    names, parents, offsets, channels = zip(*joints)
    # Zero-offset roots are common in the wild; the Skeleton type requires a
    # non-degenerate hierarchy only for non-root joints.
    skeleton = Skeleton(names, parents, np.array(offsets))
    n_channels = sum(len(c) for c in channels)

    if n_channels == 0:
        # Channel-less file: every frame is the rest pose, and no row follows.
        if declared_frames < 1:
            raise BvhParseError(f"Frames count must be at least 1, got {declared_frames}", frames_line)
        row = next(numbered, None)
        if row is not None:
            raise BvhParseError(f"frame row has {len(row[0].split())} values, hierarchy declares 0 channels", row[1])
        return MotionSequence.rest(skeleton, 1.0 / frame_time, declared_frames, motion_class=motion_class)

    rows = list(numbered)
    values = []
    for line, num in rows:
        words = line.split()
        if len(words) != n_channels:
            raise BvhParseError(
                f"frame row has {len(words)} values, hierarchy declares {n_channels} channels", num
            )
        values.append(_numbers(float, words, "frame values must be numbers", num))
    if len(rows) != declared_frames:
        raise BvhParseError(
            f"MOTION declares {declared_frames} frames but {len(rows)} data rows found", last
        )
    if not rows:
        raise BvhParseError("no frame data", last)
    values = np.array(values)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise BvhParseError("frame values must be finite", rows[int(np.argmin(finite))][1])

    root_t = np.zeros((len(rows), 3))
    quats = np.zeros((len(rows), skeleton.num_joints, 4))
    quats[..., 0] = 1.0
    k = 0
    for j, chans in enumerate(channels):
        block, k = values[:, k:k + len(chans)], k + len(chans)
        position = [c in _POSITION_CHANNELS for c in chans]
        axes = [_POSITION_CHANNELS[c] for c in chans if c in _POSITION_CHANNELS]
        if j == 0:
            root_t[:, axes] = block[:, position]
        elif axes:
            held = (np.abs(block[:, position] - offsets[j][axes]) <= 1e-6).all(axis=1)
            if not held.all():
                raise BvhParseError(
                    f"position channels of joint {names[j]!r} must equal its OFFSET within 1e-6",
                    rows[int(np.argmin(held))][1],
                )
        order = "".join(_ROTATION_CHANNELS[c] for c in chans if c in _ROTATION_CHANNELS)
        if order:
            quats[:, j] = rot.from_euler(order, block[:, [not p for p in position]], degrees=True)
    return MotionSequence(skeleton, 1.0 / frame_time, root_t, quats, motion_class)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def write_bvh(seq: MotionSequence) -> str:
    """Serialize a MotionSequence: ZXY rotation channels, frame time 1/fps.

    The frame time is written as the shortest decimal that reads back as the
    same float, so the frame rate survives a write/parse round trip.

    Frame values follow the hierarchy's depth-first traversal, as BVH requires.
    """
    sk = seq.skeleton
    lines: list[str] = ["HIERARCHY"]
    traversal: list[int] = []

    def emit(joint: int, depth: int):
        traversal.append(joint)
        tag = "ROOT" if joint == 0 else "JOINT"
        pad = "  " * depth
        lines.append(f"{pad}{tag} {sk.joint_names[joint]}")
        lines.append(f"{pad}{{")
        off = sk.rest_offsets[joint]
        lines.append(f"{pad}  OFFSET {_fmt(off[0])} {_fmt(off[1])} {_fmt(off[2])}")
        if joint == 0:
            lines.append(
                f"{pad}  CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation"
            )
        else:
            lines.append(f"{pad}  CHANNELS 3 Zrotation Xrotation Yrotation")
        kids = sk.children(joint)
        if not kids:
            lines.append(f"{pad}  End Site")
            lines.append(f"{pad}  {{")
            lines.append(f"{pad}    OFFSET 0.000000 0.000000 0.000000")
            lines.append(f"{pad}  }}")
        for c in kids:
            emit(c, depth + 1)
        lines.append(f"{pad}}}")

    emit(0, 0)
    lines.append("MOTION")
    lines.append(f"Frames: {seq.num_frames}")
    lines.append(f"Frame Time: {1.0 / seq.fps!r}")
    eul = rot.to_euler_zxy(seq.local_rotations, degrees=True)[:, traversal]
    for root_t, angles in zip(seq.root_translations, eul):
        vals = [_fmt(v) for v in root_t]
        vals.extend(_fmt(v) for v in angles.ravel())
        lines.append(" ".join(vals))
    return "\n".join(lines) + "\n"
