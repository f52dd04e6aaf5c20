"""BVH motion-capture file reading and writing.

Reading accepts any mix of position/rotation channels and any rotation order;
writing always emits ZXY rotation channels and a 6-channel root. Offsets and
positions are kept in the skeleton's native units (meters for sequences
produced by this package).
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


class _Cursor:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def peek(self) -> tuple[str, int] | None:
        i = self.pos
        while i < len(self.raw):
            stripped = self.raw[i].strip()
            if stripped:
                return stripped, i + 1
            i += 1
        return None

    def next(self) -> tuple[str, int]:
        item = self.peek()
        if item is None:
            raise BvhParseError("unexpected end of file", len(self.raw))
        line, num = item
        self.pos = num
        return line, num


def parse_bvh(text: str, motion_class: str = "basic") -> MotionSequence:
    """Parse a BVH document into a MotionSequence.

    End Sites are dropped (they carry no channels); Euler channels are
    converted to quaternions respecting each joint's channel order.
    """
    cur = _Cursor(text)
    line, num = cur.next()
    if line != "HIERARCHY":
        raise BvhParseError(f"expected HIERARCHY, got {line!r}", num)

    names: list[str] = []
    parents: list[int] = []
    offsets: list[np.ndarray] = []
    channels: list[list[str]] = []

    def parse_joint(parent: int):
        line, num = cur.next()
        words = line.split()
        keyword = words[0]
        if keyword in ("ROOT", "JOINT"):
            if len(words) < 2:
                raise BvhParseError(f"{keyword} missing a name", num)
            is_end = False
            names.append("_".join(words[1:]))
            parents.append(parent)
            index = len(names) - 1
        elif keyword == "End":
            is_end = True
            index = -1
        else:
            raise BvhParseError(f"expected ROOT, JOINT or End Site, got {line!r}", num)

        line, num = cur.next()
        if line != "{":
            raise BvhParseError("expected '{'", num)
        line, num = cur.next()
        words = line.split()
        if words[0] != "OFFSET" or len(words) != 4:
            raise BvhParseError("expected 'OFFSET x y z'", num)
        try:
            offset = np.array([float(w) for w in words[1:]])
        except ValueError:
            raise BvhParseError("OFFSET values must be numbers", num) from None
        if not is_end:
            offsets.append(offset)
            line, num = cur.next()
            words = line.split()
            if words[0] != "CHANNELS":
                raise BvhParseError("expected CHANNELS", num)
            try:
                count = int(words[1])
            except (IndexError, ValueError):
                raise BvhParseError("CHANNELS needs a count", num) from None
            chans = words[2:]
            if len(chans) != count:
                raise BvhParseError(
                    f"CHANNELS declares {count} but lists {len(chans)}", num
                )
            for c in chans:
                if c not in _POSITION_CHANNELS and c not in _ROTATION_CHANNELS:
                    raise BvhParseError(f"unsupported channel {c!r}", num)
            channels.append(chans)
            while True:
                peeked = cur.peek()
                if peeked is None:
                    raise BvhParseError("unexpected end of hierarchy", len(cur.raw))
                if peeked[0] == "}":
                    cur.next()
                    return
                parse_joint(index)
        else:
            line, num = cur.next()
            if line != "}":
                raise BvhParseError("End Site must close after OFFSET", num)

    first = cur.peek()
    if first is None or not first[0].startswith("ROOT"):
        raise BvhParseError("expected ROOT", first[1] if first else len(cur.raw))
    parse_joint(-1)

    line, num = cur.next()
    if line != "MOTION":
        raise BvhParseError(f"expected MOTION, got {line!r}", num)
    line, num = cur.next()
    if not line.startswith("Frames:"):
        raise BvhParseError("expected 'Frames:' count", num)
    try:
        declared_frames = int(line.split(":", 1)[1])
    except ValueError:
        raise BvhParseError("Frames count must be an integer", num) from None
    line, num = cur.next()
    if not line.startswith("Frame Time:"):
        raise BvhParseError("expected 'Frame Time:'", num)
    try:
        frame_time = float(line.split(":", 1)[1])
    except ValueError:
        raise BvhParseError("Frame Time must be a number", num) from None
    if not 0 < frame_time < np.inf:
        raise BvhParseError(f"Frame Time must be finite and positive, got {frame_time!r}", num)

    # Zero-offset roots are common in the wild; the Skeleton type requires a
    # non-degenerate hierarchy only for non-root joints.
    skeleton = Skeleton(tuple(names), tuple(parents), np.array(offsets))
    n_channels = sum(len(c) for c in channels)

    if n_channels == 0:
        # Channel-less file: every frame is the rest pose.
        return MotionSequence.rest(
            skeleton, 1.0 / frame_time, max(declared_frames, 1), motion_class=motion_class
        )

    rows: list[list[float]] = []
    row_lines: list[int] = []
    while True:
        item = cur.peek()
        if item is None:
            break
        line, num = cur.next()
        values = line.split()
        if len(values) != n_channels:
            raise BvhParseError(
                f"frame row has {len(values)} values, hierarchy declares {n_channels} channels",
                num,
            )
        try:
            rows.append([float(v) for v in values])
        except ValueError:
            raise BvhParseError("frame values must be numbers", num) from None
        row_lines.append(num)

    if len(rows) != declared_frames:
        raise BvhParseError(
            f"MOTION declares {declared_frames} frames but {len(rows)} data rows found",
            len(cur.raw),
        )
    if not rows:
        raise BvhParseError("no frame data", len(cur.raw))
    values = np.array(rows)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise BvhParseError("frame values must be finite", row_lines[int(np.argmin(finite))])
    root_t = np.zeros((len(rows), 3))
    quats = np.zeros((len(rows), skeleton.num_joints, 4))
    quats[..., 0] = 1.0
    k = 0
    for j, chans in enumerate(channels):
        order = ""
        columns = []
        for c in chans:
            if c in _POSITION_CHANNELS:
                if j == 0:
                    root_t[:, _POSITION_CHANNELS[c]] = values[:, k]
            else:
                order += _ROTATION_CHANNELS[c]
                columns.append(k)
            k += 1
        if order:
            quats[:, j] = rot.from_euler(order, values[:, columns], degrees=True)
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
