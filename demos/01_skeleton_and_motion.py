"""Skeletons, forward kinematics, procedural clips and BVH interchange.

Walks through the 24-joint body: build it, pose it, generate the three
motion intensities, and round-trip a clip through BVH text. A clip is held
as arrays: root translations (T, 3) and local rotations (T, J, 4).
"""

import numpy as np

from drapebench.bvh import parse_bvh, write_bvh
from drapebench.kinematics import (
    default_skeleton,
    max_joint_angle,
    max_joint_speed,
    procedural_motion,
    rescale_to_height,
    sequence_transforms,
)

skeleton = default_skeleton()
print(f"skeleton: {skeleton.num_joints} joints, rest height {skeleton.rest_height():.3f} m")
print("joints:", ", ".join(skeleton.joint_names))

positions = skeleton.rest_positions()
head = skeleton.joint_names.index("head")
foot = skeleton.joint_names.index("left_foot")
print(f"rest pose: head at y={positions[head, 1]:+.3f}, left foot at y={positions[foot, 1]:+.3f}")

print("\nprocedural clips (seed 7, 3 s @ 30 fps):")
for motion_class in ("basic", "fast", "extreme"):
    seq = procedural_motion(motion_class, 3.0, 30, seed=7)
    speed = np.rad2deg(max_joint_speed(seq))
    peak = np.rad2deg(max_joint_angle(seq))
    print(f"  {motion_class:8s} rotations {seq.local_rotations.shape}  max joint speed {speed:7.1f} deg/s  peak angle {peak:5.1f} deg")

seq = procedural_motion("basic", 2.0, 30, seed=7)
text = write_bvh(seq)
print(f"\nBVH export: {len(text.splitlines())} lines, starts with {text.splitlines()[0]!r}")
back = parse_bvh(text)
orig, _ = sequence_transforms(seq)
redo, _ = sequence_transforms(back)
# Parsing renumbers joints in depth-first order, so align by name.
order = [back.skeleton.joint_names.index(n) for n in seq.skeleton.joint_names]
print(f"BVH round trip: worst joint position difference {np.abs(orig - redo[:, order]).max():.2e} m")

short = rescale_to_height(seq, 0.85)
print(f"rescaled clip height: {short.skeleton.rest_height():.3f} m (offsets halved, rotations untouched)")
