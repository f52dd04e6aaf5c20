"""The virtual marker-based capture pipeline, end to end.

Places the 48-marker set on skin vs garment by T-pose coverage, tracks it
through a walking clip with simulated cloth, adds the 5 mm noise, and scores
the reconstruction against the anatomic ground truth.
"""

import numpy as np

from drapebench.body import build_parametric_body
from drapebench.bench import _simulate_garment, BenchConfig  # reuse the cell plumbing
from drapebench.garment import generate_garment
from drapebench.kinematics import procedural_motion, sequence_transforms
from drapebench.markers import (
    add_marker_noise,
    marker_pair_midpoints,
    place_markers,
    reconstruct_pose_from_markers,
    track_markers,
)
from drapebench.metrics import angles_from_positions, crmse, mpjpe

body = build_parametric_body("female_average")
garment = generate_garment(body, ("tshirt", "trousers"), 3)
print(f"tshirt + trousers at class 3: drape {garment.drape_ratio:.3f} over their summed volumes, "
      f"radial slack {', '.join(f'{s * 1000:.1f}' for s in garment.slack)} mm")

placement = place_markers(body, garment.mesh)
joints = np.arange(body.skeleton.num_joints)
names = np.array(body.skeleton.joint_names)
cloth_mask = np.isin(joints, placement.joint[placement.on_cloth])
skin_mask = np.isin(joints, placement.joint[~placement.on_cloth])
print(f"{placement.num_markers} markers placed; cloth-attached joints: {', '.join(sorted(names[cloth_mask]))}")
print(f"skin-attached joints: {', '.join(sorted(names[skin_mask]))}")

motion = procedural_motion("basic", 3.0, 30, seed=5, skeleton=body.skeleton)
joint_pos, joint_orient = sequence_transforms(motion)

print("\nsimulating the garment over the clip (2 s warm start)...")
config = BenchConfig(warmup_s=2.0)
cloth_states = _simulate_garment(config, body, garment, motion, joint_pos, joint_orient)

traj = track_markers(placement, joint_pos, joint_orient, motion.fps, cloth_states, garment.mesh.faces)
noisy = add_marker_noise(traj, seed=99)

est_pos = marker_pair_midpoints(noisy)
gt_ang, gt_mask = angles_from_positions(body.skeleton, joint_pos)
est_ang, est_mask = angles_from_positions(body.skeleton, est_pos)
value, degrees = crmse(gt_ang, est_ang, gt_mask & est_mask)

print(f"\nMPJPE over all 24 joints:      {mpjpe(joint_pos, est_pos) * 100:.2f} cm")
print(f"MPJPE over cloth-marker joints: {mpjpe(joint_pos, est_pos, cloth_mask[None]) * 100:.2f} cm")
print(f"CRMSE {value:.4f} (degree equivalent {degrees:.2f} deg, swing-only convention)")

sequence = reconstruct_pose_from_markers(noisy, body.skeleton)
print(f"reconstructed clip: root translations {sequence.root_translations.shape}, "
      f"local rotations {sequence.local_rotations.shape}")
from drapebench.bvh import write_bvh

with open("/tmp/estimated_motion.bvh", "w") as fh:
    fh.write(write_bvh(sequence))
print("wrote /tmp/estimated_motion.bvh (bone lengths constrained to the skeleton)")
