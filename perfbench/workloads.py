"""The benchmark's workloads: seeded configs and input files for `bench run`.

Each workload is a list of `bench run` configs, run in order. `generate`
writes every config and input file a workload needs from one seed; the
program sees nothing else. The sizes below are chosen so that one round of
every workload fits one timed run (see README.md for the figures).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

MOTIONS = ("basic", "fast", "extreme")
FPS = 30.0

# cloth_motion: every procedural motion, a tight and a loose class, default
# resolution, one build. The fast clip drives the moving-capsule collisions.
CLOTH_CLIP_S = 0.5
CLOTH_WARMUP_S = 0.5
CLOTH_CLASSES = (1, 6)

# markerless: cloth-free cells, so only FK, swing recovery, the surrogate,
# BVH parsing and estimate ingestion run.
MARKERLESS_CLIP_S = 2.0
MARKERLESS_BVH_CLASS = "basic"
BVH_SEED_OFFSET = 1_000_003  # keeps the file clip apart from the sweep's clips

# garment_builds: the smallest and the largest build at a raised resolution
# on a short clip, so garment fitting and network construction weigh about a
# third of the round and the cloth runs at about 2.2x the default particles.
BUILDS_BUILDS = ("female_small", "male_large")
BUILDS_CLASSES = (1, 6)
BUILDS_RESOLUTION = 1.5
BUILDS_CLIP_S = 0.25
BUILDS_WARMUP_S = 0.25
BUILDS_MOTION = "basic"

BUILD = "female_average"
WORKLOADS = ("cloth_motion", "markerless", "garment_builds")


@dataclass(frozen=True)
class IngestTruth:
    """What the benchmark knows about the clip it wrote for markerless_ingest."""

    joints: np.ndarray        # (T, 24, 3) ground-truth joints written to the estimate file
    rest_offsets: np.ndarray  # (24, 3) skeleton offsets the BVH file was written from
    parents: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    config_paths: tuple[str, ...]
    ingest: IngestTruth | None = None


def _config(seed: int, out_dir: str, **fields) -> dict:
    doc = {
        "seed": seed,
        "builds": [BUILD],
        "drape_classes": [1],
        "garment_categories": ["tshirt", "trousers"],
        "workers": 1,
        "output_dir": out_dir,
    }
    doc.update(fields)
    return doc


def _motion(motion_class: str, duration_s: float, source: str = "procedural") -> dict:
    return {"motion_class": motion_class, "source": source, "duration_s": duration_s, "fps": FPS}


def _cloth_motion(seed: int, work: str) -> list[dict]:
    return [_config(
        seed, os.path.join(work, "out"),
        motions=[_motion(m, CLOTH_CLIP_S) for m in MOTIONS],
        drape_classes=list(CLOTH_CLASSES),
        methods=[{"kind": "marker_based", "noise": True}],
        warmup_s=CLOTH_WARMUP_S,
    )]


def _garment_builds(seed: int, work: str) -> list[dict]:
    return [_config(
        seed, os.path.join(work, "out"),
        motions=[_motion(BUILDS_MOTION, BUILDS_CLIP_S)],
        builds=list(BUILDS_BUILDS),
        drape_classes=list(BUILDS_CLASSES),
        methods=[{"kind": "marker_based", "noise": True}],
        resolution_scale=BUILDS_RESOLUTION,
        warmup_s=BUILDS_WARMUP_S,
    )]


def _markerless(seed: int, work: str) -> tuple[list[dict], IngestTruth]:
    # Imported here: run.py puts src/ on the path only after importing this module.
    from drapebench.body import body_skeleton
    from drapebench.bvh import parse_bvh, write_bvh
    from drapebench.kinematics import procedural_motion, rescale_to_height, sequence_transforms

    sweep = _config(
        seed, os.path.join(work, "out_sweep"),
        motions=[_motion(m, MARKERLESS_CLIP_S) for m in MOTIONS],
        methods=[
            {"kind": "markerless_surrogate", "profile": "basic_err"},
            {"kind": "markerless_surrogate", "profile": "extreme_err"},
            {"kind": "marker_based", "noise": True},
            {"kind": "marker_based", "noise": False},
        ],
        garment_categories=[],
    )
    # One clip goes through the file route: the benchmark writes it as BVH
    # and writes its own ground-truth joints as an smpl24 estimate file.
    skeleton = body_skeleton(BUILD)
    clip = procedural_motion(
        MARKERLESS_BVH_CLASS, MARKERLESS_CLIP_S, FPS, seed + BVH_SEED_OFFSET, skeleton
    )
    bvh_text = write_bvh(clip)
    bvh_path = os.path.join(work, "clip.bvh")
    with open(bvh_path, "w") as fh:
        fh.write(bvh_text)
    # The joints the program will derive from this file: the parsed clip
    # rescaled to the build, exactly as a BVH-sourced cell loads it.
    parsed = rescale_to_height(parse_bvh(bvh_text, MARKERLESS_BVH_CLASS), skeleton.rest_height())
    joints, _ = sequence_transforms(parsed)
    # The estimate carries the frame rate the BVH file states. That is not
    # exactly FPS: the file stores the frame time to 7 decimals (0.0333333 s),
    # and the program refuses an estimate whose rate differs by over 1e-9.
    frame_time = next(
        float(line.split(":")[1]) for line in bvh_text.splitlines() if line.startswith("Frame Time:")
    )
    est_path = os.path.join(work, "clip_estimate.json")
    with open(est_path, "w") as fh:
        json.dump({"convention": "smpl24", "fps": 1.0 / frame_time, "frames": joints.tolist()}, fh)
    ingest = _config(
        seed, os.path.join(work, "out_ingest"),
        motions=[_motion(MARKERLESS_BVH_CLASS, MARKERLESS_CLIP_S, source=bvh_path)],
        methods=[{"kind": "markerless_ingest", "path": est_path}],
        garment_categories=[],
    )
    truth = IngestTruth(joints, clip.skeleton.rest_offsets.copy(), tuple(skeleton.parents))
    return [sweep, ingest], truth


def generate(name: str, seed: int, work: str) -> Workload:
    """Write the workload's configs and inputs under `work` (a relative path)."""
    os.makedirs(work, exist_ok=True)
    truth = None
    if name == "cloth_motion":
        configs = _cloth_motion(seed, work)
    elif name == "garment_builds":
        configs = _garment_builds(seed, work)
    elif name == "markerless":
        configs, truth = _markerless(seed, work)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    paths = []
    for i, doc in enumerate(configs):
        path = os.path.join(work, f"config_{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        paths.append(path)
    return Workload(tuple(paths), truth)
