"""Benchmark matrix orchestration: configuration, execution, reporting.

A run sweeps (motion x build x drape class x method) cells. Every cell is
pure given the global seed: per-cell seeds derive from the cell coordinates,
so any subset of cells, in any order or process layout, reproduces the rows
of the full sweep bit for bit. A cell's coordinates are its motion class,
build, drape class and method label; a config whose cells would share
coordinates, or that names an unknown build or a drape class outside 1..6,
is refused.

The unit of work is a (motion, build, drape class) group: one job builds the
body, clip, FK and ground-truth swing angles once, and the garment, cloth
simulation and noiseless marker trajectory once if a marker_based method
needs them, then scores every configured method against them. Shared
products are pure functions of the config and no method writes to them, so
a row does not depend on which other methods share its group. A failing
shared product fails exactly the cells that need it, with its error. The
report's `cell_wall_times_s` keeps one entry per cell; each counts the
shared products that cell was first to need, so the entries add up to the
sweep's work.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, _inputs
from .body import BUILD_CATALOG, body_capsules, build_parametric_body
from .bvh import parse_bvh, write_bvh
from .cloth import ClothParams, simulate_sequence
from .estimates import SURROGATE_PROFILES, ingest_estimates, normalize_estimate, surrogate_estimator
from .garment import DRAPE_THRESHOLDS, GARMENT_CATEGORIES, Garment, generate_garment, sleeve_columns
from .kinematics import (
    MOTION_CLASSES,
    MotionSequence,
    clip_frames,
    procedural_motion,
    rescale_to_height,
    ride_joints,
    sequence_transforms,
)
from .markers import (
    add_marker_noise,
    marker_pair_midpoints,
    place_markers,
    reconstruct_pose_from_markers,
    track_markers,
)
from .metrics import angles_from_positions, crmse, mpjpe

CRMSE_CONVENTION = "swing_only"

_AUTO_PROFILE = {"basic": "basic_err", "fast": "fast_err", "extreme": "extreme_err"}


@dataclass(frozen=True)
class MotionSpec:
    motion_class: str
    source: str = "procedural"  # "procedural" or a BVH file path
    duration_s: float = 10.0
    fps: float = 30.0

    def __post_init__(self):
        if self.motion_class not in MOTION_CLASSES:
            raise ValueError(f"unknown motion class {self.motion_class!r}; choose from {MOTION_CLASSES}")
        _inputs.positive("motion duration_s", self.duration_s)
        _inputs.positive("motion fps", self.fps)
        if self.source == "procedural":
            clip_frames(self.duration_s, self.fps)  # a clip too short to run, refused at load


@dataclass(frozen=True)
class MethodSpec:
    kind: str                    # marker_based | markerless_surrogate | markerless_ingest
    noise: bool = True           # marker_based: add the 5 mm gaussian noise
    profile: str = "auto"        # markerless_surrogate: error profile name
    path: str = ""               # markerless_ingest: estimate file

    def __post_init__(self):
        if self.kind not in ("marker_based", "markerless_surrogate", "markerless_ingest"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        _inputs.flag("method noise", self.noise)
        if self.kind == "markerless_surrogate" and self.profile not in ("auto", *SURROGATE_PROFILES):
            raise ValueError(
                f"unknown surrogate profile {self.profile!r}; choose 'auto' or one of {sorted(SURROGATE_PROFILES)}"
            )
        if self.kind == "markerless_ingest" and not self.path:
            raise ValueError("markerless_ingest needs the estimate file's path")


@dataclass(frozen=True)
class BenchConfig:
    seed: int = 0
    motions: tuple[MotionSpec, ...] = (MotionSpec("basic"),)
    builds: tuple[str, ...] = ("female_average",)
    drape_classes: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    methods: tuple[MethodSpec, ...] = (MethodSpec("marker_based"),)
    garment_categories: tuple[str, ...] = ("tshirt", "trousers")
    cloth: dict = field(default_factory=dict)
    resolution_scale: float = 1.0
    warmup_s: float = 2.0
    noise_rms_m: float = 0.005
    workers: int = 1
    output_dir: str = "bench_out"
    export_bvh: bool = False

    def __post_init__(self):
        _inputs.integer("seed", self.seed)
        if not (self.motions and self.builds and self.drape_classes and self.methods):
            raise ValueError("motions, builds, drape_classes and methods must be non-empty")
        object.__setattr__(self, "motions", tuple(
            m if isinstance(m, MotionSpec) else MotionSpec(**m) for m in self.motions
        ))
        object.__setattr__(self, "methods", tuple(
            m if isinstance(m, MethodSpec) else MethodSpec(**m) for m in self.methods
        ))
        object.__setattr__(self, "builds", tuple(self.builds))
        object.__setattr__(self, "drape_classes", tuple(self.drape_classes))
        object.__setattr__(self, "garment_categories", tuple(self.garment_categories))
        unknown = sorted(set(self.cloth) - {f.name for f in fields(ClothParams)})
        if unknown:
            raise ValueError(f"unknown cloth key {', '.join(map(repr, unknown))}")
        self.cloth_params()  # ClothParams refuses an out-of-range value, naming its key
        unknown = [b for b in self.builds if b not in BUILD_CATALOG]
        if unknown:
            raise ValueError(
                f"unknown build {', '.join(map(repr, unknown))}; choose from {sorted(BUILD_CATALOG)}"
            )
        _inputs.integers("drape_classes", self.drape_classes)
        outside = [str(c) for c in self.drape_classes if not 1 <= c <= 6]
        if outside:
            raise ValueError(f"drape class {', '.join(outside)} outside 1..6")
        unknown = [c for c in self.garment_categories if c not in GARMENT_CATEGORIES]
        if unknown:
            raise ValueError(
                f"unknown garment category {', '.join(map(repr, unknown))}; choose from {GARMENT_CATEGORIES}"
            )
        _inputs.integer("workers", self.workers, minimum=1)
        _inputs.positive("resolution_scale", self.resolution_scale)
        if self.garment_categories:
            sleeve_columns(self.resolution_scale)  # the garment's column floor, refused at load
        _inputs.non_negative("warmup_s", self.warmup_s)
        _inputs.non_negative("noise_rms_m", self.noise_rms_m)
        _inputs.flag("export_bvh", self.export_bvh)
        for what, labels in (
            ("motions share the motion_class", [m.motion_class for m in self.motions]),
            ("builds repeat", list(self.builds)),
            ("drape_classes repeat", [str(c) for c in self.drape_classes]),
            ("methods share the label", [self.method_label(m) for m in self.methods]),
            ("garment_categories repeat", list(self.garment_categories)),
        ):
            repeated = sorted({x for x in labels if labels.count(x) > 1})
            if repeated:
                raise ValueError(f"{what} {', '.join(repeated)}; a config lists each once")

    def method_label(self, method: MethodSpec) -> str:
        """The method's row label: its kind, qualified by the field that
        tells it apart when the kind recurs in this config."""
        if sum(m.kind == method.kind for m in self.methods) == 1:
            return method.kind
        if method.kind == "marker_based":
            return "marker_based[noise]" if method.noise else "marker_based[no_noise]"
        if method.kind == "markerless_surrogate":
            return f"markerless_surrogate[{method.profile}]"
        return f"markerless_ingest[{method.path}]"

    def cloth_params(self) -> ClothParams:
        return ClothParams(**self.cloth)

    def drape_table(self) -> tuple[float, ...]:
        """The class boundaries garments are fitted to: always the engine's."""
        return DRAPE_THRESHOLDS

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BenchConfig":
        return BenchConfig(**json.loads(text))

    @staticmethod
    def load(path: str) -> "BenchConfig":
        with open(path) as fh:
            return BenchConfig.from_json(fh.read())

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def cell_coordinates(config: BenchConfig) -> list[tuple[MotionSpec, str, int, MethodSpec]]:
    return [
        (motion, build, drape, method)
        for motion in config.motions
        for build in config.builds
        for drape in config.drape_classes
        for method in config.methods
    ]


def cell_id(motion: MotionSpec, build: str, drape: int, method_label: str) -> str:
    return f"{motion.motion_class}/{build}/{drape}/{method_label}"


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass
class CellResult:
    motion_class: str
    build: str
    drape_class: int
    method: str
    status: str = "ok"
    error: str = ""
    frames: int = 0
    drape_ratio: float = 0.0
    source_label: str = ""
    variants: dict = field(default_factory=dict)  # variant -> {mpjpe_m, crmse, crmse_deg}

    def key(self) -> tuple:
        return (self.motion_class, self.build, self.drape_class, self.method)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "CellResult":
        return CellResult(**d)


@dataclass
class BenchmarkReport:
    cells: list[CellResult]
    metadata: dict

    @property
    def failed_cells(self) -> list[CellResult]:
        return [c for c in self.cells if c.status != "ok"]

    def body_json(self) -> str:
        """The deterministic portion of the report (no timings, no timestamps)."""
        return json.dumps([c.to_dict() for c in self.cells], sort_keys=True)


def _load_motion(config: BenchConfig, spec: MotionSpec, skeleton) -> MotionSequence:
    if spec.source == "procedural":
        seed = _derive_seed(config.seed, "motion", spec.motion_class, spec.duration_s, spec.fps)
        return procedural_motion(spec.motion_class, spec.duration_s, spec.fps, seed, skeleton)
    with open(spec.source) as fh:
        seq = parse_bvh(fh.read(), spec.motion_class)
    return rescale_to_height(seq, skeleton.rest_height())


def _simulate_garment(config, body, garment: Garment, seq, joint_pos, joint_orient):
    sk = body.skeleton
    rest_pos = sk.rest_positions()
    collider_frames = [body_capsules(sk, body.build_label, joint_positions=p) for p in joint_pos]
    # Every vertex rides its binding joint's frame: the pinned ones give the
    # rigid pin targets, all of them give the frame-0 initial guess.
    joints = garment.binding_joint
    local = garment.mesh.vertices - rest_pos[joints]
    pin = garment.pinned
    pin_frames = ride_joints(joint_pos, joint_orient, joints[pin], local[pin])
    initial = ride_joints(joint_pos[0], joint_orient[0], joints, local)
    return simulate_sequence(
        garment.mesh, garment.pinned, pin_frames, collider_frames,
        config.cloth_params(), seq.fps, config.warmup_s, initial_positions=initial,
    )


def _metric_row(gt_pos, est_pos, pos_valid, gt_ang, est_ang, ang_valid) -> dict:
    value, degrees = crmse(gt_ang, est_ang, ang_valid)
    return {
        "mpjpe_m": mpjpe(gt_pos, est_pos, pos_valid),
        "crmse": value,
        "crmse_deg": degrees,
    }


def _once(make):
    """`make`, called at most once: later calls return its value, or raise its error again."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((make(), None))
            except Exception as exc:
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value

    return get


def _run_group(
    config: BenchConfig, motion: MotionSpec, build: str, drape: int,
    methods: tuple[MethodSpec, ...], artifacts_dir: str | None = None,
) -> list[tuple[CellResult, float]]:
    """Run the `methods` cells of one (motion, build, drape) group, in order.

    The cells share products made once, when the first cell needs them: the
    body, clip, FK and ground-truth swing angles; and for marker_based cells
    the garment, cloth simulation, marker placement and noiseless trajectory.
    No cell writes to a shared product, so each row equals the row of its
    cell run alone. A product that fails fails every cell that needs it with
    its error; a cell's own failure fails that cell only. Returns each row
    with its wall time, which counts the shared products it was first to need.
    """

    @_once
    def truth():
        body = build_parametric_body(build)
        seq = _load_motion(config, motion, body.skeleton)
        joint_pos, joint_orient = sequence_transforms(seq)
        return body, seq, joint_pos, joint_orient, *angles_from_positions(body.skeleton, joint_pos)

    @_once
    def markers():
        body, seq, joint_pos, joint_orient, *_ = truth()
        drape_ratio = 0.0
        if config.garment_categories:
            garment = generate_garment(body, config.garment_categories, drape, config.resolution_scale)
            drape_ratio = garment.drape_ratio
            cloth_states = _simulate_garment(config, body, garment, seq, joint_pos, joint_orient)
            placement = place_markers(body, garment.mesh)
            traj = track_markers(
                placement, joint_pos, joint_orient, seq.fps, cloth_states, garment.mesh.faces
            )
        else:
            # Unclothed baseline: every marker lands on skin.
            placement = place_markers(body, None)
            traj = track_markers(placement, joint_pos, joint_orient, seq.fps)
        cloth_joints = np.isin(np.arange(body.skeleton.num_joints), placement.joint[placement.on_cloth])
        return traj, cloth_joints, drape_ratio

    rows = []
    for method in methods:
        tic = time.perf_counter()
        label = config.method_label(method)
        try:
            cell = _score_cell(config, motion, build, drape, method, label, truth, markers, artifacts_dir)
        except Exception as exc:  # cell isolation: a blow-up must not kill the sweep
            cell = CellResult(motion.motion_class, build, drape, label, status="error", error=f"{exc}")
        rows.append((cell, time.perf_counter() - tic))
    return rows


def _score_cell(config, motion, build, drape, method, label, truth, markers, artifacts_dir) -> CellResult:
    """Score one method against its group's shared products; raises on failure."""
    result = CellResult(motion.motion_class, build, drape, label)
    cell_seed = _derive_seed(config.seed, motion.motion_class, build, drape, label)
    body, seq, joint_pos, _, gt_ang, gt_ang_mask = truth()
    sk = body.skeleton
    result.frames = seq.num_frames

    if method.kind == "marker_based":
        traj, cloth_joints, result.drape_ratio = markers()
        if method.noise and config.noise_rms_m > 0:
            traj = add_marker_noise(traj, cell_seed, config.noise_rms_m)
        # Joint position estimates are the pair midpoints; the hierarchical
        # swing fit (bone lengths constrained) provides angles and BVH export.
        est_pos = marker_pair_midpoints(traj)
        est_ang, est_ang_mask = angles_from_positions(sk, est_pos)
        ang_mask = gt_ang_mask & est_ang_mask
        result.variants["all_markers"] = _metric_row(
            joint_pos, est_pos, None, gt_ang, est_ang, ang_mask
        )
        if cloth_joints.any():
            result.variants["cloth_only"] = _metric_row(
                joint_pos, est_pos, cloth_joints[None, :], gt_ang, est_ang,
                ang_mask & cloth_joints[None, :],
            )
        result.source_label = "virtual_markers"
        if config.export_bvh and artifacts_dir:
            est_seq = reconstruct_pose_from_markers(traj, sk, seq.motion_class)
            name = cell_id(motion, build, drape, label).replace("/", "_") + ".bvh"
            with open(os.path.join(artifacts_dir, name), "w") as fh:
                fh.write(write_bvh(est_seq))
    else:
        if method.kind == "markerless_surrogate":
            profile = method.profile
            if profile == "auto":
                profile = _AUTO_PROFILE[motion.motion_class]
            est = surrogate_estimator(joint_pos, seq.fps, profile, cell_seed)
        else:
            est = ingest_estimates(method.path)
            if abs(est.fps - seq.fps) > 1e-9:
                raise ValueError(
                    f"estimate fps {est.fps} does not match motion fps {seq.fps}"
                )
            if len(est.positions) != seq.num_frames:
                raise ValueError(
                    f"estimate has {len(est.positions)} frames, motion has {seq.num_frames}"
                )
        norm = normalize_estimate(est, target_height=BUILD_CATALOG[build].height)
        est_ang, est_ang_mask = angles_from_positions(sk, norm.absolute, norm.valid)
        ang_mask = gt_ang_mask & est_ang_mask
        result.variants["absolute"] = _metric_row(
            joint_pos, norm.absolute, norm.valid, gt_ang, est_ang, ang_mask
        )
        result.variants["root_aligned"] = _metric_row(
            joint_pos - joint_pos[:, :1], norm.root_aligned, norm.valid, gt_ang, est_ang, ang_mask
        )
        result.source_label = est.source_label
    return result


def run_cell(
    config: BenchConfig, motion: MotionSpec, build: str, drape: int, method: MethodSpec,
    artifacts_dir: str | None = None,
) -> CellResult:
    """Execute one benchmark cell, a group of one; a failure comes back as its error row."""
    return _run_group(config, motion, build, drape, (method,), artifacts_dir)[0][0]


def run_benchmark(config: BenchConfig, artifacts_dir: str | None = None) -> BenchmarkReport:
    """Run every cell of the configured matrix.

    One job per (motion, build, drape) group runs all of the group's methods.
    Failures are recorded per cell and the sweep continues. Rows come back in
    coordinate order, serial or parallel.
    """
    groups = [
        (motion, build, drape)
        for motion in config.motions
        for build in config.builds
        for drape in config.drape_classes
    ]
    if config.export_bvh and artifacts_dir is None:
        artifacts_dir = config.output_dir
    if artifacts_dir:
        os.makedirs(artifacts_dir, exist_ok=True)
    jobs = [(config, *group, config.methods, artifacts_dir) for group in groups]
    tic = time.perf_counter()
    workers = min(config.workers, len(groups))
    if workers > 1:
        # Imported here: a serial sweep never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_group, *zip(*jobs)))
    else:
        results = [_run_group(*job) for job in jobs]
    rows = [row for group_rows in results for row in group_rows]
    cells = [cell for cell, _ in rows]
    wall_times = {
        cell_id(motion, build, drape, cell.method): round(wall, 3)
        for (motion, build, drape, _), (cell, wall) in zip(cell_coordinates(config), rows)
    }
    metadata = {
        "engine_version": __version__,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "crmse_convention": CRMSE_CONVENTION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "total_wall_time_s": round(time.perf_counter() - tic, 3),
        "cell_wall_times_s": wall_times,
    }
    return BenchmarkReport(cells, metadata)


# --- persistence -----------------------------------------------------------

CSV_HEADER = "motion_class,build,drape_class,method,variant,mpjpe_m,crmse,crmse_deg,frames"


def report_to_csv(report: BenchmarkReport) -> str:
    lines = [CSV_HEADER]
    for c in report.cells:
        if c.status != "ok":
            continue
        for variant in sorted(c.variants):
            row = c.variants[variant]
            lines.append(
                f"{c.motion_class},{c.build},{c.drape_class},{c.method},{variant},"
                f"{row['mpjpe_m']!r},{row['crmse']!r},{row['crmse_deg']!r},{c.frames}"
            )
    return "\n".join(lines) + "\n"


def write_report(report: BenchmarkReport, out_dir: str) -> dict[str, str]:
    """Write report.json and report.csv; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    doc = {"metadata": report.metadata, "cells": [c.to_dict() for c in report.cells]}
    paths["json"] = os.path.join(out_dir, "report.json")
    with open(paths["json"], "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    paths["csv"] = os.path.join(out_dir, "report.csv")
    with open(paths["csv"], "w") as fh:
        fh.write(report_to_csv(report))
    return paths


def read_report(path: str) -> BenchmarkReport:
    with open(path) as fh:
        doc = json.load(fh)
    return BenchmarkReport([CellResult.from_dict(d) for d in doc["cells"]], doc["metadata"])


def emit_plot_data(report: BenchmarkReport, out_dir: str) -> list[str]:
    """One plot-ready CSV per (motion class, build, metric): drape class vs series.

    Columns are method:variant series; a missing cell leaves an empty field
    rather than a zero.
    """
    if not report.cells:
        raise ValueError("report has no cells to plot")
    os.makedirs(out_dir, exist_ok=True)
    motions = sorted({c.motion_class for c in report.cells})
    builds = sorted({c.build for c in report.cells})
    classes = sorted({c.drape_class for c in report.cells})
    series = sorted(
        {
            (c.method, v)
            for c in report.cells
            if c.status == "ok"
            for v in c.variants
        }
    )
    by_key = {c.key(): c for c in report.cells if c.status == "ok"}
    written = []
    for metric in ("mpjpe_m", "crmse_deg"):
        for motion in motions:
            for build in builds:
                lines = ["drape_class," + ",".join(f"{m}:{v}" for m, v in series)]
                for drape in classes:
                    fields = [str(drape)]
                    for m, v in series:
                        cell = by_key.get((motion, build, drape, m))
                        if cell is not None and v in cell.variants:
                            fields.append(repr(cell.variants[v][metric]))
                        else:
                            fields.append("")
                    lines.append(",".join(fields))
                path = os.path.join(out_dir, f"plot_{motion}_{build}_{metric}.csv")
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                written.append(path)
    return written
