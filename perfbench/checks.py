"""Correctness checks on every report row, computed apart from the program.

A row is one cell of one config, matched to its configured coordinates in
the documented row order (motion, build, drape class, method). Each check
either recomputes an expected value from the inputs the benchmark wrote, or
tests a property the method must have. A row fails when its status is not
`ok` or when it fails any check that applies to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Class boundaries as documented (README "Conventions worth knowing").
DRAPE_EDGES = (0.0, 0.05, 0.15, 0.30, 0.60, 1.00, math.inf)
NOISE_TOLERANCE = 0.05      # relative, on 2160+ joint samples: > 5 standard errors
PROFILE_ORDER = ("basic_err", "extreme_err")


@dataclass
class Row:
    label: str
    config_index: int
    motion: object
    build: str
    drape: int
    method: object
    cell: object
    failed: list[str] = field(default_factory=list)


def method_label(method) -> str:
    if method.kind == "marker_based":
        return "marker_based[noise]" if method.noise else "marker_based[no_noise]"
    if method.kind == "markerless_surrogate":
        return f"markerless_surrogate[{method.profile}]"
    return method.kind


def rows_of(config_index: int, config, report) -> list[Row]:
    coords = [
        (m, b, d, meth)
        for m in config.motions
        for b in config.builds
        for d in config.drape_classes
        for meth in config.methods
    ]
    if len(coords) != len(report.cells):
        raise ValueError(f"config {config_index}: {len(report.cells)} rows for {len(coords)} cells")
    rows = []
    for (m, b, d, meth), cell in zip(coords, report.cells):
        source = "" if m.source == "procedural" else "(bvh)"
        label = f"{config_index}:{m.motion_class}{source}/{b}/{d}/{method_label(meth)}"
        rows.append(Row(label, config_index, m, b, d, meth, cell))
    return rows


def _variant(row: Row, name: str, metric: str = "mpjpe_m") -> float:
    return float(row.cell.variants[name][metric])


def noise_mpjpe_m(noise_rms_m: float) -> float:
    """Mean distance of a marker-pair midpoint from its joint.

    Each marker gets isotropic gaussian noise of RMS noise_rms_m (per-axis
    sigma noise_rms_m / sqrt(3)); the midpoint of two averages it down by
    sqrt(2); the mean norm of a 3-D gaussian is sigma * 2 sqrt(2 / pi).
    """
    sigma = noise_rms_m / math.sqrt(3.0) / math.sqrt(2.0)
    return sigma * 2.0 * math.sqrt(2.0 / math.pi)


def _rest_height(offsets: np.ndarray, parents) -> float:
    pos = np.zeros_like(offsets)
    for j, p in enumerate(parents):
        if p >= 0:
            pos[j] = pos[p] + offsets[j]
    return float(pos[:, 1].max() - pos[:, 1].min())


def expected_ingest_root_mpjpe(truth) -> float:
    """|1 - s| * mean |p - p_pelvis| for the joints the benchmark wrote.

    s rescales the estimate to the body height: the rest-pose joint extent of
    the skeleton the BVH was written from, over the tallest-frame vertical
    extent of the written joints.
    """
    p = truth.joints
    extent = float((p[:, :, 1].max(axis=1) - p[:, :, 1].min(axis=1)).max())
    s = _rest_height(truth.rest_offsets, truth.parents) / extent
    return abs(1.0 - s) * float(np.linalg.norm(p - p[:, :1], axis=-1).mean())


def check_rows(rows: list[Row], configs, ingest_truth) -> dict[str, list[tuple[str, bool]]]:
    """Apply every check; returns check -> [(row label, passed)] and marks rows."""
    outcomes: dict[str, list[tuple[str, bool]]] = {}

    def record(name: str, row: Row, test) -> None:
        try:
            ok = bool(test())
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            ok = False
        outcomes.setdefault(name, []).append((row.label, ok))
        if not ok:
            row.failed.append(name)

    by_coord = {
        (r.config_index, r.motion, r.build, r.drape, r.method): r for r in rows
    }
    for row in rows:
        cfg = configs[row.config_index]
        cell, method = row.cell, row.method
        clothed = method.kind == "marker_based" and bool(cfg.garment_categories)
        record("status_ok", row, lambda: cell.status == "ok")
        record("frames", row, lambda: cell.frames == round(row.motion.duration_s * row.motion.fps))
        record("finite_nonnegative", row, lambda: cell.variants and all(
            math.isfinite(v) and v >= 0.0
            for vals in cell.variants.values() for v in vals.values()
        ) and math.isfinite(cell.drape_ratio) and cell.drape_ratio >= 0.0)
        if method.kind == "marker_based" and not clothed:
            if method.noise and cfg.noise_rms_m > 0:
                want = noise_mpjpe_m(cfg.noise_rms_m)
                record("noise_calibration", row,
                       lambda: abs(_variant(row, "all_markers") - want) <= NOISE_TOLERANCE * want)
            else:
                record("closed_loop_identity", row, lambda: _variant(row, "all_markers") < 1e-6
                       and _variant(row, "all_markers", "crmse_deg") < 0.01)
        if clothed:
            lo, hi = DRAPE_EDGES[row.drape - 1], DRAPE_EDGES[row.drape]
            record("drape_class_interval", row, lambda: lo <= cell.drape_ratio < hi)
            if row.drape >= 3:
                record("cloth_only_ge_all_markers", row,
                       lambda: _variant(row, "cloth_only") >= _variant(row, "all_markers"))
            tight = min(cfg.drape_classes)
            if row.drape != tight:
                ref = by_coord[(row.config_index, row.motion, row.build, tight, method)]
                record("loose_ge_0.95_tight", row, lambda: _variant(row, "all_markers")
                       >= 0.95 * _variant(ref, "all_markers"))
        if method.kind == "markerless_surrogate" and method.profile == PROFILE_ORDER[0]:
            other = type(method)(method.kind, profile=PROFILE_ORDER[1])
            ref = by_coord.get((row.config_index, row.motion, row.build, row.drape, other))
            if ref is not None:
                record("extreme_err_gt_basic_err", row, lambda: _variant(ref, "root_aligned")
                       > _variant(row, "root_aligned"))
        if method.kind == "markerless_ingest":
            want = expected_ingest_root_mpjpe(ingest_truth)
            record("ingest_angles_identity", row, lambda: max(
                _variant(row, v, "crmse_deg") for v in ("absolute", "root_aligned")) < 0.01)
            record("ingest_root_scale", row, lambda: math.isclose(
                _variant(row, "root_aligned"), want, rel_tol=1e-6, abs_tol=1e-9))
    return outcomes


def overwritten_by_cell_identity_fault(row: Row, config) -> bool:
    """Rows the known cell-identity fault overwrites.

    The program keys a cell on its method kind alone, so a row whose method
    kind recurs later in the config's method list reports the numbers of the
    last method of that kind (README, "Known fault").
    """
    later = config.methods[config.methods.index(row.method) + 1:]
    return any(m.kind == row.method.kind for m in later)
