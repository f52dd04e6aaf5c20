"""Span tracing at the program's layer boundaries, from outside the program.

`Tracer.install` replaces the layer functions that `drapebench.bench` calls
(plus the spring-network build inside the cloth layer and the volume
evaluations inside the garment fit) with wrappers that record one span per
call: name, start, end and parent. Spans stay in memory; `layer_metrics`
turns them into per-layer self times and counts after the round.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) -> layer. Self times of every span of a layer add up.
WRAPPED = {
    ("drapebench.bench", "procedural_motion"): "kinematics.motion",
    ("drapebench.bench", "rescale_to_height"): "kinematics.motion",
    ("drapebench.bench", "forward_kinematics"): "kinematics.fk",
    ("drapebench.bench", "sequence_transforms"): "kinematics.fk",
    ("drapebench.bench", "parse_bvh"): "bvh.parse",
    ("drapebench.bench", "build_parametric_body"): "body.build",
    ("drapebench.bench", "body_capsules"): "body.colliders",
    ("drapebench.bench", "generate_garment"): "garment.fit",
    ("drapebench.bench", "merge_garments"): "garment.fit",
    ("drapebench.garment", "enclosed_volume"): "mesh.volume",
    ("drapebench.cloth", "build_spring_network"): "cloth.network",
    ("drapebench.bench", "simulate_sequence"): "cloth.simulate",
    ("drapebench.bench", "place_markers"): "markers.place",
    ("drapebench.bench", "track_markers"): "markers.track",
    ("drapebench.bench", "add_marker_noise"): "markers.track",
    ("drapebench.bench", "marker_pair_midpoints"): "markers.track",
    ("drapebench.bench", "reconstruct_pose_from_markers"): "markers.track",
    ("drapebench.bench", "surrogate_estimator"): "estimates.surrogate",
    ("drapebench.bench", "ingest_estimates"): "estimates.ingest",
    ("drapebench.bench", "normalize_estimate"): "estimates.normalize",
    ("drapebench.bench", "angles_from_positions"): "metrics.swing",
    ("drapebench.bench", "mpjpe"): "metrics.score",
    ("drapebench.bench", "crmse"): "metrics.score",
    ("drapebench.bench", "run_cell"): "bench.cell_self",
    ("drapebench.bench", "run_benchmark"): "bench.sweep_self",
    ("drapebench.bench", "write_report"): "bench.report",
    ("drapebench.bench", "emit_plot_data"): "bench.report",
}
ROOT = "sweep"  # the harness's own span around a round; its self time is glue
LAYER_OF_ROOT = "bench.sweep_self"

# Each layer reports its self time, summed over the round, as "<layer>_s";
# the metrics below are derived in `layer_metrics`.
TIME_METRICS = tuple(dict.fromkeys(WRAPPED.values()))
COUNT_METRICS = {
    "garment.fits": ("drapebench.bench", "generate_garment"),
    "mesh.volume_evals": ("drapebench.garment", "enclosed_volume"),
    "cloth.simulate_calls": ("drapebench.bench", "simulate_sequence"),
}
CLOTH_METRICS = {
    "cloth.frames_per_s": "frames/s",
    "cloth.max_penetration_mm": "mm",
    "cloth.ke_after_warmup_j": "J",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(CLOTH_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.simulations: list[tuple] = []  # (states, collider_frames, params, frames simulated)
        self._stack: list[int] = []
        self._originals: dict[tuple[str, str], object] = {}
        self.installed: set[tuple[str, str]] = set()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "drapebench.bench.simulate_sequence":
                self._keep_simulation(fn, args, kwargs, result)
            return result
        return traced

    def _keep_simulation(self, fn, args, kwargs, states) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        frames = round(float(a["warmup"]) * float(a["fps"])) + len(a["collider_frames"])
        self.simulations.append((states, a["collider_frames"], a["params"], frames))

    def install(self) -> None:
        for (module_name, attr) in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue  # renamed or removed: its layer is reported absent
            self._originals[(module_name, attr)] = fn
            self.installed.add((module_name, attr))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))

    def uninstall(self) -> None:
        for (module_name, attr), fn in self._originals.items():
            setattr(importlib.import_module(module_name), attr, fn)
        self._originals.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.simulations.clear()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _max_penetration_m(positions: np.ndarray, capsules) -> float:
    """Deepest of the points inside any capsule (<= 0 when none is inside)."""
    p0 = np.array([c.p0 for c in capsules])
    d = np.array([c.p1 for c in capsules]) - p0
    r = np.array([c.radius for c in capsules])
    rel = positions[:, None, :] - p0[None]
    t = np.clip(np.einsum("nci,ci->nc", rel, d) / np.maximum(np.einsum("ci,ci->c", d, d), 1e-18), 0, 1)
    dist = np.linalg.norm(rel - t[..., None] * d[None], axis=-1)
    return float((r[None] - dist).max())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round. Layers with no wrapped function are absent."""
    present = {layer for key, layer in WRAPPED.items() if key in tracer.installed}
    present.add(LAYER_OF_ROOT)
    layer_of = {f"{m}.{a}": layer for (m, a), layer in WRAPPED.items()}
    layer_of[ROOT] = LAYER_OF_ROOT
    totals = {layer: 0.0 for layer in present}
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[layer_of[span[0]]] += own
    out = {f"{layer}_s": totals[layer] for layer in TIME_METRICS if layer in totals}
    for metric, key in COUNT_METRICS.items():
        if key in tracer.installed:
            name = f"{key[0]}.{key[1]}"
            out[metric] = sum(1 for s in tracer.spans if s[0] == name)
    if "cloth.simulate" in present:
        sims = tracer.simulations
        sim_s = totals["cloth.simulate"]
        out["cloth.frames_per_s"] = sum(f for *_, f in sims) / sim_s if sim_s > 0 else 0.0
        worst = 0.0
        ke = 0.0
        for states, colliders, params, _ in sims:
            for state, caps in zip(states, colliders):
                # Pinned vertices follow their joint rigidly; the solver only moves the rest.
                worst = max(worst, _max_penetration_m(state.positions[~state.pinned], caps))
            v = states[0].velocities
            ke = max(ke, 0.5 * params.vertex_mass * float(np.einsum("ij,ij->", v, v)))
        out["cloth.max_penetration_mm"] = 1000.0 * worst
        out["cloth.ke_after_warmup_j"] = ke
    return out
