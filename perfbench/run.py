"""drapebench performance benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload cloth_motion --seed 1 --seconds 40 --trace 0

It generates the workload's configs and input files from --seed, then
repeats whole rounds of the workload's `bench run` sequence (run_benchmark,
write_report, emit_plot_data per config, in one process, workers=1) for as
many rounds as fit in --seconds (at least one). Every row of every round is
checked (checks.py). With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (tracing.py). The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ".perfbench_work"
SETUP_SAMPLES = 7
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "frames_per_s": "frames/s", "peak_rss_mb": "MB"}


@dataclass
class Round:
    sweep_s: float
    reports: list
    body_sha256: list[str]
    frames: int
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    self_sum_s: float = 0.0


def measure_setup(config_paths) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready to run a cell."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        tic = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), *config_paths],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - tic)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


def sweep(bench, configs) -> list:
    """The workload's `bench run` sequence, called through the module so traces see it."""
    reports = []
    for config in configs:
        report = bench.run_benchmark(config)
        bench.write_report(report, config.output_dir)
        bench.emit_plot_data(report, config.output_dir)
        reports.append(report)
    return reports


def run_round(bench, configs, tracer: tracing.Tracer | None = None) -> Round:
    gc.collect()
    if tracer is None:
        tic = time.perf_counter()
        reports = sweep(bench, configs)
        elapsed = time.perf_counter() - tic
    else:
        tracer.reset()
        tracer.install()
        try:
            with tracer.span(tracing.ROOT):
                reports = sweep(bench, configs)
        finally:
            tracer.uninstall()
        _, start, end, _ = tracer.spans[0]
        elapsed = end - start
    hashes = [hashlib.sha256(r.body_json().encode()).hexdigest() for r in reports]
    frames = sum(c.frames for r in reports for c in r.cells)
    rnd = Round(elapsed, reports, hashes, frames)
    if tracer is not None:
        rnd.layers = tracing.layer_metrics(tracer)
        rnd.spans = [list(s) for s in tracer.spans]
        rnd.self_sum_s = sum(tracer.self_times())
    return rnd


def run_rounds(bench, configs, seconds: float, traced: bool) -> tuple[list[Round], list[Round]]:
    """Untraced rounds, and with tracing one traced round after each untraced one.

    A further round (or pair) starts only if the longest so far still fits in
    `seconds`, so every run attempts whole rounds of the same cells.
    """
    plain, with_trace = [], []
    tracer = tracing.Tracer() if traced else None
    start = time.perf_counter()
    while True:
        plain.append(run_round(bench, configs))
        longest = max(r.sweep_s for r in plain)
        if traced:
            with_trace.append(run_round(bench, configs, tracer))
            longest += max(r.sweep_s for r in with_trace)
        if time.perf_counter() - start + longest > seconds:
            return plain, with_trace


def check_round(rnd: Round, configs, truth) -> tuple[list[checks.Row], dict]:
    rows = []
    for i, (config, report) in enumerate(zip(configs, rnd.reports)):
        rows.extend(checks.rows_of(i, config, report))
    return rows, checks.check_rows(rows, configs, truth)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "drapebench" / "__init__.py").is_file():
        print(f"perfbench: no drapebench sources at {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # configs name their inputs relative to the checkout root
    sys.path.insert(0, str(src))
    import numpy as np
    from drapebench import bench

    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.generate(args.workload, args.seed, work)
    setup = measure_setup(workload.config_paths)
    configs = [bench.BenchConfig.load(p) for p in workload.config_paths]

    plain, traced = run_rounds(bench, configs, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(plain)}{f'+{len(traced)} traced' if traced else ''}")
    print(f"env python={platform.python_version()} numpy={np.__version__} cpus={os.cpu_count()}")
    print(f"setup samples_s={' '.join(f'{x:.4f}' for x in setup)}")
    for k, rnd in enumerate(plain + traced):
        kind = "traced" if k >= len(plain) else "plain"
        print(f"round {k + 1} ({kind}): sweep_s={rnd.sweep_s:.4f} frames={rnd.frames} "
              f"report_body_sha256={','.join(rnd.body_sha256)}")

    attempted = failed = 0
    unexpected: set[str] = set()
    outcomes: dict[str, list[tuple[str, bool]]] = {}
    for rnd in plain + traced:
        rows, round_outcomes = check_round(rnd, configs, workload.ingest)
        for name, results in round_outcomes.items():
            outcomes.setdefault(name, []).extend(results)
        attempted += len(rows)
        for row in rows:
            if row.failed:
                failed += 1
                if not checks.overwritten_by_cell_identity_fault(row, configs[row.config_index]):
                    unexpected.add(f"{row.label} ({','.join(row.failed)})")
    for name, results in outcomes.items():
        bad = sorted({label for label, ok in results if not ok})
        passed = sum(ok for _, ok in results)
        print(f"check {name}: {passed}/{len(results)} pass"
              + (f"; failing rows: {' '.join(bad)}" if bad else ""))

    run_checks = {
        "report_body_deterministic": len({tuple(r.body_sha256) for r in plain + traced}) == 1,
        "only_known_faults_fail": not unexpected,
    }
    if traced:
        run_checks["trace_self_times_sum_to_sweep"] = all(
            abs(r.self_sum_s - r.sweep_s) <= 1e-6 * r.sweep_s for r in traced
        )
    for name, ok in run_checks.items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    for label in sorted(unexpected):
        print(f"unexpected failure: {label}")
    print(f"operations attempted={attempted} failed={failed}")

    if args.trace:
        units = tracing.per_layer_units()
        values = {
            name: statistics.median(r.layers[name] for r in traced)
            for name in units if name in traced[0].layers
        }
        values["trace.overhead_s"] = (statistics.median(r.sweep_s for r in traced)
                                      - statistics.median(r.sweep_s for r in plain))
        units["trace.overhead_s"] = "s"
        for name in units:
            if name not in values:
                print(f"metric {name}: absent (no wrapped function left for this layer)")
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump([{"round": k, "spans": r.spans} for k, r in enumerate(traced)], fh)
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": statistics.median(setup),
            "sweep_s": statistics.median(r.sweep_s for r in plain),
            "frames_per_s": statistics.median(r.frames / r.sweep_s for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": all(run_checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
