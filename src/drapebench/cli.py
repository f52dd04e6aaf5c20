"""Command line front end: run sweeps, measure drape, rerun cells, re-report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import (
    BenchConfig,
    _cell_worker,
    cell_coordinates,
    cell_id,
    emit_plot_data,
    read_report,
    run_benchmark,
    write_report,
)
from .garment import classify_drape, measure_drape
from .mesh import cap_boundaries, load_obj


def _cmd_run(args) -> int:
    config = BenchConfig.load(args.config)
    if args.out:
        config = dataclasses.replace(config, output_dir=args.out)
    if args.workers:
        config = dataclasses.replace(config, workers=args.workers)
    report = run_benchmark(config)
    paths = write_report(report, config.output_dir)
    plots = emit_plot_data(report, config.output_dir)
    print(f"wrote {paths['json']}, {paths['csv']} and {len(plots)} plot tables")
    failed = report.failed_cells
    for cell in failed:
        print(f"FAILED {cell.motion_class}/{cell.build}/{cell.drape_class}/{cell.method}: {cell.error}")
    print(f"{len(report.cells) - len(failed)}/{len(report.cells)} cells succeeded "
          f"in {report.metadata['total_wall_time_s']}s")
    return 1 if failed else 0


def _cmd_drape(args) -> int:
    with open(args.garment) as fh:
        garment = cap_boundaries(load_obj(fh.read()))
    with open(args.body) as fh:
        body = cap_boundaries(load_obj(fh.read()))
    ratio = measure_drape(garment, body)
    print(f"drape_ratio: {ratio:.6f}")
    print(f"drape_class: {classify_drape(ratio)}")
    return 0


def _cmd_simulate(args) -> int:
    config = BenchConfig.load(args.config)
    want = args.cell
    for motion, build, drape, method in cell_coordinates(config):
        if cell_id(motion, build, drape, config.method_label(method)) == want:
            cell, _ = _cell_worker((config, motion, build, drape, method, None))
            print(json.dumps(cell.to_dict(), sort_keys=True, indent=1))
            return 0 if cell.status == "ok" else 1
    print(f"cell {want!r} not in the configured matrix", file=sys.stderr)
    return 2


def _cmd_report(args) -> int:
    report = read_report(args.infile)
    out = args.out or "."
    paths = write_report(report, out)
    print(f"wrote {paths['csv']}")
    if args.plots:
        plots = emit_plot_data(report, out)
        print(f"wrote {len(plots)} plot tables")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Garment-drape MoCap benchmark: sweep simulations and score methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full benchmark matrix from a config file")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", default="", help="override the output directory")
    p_run.add_argument("--workers", type=int, default=0, help="override worker count")
    p_run.set_defaults(func=_cmd_run)

    p_drape = sub.add_parser("drape", help="measure the drape of a garment OBJ over a body OBJ")
    p_drape.add_argument("--garment", required=True)
    p_drape.add_argument("--body", required=True)
    p_drape.set_defaults(func=_cmd_drape)

    p_sim = sub.add_parser("simulate", help="run a single cell of the matrix")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--cell", required=True,
                       help="cell coordinates motion_class/build/drape_class/method_label")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("report", help="re-emit CSV (and plot tables) from a report.json")
    p_rep.add_argument("--in", dest="infile", required=True)
    p_rep.add_argument("--out", default="")
    p_rep.add_argument("--plots", action="store_true")
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
