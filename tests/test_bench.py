import json
import os
import re
import traceback
from dataclasses import replace

import numpy as np
import pytest

from drapebench.bench import (
    BenchConfig,
    BenchmarkReport,
    CellResult,
    MethodSpec,
    MotionSpec,
    emit_plot_data,
    read_report,
    report_to_csv,
    run_benchmark,
    run_cell,
    write_report,
)
from drapebench.cli import main as cli_main
from drapebench.estimates import ingest_estimates

from conftest import estimate_text, open_cylinder


def tiny_config(**overrides):
    base = dict(
        seed=11,
        motions=(MotionSpec("basic", duration_s=1.0, fps=30.0),),
        builds=("female_average",),
        drape_classes=(1, 2),
        methods=(MethodSpec("marker_based"), MethodSpec("markerless_surrogate")),
        resolution_scale=0.8,
        warmup_s=0.5,
        workers=1,
    )
    base.update(overrides)
    return BenchConfig(**base)


@pytest.fixture(scope="module")
def small_report():
    return run_benchmark(tiny_config())


def test_report_has_all_cells(small_report):
    assert len(small_report.cells) == 4
    assert not small_report.failed_cells
    for cell in small_report.cells:
        assert cell.frames == 30
        if cell.method == "marker_based":
            assert set(cell.variants) == {"all_markers", "cloth_only"}
        else:
            assert set(cell.variants) == {"absolute", "root_aligned"}
            assert cell.source_label.startswith("surrogate")


def test_report_metadata_contract(small_report):
    md = small_report.metadata
    assert md["engine_version"]
    assert md["config_hash"] == tiny_config().config_hash()
    assert md["seed"] == 11
    assert md["crmse_convention"] == "swing_only"


def test_run_deterministic_body():
    a = run_benchmark(tiny_config())
    b = run_benchmark(tiny_config())
    assert a.body_json() == b.body_json()
    assert report_to_csv(a) == report_to_csv(b)
    assert a.metadata["config_hash"] == b.metadata["config_hash"]


def test_single_cell_matches_full_sweep(small_report):
    cfg = tiny_config()
    motion, build, drape, method = cfg.motions[0], "female_average", 2, cfg.methods[0]
    alone = run_cell(cfg, motion, build, drape, method)
    matching = [c for c in small_report.cells if c.key() == alone.key()]
    assert len(matching) == 1
    assert json.dumps(alone.to_dict(), sort_keys=True) == json.dumps(
        matching[0].to_dict(), sort_keys=True
    )


def test_parallel_workers_match_serial(small_report):
    parallel = run_benchmark(tiny_config(workers=2))
    assert parallel.body_json() == small_report.body_json()


def test_write_and_reingest_round_trip(small_report, tmp_path):
    paths = write_report(small_report, str(tmp_path))
    back = read_report(paths["json"])
    assert back.body_json() == small_report.body_json()
    assert back.metadata == small_report.metadata


def test_csv_row_bookkeeping(small_report, tmp_path):
    csv = report_to_csv(small_report)
    lines = csv.strip().splitlines()
    expected_rows = sum(len(c.variants) for c in small_report.cells if c.status == "ok")
    assert len(lines) == 1 + expected_rows
    assert lines[0].startswith("motion_class,build,drape_class,method,variant,mpjpe_m")


def test_empty_report_headers_only(tmp_path):
    empty = BenchmarkReport([], {"engine_version": "x"})
    csv = report_to_csv(empty)
    assert csv.strip().splitlines() == [csv.strip()]
    with pytest.raises(ValueError):
        emit_plot_data(empty, str(tmp_path))


def test_plot_data_layout(small_report, tmp_path):
    files = emit_plot_data(small_report, str(tmp_path))
    assert len(files) == 2  # one motion class x one build x two metrics
    path = [f for f in files if "mpjpe" in f][0]
    lines = open(path).read().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "drape_class"
    assert "marker_based:all_markers" in header
    assert "markerless_surrogate:absolute" in header
    assert len(lines) == 3  # classes 1 and 2
    for row in lines[1:]:
        assert len(row.split(",")) == len(header)


def test_plot_missing_cell_is_empty_field(tmp_path):
    cells = [
        CellResult("basic", "female_average", 1, "marker_based", frames=10,
                   variants={"all_markers": {"mpjpe_m": 0.01, "crmse": 0.1, "crmse_deg": 5.0}}),
        CellResult("basic", "female_average", 2, "marker_based", status="error", error="boom"),
    ]
    report = BenchmarkReport(cells, {})
    files = emit_plot_data(report, str(tmp_path))
    rows = open([f for f in files if "mpjpe" in f][0]).read().strip().splitlines()
    assert rows[1].split(",")[1] != ""
    assert rows[2].split(",")[1] == ""


def test_unclothed_noise_off_cell_is_closed_loop_identity():
    cfg = tiny_config(
        drape_classes=(1,),
        methods=(MethodSpec("marker_based", noise=False),),
        garment_categories=(),
    )
    cell = run_cell(cfg, cfg.motions[0], "female_average", 1, cfg.methods[0])
    assert cell.status == "ok"
    assert cell.variants["all_markers"]["mpjpe_m"] < 1e-6
    assert "cloth_only" not in cell.variants  # no garment, no cloth markers


def test_cell_failure_is_isolated(tmp_path):
    # The failing estimate sits between two that work: it stays out of the
    # group's stacked swing recovery, and the rows around it keep their bits.
    missing = str(tmp_path / "missing.json")
    cfg = tiny_config(
        methods=(MethodSpec("marker_based"), MethodSpec("markerless_ingest", path=missing),
                 MethodSpec("markerless_surrogate")),
        drape_classes=(1,), garment_categories=(),
    )
    report = run_benchmark(cfg)
    rows = {c.method: c for c in report.cells}
    with pytest.raises(OSError) as refused:
        ingest_estimates(missing)
    assert rows["markerless_ingest"].status == "error"
    assert rows["markerless_ingest"].error == str(refused.value)
    for method in (cfg.methods[0], cfg.methods[2]):
        cell = rows[cfg.method_label(method)]
        assert cell.status == "ok"
        alone = run_cell(cfg, cfg.motions[0], "female_average", 1, method)
        assert json.dumps(alone.to_dict(), sort_keys=True) == json.dumps(cell.to_dict(), sort_keys=True)


def test_a_shared_products_error_keeps_its_first_traceback():
    from drapebench.bench import _once

    @_once
    def product():
        raise ValueError("boom")

    lengths = []
    for _ in range(4):
        with pytest.raises(ValueError, match="boom") as raised:
            product()
        lengths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert lengths == [lengths[0]] * 4


def test_config_json_round_trip():
    cfg = tiny_config()
    again = BenchConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_validation():
    # Each bad value is refused when the config loads, with the value named.
    for make, names in (
        (lambda: BenchConfig(motions=()), "motions"),
        (lambda: MethodSpec("telepathy"), "'telepathy'"),
        (lambda: MotionSpec("walk"), "'walk'"),
        (lambda: MotionSpec("basic", duration_s=0), "duration_s .* 0"),
        (lambda: MotionSpec("basic", fps=-30), "fps .* -30"),
        (lambda: MethodSpec("markerless_surrogate", profile="nope"), "'nope'"),
        (lambda: MethodSpec("markerless_ingest"), "markerless_ingest .* path"),
        (lambda: BenchConfig(garment_categories=("dress",)), "'dress'"),
        (lambda: BenchConfig(noise_rms_m=-1), "noise_rms_m .* -1"),
        (lambda: BenchConfig(resolution_scale=0), "resolution_scale .* 0"),
        # A scale that generate_garment refuses for too few columns.
        (lambda: BenchConfig(resolution_scale=0.2), "resolution_scale 0.2 gives 4 torso and 3 limb columns"),
        (lambda: BenchConfig(warmup_s=-1), "warmup_s .* -1"),
        (lambda: BenchConfig.from_json('{"motions": [{"motion_class": "basic", "fps": -30}]}'), "-30"),
        (lambda: BenchConfig(cloth={"gravity": -1.0}), "gravity .* -1"),
    ):
        with pytest.raises(ValueError, match=names):
            make()
    # Infinity and NaN are refused at load too, directly and through JSON,
    # which reads and writes them.
    for value in (float("inf"), float("nan")):
        for key, want in (
            ("resolution_scale", "positive and finite"),
            ("warmup_s", "non-negative and finite"),
            ("noise_rms_m", "non-negative and finite"),
        ):
            for make in (
                lambda: BenchConfig(**{key: value}),
                lambda: BenchConfig.from_json(json.dumps({key: value})),
            ):
                with pytest.raises(ValueError, match=f"{key} must be {want}, got {value!r}"):
                    make()
        for make in (
            lambda: BenchConfig(cloth={"damping_shear": value}),
            lambda: BenchConfig.from_json(json.dumps({"cloth": {"damping_shear": value}})),
        ):
            with pytest.raises(ValueError, match=f"damping_shear must be non-negative and finite, got {value!r}"):
                make()
    # A bool is not a number, and a seed or a drape class is an integer:
    # JSON's true would read as 1, 3.7 as class 3, and seed 1.0 would hash
    # apart from seed 1. Each is refused, directly and through JSON.
    for doc, want in (
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": 1.0}, "seed must be an integer, got 1.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"drape_classes": [3.7]}, "drape_classes must be integers, got 3.7"),
        ({"drape_classes": [1, True]}, "drape_classes must be integers, got True"),
        ({"drape_classes": ["2"]}, "drape_classes must be integers, got '2'"),
        ({"resolution_scale": True}, "resolution_scale must be positive and finite, got True"),
        ({"warmup_s": True}, "warmup_s must be non-negative and finite, got True"),
        ({"noise_rms_m": True}, "noise_rms_m must be non-negative and finite, got True"),
        ({"motions": [{"motion_class": "basic", "duration_s": True}]}, "motion duration_s must be positive and finite, got True"),
        ({"motions": [{"motion_class": "basic", "fps": True}]}, "motion fps must be positive and finite, got True"),
        ({"motions": [{"motion_class": "basic", "fps": "30"}]}, "motion fps must be positive and finite, got '30'"),
        # JSON's true is not 1 m/s^2 of gravity nor a 1 kg vertex, and a flag
        # is true or false: "no" would read as true.
        ({"cloth": {"gravity": True}}, "gravity must be non-negative and finite, got True"),
        ({"cloth": {"vertex_mass": True}}, "vertex_mass must be positive and finite, got True"),
        ({"methods": [{"kind": "marker_based", "noise": "no"}]}, "method noise must be true or false, got 'no'"),
        ({"methods": [{"kind": "marker_based", "noise": 1}]}, "method noise must be true or false, got 1"),
        ({"export_bvh": "no"}, "export_bvh must be true or false, got 'no'"),
        # A procedural clip shorter than two frames would run as two.
        (
            {"motions": [{"motion_class": "basic", "duration_s": 0.01}]},
            "duration 0.01 s at 30.0 fps gives 0 frames; a clip needs at least 2",
        ),
        ({"motions": [{"motion_class": "basic", "duration_s": 1e308}]}, "duration * fps must be positive and finite, got inf"),
    ):
        for make in (lambda: BenchConfig(**doc), lambda: BenchConfig.from_json(json.dumps(doc))):
            with pytest.raises(ValueError, match=re.escape(want)):
                make()
    # Without a garment the columns do not apply.
    assert BenchConfig(resolution_scale=0.2, garment_categories=()).resolution_scale == 0.2
    # The profile names a surrogate's error model; other kinds ignore it.
    assert MethodSpec("marker_based", profile="nope").profile == "nope"
    for profile in ("auto", "basic_err", "fast_err", "extreme_err"):
        MethodSpec("markerless_surrogate", profile=profile)


@pytest.mark.parametrize("field", ["duration_s", "fps"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_motion_refuses_non_finite_values(field, value):
    # Python's json reads and writes Infinity and NaN, so a config file can carry them.
    text = json.dumps({"motions": [{"motion_class": "basic", field: value}]})
    for make in (lambda: MotionSpec("basic", **{field: value}), lambda: BenchConfig.from_json(text)):
        with pytest.raises(ValueError, match=f"motion {field} must be positive and finite, got {value!r}"):
            make()


def test_ingest_method_round_trip(tmp_path, skeleton):
    # Export the ground truth itself as an estimate file: near-zero error.
    from drapebench.bench import _load_motion
    from drapebench.kinematics import sequence_transforms

    cfg = tiny_config(drape_classes=(1,), methods=(MethodSpec("marker_based"),))
    from drapebench.body import body_skeleton

    sk = body_skeleton("female_average")
    seq = _load_motion(cfg, cfg.motions[0], sk)
    path = tmp_path / "gt.json"
    path.write_text(estimate_text(sequence_transforms(seq)[0], seq.fps))
    cfg2 = tiny_config(
        drape_classes=(1,), methods=(MethodSpec("markerless_ingest", path=str(path)),)
    )
    report = run_benchmark(cfg2)
    cell = report.cells[0]
    assert cell.status == "ok"
    # The height normalization rescales by the tallest-frame extent, so a
    # ground-truth file scores near zero up to that small scale adjustment.
    assert cell.variants["absolute"]["mpjpe_m"] < 0.02
    assert cell.variants["root_aligned"]["mpjpe_m"] <= cell.variants["absolute"]["mpjpe_m"]
    assert cell.source_label == f"file:{path}"


def test_cli_run_drape_simulate_report(tmp_path, capsys):
    cfg = tiny_config(drape_classes=(1,), methods=(MethodSpec("markerless_surrogate"),),
                      output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())

    rc = cli_main(["run", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "report.csv").exists()
    capsys.readouterr()

    from drapebench.mesh import dump_obj

    # Coaxial tubes, capped by the command: the shell holds 1.21x the body's volume.
    g_path = tmp_path / "garment.obj"
    b_path = tmp_path / "body.obj"
    g_path.write_text(dump_obj(open_cylinder(0.11, 0.6, 48, 6)))
    b_path.write_text(dump_obj(open_cylinder(0.10, 0.6, 48, 6)))
    rc = cli_main(["drape", "--garment", str(g_path), "--body", str(b_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "drape_class: 3" in out

    cid = "basic/female_average/1/markerless_surrogate"
    rc = cli_main(["simulate", "--config", str(cfg_path), "--cell", cid])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["status"] == "ok"

    rc = cli_main(["report", "--in", str(tmp_path / "out" / "report.json"),
                   "--out", str(tmp_path / "rr"), "--plots"])
    assert rc == 0
    assert (tmp_path / "rr" / "report.csv").exists()
    assert any(f.startswith("plot_") for f in os.listdir(tmp_path / "rr"))


def test_cli_exit_code_on_failure(tmp_path):
    cfg = tiny_config(drape_classes=(1,),
                      methods=(MethodSpec("markerless_ingest", path="/missing.json"),),
                      output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    assert cli_main(["run", "--config", str(cfg_path)]) == 1


def test_cli_simulate_isolates_a_failing_cell(tmp_path, capsys):
    cfg = tiny_config(drape_classes=(1,),
                      methods=(MethodSpec("markerless_ingest", path="/missing.json"),),
                      output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    cid = "basic/female_average/1/markerless_ingest"
    assert cli_main(["simulate", "--config", str(cfg_path), "--cell", cid]) == 1
    row = json.loads(capsys.readouterr().out)
    assert row["status"] == "error"
    assert "/missing.json" in row["error"]


def _unclothed(**overrides):
    return tiny_config(drape_classes=(1,), garment_categories=(), **overrides)


def test_recurring_method_kinds_get_their_own_rows():
    cfg = _unclothed(methods=(
        MethodSpec("marker_based", noise=True),
        MethodSpec("marker_based", noise=False),
        MethodSpec("markerless_surrogate", profile="basic_err"),
        MethodSpec("markerless_surrogate", profile="extreme_err"),
    ))
    report = run_benchmark(cfg)
    rows = {c.method: c for c in report.cells}
    assert list(rows) == [
        "marker_based[noise]", "marker_based[no_noise]",
        "markerless_surrogate[basic_err]", "markerless_surrogate[extreme_err]",
    ]
    assert not report.failed_cells
    # 5 mm marker noise: midpoint error (5 mm / sqrt 3 / sqrt 2) x 2 sqrt(2 / pi) = 3.257 mm.
    assert abs(rows["marker_based[noise]"].variants["all_markers"]["mpjpe_m"] - 0.003257) < 0.0003
    assert rows["marker_based[no_noise]"].variants["all_markers"]["mpjpe_m"] < 1e-6
    basic = rows["markerless_surrogate[basic_err]"].variants
    extreme = rows["markerless_surrogate[extreme_err]"].variants
    assert basic != extreme
    assert extreme["root_aligned"]["mpjpe_m"] > basic["root_aligned"]["mpjpe_m"]
    assert sorted(report.metadata["cell_wall_times_s"]) == sorted(
        f"basic/female_average/1/{label}" for label in rows
    )
    # A rerun of one cell alone reproduces its row.
    alone = run_cell(cfg, cfg.motions[0], "female_average", 1, cfg.methods[0])
    assert alone.to_dict() == rows["marker_based[noise]"].to_dict()


def test_unique_method_kind_keeps_its_label():
    cfg = tiny_config()
    assert [cfg.method_label(m) for m in cfg.methods] == ["marker_based", "markerless_surrogate"]


def test_config_refuses_unknown_or_out_of_range_cloth_keys():
    for removed in ("stiffness_compression", "damping_compression", "stiffness_tension"):
        with pytest.raises(ValueError, match=removed):
            tiny_config(cloth={removed: 15.0})
    with pytest.raises(ValueError, match="damping_shear"):
        tiny_config(cloth={"damping_shear": -1.0})
    with pytest.raises(ValueError, match="damping_shear"):
        BenchConfig.from_json(json.dumps({"cloth": {"damping_shear": -1.0}}))
    assert tiny_config(cloth={"stiffness_structural": 12.0}).cloth_params().stiffness_structural == 12.0


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param('{"sed": 7}', "unknown config key 'sed'; choose from ['seed', ", id="config"),
        pytest.param(
            '{"motions": [{"motion_class": "basic", "durations": 1}]}',
            "unknown motion key 'durations'; choose from ['motion_class', 'source', 'duration_s', 'fps']", id="motion",
        ),
        pytest.param(
            '{"methods": [{"kind": "marker_based", "nosie": false}]}',
            "unknown method key 'nosie'; choose from ['kind', 'noise', 'profile', 'path']", id="method",
        ),
    ],
)
def test_config_refuses_a_misspelled_key_by_name(text, message):
    # A dataclass would raise a TypeError about an unexpected keyword.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        BenchConfig.from_json(text)


def test_config_refuses_a_repeated_garment_category():
    with pytest.raises(ValueError, match="garment_categories repeat tshirt"):
        tiny_config(garment_categories=("tshirt", "trousers", "tshirt"))
    with pytest.raises(ValueError, match="garment_categories repeat tshirt"):
        BenchConfig.from_json('{"garment_categories": ["tshirt", "tshirt"]}')


def test_serial_import_leaves_the_process_pool_out():
    import subprocess
    import sys

    import drapebench

    src = os.path.dirname(os.path.dirname(drapebench.__file__))
    code = (
        "import sys, drapebench, drapebench.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_config_refuses_colliding_cells():
    with pytest.raises(ValueError, match="marker_based"):
        tiny_config(methods=(MethodSpec("marker_based"), MethodSpec("marker_based")))
    with pytest.raises(ValueError, match="basic"):
        tiny_config(motions=(MotionSpec("basic", duration_s=1.0), MotionSpec("basic", duration_s=2.0)))
    with pytest.raises(ValueError, match="builds repeat female_average"):
        tiny_config(builds=("female_average",) * 2)
    with pytest.raises(ValueError, match="drape_classes repeat 1"):
        tiny_config(drape_classes=(2, 1, 1))
    with pytest.raises(ValueError, match="drape class 7, 0 outside 1..6"):
        tiny_config(drape_classes=(7, 1, 0))
    with pytest.raises(ValueError, match="unknown build 'nobody'"):
        tiny_config(builds=("nobody",))


def test_cli_simulate_selects_a_labelled_cell(tmp_path, capsys):
    cfg = _unclothed(methods=(MethodSpec("marker_based", noise=True),
                              MethodSpec("marker_based", noise=False)))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    rc = cli_main(["simulate", "--config", str(cfg_path),
                   "--cell", "basic/female_average/1/marker_based[no_noise]"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["method"] == "marker_based[no_noise]"
    assert out["variants"]["all_markers"]["mpjpe_m"] < 1e-6


def _ground_truth_estimate(tmp_path, seq, fps, frames=None, name="estimate.json"):
    from drapebench.kinematics import sequence_transforms

    joints, _ = sequence_transforms(seq)
    path = tmp_path / name
    path.write_text(estimate_text(joints[:frames], fps))
    return str(path)


def test_ingest_refuses_frame_count_mismatch(tmp_path):
    from drapebench.bench import _load_motion
    from drapebench.body import body_skeleton

    cfg = _unclothed()
    seq = _load_motion(cfg, cfg.motions[0], body_skeleton("female_average"))
    path = _ground_truth_estimate(tmp_path, seq, seq.fps, frames=seq.num_frames - 1)
    cfg = _unclothed(methods=(MethodSpec("markerless_ingest", path=path),))
    cell = run_benchmark(cfg).cells[0]
    assert cell.status == "error"
    assert cell.error == "estimate has 29 frames, motion has 30"


def test_ingest_of_an_estimate_file_without_json_extension(tmp_path):
    from drapebench.bench import _load_motion
    from drapebench.body import body_skeleton

    cfg = _unclothed()
    seq = _load_motion(cfg, cfg.motions[0], body_skeleton("female_average"))
    path = _ground_truth_estimate(tmp_path, seq, seq.fps, name="est.txt")
    assert ingest_estimates(path).source_label == f"file:{path}"
    cell = run_benchmark(_unclothed(methods=(MethodSpec("markerless_ingest", path=path),))).cells[0]
    assert cell.status == "ok", cell.error
    assert cell.source_label == f"file:{path}"


def test_export_bvh_writes_the_marker_based_reconstruction(tmp_path):
    from drapebench.bench import _load_motion
    from drapebench.body import body_skeleton
    from drapebench.bvh import parse_bvh
    from drapebench.kinematics import sequence_transforms

    cfg = _unclothed(
        methods=(MethodSpec("marker_based", noise=False), MethodSpec("markerless_surrogate")),
        output_dir=str(tmp_path), export_bvh=True,
    )
    assert not run_benchmark(cfg).failed_cells
    assert os.listdir(tmp_path) == ["basic_female_average_1_marker_based.bvh"]
    clip = parse_bvh((tmp_path / "basic_female_average_1_marker_based.bvh").read_text())
    assert clip.num_frames == 30
    assert clip.fps == 30.0
    sk = body_skeleton("female_average")
    truth, _ = sequence_transforms(_load_motion(cfg, cfg.motions[0], sk))
    parsed, _ = sequence_transforms(clip)
    # write_bvh emits joints depth-first, so the parsed joints are matched by name.
    order = [clip.skeleton.joint_names.index(name) for name in sk.joint_names]
    assert np.abs(parsed[:, order] - truth).max() < 1e-5


def test_ingest_of_a_written_30_fps_clip(tmp_path):
    from drapebench.bench import _load_motion
    from drapebench.body import body_skeleton
    from drapebench.bvh import write_bvh
    from drapebench.kinematics import procedural_motion

    sk = body_skeleton("female_average")
    clip = tmp_path / "clip.bvh"
    clip.write_text(write_bvh(procedural_motion("basic", 1.0, 30.0, 4, sk)))
    motion = MotionSpec("basic", source=str(clip), duration_s=1.0, fps=30.0)
    seq = _load_motion(_unclothed(), motion, sk)
    assert seq.fps == 30.0
    path = _ground_truth_estimate(tmp_path, seq, 30.0)
    cfg = _unclothed(motions=(motion,), methods=(MethodSpec("markerless_ingest", path=path),))
    cell = run_benchmark(cfg).cells[0]
    assert cell.status == "ok", cell.error
    assert cell.frames == 30
    assert cell.variants["root_aligned"]["crmse_deg"] < 0.01


def test_plot_tables_are_per_build(tmp_path):
    def cell(build, value):
        return CellResult("basic", build, 1, "marker_based", frames=10, variants={
            "all_markers": {"mpjpe_m": value, "crmse": 0.1, "crmse_deg": 5.0}})

    report = BenchmarkReport([cell("female_small", 0.008), cell("male_large", 0.0094)], {})
    files = emit_plot_data(report, str(tmp_path))
    names = sorted(os.path.basename(f) for f in files)
    assert names == [
        "plot_basic_female_small_crmse_deg.csv", "plot_basic_female_small_mpjpe_m.csv",
        "plot_basic_male_large_crmse_deg.csv", "plot_basic_male_large_mpjpe_m.csv",
    ]
    for build, value in (("female_small", 0.008), ("male_large", 0.0094)):
        rows = (tmp_path / f"plot_basic_{build}_mpjpe_m.csv").read_text().strip().splitlines()
        assert rows[1] == f"1,{value!r}"


class _NoPool:
    """Stands in for the process pool where a test must start none."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was opened")


def test_config_refuses_a_bad_worker_count(tmp_path, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _NoPool)
    for bad in (0, -2, 1.5, "2", True):
        with pytest.raises(ValueError, match=f"workers .* {bad!r}"):
            tiny_config(workers=bad)
    with pytest.raises(ValueError, match="workers .* '2'"):
        BenchConfig.from_json('{"workers": "2"}')
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_unclothed(methods=(MethodSpec("markerless_surrogate"),),
                                   output_dir=str(tmp_path / "out")).to_json())
    for bad in ("0", "-2"):
        with pytest.raises(ValueError, match=f"workers .* {bad}"):
            cli_main(["run", "--config", str(cfg_path), "--workers", bad])
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", str(cfg_path), "--workers", "1.5"])
    assert not (tmp_path / "out").exists()


def test_pool_starts_no_idle_worker(monkeypatch):
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cfg = replace(_unclothed(methods=(MethodSpec("markerless_surrogate"),), workers=4), drape_classes=(1, 2))
    assert run_benchmark(cfg).body_json() == run_benchmark(replace(cfg, workers=1)).body_json()
    assert opened == [2]  # one process per (motion, build, drape) group
    run_benchmark(replace(cfg, drape_classes=(1,)))
    assert opened == [2]  # a single group runs in this process


def _clothed_trio(methods=None):
    return tiny_config(
        motions=(MotionSpec("basic", duration_s=0.5, fps=30.0),),
        warmup_s=0.25,
        methods=methods or (
            MethodSpec("marker_based", noise=True),
            MethodSpec("marker_based", noise=False),
            MethodSpec("markerless_surrogate"),
        ),
    )


@pytest.fixture(scope="module")
def counted_trio():
    """The clothed 1 motion x 2 classes x 3 methods sweep, with call counts of its shared products."""
    import drapebench.bench as bench

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("procedural_motion", "simulate_sequence", "angles_from_positions"):
            mp.setattr(bench, name, counted(name, getattr(bench, name)))
        report = run_benchmark(_clothed_trio())
    return report, counts


def test_group_makes_clip_ground_truth_and_cloth_once(counted_trio):
    report, counts = counted_trio
    cfg = _clothed_trio()
    groups, cells = 2, 6
    assert not report.failed_cells
    assert counts == {
        "procedural_motion": groups,
        "simulate_sequence": groups,
        "angles_from_positions": groups,  # the ground truth and every estimate of a group, stacked
    }
    labels = ["marker_based[noise]", "marker_based[no_noise]", "markerless_surrogate"]
    assert [c.key() for c in report.cells] == [
        ("basic", "female_average", drape, label) for drape in (1, 2) for label in labels
    ]
    assert list(report.metadata["cell_wall_times_s"]) == [
        f"basic/female_average/{drape}/{label}" for drape in (1, 2) for label in labels
    ]
    for cell in report.cells:
        method = next(m for m in cfg.methods if cfg.method_label(m) == cell.method)
        alone = run_cell(cfg, cfg.motions[0], cell.build, cell.drape_class, method)
        assert json.dumps(alone.to_dict(), sort_keys=True) == json.dumps(cell.to_dict(), sort_keys=True)


def test_rows_do_not_depend_on_method_order(counted_trio):
    report, _ = counted_trio
    cfg = _clothed_trio()
    reversed_report = run_benchmark(replace(cfg, methods=cfg.methods[::-1]))
    rows = {c.key(): json.dumps(c.to_dict(), sort_keys=True) for c in report.cells}
    again = {c.key(): json.dumps(c.to_dict(), sort_keys=True) for c in reversed_report.cells}
    assert again == rows


def test_a_failing_shared_product_fails_only_the_cells_that_need_it(tmp_path, monkeypatch):
    import drapebench.bench as bench
    from drapebench.cloth import ClothSimulationError

    calls = []

    def blow_up(*args, **kwargs):
        calls.append(1)
        raise ClothSimulationError("non-finite state for particle 7 at substep 3")

    monkeypatch.setattr(bench, "simulate_sequence", blow_up)
    report = run_benchmark(replace(_clothed_trio(), drape_classes=(1,)))
    rows = {c.method: c for c in report.cells}
    assert len(calls) == 1
    for label in ("marker_based[noise]", "marker_based[no_noise]"):
        assert rows[label].status == "error"
        assert rows[label].error == "non-finite state for particle 7 at substep 3"
    assert rows["markerless_surrogate"].status == "ok"

    # A clip that cannot load fails every cell of its groups, and only those.
    missing = str(tmp_path / "missing.bvh")
    cfg = _unclothed(
        motions=(MotionSpec("basic", duration_s=1.0), MotionSpec("fast", source=missing, duration_s=1.0)),
        methods=(MethodSpec("marker_based"), MethodSpec("markerless_surrogate")),
    )
    report = run_benchmark(cfg)
    assert [(c.motion_class, c.status) for c in report.cells] == [
        ("basic", "ok"), ("basic", "ok"), ("fast", "error"), ("fast", "error"),
    ]
    assert all(missing in c.error for c in report.cells if c.motion_class == "fast")
