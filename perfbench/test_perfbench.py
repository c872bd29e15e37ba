"""Self-tests of the benchmark: every metric is emitted with its unit,
traced counts repeat, wrappers come off again, and corrupted outputs are
counted as failures."""

import json
import shutil
import subprocess
import sys

import pytest

import layertrace
import run
import workloads

SPEC = json.loads((workloads.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))

E2E_NAMED = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "scenario_p50_s",
    "scenario_p90_s",
    "fail_ratio",
    "peak_rss_mb",
]

LAYER_NAMED = [
    "cones.contains_vec_calls",
    "cones.contains_vec_s",
    "cones.contains_vec_hit_ratio",
    "cones.fd_check_s",
    "cones.cover_s",
    "cones.split_cell_calls",
    "cones.split_cells_made",
    "cones.intersect_cells_calls",
    "cones.intersect_nonempty_ratio",
    "cones.fast_disjoint_calls",
    "cones.fast_disjoint_hit_ratio",
    "cones.translate_calls",
    "cones.set_equal_s",
    "cones.domain_builds",
    "cones.classify_case_calls",
    "cones.self_s",
    "embedding.iv_fraction_calls",
    "embedding.iv_fraction_s",
    "embedding.log_embed_calls",
    "embedding.sign_decisions",
    "embedding.sign_distinct_ratio",
    "embedding.sign_s",
    "embedding.embed_calls",
    "embedding.embed_max_bits",
    "embedding.refine_roots_s",
    "embedding.self_s",
    "plane.curve_sample_s",
    "plane.direction_s",
    "plane.project_logs_calls",
    "plane.self_s",
    "figures.face_curves",
    "figures.face_curve_s",
    "figures.materialize_s",
    "figures.render_s",
    "figures.self_s",
    "units.triangle_search_calls",
    "units.triangle_search_s",
    "units.sign_suite_calls",
    "units.choose_power_s",
    "units.self_s",
    "field.mul_calls",
    "field.mul_s",
    "field.inverse_calls",
    "field.pow_calls",
    "field.self_s",
    "scenario.normalized_pi_calls",
    "scenario.write_report_s",
    "scenario.self_s",
    "trace_overhead_ratio",
]


def tiny_runner(tmp_path, reports=None):
    """A two-scenario workload: case-pi2 and fdcheck-B1 at 20 samples."""
    cfg = workloads.bundled()
    cfg["scenarios"] = [s for s in cfg["scenarios"] if s["id"] in ("case-pi2", "fdcheck-B1")]
    for s in cfg["scenarios"]:
        if s["id"] == "fdcheck-B1":
            s["params"]["samples"] = 20
    wl = workloads.Workload("tiny", 1, cfg, ["case-pi2", "fdcheck-B1"])
    wl.reports = reports or {}
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return run.Runner(wl, path, tmp_path / "out")


def reference_digest(workload, name):
    return json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))[workload]["reports"][name]


def test_end_to_end_metrics_emitted_with_units(tmp_path):
    runner = tiny_runner(tmp_path)
    metrics = {k: (v, run.E2E_UNITS[k]) for k, v in runner.timed(0).items()}
    assert list(metrics) == E2E_NAMED
    lines = run.report_lines(runner, metrics, trace=False)
    for name, line in zip(E2E_NAMED, lines):
        assert line.split()[:3:2] == [name, run.E2E_UNITS[name]]
    line = run.contract_line(runner, metrics, trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_layer_metrics_emitted_and_counts_repeat(tmp_path):
    runs = []
    for i in range(2):
        runner = tiny_runner(tmp_path / str(i))
        metrics, tracer = runner.traced()
        assert list(metrics) == LAYER_NAMED
        assert all(unit for _, unit in metrics.values())
        line = run.contract_line(runner, metrics, trace=True)
        assert line["correct"]
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
            k: v["unit"] for k, v in line["metrics"].items()
        }
        for layer in ("field", "embedding", "cones", "plane", "units", "scenario"):
            assert tracer.layer_calls(layer) > 0, layer
        runs.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bits")})
    assert runs[0] == runs[1]


def test_tracer_patches_imported_names_and_restores_them():
    from shintani_forge import embedding, figures, plane, scenario, units

    originals = (embedding.iv_fraction, plane._segment_logs, plane.phi, plane.curve_sample)
    with layertrace.Tracer():
        assert plane.iv_fraction is embedding.iv_fraction is not originals[0]
        assert figures._segment_logs is plane._segment_logs is not originals[1]
        assert units.phi is plane.phi is not originals[2]
        assert scenario.curve_sample is plane.curve_sample is not originals[3]
    assert (plane.iv_fraction, figures._segment_logs, units.phi, scenario.curve_sample) == originals


def test_corrupted_report_counts_as_failure(tmp_path, monkeypatch):
    name = "case-pi2.report.json"
    runner = tiny_runner(tmp_path, {name: reference_digest("set-algebra", name)})
    runner.run_pass()
    assert runner.failed == 0

    write_report = runner.scenario.write_report

    def corrupting(report, outdir):
        path = write_report(report, outdir)
        path.write_bytes(path.read_bytes().replace(b'"case"', b'"kase"', 1))
        return path

    monkeypatch.setattr(runner.scenario, "write_report", corrupting)
    runner.run_pass()
    assert set(runner.passes[-1].failures) == {"case-pi2"}
    assert runner.failed == 1


def test_fdcheck_boundary_hit_counts_as_failure(tmp_path):
    runner = tiny_runner(tmp_path)
    runner.run_pass()
    path = runner.outdir / "fdcheck-B1.report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    for entry in report["evidence"]:
        if entry["name"] == "boundary_hits":
            entry["value"] = 1
    path.write_text(json.dumps(report), encoding="utf-8")
    assert runner.wl.check(runner.outdir, "fdcheck-B1") == ["fdcheck has boundary hits"]


@pytest.mark.parametrize("name", ["fig2.csv", "fig4.svg"])
def test_corrupted_artifact_counts_as_failure(tmp_path, name):
    wl = workloads.build("plane", 1)
    for f in workloads.GOLDEN.iterdir():
        shutil.copy(f, tmp_path / f.name)
    assert wl.check(tmp_path, "figures") == []
    data = bytearray((tmp_path / name).read_bytes())
    data[len(data) // 2] ^= 1
    (tmp_path / name).write_bytes(bytes(data))
    problems = wl.check(tmp_path, "figures")
    assert problems == [
        f"artifact {name} differs from the reference digest",
        f"artifact {name} differs from tests/golden",
    ]


def test_workload_inputs_follow_the_seed():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    for name in workloads.NAMES:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert (a.config, a.scenario_ids) == (b.config, b.scenario_ids)
    sweeps = [workloads.build("cover-sweep", s).scenario_ids for s in (1, 2)]
    assert sweeps[0] != sweeps[1]
    assert all(len(set(ids)) == workloads.COVER_SCENARIOS for ids in sweeps)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        workloads.REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    argv = ["perfbench/run.py", "--workload", "tiling", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
