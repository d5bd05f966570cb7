"""The parts of the package that the benchmark in perfbench/ reads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import mvdet._kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_env_probe_records_python_backend(perfbench):
    import run

    probe = subprocess.run([sys.executable, "-c", run.ENV_PROBE], cwd=run.ROOT,
                           env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout)["backend"] == "python"


def test_kernels_expose_traced_names(perfbench):
    import traced_run

    names = {attr for _, module, attr, _ in traced_run.FUNCTIONS if module == "mvdet._kernels"}
    assert names == {"project_points", "box_points", "bilinear_sample", "iou_matrix"}
    for name in names:
        assert callable(getattr(mvdet._kernels, name))


def test_traced_run_attaches_to_the_package(tmp_path):
    """The benchmark's trace wraps package functions by name; a rename or a
    rebinding in the package must not silently drop a span."""
    from test_golden_run import CONFIG

    config = tmp_path / "golden_run.json"
    config.write_text(json.dumps(CONFIG))
    summary_path = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_run.py"),
         "--src", str(PERFBENCH.parent / "src"), "--config", str(config),
         "--out", str(tmp_path / "out"), "--seed", "0",
         "--summary", str(summary_path), "--trace", str(tmp_path / "trace.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(summary_path.read_text())
    assert summary["status"] == 0 and summary["errors"] == []
    # the two attention entry points the benchmark still names were merged
    # into groupattn.attention; no other span is missing and no count hook failed
    assert summary["notes"] == [
        "mvdet.groupattn.masked_self_attention not found; "
        "groupattn.masked_self_attention not traced",
        "mvdet.groupattn.cross_attention not found; groupattn.cross_attention not traced",
    ]
    gt_scenes = json.loads((tmp_path / "out" / "gt_scenes.json").read_text())["scenes"]
    n_gt2d = sum(len(scene["gt2d"]) for scene in gt_scenes)
    assert n_gt2d > 0 and summary["counts"]["simulator.gt2d"] == n_gt2d
    for span in ("kernels.project_points", "kernels.box_points", "kernels.bilinear_sample",
                 "groupattn.ref_point_cross_attention", "allocation.allocate",
                 "simulator.render_features", "metrics.aar", "metrics.ap"):
        assert summary["calls"].get(span, 0) >= 1, span


def test_initial_anchors_are_where_every_pass_starts(perfbench):
    """The benchmark checks each run's first 2D mapping against the
    allocation of ``run.initial_anchors``: for every workload those are the
    anchors of the initial queries that ``forward_scenes`` decodes from and,
    clamped, the anchors of the layer-0 opening of a preset that opens 2D."""
    import run
    import workloads

    from mvdet.allocation import clamp_anchors
    from mvdet.decoder import HybridDecoder
    from mvdet.pipeline import RunConfig

    from conftest import same_bits

    for name, cfg in workloads.WORKLOADS.items():
        config = RunConfig.from_json_obj(cfg)
        decoder = HybridDecoder(config.decoder, config.cameras)
        anchors = run.initial_anchors(cfg)
        assert same_bits(anchors, decoder.initial_queries().anchors), name
        if config.decoder.l_2d:
            assert same_bits(clamp_anchors(anchors, config.decoder.limits),
                             decoder.prefix().anchors), name


@pytest.mark.parametrize("name", ["ref-F", "plain3d-A", "many-scenes"])
def test_shrunk_workload_passes_the_benchmark_output_check(perfbench, tmp_path, name):
    """Each benchmark workload, shrunk to two scenes (four for many-scenes),
    writes artifacts that pass ``oracles.check_run`` as ``perfbench/run.py``
    calls it: with the first-mapping check from ``run.initial_anchors``
    for every preset but A."""
    import oracles
    import run
    import workloads

    from mvdet.cli import main

    cfg = workloads.WORKLOADS[name]
    cfg = {**cfg, "seeds": {**cfg["seeds"], "scenes": 4 if name == "many-scenes" else 2}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", "1"]) == 0
    anchors = run.initial_anchors(cfg) if cfg["preset"] != "A" else None
    assert oracles.check_run(out, cfg, anchors) == []
