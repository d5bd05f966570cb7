import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mvdet.cli import main
from mvdet.geometry import make_surround_rig, save_rig
from mvdet.simulator import perturb


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def rig_file(tmp_path):
    path = tmp_path / "rig.json"
    save_rig(make_surround_rig(6), path)
    return path


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--out", str(out), "--scenes", "2",
                   "--boxes", "8", "--seed", "3") == 0
    return out


def run_config(tmp_path, **over):
    cfg = {
        "preset": "F",
        "decoder": {"n_queries": 24, "channels": 16, "heads": 4,
                    "feature_channels": 8, "seed": 1},
        "seeds": {"base": 5, "scenes": 2},
        "boxes": 6,
        "noise": {},
    }
    cfg.update(over)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_help_and_unknown_flag(capsys):
    with pytest.raises(SystemExit) as e:
        run_cli("--help")
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        run_cli("simulate", "--out", "x", "--definitely-not-a-flag")
    assert e.value.code != 0


def test_simulate_outputs(sim_dir):
    assert (sim_dir / "rig.json").exists()
    assert (sim_dir / "scene_0000.json").exists()
    assert (sim_dir / "scene_0001.json").exists()
    combined = json.loads((sim_dir / "scenes.json").read_text())
    assert combined["format"] == "mvdet-scene-set/1"
    assert len(combined["scenes"]) == 2


def test_allocate_roundtrip(tmp_path, rig_file):
    anchors = {"anchors": [[15.0, 0.0, 0.75, 2.0, 4.0, 1.5, 0.0, 0.0, 0.0]]}
    apath = tmp_path / "anchors.json"
    apath.write_text(json.dumps(anchors))
    out = tmp_path / "alloc.json"
    assert run_cli("allocate", "--rig", str(rig_file), "--anchors", str(apath),
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["format"] == "mvdet-allocation/1"
    assert obj["n_2d"] == 1


def test_forward_on_scene(tmp_path, sim_dir):
    cfg = tmp_path / "decoder.json"
    cfg.write_text(json.dumps(
        {"preset": "F", "n_queries": 24, "channels": 16, "heads": 4,
         "feature_channels": 8}
    ))
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--config", str(cfg),
                   "--scene", str(sim_dir / "scene_0000.json"),
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["n_sublayers"] == 6
    assert len(obj["agg_taps"]) == 3


def test_eval_aar_zero_noise_perfect(tmp_path, sim_dir, capsys):
    from mvdet.simulator import load_scene, perturb
    from mvdet.metrics import detections_to_json_obj, parse_detections

    frames = []
    for i in range(2):
        scene = load_scene(sim_dir / f"scene_{i:04d}.json")
        frames.extend(parse_detections(perturb(scene, seed=i)))
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj(frames)))
    out = tmp_path / "aar.csv"
    assert run_cli("eval-aar", "--gt", str(sim_dir / "scenes.json"),
                   "--pred", str(pred), "--tau-dis", "2",
                   "--tau-iou-sweep", "0.1:0.9:0.1", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_iou,aar,recall,n_candidate,n_valid"
    assert len(lines) == 10
    for line in lines[1:]:
        tau, aar, recall, c, v = line.split(",")
        assert float(aar) == 100.0
        assert float(recall) == 100.0


def test_eval_ap(tmp_path, sim_dir):
    from mvdet.simulator import load_scene, perturb
    from mvdet.metrics import detections_to_json_obj, parse_detections

    frames = []
    for i in range(2):
        scene = load_scene(sim_dir / f"scene_{i:04d}.json")
        frames.extend(parse_detections(perturb(scene, seed=i)))
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj(frames)))
    out = tmp_path / "ap.csv"
    assert run_cli("eval-ap", "--gt", str(sim_dir / "scenes.json"),
                   "--pred", str(pred), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class_id,iou_threshold,ap"
    assert lines[-1].startswith("mean,,")
    assert float(lines[-1].split(",")[-1]) == 1.0  # perfect predictions


EVAL_ARGS = {"eval-ap": (), "eval-aar": ("--tau-dis", "2", "--tau-iou-sweep", "0.5:0.5:0.1")}


@pytest.mark.parametrize("command", sorted(EVAL_ARGS))
def test_eval_rejects_repeated_detection_frame(tmp_path, sim_dir, capsys, command):
    from mvdet.simulator import load_scene

    # perfect boxes for frame 0, then an empty entry for frame 0 that
    # would silently replace them
    obj = perturb(load_scene(sim_dir / "scene_0000.json"), seed=0)
    obj["frames"].append({"frame_id": 0, "boxes3d": [], "boxes2d": {}})
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(obj))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(sim_dir / "scenes.json"), "--pred", str(pred),
                   *EVAL_ARGS[command], "--out", str(out)) == 1
    assert f"{pred}: frame_id 0 appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(EVAL_ARGS))
def test_eval_rejects_repeated_gt_frame(tmp_path, sim_dir, capsys, command):
    from mvdet.simulator import load_scene

    scene = load_scene(sim_dir / "scene_0000.json")
    gt = tmp_path / "scenes.json"
    gt.write_text(json.dumps({"format": "mvdet-scene-set/1",
                              "scenes": [scene.to_json_obj(), scene.to_json_obj()]}))
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(perturb(scene, seed=0)))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(gt), "--pred", str(pred),
                   *EVAL_ARGS[command], "--out", str(out)) == 1
    assert f"{gt}: frame_id 0 appears in more than one scene" in capsys.readouterr().err
    assert not out.exists()


def test_crop_views(tmp_path, rig_file):
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert len(obj["views"]) == 8
    assert obj["views"][-1]["derived"] is True


def test_denoise_demo(tmp_path, sim_dir):
    out = tmp_path / "dn.json"
    assert run_cli("denoise-demo", "--scene", str(sim_dir / "scene_0000.json"),
                   "--groups", "3", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["leakage_free"] is True
    assert obj["groups"] == 3
    assert obj["noise_columns"] > 0


def test_run_pipeline_and_reproducibility(tmp_path):
    cfg = run_config(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("run", "--config", str(cfg), "--out", str(out2)) == 0
    for rel in ("metrics/aar_curve.csv", "metrics/ap.csv", "gt_scenes.json",
                "summary.json", "forward/forward_0000.json"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    csv = (out1 / "metrics" / "aar_curve.csv").read_text().splitlines()
    for line in csv[1:]:
        assert float(line.split(",")[1]) == 100.0  # zero oracle noise


def test_run_jobs_parallel_matches_serial(tmp_path):
    cfg = run_config(tmp_path)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("run", "--config", str(cfg), "--out", str(out2), "--jobs", "2") == 0
    assert (out1 / "metrics" / "aar_curve.csv").read_bytes() == \
        (out2 / "metrics" / "aar_curve.csv").read_bytes()


class InjectedFailure(Exception):
    pass


def perturb_failing_on_seed_7(scene, noise=None, seed=0):
    # run_config's base seed is 5; scene 1 (seed 6) is perturbed with seed 7
    if seed == 7:
        raise InjectedFailure("injected")
    return perturb(scene, noise, seed=seed)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_failure_names_scene_and_seed(tmp_path, monkeypatch, capsys, jobs):
    import multiprocessing

    from mvdet import cli

    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    monkeypatch.setattr(cli, "perturb", perturb_failing_on_seed_7)
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3})
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--jobs", jobs]
    with pytest.raises(RuntimeError, match=r"^scene 1 \(seed 6\) failed: injected$") as info:
        cli.cmd_run(cli.build_parser().parse_args(argv))
    assert isinstance(info.value.__cause__, InjectedFailure)
    assert run_cli(*argv) == 1
    assert "scene 1 (seed 6) failed: injected" in capsys.readouterr().err


def sample_scene_marking(marks, real):
    """``sample_scene`` that leaves a marker file per scene; scene 0 (seed 5)
    fails at once, the others take a while."""

    def marking(seed, rig, **kwargs):
        (marks / f"scene_{seed}").touch()
        if seed == 5:
            raise InjectedFailure("injected")
        time.sleep(0.3)
        return real(seed, rig, **kwargs)

    return marking


def test_run_failure_cancels_pending_scenes(tmp_path, monkeypatch):
    import multiprocessing

    from mvdet import cli

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setattr(cli, "sample_scene", sample_scene_marking(marks, cli.sample_scene))
    n_scenes = 12
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": n_scenes})
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--jobs", "2"]
    with pytest.raises(RuntimeError, match=r"^scene 0 \(seed 5\) failed: injected$"):
        cli.cmd_run(cli.build_parser().parse_args(argv))
    started = len(list(marks.iterdir()))
    assert 1 <= started < n_scenes


def test_run_rejects_negative_seed(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--seed", "-1") == 1
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x" / "scenes").exists()


def test_cli_import_leaves_scipy_optimize_out():
    code = "import sys, mvdet.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def ap_of_two_frames(view0, view1):
    """AP when frame 1's only prediction sits exactly on frame 0's ground
    truth; frame 0's box is in view ``view0``, frame 1's in ``view1``."""
    from mvdet.cli import _ap_inputs
    from mvdet.geometry import Anchor3D, Box2D, make_surround_rig
    from mvdet.metrics import GtBox2D, Pred2D, ap_2d
    from mvdet.simulator import Scene

    rig = make_surround_rig(1)
    box_a = Anchor3D(center=(10, 0, 0.8), size=(2, 4, 1.5), yaw=0.0)

    def scene(fid, gt_box):
        return Scene(seed=0, frame_id=fid, boxes=[(box_a, 0)],
                     gt2d=[GtBox2D(box=gt_box, class_id=0, box3d_index=0)],
                     rig=rig)

    g0 = Box2D(cx=50, cy=50, w=10, h=10, view_id=view0)
    g1 = Box2D(cx=200, cy=200, w=10, h=10, view_id=view1)
    pred = Box2D(cx=50, cy=50, w=10, h=10, view_id=view1)
    scenes = [scene(0, g0), scene(1, g1)]
    det = {0: ([], []), 1: ([], [Pred2D(box=pred, class_id=0, score=1.0)])}
    preds, gt = _ap_inputs(scenes, det)
    return ap_2d(preds, gt, (0.5,))[0][0.5]


def test_ap_pooling_keeps_frames_apart():
    # a prediction must not match another frame's ground truth even when
    # both use the same view id
    assert ap_of_two_frames(0, 0) == 0.0


def test_ap_pooling_keys_on_frame_and_view():
    # view 10000 of frame 0 and view 0 of frame 1 are different views; an
    # id offset of frame * 10000 would merge them and score a match
    assert ap_of_two_frames(10_000, 0) == 0.0
    assert ap_of_two_frames(10_000, 10_000) == 0.0


def test_run_preset_a_notes_no_2d(tmp_path, capsys):
    cfg = run_config(tmp_path, preset="A")
    out = tmp_path / "runA"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert any("no 2D outputs" in n for n in summary["notes"])
    captured = capsys.readouterr()
    assert "no 2D outputs" in captured.out


def test_run_missing_rig_fails(tmp_path):
    cfg = run_config(tmp_path, rig="does-not-exist.json")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1


def test_bad_preset_fails(tmp_path):
    cfg = run_config(tmp_path, preset="Q")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
