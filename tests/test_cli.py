import collections
import functools
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mvdet.cli import main
from mvdet.geometry import make_surround_rig, save_rig
from mvdet.metrics import detections_to_json_obj
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


@pytest.mark.parametrize(
    "flag, value, message",
    [("--scenes", "-2", "--scenes must be positive, got -2"),
     ("--scenes", "0", "--scenes must be positive, got 0"),
     ("--boxes", "-3", "--boxes must be non-negative, got -3"),
     ("--views", "0", "--views must be positive, got 0"),
     ("--views", "-2", "--views must be positive, got -2")],
    ids=["scenes_negative", "scenes_0", "boxes_negative", "views_0", "views_negative"],
)
def test_simulate_rejects_bad_counts(tmp_path, capsys, flag, value, message):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--out", str(out), flag, value) == 1
    assert capsys.readouterr().err == f"mvdet simulate: error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"anchors": [[15.0, 0.0, 0.75, -2.0, 4.0, 1.5, 0.0, 0.0, 0.0]]}',
         "anchor row 0 has a non-positive size"),
        ('{"anchors": [[15.0, 0.0, 0.75, 2.0, 4.0, 1.5, 0.0, 0.0, 0.0], '
         '[NaN, 0.0, 0.75, 2.0, 4.0, 1.5, 0.0, 0.0, 0.0]]}',
         "anchor row 1 is not finite"),
        ('{"anchors": [[15.0, 0.0, 0.75, 2.0, 4.0, 1.5]]}',
         "anchor array must be (N, 9), got (1, 6)"),
    ],
    ids=["negative_width", "nan_center", "six_floats"],
)
def test_allocate_rejects_bad_anchors(tmp_path, rig_file, capsys, text, message):
    apath = tmp_path / "anchors.json"
    apath.write_text(text)
    out = tmp_path / "alloc.json"
    assert run_cli("allocate", "--rig", str(rig_file), "--anchors", str(apath),
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet allocate: error: {apath}: {message}\n"
    assert not out.exists()


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


# Decoder values a config may not hold: (decoder entries, message, test id).
BAD_DECODER_VALUES = [
    ({"n_queries": 0}, "n_queries must be positive", "n_queries"),
    ({"heads": 0}, "heads must be positive, got 0", "heads_0"),
    ({"channels": 0}, "channels must be positive, got 0", "channels_0"),
    ({"n_classes": 0}, "n_classes must be positive, got 0", "n_classes_0"),
    ({"n_scales": 0}, "n_scales must be positive, got 0", "n_scales_0"),
    ({"n_scales": -1}, "n_scales must be positive, got -1", "n_scales_negative"),
    ({"feature_channels": 0}, "feature_channels must be positive, got 0", "feature_channels_0"),
]


@pytest.mark.parametrize(
    "decoder, message", [pytest.param(d, m, id=i) for d, m, i in BAD_DECODER_VALUES]
)
def test_forward_bad_config_value_names_the_file(tmp_path, sim_dir, capsys, decoder, message):
    cfg = tmp_path / "decoder.json"
    cfg.write_text(json.dumps({"preset": "F", **decoder}))
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--config", str(cfg),
                   "--scene", str(sim_dir / "scene_0000.json"),
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet forward: error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "cfg_obj, key",
    [
        ({"preset": "F", "n_querys": 16}, "'n_querys'"),
        ({"decoder": {"n_querys": 16, "preset": "F"}}, "'n_querys'"),
        ({"decoder": {"preset": "F"}, "n_queries": 16}, "'n_queries'"),
        ({"decoder": {"preset": "F"}, "rigg": "rig.json"}, "'rigg'"),
        ({"preset": "F", "top_k_temporal": 256}, "'top_k_temporal'"),
        ({"decoder": {"preset": "F", "top_k_temporal": 256}}, "'top_k_temporal'"),
    ],
)
def test_forward_rejects_unknown_config_keys(tmp_path, sim_dir, capsys, cfg_obj, key):
    cfg = tmp_path / "decoder.json"
    cfg.write_text(json.dumps(cfg_obj))
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--config", str(cfg),
                   "--scene", str(sim_dir / "scene_0000.json"),
                   "--out", str(out)) == 1
    assert f"{cfg}: unknown forward config key {key}" in capsys.readouterr().err
    assert not out.exists()


def test_forward_rejects_negative_seed(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "decoder.json"
    cfg.write_text(json.dumps({"preset": "F", "n_queries": 24, "channels": 16, "heads": 4}))
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--config", str(cfg), "--scene", str(sim_dir / "scene_0000.json"),
                   "--seed", "-1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "mvdet forward: error: --seed must be non-negative, got -1\n"
    assert not out.exists()


def test_eval_aar_zero_noise_perfect(tmp_path, sim_dir, capsys):
    from mvdet.simulator import load_scene, perturb

    frames = {}
    for i in range(2):
        scene = load_scene(sim_dir / f"scene_{i:04d}.json")
        frames[scene.frame_id] = perturb(scene, seed=i)
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

    frames = {}
    for i in range(2):
        scene = load_scene(sim_dir / f"scene_{i:04d}.json")
        frames[scene.frame_id] = perturb(scene, seed=i)
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj(frames)))
    out = tmp_path / "ap.csv"
    assert run_cli("eval-ap", "--gt", str(sim_dir / "scenes.json"),
                   "--pred", str(pred), "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "class_id,iou_threshold,ap"
    assert lines[-1].startswith("mean,,")
    assert float(lines[-1].split(",")[-1]) == 1.0  # perfect predictions


@pytest.mark.parametrize(
    "command, arg, message",
    [
        ("eval-ap", "--iou-thresholds=1.5", "--iou-thresholds: IoU threshold 1.5 is outside [0, 1]"),
        ("eval-ap", "--iou-thresholds=nan", "--iou-thresholds: IoU threshold nan is outside [0, 1]"),
        ("eval-ap", "--iou-thresholds=0.5,-0.2",
         "--iou-thresholds: IoU threshold -0.2 is outside [0, 1]"),
        ("eval-ap", "--iou-thresholds=0.5,high",
         "--iou-thresholds: could not convert string to float: 'high'"),
        ("eval-aar", "--tau-iou-sweep=0.5:1.5:0.5", "--tau-iou-sweep: bad sweep spec "
         "'0.5:1.5:0.5'; expected 0 <= lo <= hi <= 1, step > 0"),
        ("eval-aar", "--tau-iou-sweep=-0.5:0.5:0.5", "--tau-iou-sweep: bad sweep spec "
         "'-0.5:0.5:0.5'; expected 0 <= lo <= hi <= 1, step > 0"),
        ("eval-aar", "--tau-iou-sweep=0.1:nan:0.1", "--tau-iou-sweep: bad sweep spec "
         "'0.1:nan:0.1'; expected 0 <= lo <= hi <= 1, step > 0"),
        ("eval-aar", "--tau-dis=nan", "--tau-dis: tau_dis must be finite, got nan"),
        ("eval-aar", "--tau-dis=inf", "--tau-dis: tau_dis must be finite, got inf"),
        ("eval-aar", "--tau-dis=0", "--tau-dis: tau_dis must be positive"),
    ],
    ids=["iou_1.5", "iou_nan", "iou_negative", "iou_not_a_number", "sweep_above_1",
         "sweep_below_0", "sweep_nan", "tau_dis_nan", "tau_dis_inf", "tau_dis_0"],
)
def test_eval_rejects_thresholds_out_of_range(tmp_path, sim_dir, capsys, command, arg, message):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj({})))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(sim_dir / "scenes.json"), "--pred", str(pred), arg,
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet {command}: error: {message}\n"
    assert not out.exists()


EVAL_ARGS = {"eval-ap": (), "eval-aar": ("--tau-dis", "2", "--tau-iou-sweep", "0.5:0.5:0.1")}


@pytest.mark.parametrize("command", sorted(EVAL_ARGS))
def test_eval_rejects_repeated_detection_frame(tmp_path, sim_dir, capsys, command):
    from mvdet.simulator import load_scene

    # perfect boxes for frame 0, then an empty entry for frame 0 that
    # would silently replace them
    scene = load_scene(sim_dir / "scene_0000.json")
    obj = detections_to_json_obj({scene.frame_id: perturb(scene, seed=0)})
    obj["frames"].append({"frame_id": 0, "boxes3d": [], "boxes2d": {}})
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(obj))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(sim_dir / "scenes.json"), "--pred", str(pred),
                   *EVAL_ARGS[command], "--out", str(out)) == 1
    assert f"{pred}: frame_id 0 appears more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(EVAL_ARGS))
def test_eval_rejects_detection_frame_without_scene(tmp_path, sim_dir, capsys, command):
    from mvdet.simulator import load_scene

    # frame 0's perfect boxes, and a copy of them as frame 99, which no
    # scene of the ground truth has: they would go unscored
    scene = load_scene(sim_dir / "scene_0000.json")
    obj = detections_to_json_obj({scene.frame_id: perturb(scene, seed=0)})
    obj["frames"].append({**obj["frames"][0], "frame_id": 99})
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(obj))
    gt = sim_dir / "scenes.json"
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(gt), "--pred", str(pred),
                   *EVAL_ARGS[command], "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"mvdet {command}: error: {pred}: frame_id 99 has no scene in {gt}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(EVAL_ARGS))
def test_eval_rejects_repeated_gt_frame(tmp_path, sim_dir, capsys, command):
    from mvdet.simulator import load_scene

    scene = load_scene(sim_dir / "scene_0000.json")
    gt = tmp_path / "scenes.json"
    gt.write_text(json.dumps({"format": "mvdet-scene-set/1",
                              "scenes": [scene.to_json_obj(), scene.to_json_obj()]}))
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj({scene.frame_id: perturb(scene, seed=0)})))
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


def test_crop_views_rejects_an_unknown_rule_key(tmp_path, rig_file, capsys):
    obj = json.loads(rig_file.read_text())
    obj["derived_views"] = [{"source_view_id": 0, "scale_rat": 3.0}]
    rig_file.write_text(json.dumps(obj))
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"mvdet crop-views: error: {rig_file}: unknown crop rule key 'scale_rat'\n"
    assert not out.exists()


BAD_CROP_SIZES = [("out_width", -5, "-5"), ("out_width", 100.7, "100.7"),
                  ("out_height", 0, "0"), ("out_width", "abc", "'abc'"),
                  ("out_height", True, "True")]


@pytest.mark.parametrize("key, value, shown", BAD_CROP_SIZES,
                         ids=[f"{key}_{value}" for key, value, _ in BAD_CROP_SIZES])
def test_crop_views_rejects_a_bad_output_size(tmp_path, rig_file, capsys, key, value, shown):
    obj = json.loads(rig_file.read_text())
    obj["derived_views"] = [{"source_view_id": 0, key: value}]
    rig_file.write_text(json.dumps(obj))
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == (f"mvdet crop-views: error: {rig_file}: "
                   f"{key} must be a positive integer, got {shown}\n")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_crop_views_rejects_a_non_finite_scale_rate(tmp_path, rig_file, capsys, rate):
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--scale-rate", rate,
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"mvdet crop-views: error: scale_rate must be finite and > 1, got {rate}\n"
    assert not out.exists()


def test_denoise_demo(tmp_path, sim_dir):
    out = tmp_path / "dn.json"
    assert run_cli("denoise-demo", "--scene", str(sim_dir / "scene_0000.json"),
                   "--groups", "3", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["leakage_free"] is True
    assert obj["groups"] == 3
    assert obj["noise_columns"] > 0


@pytest.mark.parametrize(
    "flags, message",
    [(["--heads", "0"], "--heads must be positive, got 0"),
     (["--heads", "-2"], "--heads must be positive, got -2"),
     (["--channels", "0"], "--channels must be positive, got 0"),
     (["--channels", "-4", "--heads", "2"], "--channels must be positive, got -4"),
     (["--seed", "-1"], "--seed must be non-negative, got -1")],
    ids=["heads_0", "heads_negative", "channels_0", "channels_negative", "seed_negative"],
)
def test_denoise_demo_rejects_bad_flags(tmp_path, sim_dir, capsys, flags, message):
    out = tmp_path / "dn.json"
    assert run_cli("denoise-demo", "--scene", str(sim_dir / "scene_0000.json"), *flags,
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet denoise-demo: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, obj, key",
    [
        ("eval-aar", "--gt", {"format": "mvdet-scene/1", "seed": 0}, "'boxes'"),
        ("eval-aar", "--pred", {"format": "mvdet-detections/1"}, "'frames'"),
        ("denoise-demo", "--scene", {"format": "mvdet-scene/1", "seed": 0}, "'boxes'"),
        ("crop-views", "--rig", {}, "'views'"),
        ("crop-views", "--rig",
         {"views": [v.to_json_obj() for v in make_surround_rig(6)], "derived_views": [{}]},
         "'source_view_id'"),
        ("allocate", "--anchors", {}, "'anchors'"),
        ("run", "--config", {"crop_rules": [{}]}, "'source_view_id'"),
    ],
)
def test_missing_key_names_the_file(tmp_path, sim_dir, rig_file, capsys,
                                    command, flag, obj, key):
    from mvdet.simulator import load_scene

    pred = tmp_path / "pred.json"
    scene = load_scene(sim_dir / "scene_0000.json")
    pred.write_text(json.dumps(detections_to_json_obj({scene.frame_id: perturb(scene, seed=0)})))
    inputs = {
        "eval-aar": {"--gt": sim_dir / "scenes.json", "--pred": pred},
        "denoise-demo": {"--scene": sim_dir / "scene_0000.json"},
        "crop-views": {"--rig": rig_file},
        "allocate": {"--rig": rig_file, "--anchors": None},
        "run": {"--config": None},
    }[command]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    inputs[flag] = bad
    out = tmp_path / "out"
    argv = [str(a) for item in inputs.items() for a in item]
    assert run_cli(command, *argv, "--out", str(out)) == 1
    assert f"{bad}: missing key {key}" in capsys.readouterr().err
    assert not out.exists()


def detections_file(boxes3d=(), boxes2d=None):
    """A detections object of one frame, frame 0."""
    return {"format": "mvdet-detections/1",
            "frames": [{"frame_id": 0, "boxes3d": list(boxes3d), "boxes2d": boxes2d or {}}]}


def scene_file_with(sim_dir, section, value):
    """Scene 0 of ``sim_dir`` with the box of the first entry of ``section``
    replaced by ``value``."""
    obj = json.loads((sim_dir / "scene_0000.json").read_text())
    obj[section][0]["box"] = value
    return obj


def gt2d_class_changed(sim_dir, class_id):
    """Scene 0 of ``sim_dir`` with its first 2D box linked to 3D box 0 of
    class 0, and of class ``class_id`` itself."""
    obj = json.loads((sim_dir / "scene_0000.json").read_text())
    obj["boxes"][0]["class_id"] = 0
    obj["gt2d"][0].update(box3d_index=0, class_id=class_id)
    return obj


@pytest.mark.parametrize(
    "command, flag, make_obj, message",
    [
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={"0": [{"box": [1.0, 2.0, -5.0, 4.0], "class_id": 0}]}),
         "2D box sizes must be non-negative, got -5.0x4.0"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes2d={"0": [{"box": [float("nan"), 2.0, 5.0, 4.0],
                                                     "class_id": 0}]}),
         "2D box 0 is not finite: [nan, 2.0, 5.0, 4.0]"),
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={"0": [{"box": [1.0, 2.0, 3.0], "class_id": 0}]}),
         "2D box 0 holds 3 values, expected 4"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes3d=[{"box": [1.0, 2.0, 3.0], "class_id": 0}]),
         "3D box 0 holds 3 values, expected 9"),
        ("eval-aar", "--gt",
         lambda sim: scene_file_with(sim, "boxes", [10.0, 0.0, 0.8, 0.0, 4.0, 1.5, 0.0, 0.0, 0.0]),
         "3D box 0 sizes must be positive, got [0.0, 4.0, 1.5]"),
        ("eval-ap", "--gt", lambda sim: scene_file_with(sim, "gt2d", [50.0, 60.0, -5.0, 4.0]),
         "2D box sizes must be non-negative, got -5.0x4.0"),
        ("denoise-demo", "--scene",
         lambda sim: scene_file_with(sim, "boxes", [10.0, 0.0, 0.8, 2.0, 4.0, 1.5, 0.0]),
         "3D box 0 holds 7 values, expected 9"),
        ("eval-aar", "--gt", lambda sim: {"format": "mvdet-scene-set/1", "scenes": []},
         "holds no scenes"),
        ("eval-ap", "--gt", lambda sim: gt2d_class_changed(sim, 4),
         "gt2d box 0 has class_id 4, but its 3D box 0 has class_id 0"),
    ],
    ids=["pred2d_negative_width", "pred2d_nan_center", "pred2d_three_floats",
         "pred3d_three_floats", "scene_zero_size", "gt2d_negative_width",
         "scene_seven_floats", "no_scenes", "gt2d_class_differs"],
)
def test_bad_box_value_names_the_file(tmp_path, sim_dir, capsys, command, flag, make_obj,
                                      message):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_file()))
    inputs = {
        "eval-aar": {"--gt": sim_dir / "scene_0000.json", "--pred": pred},
        "eval-ap": {"--gt": sim_dir / "scene_0000.json", "--pred": pred},
        "denoise-demo": {"--scene": sim_dir / "scene_0000.json"},
    }[command]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_obj(sim_dir)))
    inputs[flag] = bad
    out = tmp_path / "out"
    argv = [str(a) for item in inputs.items() for a in item]
    assert run_cli(command, *argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet {command}: error: {bad}: {message}\n"
    assert not out.exists()


def test_metrics_from_files_match_the_run(tmp_path):
    """`eval-aar` and `eval-ap` on a run's own files reproduce the metrics
    that `run` computed in memory, byte for byte."""
    noise = {"drop_prob": 0.2, "drop_prob_3d": 0.1, "jitter_px": 3.0, "jitter_m": 0.3,
             "score_spread": 0.4}
    cfg = run_config(tmp_path, noise=noise, seeds={"base": 5, "scenes": 3})
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    frames = [f for path in sorted((out / "pred").iterdir())
              for f in json.loads(path.read_text())["frames"]]
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"format": "mvdet-detections/1", "frames": frames}))
    gt = str(out / "gt_scenes.json")
    assert run_cli("eval-aar", "--gt", gt, "--pred", str(pred),
                   "--out", str(tmp_path / "aar.csv")) == 0
    assert run_cli("eval-ap", "--gt", gt, "--pred", str(pred), "--iou-thresholds", "0.5,0.75",
                   "--out", str(tmp_path / "ap.csv")) == 0
    assert (tmp_path / "aar.csv").read_bytes() == (out / "metrics" / "aar_curve.csv").read_bytes()
    assert (tmp_path / "ap.csv").read_bytes() == (out / "metrics" / "ap.csv").read_bytes()
    assert len(set((tmp_path / "ap.csv").read_text().splitlines())) > 3  # not all zeros


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
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert len(files) == 13  # rig, gt_scenes, summary, two metrics, 4 x 2 scene files
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


FORKED_RUN = """
import sys
from mvdet import cli, groupattn
groupattn.usable_cpus = lambda: 2
groupattn.BLOCK_BUDGET = 4 * 24 * 5  # five-row blocks: the prefix's dense call uses the helper
for jobs, out in (("2", sys.argv[2]), ("1", sys.argv[3])):
    assert cli.main(["run", "--config", sys.argv[1], "--out", out, "--jobs", jobs]) == 0
    assert groupattn._helper is not None
"""


def test_run_preset_a_jobs_2_after_a_dense_call_in_the_parent(tmp_path):
    # the parent computes preset A's prefix, a dense call that starts the
    # attention helper, before it forks the scene workers; each worker must
    # start its own helper rather than wait on the parent's
    cfg = run_config(tmp_path, preset="A", seeds={"base": 5, "scenes": 3})
    out2, out1 = tmp_path / "jobs2", tmp_path / "jobs1"
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.Popen([sys.executable, "-c", FORKED_RUN, str(cfg), str(out2), str(out1)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the run and its workers
        proc.communicate()
        pytest.fail("the forked run hung")
    assert proc.returncode == 0, err
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert len(files) == 17  # rig, gt_scenes, summary, two metrics, 4 x 3 scene files
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def perturb_recording_blas_threads(marks, scene, noise=None, seed=0):
    """``perturb`` that first records the BLAS thread count of its process."""
    from mvdet import cli

    (marks / f"{os.getpid()}_{seed}").write_text(str(cli._openblas_threads()[1]()))
    return perturb(scene, noise, seed=seed)


def test_run_caps_blas_at_one_thread_in_each_worker(tmp_path, monkeypatch):
    import multiprocessing

    from mvdet import cli

    if cli._openblas_threads() is None:
        pytest.skip("this NumPy's BLAS has no scipy_openblas thread-count calls")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    for var in cli._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    get_threads = cli._openblas_threads()[1]
    before = get_threads()
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3})
    outs = {}
    for capped in (True, False):
        marks = tmp_path / f"marks_{capped}"
        marks.mkdir()
        monkeypatch.setattr(cli, "perturb", functools.partial(perturb_recording_blas_threads, marks))
        if not capped:  # a BLAS thread variable leaves BLAS alone
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(before))
        outs[capped] = tmp_path / f"out_{capped}"
        assert run_cli("run", "--config", str(cfg), "--out", str(outs[capped]),
                       "--jobs", "2") == 0
        assert get_threads() == before  # the parent's count is restored after the run
        seen = {p.name.split("_")[0]: p.read_text() for p in marks.iterdir()}
        assert str(os.getpid()) not in seen and len(seen) >= 1  # read in the workers
        assert set(seen.values()) == ({"1"} if capped else {str(before)})
    files = sorted(p.relative_to(outs[True]) for p in outs[True].rglob("*") if p.is_file())
    for rel in files:
        assert (outs[True] / rel).read_bytes() == (outs[False] / rel).read_bytes(), rel


def test_run_builds_no_rig_or_scene_from_json(tmp_path, monkeypatch):
    """Workers get the parent's camera objects and hand back the Scene they
    sampled; neither is rebuilt from JSON inside ``run``.  The run builds
    one decoder and one initial query set, and keeps its detections as
    objects."""
    from mvdet import decoder, geometry, metrics
    from mvdet.decoder import HybridDecoder
    from mvdet.simulator import Scene, load_scene

    calls = collections.Counter()
    rig_from_json_obj = geometry.rig_from_json_obj
    scene_from_json_obj = Scene.from_json_obj
    parse_detections = metrics.parse_detections

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, mod in list(sys.modules.items()):
        if not name.startswith("mvdet"):
            continue
        for attr, fn in (("rig_from_json_obj", rig_from_json_obj),
                         ("parse_detections", parse_detections)):
            if vars(mod).get(attr) is fn:
                monkeypatch.setattr(mod, attr, counting(attr, fn))
    monkeypatch.setattr(Scene, "from_json_obj", classmethod(
        counting("Scene.from_json_obj", lambda cls, obj: scene_from_json_obj(obj))))
    for method in ("__init__", "initial_queries", "prefix", "forward", "forward_scenes"):
        monkeypatch.setattr(HybridDecoder, method,
                            counting(f"HybridDecoder.{method}", vars(HybridDecoder)[method]))
    monkeypatch.setattr(decoder, "allocate", counting("decoder.allocate", decoder.allocate))
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3})
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), "--jobs", "1") == 0
    assert len(list((out / "scenes").iterdir())) == 3
    # preset F (l_2d = 1, l_hybrid = 3): the first allocation is the prefix's,
    # made once; each scene makes the other two; the three scenes of 24
    # queries are one batch, decoded in one pass
    decoder_calls = {"HybridDecoder.__init__": 1, "HybridDecoder.initial_queries": 1,
                     "HybridDecoder.prefix": 1, "decoder.allocate": 1 + 3 * (1 * 3 - 1),
                     "HybridDecoder.forward_scenes": 1}
    assert calls == decoder_calls
    # the counters are live: reading a scene file back rebuilds both, and
    # reading the predictions parses them
    load_scene(out / "scenes" / "scene_0000.json")
    metrics.parse_detections(geometry.load_json(out / "pred" / "pred_0000.json"))
    assert calls == {**decoder_calls,
                     "rig_from_json_obj": 1, "Scene.from_json_obj": 1, "parse_detections": 1}


@pytest.mark.parametrize("n_queries, n_scenes, passes", [(64, 12, 1), (900, 2, 2)])
def test_run_decodes_batches_of_scenes(tmp_path, monkeypatch, n_queries, n_scenes, passes):
    """A batch holds at most BATCH_ROWS query rows: twelve scenes of 64
    queries are one decoder pass, two of 900 one pass each.  A pass
    projects and samples once per sub-layer, whatever its scene count."""
    from mvdet import cli, decoder as decoder_mod
    from mvdet.decoder import HybridDecoder

    passed, calls = [], collections.Counter()
    forward_scenes = HybridDecoder.forward_scenes

    def counted(self, features, queries, n_scenes=1, *args, **kwargs):
        passed.append(n_scenes)
        return forward_scenes(self, features, queries, n_scenes, *args, **kwargs)

    def counting(name, fn):
        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return count

    monkeypatch.setattr(HybridDecoder, "forward_scenes", counted)
    monkeypatch.setattr(HybridDecoder, "forward", None)  # run never decodes scene by scene
    for name in ("project_rig", "project_views", "sample_views", "ref_point_cross_attention"):
        monkeypatch.setattr(decoder_mod, name, counting(name, getattr(decoder_mod, name)))
    decoder = {"n_queries": n_queries, "channels": 16, "heads": 4, "seed": 1}
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": n_scenes}, decoder=decoder)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 0
    assert cli.BATCH_ROWS == 1024 and passed == [n_scenes // passes] * passes
    # preset F: the prefix projects once; each pass projects in its two other
    # 2D sub-layers, and projects and samples in each of its three 3D ones
    assert calls == {"project_rig": 1 + 2 * passes, "project_views": 3 * passes,
                     "sample_views": 3 * passes, "ref_point_cross_attention": 3 * passes}
    assert len(list((tmp_path / "out" / "forward").iterdir())) == n_scenes


@pytest.mark.parametrize("size_clamp, gt_projections", [(None, 0), ([1.0, 1.0, 1.0], 3)],
                         ids=["clamp_unused", "clamp_shrinks"])
def test_run_projects_each_scene_once(tmp_path, monkeypatch, size_clamp, gt_projections):
    """One rig projection per scene serves its 2D ground truth, its features
    and, where the size clamp leaves the anchors as sampled, its
    ground-truth allocation; a clamped scene is allocated from its own
    projection.  Either way the allocation equals a fresh one.  The
    decoder's allocations project once per 2D sub-layer and batch."""
    from mvdet import allocation, cli, decoder as decoder_mod, simulator
    from mvdet.allocation import AllocationLimits, allocate, clamp_anchors
    from mvdet.simulator import load_scene

    calls = collections.Counter()
    for mod in (allocation, decoder_mod, simulator):
        def counted(*args, _mod=mod, _fn=mod.project_rig, **kwargs):
            calls[_mod.__name__] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, "project_rig", counted)
    kept = []  # whether each scene the run keeps still holds its projection
    write_scene = cli._write_scene
    monkeypatch.setattr(cli, "_write_scene", lambda out_dir, result: (
        kept.append(result[0].projection is not None), write_scene(out_dir, result))[1])
    decoder = {"n_queries": 24, "channels": 16, "heads": 4, "feature_channels": 8, "seed": 1}
    if size_clamp:
        decoder["size_clamp"] = size_clamp
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3}, boxes=10, decoder=decoder)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), "--jobs", "1") == 0
    # preset F: the prefix projects once, and the one batch of three scenes
    # once in each of its two other 2D sub-layers
    assert calls == {"mvdet.simulator": 3, "mvdet.decoder": 1 + 2,
                     **({"mvdet.allocation": gt_projections} if gt_projections else {})}
    assert kept == [False] * 3
    limits = AllocationLimits(size_clamp=tuple(size_clamp or (35.0, 35.0, 10.0)))
    for i in range(3):
        scene = load_scene(out / "scenes" / f"scene_{i:04d}.json")
        want = allocate(clamp_anchors(scene.anchors, limits), scene.rig, limits).to_json_obj()
        assert json.loads((out / "alloc" / f"alloc_{i:04d}.json").read_text()) == json.loads(
            json.dumps(want))


@pytest.mark.parametrize(
    "text, detail",
    [('{"preset": "F",\n}', "not valid JSON: Expecting property name enclosed in double quotes"),
     ('[{"preset": "F"}]', "expected a JSON object, got list")],
    ids=["malformed", "list"],
)
def test_run_names_the_config_file_on_bad_json(tmp_path, capsys, text, detail):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert f"mvdet run: error: {cfg}: {detail}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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


def blank_features_marking(marks, real):
    """``blank_features`` that leaves a marker per batch: its scene count and
    the process that runs it."""

    def marking(rig, scales, n_scenes):
        (marks / f"{n_scenes}_{os.getpid()}_{time.monotonic_ns()}").touch()
        return real(rig, scales, n_scenes)

    return marking


def test_run_jobs_2_hands_whole_batches_to_workers(tmp_path, monkeypatch):
    import multiprocessing

    from mvdet import cli

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    # 256 queries: batches of four scenes, so ten scenes are batches of 4, 4 and 2
    decoder = {"n_queries": 256, "channels": 16, "heads": 4, "feature_channels": 8, "seed": 1}
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 10}, decoder=decoder)
    outs, batches = {}, {}
    for jobs in ("1", "2"):
        marks = tmp_path / f"marks{jobs}"
        marks.mkdir()
        monkeypatch.setattr(cli, "blank_features",
                            blank_features_marking(marks, vars(cli)["blank_features"]))
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert run_cli("run", "--config", str(cfg), "--out", str(outs[jobs]),
                       "--jobs", jobs) == 0
        batches[jobs] = sorted((int(n), int(pid) == os.getpid())
                               for n, pid, _ in (m.name.split("_") for m in marks.iterdir()))
        monkeypatch.undo()
    assert batches == {"1": [(2, True), (4, True), (4, True)],
                       "2": [(2, False), (4, False), (4, False)]}
    files = sorted(p.relative_to(outs["1"]) for p in outs["1"].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs["2"]) for p in outs["2"].rglob("*") if p.is_file())
    assert len(files) == 5 + 4 * 10
    for rel in files:
        assert (outs["1"] / rel).read_bytes() == (outs["2"] / rel).read_bytes(), rel


def forward_scenes_failing(self, features, queries, n_scenes=1, *args, **kwargs):
    raise InjectedFailure("injected")


@pytest.mark.parametrize("n_queries, scenes", [(24, r"scenes 0-2 \(seeds 5-7\)"),
                                               (900, r"scene 0 \(seed 5\)")])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_failure_in_a_decoder_pass_names_its_scenes(tmp_path, monkeypatch, jobs,
                                                        n_queries, scenes):
    # a failure in the batched pass names the batch's scenes and seeds: all
    # three at 24 queries, the first one alone at 900
    import multiprocessing

    from mvdet import cli
    from mvdet.decoder import HybridDecoder

    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched decoder reaches pool workers only by fork")
    monkeypatch.setattr(HybridDecoder, "forward_scenes", forward_scenes_failing)
    decoder = {"n_queries": n_queries, "channels": 16, "heads": 4, "seed": 1}
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3}, decoder=decoder)
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--jobs", jobs]
    with pytest.raises(RuntimeError, match=rf"^{scenes} failed: injected$") as info:
        cli.cmd_run(cli.build_parser().parse_args(argv))
    assert isinstance(info.value.__cause__, InjectedFailure)
    assert not (tmp_path / "x" / "gt_scenes.json").exists()  # no partial scene set is left


def test_run_rejects_negative_seed(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--seed", "-1") == 1
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x" / "scenes").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = run_config(tmp_path)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--jobs", jobs) == 1
    assert capsys.readouterr().err == f"mvdet run: error: --jobs must be positive, got {jobs}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "over, message",
    [
        pytest.param({"noise": {"drop_prob": 2.0}}, "drop probabilities must lie in [0, 1]",
                     id="drop_prob"),
        pytest.param({"noise": {"jitter_px": "abc"}}, "could not convert string to float: 'abc'",
                     id="jitter_px"),
        pytest.param({"boxes": "many"}, "invalid literal for int() with base 10: 'many'",
                     id="boxes"),
        pytest.param({"seeds": {"scenes": "x"}}, "invalid literal for int() with base 10: 'x'",
                     id="scenes"),
        pytest.param({"tau_dis": -1}, "tau_dis must be positive", id="tau_dis"),
        pytest.param({"tau_dis": math.nan}, "tau_dis must be finite, got nan", id="tau_dis_nan"),
        pytest.param({"tau_iou_sweep": "0.5:1.5:0.5"}, "bad sweep spec '0.5:1.5:0.5'; "
                     "expected 0 <= lo <= hi <= 1, step > 0", id="tau_iou_sweep_above_1"),
        pytest.param({"views": 0}, "empty rig", id="views_0"),
        pytest.param({"crop_rules": [{"source_view_id": 99}]}, "rule references unknown view 99",
                     id="crop_source"),
        pytest.param({"crop_rules": [{"source_view_id": 0, "scale_rate": math.nan}]},
                     "scale_rate must be finite and > 1, got nan", id="crop_scale_rate_nan"),
        pytest.param({"crop_rules": [{"source_view_id": 0, "placment": "left-aligned-horizon",
                                      "out_widht": 100}]},
                     "unknown crop rule key 'placment'", id="crop_unknown_key"),
        pytest.param({"decoder": {"preset": "A", "n_queries": 24}},
                     "preset 'F' and decoder.preset 'A' differ", id="two_presets"),
        pytest.param({"boxes": -3}, "boxes must be non-negative, got -3", id="boxes_negative"),
        pytest.param({"seeds": {"scenes": -2}}, "seeds.scenes must be positive, got -2",
                     id="scenes_negative"),
        pytest.param({"seeds": {"scenes": 0}}, "seeds.scenes must be positive, got 0",
                     id="scenes_0"),
        *(pytest.param({"decoder": d}, m, id=i) for d, m, i in BAD_DECODER_VALUES),
        *(pytest.param({"crop_rules": [{"source_view_id": 0, key: value}]},
                       f"{key} must be a positive integer, got {shown}", id=f"crop_{key}_{value}")
          for key, value, shown in BAD_CROP_SIZES),
    ],
)
def test_run_bad_config_value_names_the_file(tmp_path, capsys, over, message):
    cfg = run_config(tmp_path, **over)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    err = capsys.readouterr().err
    assert f"mvdet run: error: {cfg}: {message}\n" == err
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
    from mvdet.geometry import Boxes2D, make_surround_rig
    from mvdet.metrics import Detections, ap_2d
    from mvdet.simulator import Scene

    rig = make_surround_rig(1)
    box_a = [10, 0, 0.8, 2, 4, 1.5, 0.0, 0.0, 0.0]

    def scene(fid, gt_rect, view_id):
        return Scene(seed=0, frame_id=fid, anchors=[box_a], classes=[0],
                     gt2d=Boxes2D([gt_rect], [view_id], [0]), gt2d_link=[0], rig=rig)

    scenes = [scene(0, [50, 50, 10, 10], view0), scene(1, [200, 200, 10, 10], view1)]
    pred = Boxes2D([[50, 50, 10, 10]], [view1], [0])
    det = {0: Detections.empty(), 1: Detections(np.zeros((0, 9)), [], [], pred, [1.0])}
    return ap_2d(*_ap_inputs(scenes, det), (0.5,))[0][0.5]


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


@pytest.mark.parametrize("top", [{}, {"preset": "A"}], ids=["decoder_only", "both"])
def test_run_records_the_preset_it_runs(tmp_path, top):
    cfg = run_config(tmp_path, decoder={"preset": "A", "n_queries": 24, "seed": 1})
    obj = json.loads(cfg.read_text())
    del obj["preset"]
    cfg.write_text(json.dumps({**obj, **top}))
    out = tmp_path / "runA"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["preset"] == "A"
    assert (summary["decoder"]["l_2d"], summary["decoder"]["l_3d"]) == (0, 1)


def test_run_missing_rig_fails(tmp_path):
    cfg = run_config(tmp_path, rig="does-not-exist.json")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1


def test_run_rejects_repeated_view_ids(tmp_path, rig_file, capsys):
    obj = json.loads(rig_file.read_text())
    obj["views"][3]["view_id"] = 0
    rig_file.write_text(json.dumps(obj))
    cfg = run_config(tmp_path, rig=str(rig_file))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert f"{rig_file}: view id 0 appears more than once" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "over, key",
    [
        ({"tau_iou_swep": "0.5:0.5:0.1"}, "'tau_iou_swep'"),
        ({"scenes": 3}, "'scenes'"),
        ({"seeds": {"base": 5, "scene": 3}}, "'seeds.scene'"),
        ({"noise": {"jitter": 1.0}}, "'noise.jitter'"),
        ({"decoder": {"n_querys": 24}}, "'decoder.n_querys'"),
        ({"decoder": {"top_k_temporal": 256}}, "'decoder.top_k_temporal'"),
    ],
)
def test_run_rejects_unknown_config_keys(tmp_path, capsys, over, key):
    cfg = run_config(tmp_path, **over)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert f"{cfg}: unknown run config key {key}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bad_preset_fails(tmp_path):
    cfg = run_config(tmp_path, preset="Q")
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
