import collections
import dataclasses
import functools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdet.allocation import AllocationLimits
from mvdet.cli import main
from mvdet.crop_scale import CropRule
from mvdet.decoder import DecoderConfig
from mvdet.denoising import NoiseConfig
from mvdet.geometry import make_surround_rig, save_rig
from mvdet.metrics import MatchParams, detections_to_json_obj
from mvdet.pipeline import TAU_IOU_SWEEP, parse_sweep
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


def run_files(n_scenes: int) -> list[Path]:
    """The files a run of ``n_scenes`` scenes writes, relative to its output
    directory and sorted: the rig, the scene set, the summary and the two
    metric tables, then each scene's allocation, head outputs and
    predictions."""
    names = ["rig.json", "gt_scenes.json", "summary.json", "metrics/aar_curve.csv",
             "metrics/ap.csv"]
    names += [f"{kind}/{kind}_{i:04d}.json"
              for kind in ("alloc", "forward", "pred") for i in range(n_scenes)]
    return sorted(map(Path, names))


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
     ("--views", "-2", "--views must be positive, got -2"),
     ("--seed", "-1", "--seed must be non-negative, got -1"),
     ("--seed", str(2**64), f"--seed {2**64} with 1 scene(s) reaches seed {2**64}, "
                            "past 2**64 - 1")],
    ids=["scenes_negative", "scenes_0", "boxes_negative", "views_0", "views_negative",
         "seed_negative", "seed_past_64_bits"],
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


def test_allocate_accepts_no_anchors(tmp_path, rig_file):
    apath = tmp_path / "anchors.json"
    apath.write_text('{"anchors": []}')
    out = tmp_path / "alloc.json"
    assert run_cli("allocate", "--rig", str(rig_file), "--anchors", str(apath),
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert (obj["n_3d"], obj["n_2d"], obj["rows"], obj["rects"]) == (0, 0, [], [])


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


@pytest.mark.parametrize("section", [False, True], ids=["top_level", "decoder_section"])
def test_forward_reads_a_rig_beside_the_decoder(tmp_path, sim_dir, section):
    decoder = {"preset": "F", "n_queries": 24, "channels": 16, "heads": 4, "feature_channels": 8}
    outs = []
    for rig in ({}, {"rig": str(sim_dir / "rig.json")}):
        cfg, out = tmp_path / "decoder.json", tmp_path / f"fwd{len(outs)}.json"
        cfg.write_text(json.dumps({"decoder": decoder, **rig} if section else {**decoder, **rig}))
        assert run_cli("forward", "--config", str(cfg), "--scene",
                       str(sim_dir / "scene_0000.json"), "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # the scene's own rig, read from the rig file


# Decoder values a config may not hold: (decoder entries, message, test id).
BAD_DECODER_VALUES = [
    ({"n_queries": 0}, "n_queries must be positive", "n_queries"),
    ({"heads": 0}, "heads must be positive, got 0", "heads_0"),
    ({"channels": 0}, "channels must be positive, got 0", "channels_0"),
    ({"n_classes": 0}, "n_classes must be positive, got 0", "n_classes_0"),
    ({"n_scales": 0}, "n_scales must be positive, got 0", "n_scales_0"),
    ({"n_scales": -1}, "n_scales must be positive, got -1", "n_scales_negative"),
    ({"feature_channels": 0}, "feature_channels must be positive, got 0", "feature_channels_0"),
    ({"n_queries": 31.5}, "n_queries must be an integer, got 31.5", "n_queries_float"),
    ({"heads": 4.0}, "heads must be an integer, got 4.0", "heads_float"),
    ({"seed": True}, "seed must be an integer, got True", "seed_bool"),
    ({"seed": -1}, "seed must be non-negative, got -1", "seed_negative"),
    # summary.json holds the seed as a 64-bit JSON integer
    ({"seed": 2**64}, "seed must be at most 2**64 - 1, got 18446744073709551616", "seed_past_max"),
    ({"max_truncated_per_camera": 2.5}, "max_truncated_per_camera must be an integer, got 2.5",
     "max_truncated_float"),
    ({"size_clamp": [math.nan, 35, 10]}, "size clamp values must be positive", "size_clamp_nan"),
    ({"size_clamp": [35, 10]}, "size clamp must hold 3 values, got 2", "size_clamp_short"),
    # explicit layer counts must agree with the preset (F is 1 / 1 / 3)
    ({"l_2d": 3}, "preset 'F' has l_2d 1, not 3", "preset_l_2d"),
    ({"l_3d": 0}, "preset 'F' has l_3d 1, not 0", "preset_l_3d"),
    ({"l_2d": 1, "l_3d": 1, "l_hybrid": 6}, "preset 'F' has l_hybrid 3, not 6", "preset_l_hybrid"),
    ({"l_hybrid": 3.0}, "l_hybrid must be an integer, got 3.0", "preset_l_hybrid_float"),
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


@pytest.mark.parametrize("seed, message", [
    ("-1", "--seed must be non-negative, got -1"),
    (str(2**64), "--seed must be at most 2**64 - 1, got 18446744073709551616"),
], ids=["negative", "past_2_64"])
def test_forward_rejects_a_seed_out_of_range(tmp_path, sim_dir, capsys, seed, message):
    cfg = tmp_path / "decoder.json"
    cfg.write_text(json.dumps({"preset": "F", "n_queries": 24, "channels": 16, "heads": 4}))
    out = tmp_path / "fwd.json"
    assert run_cli("forward", "--config", str(cfg), "--scene", str(sim_dir / "scene_0000.json"),
                   "--seed", seed, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet forward: error: {message}\n"
    assert not out.exists()


def zero_noise_aar_lines(tmp_path, sim_dir, sweep: str) -> list[str]:
    """`eval-aar` CSV lines of the simulated scenes' noise-free detections."""
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
                   "--tau-iou-sweep", sweep, "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau_iou,aar,recall,n_candidate,n_valid"
    return lines[1:]


def test_eval_aar_zero_noise_perfect(tmp_path, sim_dir, capsys):
    lines = zero_noise_aar_lines(tmp_path, sim_dir, "0.1:0.9:0.1")
    assert len(lines) == 9
    for line in lines:
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


def default_flag_inputs(tmp_path, sim_dir) -> dict[str, list[str]]:
    """Per command, the arguments besides ``--out`` of a run on ``sim_dir``."""
    from mvdet.simulator import load_scene

    scenes = [load_scene(sim_dir / f"scene_{i:04d}.json") for i in range(2)]
    anchors, pred = tmp_path / "anchors.json", tmp_path / "pred.json"
    anchors.write_text(json.dumps({"anchors": scenes[0].anchors.tolist()}))
    pred.write_text(json.dumps(detections_to_json_obj(
        {scene.frame_id: perturb(scene, seed=i) for i, scene in enumerate(scenes)})))
    rig, scene = str(sim_dir / "rig.json"), str(sim_dir / "scene_0000.json")
    return {"allocate": ["--rig", rig, "--anchors", str(anchors)],
            "eval-aar": ["--gt", str(sim_dir / "scenes.json"), "--pred", str(pred)],
            "crop-views": ["--rig", rig],
            "denoise-demo": ["--scene", scene]}


@pytest.mark.parametrize("command, flag, default", [
    ("allocate", "--max-truncated", AllocationLimits.max_truncated_per_camera),
    ("eval-aar", "--tau-dis", MatchParams.tau_dis),
    ("eval-aar", "--tau-iou-sweep", TAU_IOU_SWEEP),
    ("crop-views", "--placement", CropRule.placement),
    ("crop-views", "--scale-rate", CropRule.scale_rate),
    ("denoise-demo", "--groups", NoiseConfig.n_groups),
])
def test_an_omitted_flag_takes_its_dataclass_default(tmp_path, sim_dir, command, flag, default):
    # the parser leaves these flags unset; the command fills each one in
    # from the dataclass that states its default
    args = default_flag_inputs(tmp_path, sim_dir)[command]
    omitted, given = tmp_path / "omitted", tmp_path / "given"
    assert run_cli(command, *args, "--out", str(omitted)) == 0
    assert run_cli(command, *args, flag, str(default), "--out", str(given)) == 0
    assert omitted.read_bytes() == given.read_bytes()


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
        # a step below the sweep's 10-digit rounding would write 0.5 four times
        ("eval-aar", "--tau-iou-sweep=0.5:0.5000000000003:0.0000000000001",
         "--tau-iou-sweep: bad sweep spec '0.5:0.5000000000003:0.0000000000001'; "
         "step 1e-13 repeats thresholds at 10 digits"),
        # counted from lo, hi and step, never built
        ("eval-aar", "--tau-iou-sweep=0:1:1e-9", "--tau-iou-sweep: bad sweep spec "
         "'0:1:1e-9'; expected at most 1001 thresholds"),
        ("eval-aar", "--tau-iou-sweep=0:1:5e-324", "--tau-iou-sweep: bad sweep spec "
         "'0:1:5e-324'; expected at most 1001 thresholds"),
        ("eval-aar", "--tau-dis=nan", "--tau-dis: tau_dis must be finite, got nan"),
        ("eval-aar", "--tau-dis=inf", "--tau-dis: tau_dis must be finite, got inf"),
        ("eval-aar", "--tau-dis=0", "--tau-dis: tau_dis must be positive"),
    ],
    ids=["iou_1.5", "iou_nan", "iou_negative", "iou_not_a_number", "sweep_above_1",
         "sweep_below_0", "sweep_nan", "sweep_repeats", "sweep_too_long", "sweep_step_denormal",
         "tau_dis_nan", "tau_dis_inf", "tau_dis_0"],
)
def test_eval_rejects_thresholds_out_of_range(tmp_path, sim_dir, capsys, command, arg, message):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(detections_to_json_obj({})))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--gt", str(sim_dir / "scenes.json"), "--pred", str(pred), arg,
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet {command}: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, taus", [
    ("0.1:0.9:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    ("0:1:0.35", [0.0, 0.35, 0.7]),
    ("0.5:0.95:0.3", [0.5, 0.8]),
    ("0.5:0.5:0.1", [0.5]),
    ("0:1:0.001", [i / 1000 for i in range(1001)]),  # the most a sweep may hold
])
def test_sweep_steps_up_to_hi(spec, taus):
    assert parse_sweep(spec) == taus


@settings(max_examples=300, deadline=None)
@given(lo=st.integers(0, 1000), span=st.integers(0, 1000), step=st.integers(1, 1000))
def test_sweep_values_lie_within_lo_and_hi(lo, span, step):
    # thousandths, as a config writes them: no value passes hi, and none is missing
    lo, hi, step = lo / 1000, min(lo + span, 1000) / 1000, step / 1000
    taus = parse_sweep(f"{lo}:{hi}:{step}")
    assert taus[0] == lo and all(lo <= t <= hi for t in taus)
    assert hi - taus[-1] < step


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


@pytest.mark.parametrize("key, value", [("view_id", 2.5), ("width", 704.9), ("height", True)])
def test_crop_views_rejects_a_non_integer_view_field(tmp_path, rig_file, capsys, key, value):
    obj = json.loads(rig_file.read_text())
    obj["views"][1][key] = value
    rig_file.write_text(json.dumps(obj))
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"mvdet crop-views: error: {rig_file}: {key} must be an integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("width", 0), ("width", -704), ("height", 0)])
def test_crop_views_rejects_a_derived_view_without_pixels(tmp_path, rig_file, capsys, key,
                                                          value):
    # a derived view skips the principal-point check, which catches this in a base view
    obj = json.loads(rig_file.read_text())
    obj["views"][1].update(derived=True, **{key: value})
    rig_file.write_text(json.dumps(obj))
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 1
    size = {"width": 704, "height": 256, key: value}
    assert capsys.readouterr().err == (
        f"mvdet crop-views: error: {rig_file}: view 1: image size must be at least 1x1, "
        f"got {size['width']}x{size['height']}\n")
    assert not out.exists()


@pytest.mark.parametrize("ids, message", [
    ("1_0", "--source-views view key must be an integer, got '1_0'"),
    ("0,01", "--source-views view key must be written 1, got '01'"),
    ("", "--source-views view key must be an integer, got ''"),
], ids=["underscore", "leading_zero", "empty"])
def test_crop_views_reads_source_views_as_view_keys(tmp_path, capsys, ids, message):
    rig = tmp_path / "rig12.json"
    save_rig(make_surround_rig(12), rig)
    out = tmp_path / "rig13.json"
    assert run_cli("crop-views", "--rig", str(rig), "--source-views", ids,
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"mvdet crop-views: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_crop_views_rejects_a_derived_flag_that_is_not_a_bool(tmp_path, rig_file, capsys, flag):
    # "derived" lets a view's principal point (here cx = -50) leave the
    # image, so only a JSON true or false may set it
    obj = json.loads(rig_file.read_text())
    obj["views"][1]["derived"] = flag
    obj["views"][1]["intrinsics"][2] = -50.0
    rig_file.write_text(json.dumps(obj))
    out = tmp_path / "rig8.json"
    assert run_cli("crop-views", "--rig", str(rig_file), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == (f"mvdet crop-views: error: {rig_file}: "
                   f"derived must be true or false, got {flag!r}\n")
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


def scene_entry_set(sim_dir, section, key, value):
    """Scene 0 of ``sim_dir`` with ``key`` of the first entry of ``section``,
    or of the scene itself when ``section`` is None, set to ``value``."""
    obj = json.loads((sim_dir / "scene_0000.json").read_text())
    (obj[section][0] if section else obj)[key] = value
    return obj


def detections_frame_set(key, value, boxes3d=(), boxes2d=None):
    """``detections_file(boxes3d, boxes2d)`` with ``key`` of its frame set to ``value``."""
    obj = detections_file(boxes3d, boxes2d)
    obj["frames"][0][key] = value
    return obj


BOX9 = [10.0, 0.0, 0.8, 2.0, 4.0, 1.5, 0.0, 0.0, 0.0]


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
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, None, "seed", True),
         "seed must be an integer, got True"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, None, "frame_id", 3.7),
         "frame_id must be an integer, got 3.7"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "boxes", "class_id", 4.9),
         "class_id must be an integer, got 4.9"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "gt2d", "view_id", 1.5),
         "view_id must be an integer, got 1.5"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "gt2d", "class_id", 0.5),
         "class_id must be an integer, got 0.5"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "gt2d", "box3d_index", 0.5),
         "box3d_index must be an integer, got 0.5"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "rig", "view_id", 2.5),
         "view_id must be an integer, got 2.5"),
        ("eval-aar", "--gt", lambda sim: scene_entry_set(sim, "rig", "derived", "false"),
         "derived must be true or false, got 'false'"),
        ("eval-aar", "--pred", lambda sim: detections_frame_set("frame_id", 2.6),
         "frame_id must be an integer, got 2.6"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes3d=[{"box": BOX9, "class_id": 1.8}]),
         "class_id must be an integer, got 1.8"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes2d={"0": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                     "class_id": 2.2}]}),
         "class_id must be an integer, got 2.2"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes3d=[{"box": BOX9, "class_id": 0, "score": True}]),
         "score must be a number, got True"),
        ("eval-aar", "--pred",
         lambda sim: detections_file(boxes2d={"0": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                     "class_id": 0, "score": True}]}),
         "score must be a number, got True"),
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={"1_0": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                       "class_id": 0}]}),
         "boxes2d view key must be an integer, got '1_0'"),
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={" 1": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                      "class_id": 0}]}),
         "boxes2d view key must be an integer, got ' 1'"),
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={"+1": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                      "class_id": 0}]}),
         "boxes2d view key must be an integer, got '+1'"),
        ("eval-ap", "--pred",
         lambda sim: detections_file(boxes2d={"01": [{"box": [1.0, 2.0, 5.0, 4.0],
                                                      "class_id": 0}]}),
         "boxes2d view key must be written 1, got '01'"),
    ],
    ids=["pred2d_negative_width", "pred2d_nan_center", "pred2d_three_floats",
         "pred3d_three_floats", "scene_zero_size", "gt2d_negative_width",
         "scene_seven_floats", "no_scenes", "gt2d_class_differs", "scene_seed_bool",
         "scene_frame_id_float", "box_class_id_float", "gt2d_view_id_float",
         "gt2d_class_id_float", "gt2d_box3d_index_float", "scene_rig_view_id_float",
         "scene_rig_derived_string",
         "pred_frame_id_float", "pred3d_class_id_float", "pred2d_class_id_float",
         "pred3d_score_bool", "pred2d_score_bool", "pred2d_view_key_underscore",
         "pred2d_view_key_space", "pred2d_view_key_plus", "pred2d_view_key_leading_zero"],
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


def test_eval_aar_scores_scenes_of_two_rigs(tmp_path):
    """A scene set may carry a different rig per scene: each scene is
    scored on its own rig, and the curve sums the per-scene counts."""
    from mvdet.crop_scale import CropRule, extend_rig
    from mvdet.simulator import OracleNoise, sample_scene
    from test_metrics import aar_pairwise_reference

    rigs = [make_surround_rig(6),
            extend_rig(make_surround_rig(4), [CropRule(source_view_id=0, scale_rate=2.0)])]
    scenes = [sample_scene(seed, rigs[seed % 2], n_boxes=8, frame_id=seed) for seed in range(4)]
    noise = OracleNoise(drop_prob=0.2, jitter_px=4.0, jitter_m=0.4, drop_prob_3d=0.2)
    dets = {scene.frame_id: perturb(scene, noise, seed=scene.seed + 1) for scene in scenes}
    gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
    gt.write_text(json.dumps({"format": "mvdet-scene-set/1",
                              "scenes": [scene.to_json_obj() for scene in scenes]}))
    pred.write_text(json.dumps(detections_to_json_obj(dets)))
    out = tmp_path / "aar.csv"
    assert run_cli("eval-aar", "--gt", str(gt), "--pred", str(pred),
                   "--tau-iou-sweep", "0.1:0.9:0.2", "--out", str(out)) == 0
    n2d = sum(len(scene.gt2d) for scene in scenes)
    want = ["tau_iou,aar,recall,n_candidate,n_valid"]
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        c, v = map(sum, zip(*(aar_pairwise_reference(dets[s.frame_id], s, tau) for s in scenes)))
        want.append(f"{tau},{100.0 * v / c if c else 0.0!r},{100.0 * c / n2d!r},{c},{v}")
    assert out.read_text().splitlines() == want
    assert int(want[1].split(",")[3]) > 0


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


def test_run_writes_the_documented_files_and_each_scene_once(tmp_path):
    # a 3-scene run writes the rig, the scene set, the summary, two metric
    # tables and three files per scene; each scene's ground truth is one
    # gt_scenes.json entry, the scene sampled from seed base + i, which
    # simulate also gives from that seed (as frame 0)
    from mvdet.pipeline import RunConfig
    from mvdet.simulator import Scene, load_scene, sample_scene

    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3},
                     crop_rules=[{"source_view_id": 0}])
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == run_files(3)
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_dir()) == [
        Path("alloc"), Path("forward"), Path("metrics"), Path("pred")]
    rig = RunConfig.from_json_obj(json.loads(cfg.read_text())).cameras
    save_rig(rig, tmp_path / "rig.json")
    gt_scenes = json.loads((out / "gt_scenes.json").read_text())["scenes"]
    assert len(gt_scenes) == 3
    for i, obj in enumerate(gt_scenes):
        got, want = Scene.from_json_obj(obj), sample_scene(5 + i, rig, n_boxes=6, frame_id=i)
        assert (got.seed, got.frame_id) == (5 + i, i)
        assert len(got.anchors) == 6 and len(got.gt2d) > 0
        for field in ("anchors", "classes", "gt2d_link"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (i, field)
        for field in ("rect", "view_id", "class_id"):
            assert getattr(got.gt2d, field).tobytes() == getattr(want.gt2d, field).tobytes(), (
                i, field)
        sim = tmp_path / f"sim{i}"
        assert run_cli("simulate", "--out", str(sim), "--rig", str(tmp_path / "rig.json"),
                       "--boxes", "6", "--seed", str(5 + i)) == 0
        obj = {**json.loads((sim / "scene_0000.json").read_text()), "frame_id": i}
        assert obj == gt_scenes[i]
        assert load_scene(sim / "scene_0000.json").frame_id == 0


def test_run_scene_seeds_end_at_the_largest_64_bit_integer(tmp_path, capsys):
    # a scene file holds its seed as a 64-bit JSON integer: a run whose last
    # scene would be seeded past 2**64 - 1 fails before it writes anything,
    # naming --seed when the flag sets the base; 2**64 - 1 itself runs
    cfg = run_config(tmp_path)  # two scenes
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--seed", str(2**64 - 1)) == 1
    assert capsys.readouterr().err == (
        f"mvdet run: error: --seed {2**64 - 1} with 2 scene(s) reaches seed {2**64}, "
        "past 2**64 - 1\n")
    assert not (tmp_path / "x").exists()
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out", str(out), "--seed", str(2**64 - 2)) == 0
    gt_scenes = json.loads((out / "gt_scenes.json").read_text())["scenes"]
    assert [scene["seed"] for scene in gt_scenes] == [2**64 - 2, 2**64 - 1]
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", str(sim), "--scenes", "2",
                   "--seed", str(2**64 - 2)) == 0
    assert json.loads((sim / "scene_0001.json").read_text())["seed"] == 2**64 - 1


def test_run_jobs_parallel_matches_serial(tmp_path):
    cfg = run_config(tmp_path)
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("run", "--config", str(cfg), "--out", str(out2), "--jobs", "2") == 0
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files == run_files(2)
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


FORKED_RUN = """
import sys
import threading
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
    assert files == run_files(3)
    for rel in files:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def perturb_recording_blas_threads(marks, scene, noise=None, seed=0):
    """``perturb`` that first records the BLAS thread count of its process."""
    from mvdet import pipeline

    (marks / f"{os.getpid()}_{seed}").write_text(str(pipeline._openblas_threads()[1]()))
    return perturb(scene, noise, seed=seed)


def test_run_caps_blas_at_one_thread_in_each_worker(tmp_path, monkeypatch):
    import multiprocessing

    from mvdet import pipeline

    if pipeline._openblas_threads() is None:
        pytest.skip("this NumPy's BLAS has no scipy_openblas thread-count calls")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    for var in pipeline._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    get_threads = pipeline._openblas_threads()[1]
    before = get_threads()
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3})
    outs = {}
    for capped in (True, False):
        marks = tmp_path / f"marks_{capped}"
        marks.mkdir()
        monkeypatch.setattr(pipeline, "perturb",
                            functools.partial(perturb_recording_blas_threads, marks))
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
    from mvdet.simulator import Scene

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
    gt_scenes = geometry.load_json(out / "gt_scenes.json")["scenes"]
    assert len(gt_scenes) == 3
    # preset F (l_2d = 1, l_hybrid = 3): the first allocation is the prefix's,
    # made once; each scene makes the other two; the three scenes of 24
    # queries are one batch, decoded in one pass
    decoder_calls = {"HybridDecoder.__init__": 1, "HybridDecoder.initial_queries": 1,
                     "HybridDecoder.prefix": 1, "decoder.allocate": 1 + 3 * (1 * 3 - 1),
                     "HybridDecoder.forward_scenes": 1}
    assert calls == decoder_calls
    # the counters are live: reading a scene back rebuilds both, and
    # reading the predictions parses them
    Scene.from_json_obj(gt_scenes[0])
    metrics.parse_detections(geometry.load_json(out / "pred" / "pred_0000.json"))
    assert calls == {**decoder_calls,
                     "rig_from_json_obj": 1, "Scene.from_json_obj": 1, "parse_detections": 1}


@pytest.mark.parametrize("n_queries, n_scenes, passes", [(64, 12, 1), (900, 2, 2)])
def test_run_decodes_batches_of_scenes(tmp_path, monkeypatch, n_queries, n_scenes, passes):
    """A batch holds at most BATCH_ROWS query rows: twelve scenes of 64
    queries are one decoder pass, two of 900 one pass each.  A pass
    projects and samples once per sub-layer, whatever its scene count."""
    from mvdet import decoder as decoder_mod, pipeline
    from mvdet.decoder import HybridDecoder

    passed, calls = [], collections.Counter()
    forward_scenes = HybridDecoder.forward_scenes

    def counted(self, features, n_scenes=1, *args, **kwargs):
        passed.append(n_scenes)
        return forward_scenes(self, features, n_scenes, *args, **kwargs)

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
    assert pipeline.BATCH_ROWS == 1024 and passed == [n_scenes // passes] * passes
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
    from mvdet import allocation, decoder as decoder_mod, pipeline, simulator
    from mvdet.allocation import AllocationLimits, allocate, clamp_anchors
    from mvdet.simulator import Scene

    calls = collections.Counter()
    for mod in (allocation, decoder_mod, simulator):
        def counted(*args, _mod=mod, _fn=mod.project_rig, **kwargs):
            calls[_mod.__name__] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, "project_rig", counted)
    kept = []  # whether each scene the run keeps still holds its projection
    write_scene = pipeline._write_scene
    monkeypatch.setattr(pipeline, "_write_scene", lambda out_dir, result: (
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
    gt_scenes = json.loads((out / "gt_scenes.json").read_text())["scenes"]
    assert len(gt_scenes) == 3
    for i, obj in enumerate(gt_scenes):
        scene = Scene.from_json_obj(obj)
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

    from mvdet import cli, pipeline

    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    monkeypatch.setattr(pipeline, "perturb", perturb_failing_on_seed_7)
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

    from mvdet import cli, pipeline

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setattr(pipeline, "sample_scene",
                        sample_scene_marking(marks, pipeline.sample_scene))
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

    from mvdet import pipeline

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched worker function reaches pool workers only by fork")
    # 256 queries: batches of four scenes, so ten scenes are batches of 4, 4 and 2
    decoder = {"n_queries": 256, "channels": 16, "heads": 4, "feature_channels": 8, "seed": 1}
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 10}, decoder=decoder)
    outs, batches = {}, {}
    for jobs in ("1", "2"):
        marks = tmp_path / f"marks{jobs}"
        marks.mkdir()
        monkeypatch.setattr(pipeline, "blank_features",
                            blank_features_marking(marks, vars(pipeline)["blank_features"]))
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
    assert files == run_files(10)
    for rel in files:
        assert (outs["1"] / rel).read_bytes() == (outs["2"] / rel).read_bytes(), rel


def forward_scenes_failing(self, features, n_scenes=1, *args, **kwargs):
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


def writer_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("mvdet-writer")]


@pytest.mark.parametrize("n_queries", [24, 512], ids=["one_batch", "two_batches"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_write_failure_names_its_path(tmp_path, capsys, jobs, n_queries):
    # scene 1's forward file cannot be created: the run fails naming it, keeps
    # scene 0's files, leaves no scene set (so no scene's ground truth), and
    # its writer thread ends with it;
    # at 512 queries scenes 0-1 and 2 are two batches, so the failure surfaces
    # when the second batch's writes are queued
    from mvdet import cli

    decoder = {"n_queries": n_queries, "channels": 16, "heads": 4, "feature_channels": 8,
               "seed": 1}
    cfg = run_config(tmp_path, seeds={"base": 5, "scenes": 3}, decoder=decoder)
    out = tmp_path / "out"
    blocked = out / "forward" / "forward_0001.json"
    blocked.mkdir(parents=True)
    argv = ["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]
    assert run_cli(*argv) == 1
    assert str(blocked) in capsys.readouterr().err
    for kind in ("alloc", "forward", "pred"):
        assert (out / kind / f"{kind}_0000.json").is_file(), kind
    assert not (out / "gt_scenes.json").exists()
    with pytest.raises(IsADirectoryError) as info:
        cli.cmd_run(cli.build_parser().parse_args(argv))
    assert info.value.filename == str(blocked)
    assert not writer_threads()
    blocked.rmdir()
    assert cli.cmd_run(cli.build_parser().parse_args(argv)) == 0
    assert not writer_threads()


def test_run_rejects_negative_seed(tmp_path, capsys):
    cfg = run_config(tmp_path)
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x"),
                   "--seed", "-1") == 1
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
        pytest.param({"tau_dis": True}, "tau_dis must be a number, got True", id="tau_dis_bool"),
        pytest.param({"noise": {"jitter_px": True}}, "jitter_px must be a number, got True",
                     id="jitter_px_bool"),
        pytest.param({"noise": {"drop_prob": {"1": True}}}, "drop_prob must be a number, got True",
                     id="drop_prob_view_bool"),
        pytest.param({"noise": {"drop_prob": {"1_0": 0.5}}},
                     "drop_prob view key must be an integer, got '1_0'", id="drop_prob_key_1_0"),
        pytest.param({"noise": {"drop_prob": {" 1": 0.5}}},
                     "drop_prob view key must be an integer, got ' 1'", id="drop_prob_key_space"),
        pytest.param({"noise": {"drop_prob": {"1": 0.5, "99": 0.5}}},
                     "drop_prob names unknown view 99", id="drop_prob_key_unknown_view"),
        pytest.param({"noise": {"drop_prob": {"01": 0.1, "1": 0.9}}},
                     "drop_prob view key must be written 1, got '01'",
                     id="drop_prob_key_leading_zero"),
        pytest.param({"noise": {"drop_prob": {"-0": 0.3}}},
                     "drop_prob view key must be written 0, got '-0'",
                     id="drop_prob_key_minus_zero"),
        pytest.param({"crop_rules": [{"source_view_id": 0, "scale_rate": True}]},
                     "scale_rate must be a number, got True", id="crop_scale_rate_bool"),
        pytest.param({"tau_iou_sweep": "0:1:1e-9"},
                     "bad sweep spec '0:1:1e-9'; expected at most 1001 thresholds",
                     id="tau_iou_sweep_too_long"),
        pytest.param({"tau_iou_sweep": "0.5:1.5:0.5"}, "bad sweep spec '0.5:1.5:0.5'; "
                     "expected 0 <= lo <= hi <= 1, step > 0", id="tau_iou_sweep_above_1"),
        pytest.param({"tau_iou_sweep": "0.5:0.5000000000003:0.0000000000001"},
                     "bad sweep spec '0.5:0.5000000000003:0.0000000000001'; "
                     "step 1e-13 repeats thresholds at 10 digits", id="tau_iou_sweep_repeats"),
        pytest.param({"views": 0}, "empty rig", id="views_0"),
        pytest.param({"crop_rules": [{"source_view_id": 99}]}, "rule references unknown view 99",
                     id="crop_source"),
        pytest.param({"crop_rules": [{"source_view_id": 2.5}]},
                     "source_view_id must be an integer, got 2.5", id="crop_source_float"),
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
        pytest.param({"noise": {"jitter_px": math.inf}},
                     "jitter_px must be finite and non-negative, got inf", id="jitter_px_inf"),
        pytest.param({"noise": {"jitter_m": math.nan}},
                     "jitter_m must be finite and non-negative, got nan", id="jitter_m_nan"),
        pytest.param({"views": 2.5}, "views must be an integer, got 2.5", id="views_float"),
        pytest.param({"boxes": True}, "boxes must be an integer, got True", id="boxes_bool"),
        pytest.param({"seeds": {"base": 1.5, "scenes": 2}},
                     "seeds.base must be an integer, got 1.5", id="base_float"),
        pytest.param({"seeds": {"scenes": 2.0}}, "seeds.scenes must be an integer, got 2.0",
                     id="scenes_float"),
        pytest.param({"seeds": {"base": 2**64 - 2, "scenes": 3}},
                     f"seeds.base {2**64 - 2} with 3 scene(s) reaches seed {2**64}, "
                     "past 2**64 - 1", id="seeds_past_64_bits"),
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
    assert not (tmp_path / "x").exists()


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
    from mvdet.pipeline import ap_inputs
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
    dets = [Detections.empty(), Detections(np.zeros((0, 9)), [], [], pred, [1.0])]
    return ap_2d(*ap_inputs(scenes, dets), (0.5,))[0][0.5]


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


def test_every_decoder_field_survives_the_config_forms(tmp_path):
    # each field, each allocation limit too, away from its default: a field
    # that to_json_obj or from_json_obj drops comes back as its default
    config = DecoderConfig(n_queries=24, channels=12, l_2d=2, l_3d=2, l_hybrid=1, heads=3,
                           seed=7, n_classes=4, feature_channels=6, n_scales=1,
                           limits=AllocationLimits(max_truncated_per_camera=9,
                                                   size_clamp=(20.0, 30.0, 4.0)))
    default = DecoderConfig()
    for c, d in ((config, default), (config.limits, default.limits)):
        for field in dataclasses.fields(c):
            assert getattr(c, field.name) != getattr(d, field.name), field.name
    assert DecoderConfig.from_json_obj(config.to_json_obj()) == config
    cfg = run_config(tmp_path, preset=None, decoder=config.to_json_obj())
    out = tmp_path / "run"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert DecoderConfig.from_json_obj(summary["decoder"]) == config
    assert list(summary["decoder"]) == list(config.to_json_obj())


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


@pytest.mark.parametrize("width", [0, -704])
def test_run_rejects_a_derived_view_without_pixels(tmp_path, rig_file, capsys, width):
    obj = json.loads(rig_file.read_text())
    obj["views"][3].update(derived=True, width=width)
    rig_file.write_text(json.dumps(obj))
    cfg = run_config(tmp_path, rig=str(rig_file))
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "x")) == 1
    assert (f"{rig_file}: view 3: image size must be at least 1x1, got {width}x256"
            in capsys.readouterr().err)
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


# ------------------------------------------------------- rig order (metamorphic)

def run_outputs(rig, scenes, dets):
    """What a run derives over ``rig`` for ``scenes`` (sampled again over
    it) and ``dets``: the AAR curve and AP dict, each scene's head outputs,
    and every per-view array as {(kind, scene, [layer,] name, view id): rows}
    of the 2D ground truth, the allocations and the 2D head outputs."""
    from mvdet.allocation import allocate, clamp_anchors
    from mvdet.decoder import HybridDecoder
    from mvdet.metrics import aar, ap_2d
    from mvdet.pipeline import ap_inputs
    from mvdet.simulator import blank_features, render_features, sample_scene

    scenes = [sample_scene(s.seed, rig, n_boxes=len(s.anchors), frame_id=s.frame_id)
              for s in scenes]
    decoder = HybridDecoder(DecoderConfig(n_queries=64, channels=32, heads=4), rig)
    features = blank_features(rig, (8, 16), len(scenes))
    for slot, scene in enumerate(scenes):
        render_features(scene, rig, (8, 16), into=features, slot=slot)
    heads, _ = decoder.forward_scenes(features, len(scenes))
    tables = []
    for i, (scene, head) in enumerate(zip(scenes, heads)):
        gt, alloc = scene.gt2d, allocate(clamp_anchors(scene.anchors), rig)
        tables.append((("gt2d", i), gt.view_id,
                       {"rect": gt.rect, "class_id": gt.class_id, "link": scene.gt2d_link}))
        tables.append((("alloc", i), alloc.mapping.camera_of_col,
                       {"rows": alloc.mapping.rows, "ref_points": alloc.ref_points,
                        "truncation": alloc.truncation, "rects": alloc.rects}))
        tables += [(("head2d", i, j), o.mapping.camera_of_col,
                    {"rows": o.mapping.rows, "boxes2d": o.boxes2d, "logits": o.logits,
                     "alphas": o.alphas}) for j, o in enumerate(head.layers_2d)]
    per_view = {(*key, name, int(v)): np.asarray(a)[view_of == v]
                for key, view_of, table in tables for v in np.unique(view_of)
                for name, a in table.items()}
    dets = [dets[scene.frame_id] for scene in scenes]
    curve = aar(dets, scenes, MatchParams(), taus=[0.3, 0.5, 0.7]).curve
    return curve, ap_2d(*ap_inputs(scenes, dets), [0.5, 0.75]), heads, per_view


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), perm_seed=st.integers(0, 2**16))
def test_rig_order_changes_no_output_of_a_view(seed, perm_seed):
    # the many-scenes rig (crops of views 0 and 3) in a random order: each
    # view keeps its 2D ground truth and allocation bit for bit, and the AAR
    # curve and AP stay equal; the decoder's 3D sampling sums an anchor's
    # views in rig order, so its head outputs are held within 1e-12
    from mvdet.crop_scale import CropRule, extend_rig
    from mvdet.simulator import OracleNoise, sample_scene

    from conftest import same_bits

    rig = extend_rig(make_surround_rig(6), [CropRule(source_view_id=0, scale_rate=2.0),
                                            CropRule(source_view_id=3, scale_rate=2.0)])
    shuffled = [rig[i] for i in np.random.default_rng(perm_seed).permutation(len(rig))]
    scenes = [sample_scene(seed + i, rig, n_boxes=15, frame_id=i) for i in range(3)]
    noise = OracleNoise(drop_prob=0.2, jitter_px=4.0, jitter_m=0.4, score_spread=0.5)
    dets = {s.frame_id: perturb(s, noise, seed=s.seed + 1) for s in scenes}
    curve, ap, heads, per_view = run_outputs(rig, scenes, dets)
    curve_s, ap_s, heads_s, per_view_s = run_outputs(shuffled, scenes, dets)
    assert curve_s == curve and ap_s == ap

    def close(a, b):
        return a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=1e-12)

    assert per_view_s.keys() == per_view.keys()
    for key, want in per_view.items():
        assert (close if key[0] == "head2d" else same_bits)(per_view_s[key], want), key
    for w, g in zip(heads, heads_s, strict=True):
        for lw, lg in zip(w.layers_3d + w.agg_taps, g.layers_3d + g.agg_taps, strict=True):
            assert close(lg.boxes3d, lw.boxes3d) and close(lg.logits, lw.logits)


# ---------------------------------------------------- rigid ego motion (metamorphic)

def ego_motion(yaw: float, shift) -> np.ndarray:
    """The 4x4 rigid transform of a yaw about z, then a shift."""
    c, s = math.cos(yaw), math.sin(yaw)
    motion = np.eye(4)
    motion[:3, :3] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    motion[:3, 3] = shift
    return motion


def moved_boxes(boxes, motion: np.ndarray) -> np.ndarray:
    """(N, 9) boxes carried by ``motion``: centers moved, yaw turned and
    wrapped, velocities turned."""
    from mvdet.decoder import wrap_yaw

    rot = motion[:3, :3]
    out = np.array(boxes, dtype=np.float64).reshape(-1, 9)
    out[:, 0:3] = out[:, 0:3] @ rot.T + motion[:3, 3]
    out[:, 6] = wrap_yaw(out[:, 6] + math.atan2(rot[1, 0], rot[0, 0]))
    out[:, 7:9] = out[:, 7:9] @ rot[:2, :2].T
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), yaw=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(-3.0, 3.0)))
def test_rigid_ego_motion_changes_no_2d_truth_allocation_or_metric(seed, yaw, shift):
    # one rigid motion of the ego frame applied to the rig's extrinsics and
    # to every box, ground truth and prediction, leaves every camera-frame
    # coordinate as it was: the 2D ground truth, the ground-truth allocation,
    # the AAR curve and AP stay within 1e-9 (the decoder is left out: its
    # deltas and initial anchors live in the ego frame)
    from mvdet.allocation import allocate, clamp_anchors
    from mvdet.crop_scale import CropRule, extend_rig
    from mvdet.geometry import project_rig
    from mvdet.metrics import aar, ap_2d
    from mvdet.pipeline import ap_inputs
    from mvdet.simulator import OracleNoise, Scene, derive_gt2d, sample_scene

    motion = ego_motion(yaw, shift)
    rig = extend_rig(make_surround_rig(6), [CropRule(source_view_id=0, scale_rate=2.0),
                                            CropRule(source_view_id=3, scale_rate=2.0)])
    moved_rig = [dataclasses.replace(v, extrinsic=v.extrinsic @ np.linalg.inv(motion))
                 for v in rig]
    scenes = [sample_scene(seed + i, rig, n_boxes=15, frame_id=i) for i in range(3)]
    noise = OracleNoise(drop_prob=0.2, jitter_px=4.0, jitter_m=0.4, score_spread=0.5)
    dets = [perturb(s, noise, seed=s.seed + 1) for s in scenes]
    moved_dets = [dataclasses.replace(d, boxes3d=moved_boxes(d.boxes3d, motion)) for d in dets]
    moved_scenes = []
    for scene in scenes:
        anchors = moved_boxes(scene.anchors, motion)
        gt2d, link = derive_gt2d(project_rig(moved_rig, anchors), scene.classes)
        moved_scenes.append(Scene(seed=scene.seed, frame_id=scene.frame_id, anchors=anchors,
                                  classes=scene.classes, gt2d=gt2d, gt2d_link=link,
                                  rig=moved_rig))

    def close(a, b):
        return np.shape(a) == np.shape(b) and np.allclose(a, b, rtol=0.0, atol=1e-9)

    for scene, moved in zip(scenes, moved_scenes):
        assert np.array_equal(moved.gt2d_link, scene.gt2d_link)
        assert np.array_equal(moved.gt2d.view_id, scene.gt2d.view_id)
        assert np.array_equal(moved.gt2d.class_id, scene.gt2d.class_id)
        assert close(moved.gt2d.rect, scene.gt2d.rect)
        want = allocate(clamp_anchors(scene.anchors), rig)
        got = allocate(clamp_anchors(moved.anchors), moved_rig)
        for name in ("rows", "camera_of_col"):
            assert np.array_equal(getattr(got.mapping, name), getattr(want.mapping, name))
        assert np.array_equal(got.truncation, want.truncation)
        assert close(got.ref_points, want.ref_points) and close(got.rects, want.rects)
    assert len(scenes[0].gt2d) > 0  # the rig sees boxes
    taus = [0.3, 0.5, 0.7]
    want = aar(dets, scenes, MatchParams(), taus=taus)
    got = aar(moved_dets, moved_scenes, MatchParams(), taus=taus)
    assert want.curve[1][3] > 0  # candidates at tau 0.5
    assert close(got.curve, want.curve)
    want_ap = ap_2d(*ap_inputs(scenes, dets), [0.5, 0.75])
    got_ap = ap_2d(*ap_inputs(moved_scenes, moved_dets), [0.5, 0.75])
    assert got_ap.keys() == want_ap.keys()
    for c in want_ap:
        assert got_ap[c].keys() == want_ap[c].keys()
        assert close(list(got_ap[c].values()), list(want_ap[c].values()))


# --------------------------------------------------- sparse view ids (metamorphic)

def relabelled_views(obj, kind, new_id):
    """A run file's JSON with every view id mapped through ``new_id``."""
    if kind in ("rig", "scene"):
        for view in obj["views" if kind == "rig" else "rig"]:
            view["view_id"] = new_id[view["view_id"]]
    if kind == "scene":
        for box in obj["gt2d"]:
            box["view_id"] = new_id[box["view_id"]]
    elif kind == "gt_scenes":
        obj["scenes"] = [relabelled_views(s, "scene", new_id) for s in obj["scenes"]]
    elif kind == "alloc":
        obj["camera_of_col"] = [new_id[v] for v in obj["camera_of_col"]]
        obj["rects"] = [[*rect[:4], new_id[rect[4]]] for rect in obj["rects"]]
        obj["dropped_zero_area"] = [[i, new_id[v]] for i, v in obj["dropped_zero_area"]]
        obj["capped_per_view"] = {str(new_id[int(v)]): n for v, n in obj["capped_per_view"].items()}
    elif kind == "forward":
        for layer in obj["layers_2d"]:
            layer["camera_of_col"] = [new_id[v] for v in layer["camera_of_col"]]
    elif kind == "pred":
        for frame in obj["frames"]:
            frame["boxes2d"] = {str(new_id[int(v)]): b for v, b in frame["boxes2d"].items()}
    return obj


def test_sparse_view_ids_change_no_metric_of_a_run(tmp_path):
    # the built-in rig relabelled to sparse, shuffled ids, its crop rule moved
    # along from view 0 to view 7: the metrics and summary keep their bytes,
    # and every per-view file is the plain run's with the ids mapped; the
    # scores are spread, since AP ranks tied scores by view id
    sparse = [7, 2, 40, 13, 5, 21]
    new_id = {**dict(enumerate(sparse)), 6: 41}  # the crop view takes max id + 1
    rig = tmp_path / "sparse_rig.json"
    save_rig([dataclasses.replace(v, view_id=i) for v, i in zip(make_surround_rig(6), sparse)],
             rig)
    noise = {"drop_prob": 0.2, "jitter_px": 3.0, "jitter_m": 0.3, "score_spread": 0.3}
    decoder = {"n_queries": 64, "channels": 32, "heads": 4, "seed": 0}
    outs = {}
    for name, over in (("plain", {"crop_rules": [{"source_view_id": 0}]}),
                       ("sparse", {"rig": str(rig), "crop_rules": [{"source_view_id": 7}]})):
        cfg = run_config(tmp_path, noise=noise, decoder=decoder, seeds={"base": 0, "scenes": 6},
                         boxes=15, **over)
        outs[name] = tmp_path / name
        assert run_cli("run", "--config", str(cfg), "--out", str(outs[name])) == 0
    files = sorted(p.relative_to(outs["plain"]) for p in outs["plain"].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(outs["sparse"])
                           for p in outs["sparse"].rglob("*") if p.is_file())
    assert files == run_files(6)
    for rel in files:
        plain, got = (outs[name] / rel for name in ("plain", "sparse"))
        if rel.parts[0] == "metrics" or rel.name == "summary.json":
            assert got.read_bytes() == plain.read_bytes(), rel
        else:
            kind = rel.parts[0] if len(rel.parts) > 1 else rel.stem
            want = relabelled_views(json.loads(plain.read_text()), kind, new_id)
            assert json.loads(got.read_text()) == want, rel
    assert [v["view_id"] for v in json.loads((outs["sparse"] / "rig.json").read_text())["views"]] \
        == sparse + [41]
