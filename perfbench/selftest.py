#!/usr/bin/env python3
"""Self-tests of the benchmark: oracles, corruption, worker count, tracing.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Each output check agrees with a hand-worked case and rejects a deliberately
corrupted artifact; a reduced many-scenes run gives byte-identical CSVs and
summary.json with --jobs 1 and --jobs 2; a traced run finds every function
it wraps and its self times add up to its wall time; BENCHMARK.json names
the metrics and workloads run.py reports.  Prints one line per test and
exits non-zero on the first failure.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import run
from workloads import WORKLOADS, expected_rig

WORK = run.OUT / "selftest"
RIG = expected_rig(WORKLOADS["ref-F"])

# Reduced many-scenes: the same rig and decoder, four scenes.
SMALL = {**WORKLOADS["many-scenes"], "seeds": {"base": 0, "scenes": 4}}


def box(x, y, z, w, l, h, yaw=0.0):
    return [x, y, z, w, l, h, yaw, 0.0, 0.0]


def test_projection_hand_case():
    # view 0 sits at (0.5, 0, 1.5) looking along +x; a 2 m cube 10 m ahead
    uv, depth = oracles.project(RIG[0], np.array([[10.5, 0.0, 1.5], [10.5, -2.0, 0.5]]))
    assert np.allclose(uv, [[352.0, 128.0], [452.0, 178.0]], atol=1e-9), uv
    assert np.allclose(depth, [10.0, 10.0])
    vb = oracles.view_boxes(RIG[0], np.array([box(10.5, 0.0, 1.5, 2.0, 2.0, 2.0)]))
    # the near face at depth 9 spans +-1 m, i.e. +-500/9 px around the centre
    assert vb["valid"][0] and vb["center_in"][0]
    assert np.allclose(vb["rect"][0], [352.0, 128.0, 1000 / 9, 1000 / 9], atol=1e-9)
    behind = oracles.view_boxes(RIG[0], np.array([box(-10.0, 0.0, 1.5, 2.0, 2.0, 2.0)]))
    assert not behind["valid"][0]


def test_allocation_hand_case():
    ahead, behind = box(10.5, 0.0, 1.5, 2.0, 2.0, 2.0), box(-10.5, 0.0, 1.5, 2.0, 2.0, 2.0)
    cols = oracles.allocate(np.array([ahead, behind]), RIG, cap=100, size_clamp=(35, 35, 10))
    # view 0 and its crop (view 6) see the box ahead, view 3 the one behind
    assert cols["rows"] == [0, 1, 0] and cols["cams"] == [0, 3, 6], cols
    assert cols["center_in"] == [True, True, True]
    # two truncated boxes at the same spot just right of view 0's field of
    # view: with a cap of one the larger clipped rectangle stays
    yaw_edge = -math.atan(352 / 500) - 0.05
    c = [10 * math.cos(yaw_edge) + 0.5, 10 * math.sin(yaw_edge), 1.0]
    small, large = box(*c, 2.0, 2.0, 2.0), box(*c, 4.0, 4.0, 2.0)
    cols = oracles.allocate(np.array([small, large]), RIG[:1], cap=1, size_clamp=(35, 35, 10))
    assert cols["rows"] == [1] and cols["capped"] == {0: 1} and cols["center_in"] == [False], cols


def hand_frame():
    rect = [352.0, 128.0, 1000 / 9, 1000 / 9]
    scene = {"frame_id": 0, "boxes": [{"box": box(10.5, 0.0, 1.5, 2.0, 2.0, 2.0), "class_id": 0}],
             "gt2d": [{"box": rect, "view_id": 0, "class_id": 0, "box3d_index": 0}]}
    pred = {"frame_id": 0,
            "boxes3d": [{"box": box(10.5, 0.0, 1.5, 2.0, 2.0, 2.0), "class_id": 0, "score": 1.0},
                        {"box": box(15.5, 0.0, 1.5, 2.0, 2.0, 2.0), "class_id": 0, "score": 1.0}],
            "boxes2d": {"0": [{"box": rect, "class_id": 0, "score": 1.0},
                              {"box": rect, "class_id": 1, "score": 1.0}]}}
    return scene, pred


def test_aar_hand_case():
    # the exact 3D box is a candidate at every threshold, the one 5 m away at
    # none; only the same-class 2D box makes a valid pair
    scene, pred = hand_frame()
    taus = [0.1, 0.5, 0.9]
    assert oracles.aar_counts(scene, pred, RIG, 2.0, taus) == [(1, 1)] * 3
    pred["boxes2d"]["0"][0]["box"] = [352.0 + 1000 / 9, 128.0, 1000 / 9, 1000 / 9]
    assert oracles.aar_counts(scene, pred, RIG, 2.0, taus) == [(1, 0)] * 3


def test_ap_hand_case():
    # ranked TP, FP, TP over two ground-truth boxes: precision 1 up to
    # recall 0.5 (6 points), then 2/3 (5 points)
    a, b, far = [100.0, 100.0, 20.0, 20.0], [300.0, 100.0, 20.0, 20.0], [600.0, 200.0, 10.0, 10.0]
    scene = {"frame_id": 0, "gt2d": [{"box": a, "view_id": 0, "class_id": 0, "box3d_index": 0},
                                     {"box": b, "view_id": 0, "class_id": 0, "box3d_index": 1}]}
    pred = {"boxes2d": {"0": [{"box": p, "class_id": 0, "score": 1.0} for p in (a, far, b)]}}
    table = oracles.ap_table([scene], [pred], [0.5])
    assert abs(table[0][0.5] - (6 + 5 * 2 / 3) / 11) < 1e-12, table


def good_heads():
    n = 4
    b3 = np.tile([1.0, 2.0, 0.5, 1.0, 2.0, 1.0, math.pi, 0.0, 0.0], (n, 1))
    layer3 = {"boxes3d": b3, "logits": np.zeros((n, 5))}
    layer2 = {"rows": [0, 1], "camera_of_col": [0, 0], "boxes2d": np.ones((2, 4)),
              "logits": np.zeros((2, 5)), "alphas": np.zeros((2, 2))}
    return {"layers_2d": [copy.deepcopy(layer2) for _ in range(3)],
            "layers_3d": [copy.deepcopy(layer3) for _ in range(3)],
            "agg_taps": [copy.deepcopy(layer3) for _ in range(3)]}


def test_head_output_checks():
    assert oracles.check_head_outputs(good_heads(), "F", "hand") == []
    assert oracles.check_head_outputs(good_heads(), "A", "hand")      # wrong emission counts
    for kind, n, col, value in [("layers_3d", 0, 6, -math.pi), ("agg_taps", 1, 4, 0.005),
                                ("layers_3d", 2, 0, math.nan), ("layers_2d", 0, 2, -1.0)]:
        heads = good_heads()
        heads[kind][n]["boxes3d" if kind != "layers_2d" else "boxes2d"][0, col] = value
        assert oracles.check_head_outputs(heads, "F", "hand"), (kind, col, value)


def mvdet_run(cfg: dict, out: Path, jobs: int) -> None:
    config = WORK / "small.json"
    config.write_text(json.dumps(cfg))
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "mvdet", "run", "--config", str(config),
                    "--out", str(out), "--jobs", str(jobs)],
                   cwd=run.ROOT, env=run.child_env(), check=True, capture_output=True, timeout=300)


def edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, (path, old)
    path.write_text(text.replace(old, new, 1))


def bump_first_count(path: Path) -> None:
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_reduced_run_and_corruption():
    good = WORK / "jobs1"
    mvdet_run(SMALL, good, 1)
    anchors = run.initial_anchors(SMALL)
    errors = oracles.check_run(good, SMALL, anchors)
    assert errors == [], errors

    def move_gt_rect(o):
        o["scenes"][1]["gt2d"][0]["box"][0] += 1e-3

    def move_alloc_rect(o):
        o["rects"][0][1] += 1e-3

    def bad_yaw(o):
        o["layers_3d"][0]["boxes3d"][0][6] = 4.0

    def swap_rows(o):
        rows = o["layers_2d"][0]["rows"]
        rows[0], rows[1] = rows[1], rows[0]

    def drop_pred2d(o):
        o["frames"][0]["boxes2d"].popitem()

    corruptions = {
        "moved 2D ground-truth rect": lambda d: edit_json(d / "gt_scenes.json", move_gt_rect),
        "moved allocation rect": lambda d: edit_json(d / "alloc" / "alloc_0002.json", move_alloc_rect),
        "altered AAR count": lambda d: bump_first_count(d / "metrics" / "aar_curve.csv"),
        "altered AP value": lambda d: edit_text(d / "metrics" / "ap.csv", "0,0.5,", "0,0.5,1"),
        "altered summary": lambda d: edit_json(d / "summary.json",
                                               lambda o: o.update(mean_ap=o["mean_ap"] + 1e-6)),
        "yaw out of range": lambda d: edit_json(d / "forward" / "forward_0003.json", bad_yaw),
        "first mapping reordered": lambda d: edit_json(d / "forward" / "forward_0000.json", swap_rows),
        "dropped 2D prediction": lambda d: edit_json(d / "pred" / "pred_0001.json", drop_pred2d),
    }
    for label, corrupt in corruptions.items():
        bad = WORK / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(good, bad)
        corrupt(bad)
        assert oracles.check_run(bad, SMALL, anchors), f"not rejected: {label}"

    other = WORK / "jobs2"
    mvdet_run(SMALL, other, 2)
    for name in ("metrics/aar_curve.csv", "metrics/ap.csv", "summary.json"):
        assert (good / name).read_bytes() == (other / name).read_bytes(), name


def test_traced_run():
    out, summary_path = WORK / "traced", WORK / "layers.json"
    config = WORK / "small.json"
    config.write_text(json.dumps(SMALL))
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, str(run.HERE / "traced_run.py"), "--src", str(run.SRC),
                    "--config", str(config), "--out", str(out), "--seed", "0",
                    "--summary", str(summary_path), "--trace", str(WORK / "trace.json")],
                   cwd=run.ROOT, env=run.child_env(), check=True, capture_output=True, timeout=300)
    summary = json.loads(summary_path.read_text())
    assert summary["notes"] == [] and summary["errors"] == [], summary["notes"] + summary["errors"]
    assert summary["forward_calls"] == 4
    # one ground-truth allocation per scene plus one per 2D sub-layer (3 in F)
    assert summary["calls"]["allocation.allocate"] == 4 * (1 + 3)
    assert 0 < summary["uncovered_s"] < summary["wall_s"]
    values = run.layer_metrics(summary, overhead=0.0)
    assert set(values) == {name for name, *_ in run.PER_LAYER}
    assert 0 < values["allocation.kept_ratio"] <= 1
    events = json.loads((WORK / "trace.json").read_text())["traceEvents"]
    assert len(events) == summary["n_spans"]
    assert oracles.check_run(out, SMALL, run.initial_anchors(SMALL)) == []


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.PER_LAYER]


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"PASS {name}")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
