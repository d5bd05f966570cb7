"""Output checks made apart from the program.

Every check here recomputes a result of `mvdet run` from its inputs with
this file's own code -- box corners from centre, size and yaw, projection
through the stacked homogeneous matrix K [R|t], a direct validity and cap
rule, per-frame brute-force association counts and AP -- and compares it
with the artifacts the run wrote.  Each check returns a list of error
strings; an empty list means the artifacts agree.  Nothing here imports
mvdet.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import PRESET_LAYERS, expected_rig

EPS_DEPTH = 1e-3   # points at or behind this camera depth do not project
RECT_TOL = 1e-6    # pixels
VALUE_TOL = 1e-9   # metric values
RIG_TOL = 1e-9
MIN_BOX_SIZE = 0.01
MAX_ERRORS = 20    # per check, so a broken run does not flood the log


# ------------------------------------------------------------------ geometry

def box_points(boxes: np.ndarray) -> np.ndarray:
    """(N, 9, 3): centre, then the corners at local (+-l/2, +-w/2, +-h/2)."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 9)
    signs = np.array([[sx, sy, sz] for sz in (-1, 1) for sx in (-1, 1) for sy in (-1, 1)],
                     dtype=np.float64)
    half = 0.5 * boxes[:, [4, 3, 5]]                     # (l, w, h) / 2
    local = signs[None, :, :] * half[:, None, :]          # (N, 8, 3)
    c, s = np.cos(boxes[:, 6])[:, None], np.sin(boxes[:, 6])[:, None]
    world = np.empty_like(local)
    world[..., 0] = c * local[..., 0] - s * local[..., 1]
    world[..., 1] = s * local[..., 0] + c * local[..., 1]
    world[..., 2] = local[..., 2]
    corners = world + boxes[:, None, 0:3]
    return np.concatenate([boxes[:, None, 0:3], corners], axis=1)


def project(view: dict, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates and camera depth of ego points through K [R|t]."""
    p34 = view["K"] @ view["E"][:3, :]
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hom = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ p34.T
    depth = hom[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = hom[:, :2] / depth[:, None]
    return uv, depth


def view_boxes(view: dict, boxes: np.ndarray) -> dict:
    """Validity, clipped rectangle and centre flags of N boxes in one view.

    A box is valid when any of its nine points lies in front of the camera
    and strictly inside (0, W) x (0, H); its rectangle bounds every point in
    front of the camera, clipped to the image.
    """
    pts = box_points(boxes)
    n = pts.shape[0]
    uv, depth = project(view, pts.reshape(-1, 3))
    uv = uv.reshape(n, 9, 2)
    front = (depth > EPS_DEPTH).reshape(n, 9)
    w, h = float(view["width"]), float(view["height"])
    inside = front & (uv[..., 0] > 0) & (uv[..., 0] < w) & (uv[..., 1] > 0) & (uv[..., 1] < h)
    valid = inside.any(axis=1)
    rect = np.full((n, 4), np.nan)
    for i in np.flatnonzero(valid):
        u, v = uv[i, front[i], 0], uv[i, front[i], 1]
        x0, x1 = min(max(u.min(), 0.0), w), min(max(u.max(), 0.0), w)
        y0, y1 = min(max(v.min(), 0.0), h), min(max(v.max(), 0.0), h)
        rect[i] = (0.5 * (x0 + x1), 0.5 * (y0 + y1), x1 - x0, y1 - y0)
    area = np.where(valid, rect[:, 2] * rect[:, 3], 0.0)
    return {"valid": valid, "usable": valid & (area > 0), "area": area,
            "center_in": inside[:, 0], "center_uv": uv[:, 0, :], "rect": rect}


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (cx, cy, w, h) rows; 0 where the union is empty."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i, (acx, acy, aw, ah) in enumerate(a):
        for j, (bcx, bcy, bw, bh) in enumerate(b):
            ix = min(acx + aw / 2, bcx + bw / 2) - max(acx - aw / 2, bcx - bw / 2)
            iy = min(acy + ah / 2, bcy + bh / 2) - max(acy - ah / 2, bcy - bh / 2)
            inter = max(ix, 0.0) * max(iy, 0.0)
            union = aw * ah + bw * bh - inter
            out[i, j] = inter / union if union > 0 else 0.0
    return out


def allocate(boxes: np.ndarray, rig: list[dict], cap: int, size_clamp) -> dict:
    """Columns of the allocation rule, in rig order and ascending box index.

    One column per (box, view) whose clipped rectangle has positive area;
    per view, columns whose box centre is outside the view (truncated) keep
    only the `cap` largest rectangles, ties to the lower box index.
    """
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 9)
    boxes[:, 3:6] = np.minimum(boxes[:, 3:6], np.asarray(size_clamp, dtype=np.float64))
    cols = {"rows": [], "cams": [], "refs": [], "center_in": [], "rects": [],
            "dropped": [], "capped": {}}
    for view in rig:
        vb = view_boxes(view, boxes)
        cols["dropped"] += [(int(i), view["view_id"])
                            for i in np.flatnonzero(vb["valid"] & ~vb["usable"])]
        truncated = [int(i) for i in np.flatnonzero(vb["usable"] & ~vb["center_in"])]
        if len(truncated) > cap:
            ranked = sorted(truncated, key=lambda i: (-vb["area"][i], i))
            cols["capped"][view["view_id"]] = len(truncated) - cap
            truncated = ranked[:cap]
        keep = sorted(truncated + [int(i) for i in np.flatnonzero(vb["usable"] & vb["center_in"])])
        for i in keep:
            cols["rows"].append(i)
            cols["cams"].append(view["view_id"])
            cols["center_in"].append(bool(vb["center_in"][i]))
            cols["refs"].append(vb["center_uv"][i] if vb["center_in"][i] else vb["rect"][i, :2])
            cols["rects"].append(vb["rect"][i])
    return cols


def limits(decoder: dict) -> tuple[int, tuple]:
    """Truncated-column cap and size clamp of a decoder config (with the
    run config defaults)."""
    return (decoder.get("max_truncated_per_camera", 100),
            tuple(decoder.get("size_clamp", (35.0, 35.0, 10.0))))


# ---------------------------------------------------------------- artifacts

def check_rig(views_obj: list[dict], rig: list[dict], where: str) -> list[str]:
    if len(views_obj) != len(rig):
        return [f"{where}: {len(views_obj)} views, expected {len(rig)}"]
    errors = []
    for got, exp in zip(views_obj, rig):
        k = np.asarray(got["intrinsics"], dtype=np.float64).reshape(3, 3)
        e = np.asarray(got["extrinsic"], dtype=np.float64).reshape(4, 4)
        if (int(got["view_id"]) != exp["view_id"] or got["width"] != exp["width"]
                or got["height"] != exp["height"]
                or not np.allclose(k, exp["K"], rtol=0, atol=RIG_TOL)
                or not np.allclose(e, exp["E"], rtol=0, atol=RIG_TOL)):
            errors.append(f"{where}: view {got['view_id']} differs from the expected camera")
    return errors


def check_scene_gt(scene: dict, rig: list[dict]) -> list[str]:
    """2D ground truth = every (box, view) with a positive-area clipped rect."""
    where = f"scene {scene['frame_id']}"
    errors = check_rig(scene["rig"], rig, where)
    boxes = np.array([b["box"] for b in scene["boxes"]], dtype=np.float64).reshape(-1, 9)
    classes = [int(b["class_id"]) for b in scene["boxes"]]
    expected = []
    for view in rig:
        vb = view_boxes(view, boxes)
        expected += [(int(i), view["view_id"], vb["rect"][i]) for i in np.flatnonzero(vb["usable"])]
    got = scene["gt2d"]
    if [(e[0], e[1]) for e in expected] != [(g["box3d_index"], g["view_id"]) for g in got]:
        return errors + [f"{where}: 2D ground-truth (box, view) list differs from the projection oracle"]
    for (i, view_id, rect), g in zip(expected, got):
        if np.max(np.abs(np.asarray(g["box"]) - rect)) > RECT_TOL:
            errors.append(f"{where}: gt2d of box {i} in view {view_id} off by more than {RECT_TOL} px")
        if g["class_id"] != classes[i]:
            errors.append(f"{where}: gt2d of box {i} has class {g['class_id']}, box has {classes[i]}")
    return errors[:MAX_ERRORS]


def check_gt_allocation(alloc: dict, scene: dict, rig: list[dict], decoder: dict) -> list[str]:
    where = f"alloc {scene['frame_id']}"
    boxes = np.array([b["box"] for b in scene["boxes"]], dtype=np.float64).reshape(-1, 9)
    exp = allocate(boxes, rig, *limits(decoder))
    if alloc["rows"] != exp["rows"] or alloc["camera_of_col"] != exp["cams"]:
        return [f"{where}: columns differ from the allocation rule "
                "(grouped in rig order, ascending box index within a group)"]
    errors = []
    if alloc["n_2d"] != len(exp["rows"]) or alloc["n_3d"] != len(boxes):
        errors.append(f"{where}: n_2d/n_3d do not match the columns")
    if alloc["truncation"] != exp["center_in"]:
        errors.append(f"{where}: centre-in-view flags differ")
    for j, (rect, ref) in enumerate(zip(exp["rects"], exp["refs"])):
        got = alloc["rects"][j]
        if (np.max(np.abs(np.asarray(got[:4]) - rect)) > RECT_TOL or got[4] != exp["cams"][j]
                or np.max(np.abs(np.asarray(alloc["ref_points"][j]) - ref)) > RECT_TOL):
            errors.append(f"{where}: column {j} rect or reference point off by more than {RECT_TOL} px")
    if [tuple(d) for d in alloc["dropped_zero_area"]] != exp["dropped"]:
        errors.append(f"{where}: zero-area drops differ")
    if {int(k): v for k, v in alloc["capped_per_view"].items()} != exp["capped"]:
        errors.append(f"{where}: per-view cap counts differ")
    return errors[:MAX_ERRORS]


def check_head_outputs(heads: dict, preset: str, where: str) -> list[str]:
    """Emission counts of the preset, finite values and output ranges."""
    l_2d, l_3d, l_hybrid = PRESET_LAYERS[preset]
    counts = (len(heads["layers_2d"]), len(heads["layers_3d"]), len(heads["agg_taps"]))
    if counts != (l_2d * l_hybrid, l_3d * l_hybrid, l_2d * l_hybrid):
        return [f"{where}: emissions (2D, 3D, taps) = {counts}, preset {preset} implies "
                f"{(l_2d * l_hybrid, l_3d * l_hybrid, l_2d * l_hybrid)}"]
    errors = []
    for n, layer in enumerate(heads["layers_2d"]):
        m = len(layer["rows"])
        boxes = np.asarray(layer["boxes2d"], dtype=np.float64).reshape(-1, 4)
        arrays = [boxes, np.asarray(layer["logits"], dtype=np.float64),
                  np.asarray(layer["alphas"], dtype=np.float64)]
        if any(a.shape[0] != m for a in arrays) or len(layer["camera_of_col"]) != m:
            errors.append(f"{where}: 2D layer {n} arrays do not align with its {m} columns")
        elif not all(np.isfinite(a).all() for a in arrays):
            errors.append(f"{where}: 2D layer {n} has non-finite values")
        elif (boxes[:, 2:4] < 0).any():
            errors.append(f"{where}: 2D layer {n} has a negative width or height")
    for kind in ("layers_3d", "agg_taps"):
        for n, layer in enumerate(heads[kind]):
            boxes = np.asarray(layer["boxes3d"], dtype=np.float64).reshape(-1, 9)
            logits = np.asarray(layer["logits"], dtype=np.float64)
            yaw = boxes[:, 6]
            if not (np.isfinite(boxes).all() and np.isfinite(logits).all()):
                errors.append(f"{where}: {kind} {n} has non-finite values")
            elif (boxes[:, 3:6] < MIN_BOX_SIZE).any():
                errors.append(f"{where}: {kind} {n} has a size below {MIN_BOX_SIZE} m")
            elif ((yaw <= -math.pi) | (yaw > math.pi)).any():
                errors.append(f"{where}: {kind} {n} has a yaw outside (-pi, pi]")
    return errors[:MAX_ERRORS]


def check_first_mapping(heads: dict, anchors: np.ndarray, rig: list[dict],
                        decoder: dict, where: str) -> list[str]:
    """The first 2D sub-layer allocates the clamped initial anchors."""
    if not heads["layers_2d"]:
        return []
    exp = allocate(anchors, rig, *limits(decoder))
    first = heads["layers_2d"][0]
    if (list(map(int, first["rows"])) != exp["rows"]
            or list(map(int, first["camera_of_col"])) != exp["cams"]):
        return [f"{where}: first 2D sub-layer mapping differs from the allocation rule"]
    return []


# ------------------------------------------------------------------ metrics

def aar_counts(scene: dict, pred: dict, rig: list[dict], tau_dis: float,
               taus: list[float]) -> list[tuple[int, int]]:
    """(candidates, valid pairs) per IoU threshold for one frame.

    A candidate is a (3D prediction, 2D ground truth) pair with equal 3D
    class, centre distance <= tau_dis to the linked 3D box, and IoU of the
    prediction's projected rectangle with the 2D box >= tau.  A valid pair
    is a (3D prediction, 2D prediction) pair sharing a candidate ground
    truth that the 2D prediction matches in view, class and IoU >= tau.
    """
    gt_boxes = np.array([b["box"] for b in scene["boxes"]], dtype=np.float64).reshape(-1, 9)
    gt_cls = np.array([b["class_id"] for b in scene["boxes"]], dtype=int)
    p3_boxes = np.array([p["box"] for p in pred["boxes3d"]], dtype=np.float64).reshape(-1, 9)
    p3_cls = np.array([p["class_id"] for p in pred["boxes3d"]], dtype=int)
    p2 = [(int(v), b) for v, entries in pred["boxes2d"].items() for b in entries]
    views = {v["view_id"]: v for v in rig}
    proj = {vid: view_boxes(v, p3_boxes) for vid, v in views.items()}
    gt2d = scene["gt2d"]
    n3, n2, ng = len(p3_boxes), len(p2), len(gt2d)
    gate = np.zeros((n3, ng), dtype=bool)
    iou3 = np.zeros((n3, ng))
    ok2 = np.zeros((n2, ng), dtype=bool)
    iou2 = np.zeros((n2, ng))
    for j, g in enumerate(gt2d):
        link, view_id = g["box3d_index"], g["view_id"]
        vb = proj[view_id]
        dist = np.sqrt(((p3_boxes[:, 0:3] - gt_boxes[link, 0:3]) ** 2).sum(axis=1))
        gate[:, j] = (p3_cls == gt_cls[link]) & (dist <= tau_dis) & vb["valid"]
        for i in np.flatnonzero(gate[:, j]):
            iou3[i, j] = iou(vb["rect"][i], g["box"])[0, 0]
        for k, (v2, b) in enumerate(p2):
            if v2 == view_id and b["class_id"] == g["class_id"]:
                ok2[k, j] = True
                iou2[k, j] = iou(b["box"], g["box"])[0, 0]
    out = []
    for tau in taus:
        phi = gate & (iou3 >= tau)
        ok = ok2 & (iou2 >= tau)
        valid = (phi.astype(np.int64) @ ok.T.astype(np.int64)) > 0
        out.append((int(phi.sum()), int(valid.sum())))
    return out


def ap_table(scenes: list[dict], preds: list[dict],
             thresholds: list[float]) -> dict[int, dict[float, float]]:
    """11-point interpolated AP per class, greedy matching inside each frame.

    Predictions are ranked by descending score, ties by frame, view and
    input order; each takes the unused same-frame, same-view ground truth
    of its class with the highest IoU >= threshold (first one on ties).
    """
    all_p, all_g = [], []
    for scene, pred in zip(scenes, preds):
        f = scene["frame_id"]
        for v, entries in pred["boxes2d"].items():
            for b in entries:
                all_p.append((f, int(v), b["class_id"], b["score"], b["box"], len(all_p)))
        all_g += [(f, g["view_id"], g["class_id"], g["box"]) for g in scene["gt2d"]]
    table = {}
    for cls in sorted({p[2] for p in all_p} | {g[2] for g in all_g}):
        ranked = sorted((p for p in all_p if p[2] == cls), key=lambda p: (-p[3], p[0], p[1], p[5]))
        gts = [g for g in all_g if g[2] == cls]
        table[cls] = {}
        for thr in thresholds:
            used = [False] * len(gts)
            tp = []
            for f, v, _, _, box, _ in ranked:
                best, best_j = 0.0, -1
                for j, (gf, gv, _, gbox) in enumerate(gts):
                    if used[j] or gf != f or gv != v:
                        continue
                    value = iou(box, gbox)[0, 0]
                    if value >= thr and value > best:
                        best, best_j = value, j
                if best_j >= 0:
                    used[best_j] = True
                tp.append(best_j >= 0)
            if not gts or not ranked:
                table[cls][thr] = 0.0
                continue
            hits = np.cumsum(tp)
            recall = hits / len(gts)
            precision = hits / np.arange(1, len(tp) + 1)
            table[cls][thr] = sum(
                float(precision[recall >= r - 1e-12].max()) if (recall >= r - 1e-12).any() else 0.0
                for r in np.linspace(0.0, 1.0, 11)
            ) / 11.0
    return table


def _sweep(spec: str) -> list[float]:
    lo, hi, step = (float(x) for x in spec.split(":"))
    return [round(lo + i * step, 10) for i in range(int(round((hi - lo) / step)) + 1)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL


def check_metrics(out: Path, scenes: list[dict], preds: list[dict], rig: list[dict],
                  cfg: dict) -> list[str]:
    """Recompute the AAR/Recall curve, the AP table and the summary values."""
    errors = []
    taus = _sweep(cfg.get("tau_iou_sweep", "0.1:0.9:0.1"))
    per_tau = np.zeros((len(taus), 2), dtype=np.int64)
    for scene, pred in zip(scenes, preds):
        per_tau += np.array(aar_counts(scene, pred, rig, float(cfg.get("tau_dis", 2.0)), taus))
    n_gt2d = sum(len(s["gt2d"]) for s in scenes)
    with open(out / "metrics" / "aar_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    aar_at_half = None
    if len(rows) != len(taus):
        errors.append(f"aar_curve.csv has {len(rows)} rows, expected {len(taus)}")
    for tau, (c, v), row in zip(taus, per_tau.tolist(), rows):
        aar = 100.0 * v / c if c else 0.0
        recall = 100.0 * c / n_gt2d if n_gt2d else 0.0
        if abs(tau - 0.5) < 1e-9:
            aar_at_half = aar
        if (int(row["n_candidate"]) != c or int(row["n_valid"]) != v
                or not _close(float(row["tau_iou"]), tau)
                or not _close(float(row["aar"]), aar) or not _close(float(row["recall"]), recall)):
            errors.append(f"aar_curve.csv row tau={row['tau_iou']}: got {dict(row)}, "
                          f"oracle gives candidates {c}, valid {v}, aar {aar!r}, recall {recall!r}")
    table = ap_table(scenes, preds, [0.5, 0.75])
    expected = [(str(cls), thr, ap) for cls in sorted(table) for thr, ap in sorted(table[cls].items())]
    values = [ap for per in table.values() for ap in per.values()]
    mean_ap = float(np.mean(values)) if values else 0.0
    with open(out / "metrics" / "ap.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(expected) + 1:
        errors.append(f"ap.csv has {len(rows)} rows, expected {len(expected) + 1}")
    else:
        for (cls, thr, ap), row in zip(expected, rows):
            if (row["class_id"] != cls or not _close(float(row["iou_threshold"]), thr)
                    or not _close(float(row["ap"]), ap)):
                errors.append(f"ap.csv row {dict(row)}: oracle gives class {cls}, thr {thr}, ap {ap!r}")
        if rows[-1]["class_id"] != "mean" or not _close(float(rows[-1]["ap"]), mean_ap):
            errors.append(f"ap.csv mean row {dict(rows[-1])}: oracle gives {mean_ap!r}")
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("scenes") != len(scenes) or summary.get("views") != len(rig):
        errors.append("summary.json scene or view count differs")
    if summary.get("aar_at_0.5") is None or aar_at_half is None \
            or not _close(summary["aar_at_0.5"], aar_at_half):
        errors.append(f"summary.json aar_at_0.5 {summary.get('aar_at_0.5')!r}, oracle {aar_at_half!r}")
    if not _close(summary.get("mean_ap", math.nan), mean_ap):
        errors.append(f"summary.json mean_ap {summary.get('mean_ap')!r}, oracle {mean_ap!r}")
    return errors[:MAX_ERRORS]


# ---------------------------------------------------------------------- run

def check_run(out: Path, cfg: dict, initial_anchors: np.ndarray | None) -> list[str]:
    """Every check on the artifacts of one `mvdet run` output directory.

    `initial_anchors` (the decoder's initial query anchors) enables the
    first-sub-layer allocation check; None skips it.
    """
    rig = expected_rig(cfg)
    decoder = cfg.get("decoder", {})
    n = int(cfg["seeds"]["scenes"])
    errors = check_rig(json.loads((out / "rig.json").read_text())["views"], rig, "rig.json")
    gt = json.loads((out / "gt_scenes.json").read_text())
    scenes = gt["scenes"]
    if len(scenes) != n:
        return errors + [f"gt_scenes.json has {len(scenes)} scenes, expected {n}"]
    preds = []
    for i, scene in enumerate(scenes):
        where = f"scene {i}"
        if scene["frame_id"] != i:
            errors.append(f"{where}: frame id {scene['frame_id']}")
        errors += check_scene_gt(scene, rig)
        errors += check_gt_allocation(
            json.loads((out / "alloc" / f"alloc_{i:04d}.json").read_text()), scene, rig, decoder)
        heads = json.loads((out / "forward" / f"forward_{i:04d}.json").read_text())
        errors += check_head_outputs(heads, cfg["preset"], f"forward {i}")
        if initial_anchors is not None:
            errors += check_first_mapping(heads, initial_anchors, rig, decoder, f"forward {i}")
        frames = json.loads((out / "pred" / f"pred_{i:04d}.json").read_text())["frames"]
        if len(frames) != 1 or frames[0]["frame_id"] != i:
            errors.append(f"pred {i}: expected one frame with id {i}")
            frames = [{"frame_id": i, "boxes3d": [], "boxes2d": {}}]
        preds.append(frames[0])
        if len(errors) >= MAX_ERRORS:
            return errors
    return errors + check_metrics(out, scenes, preds, rig, cfg)

