"""Command-line front end: simulate, allocate, forward, evaluate, run.

All subcommands honor --seed and are reproducible; the MVDET_LOG
environment variable sets the logging level.  `mvdet.entry` parses the
command line and calls the ``cmd_*`` function here of the parsed command;
`build_parser` and `main` are re-exported from it.  `run` checks its
flags, reads its config as a `pipeline.RunConfig` and calls `pipeline.run`.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .allocation import AllocationLimits, allocate, clamp_anchors
from .crop_scale import CropRule, extend_rig, load_crop_rules, load_extended_rig
from .decoder import DecoderConfig, HybridDecoder
from .denoising import (
    NoiseConfig,
    allocate_noise,
    denoise_groups,
    encode_anchor_features,
    gather_noise,
    make_noisy_anchors,
    restore_3d,
)
from .entry import build_parser, main  # noqa: F401 (re-exported)
from .geometry import (
    anchors_to_array, check_seed, dump_json, load_json, load_rig, make_surround_rig,
    naming_file, reject_unknown_keys, save_rig, view_key,
)
from .groupattn import AttentionParams, attention
from .metrics import Detections, MatchParams, aar, ap_2d, parse_detections
from .pipeline import (
    DECODER_KEYS, TAU_IOU_SWEEP, RunConfig, aar_csv_lines, ap_csv_lines, ap_inputs,
    feature_scales, parse_sweep, write_csv,
)
from .simulator import Scene, check_seed_range, load_scene, render_features, sample_scene

log = logging.getLogger("mvdet")


def setup_logging() -> None:
    level = os.environ.get("MVDET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _given(**values) -> dict:
    """``values`` without the flags left unset, so that a dataclass built
    from them takes its own default for each of those."""
    return {k: v for k, v in values.items() if v is not None}


def _iou_thresholds(values) -> list[float]:
    """``values`` as floats, each a finite IoU threshold within [0, 1]."""
    thresholds = [float(t) for t in values]
    bad = [t for t in thresholds if not 0.0 <= t <= 1.0]  # NaN fails too
    if bad:
        raise ValueError(f"IoU threshold {bad[0]} is outside [0, 1]")
    return thresholds


def _load_gt_scenes(path: str | Path) -> list[Scene]:
    obj = load_json(path)
    with naming_file(path):
        if obj.get("format") == "mvdet-scene/1":
            return [Scene.from_json_obj(obj)]
        if obj.get("format") != "mvdet-scene-set/1":
            raise ValueError(f"unrecognized ground-truth format: {obj.get('format')!r}")
        scenes = [Scene.from_json_obj(s) for s in obj["scenes"]]
        if not scenes:
            raise ValueError("holds no scenes")
    seen = set()
    for scene in scenes:
        if scene.frame_id in seen:
            raise ValueError(f"{path}: frame_id {scene.frame_id} appears in more than one scene")
        seen.add(scene.frame_id)
    return scenes


# ------------------------------------------------------------------ simulate

def cmd_simulate(args) -> int:
    if args.scenes < 1:
        raise ValueError(f"--scenes must be positive, got {args.scenes}")
    if args.boxes < 0:
        raise ValueError(f"--boxes must be non-negative, got {args.boxes}")
    if args.views < 1:
        raise ValueError(f"--views must be positive, got {args.views}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    check_seed_range("--seed", args.seed, args.scenes)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rig = load_extended_rig(args.rig) if args.rig else make_surround_rig(args.views)
    save_rig(rig, out_dir / "rig.json")
    scenes = []
    for i in range(args.scenes):
        scene = sample_scene(args.seed + i, rig, n_boxes=args.boxes, frame_id=i)
        scenes.append(scene.to_json_obj())
        dump_json(scenes[-1], out_dir / f"scene_{i:04d}.json")
    dump_json({"format": "mvdet-scene-set/1", "scenes": scenes}, out_dir / "scenes.json",
              indent=True)
    print(f"wrote {args.scenes} scene(s) and rig.json to {out_dir}")
    return 0


# ------------------------------------------------------------------ allocate

def cmd_allocate(args) -> int:
    rig = load_extended_rig(args.rig)
    with naming_file(args.anchors):
        anchors = np.asarray(load_json(args.anchors)["anchors"], dtype=np.float64)
        anchors = anchors_to_array(anchors.reshape(0, 9) if anchors.shape == (0,) else anchors)
        rows = np.flatnonzero(~np.isfinite(anchors).all(axis=1))
        if rows.size:
            raise ValueError(f"anchor row {rows[0]} is not finite")
        rows = np.flatnonzero((anchors[:, 3:6] <= 0.0).any(axis=1))
        if rows.size:
            raise ValueError(f"anchor row {rows[0]} has a non-positive size")
    limits = AllocationLimits(**_given(max_truncated_per_camera=args.max_truncated))
    anchors = clamp_anchors(anchors, limits)
    res = allocate(anchors, rig, limits)
    out = res.to_json_obj()
    if res.dropped:
        log.warning("dropped %d zero-area column(s): %s", len(res.dropped), res.dropped)
    dump_json(out, args.out, indent=True)
    if args.out:
        print(f"allocated {res.mapping.n_2d} 2D queries for {res.mapping.n_3d} anchors "
              f"-> {args.out}")
    return 0


# ------------------------------------------------------------------- forward

def _decoder_from_config(obj: dict) -> DecoderConfig:
    """The decoder of a forward config: a "decoder" section or, without one,
    decoder keys at the top level; "rig" may stand beside either."""
    if "decoder" in obj:
        reject_unknown_keys(obj, {"decoder", "rig"}, "forward config")
        reject_unknown_keys(obj["decoder"], DECODER_KEYS, "forward config")
        return DecoderConfig.from_json_obj(obj["decoder"])
    reject_unknown_keys(obj, {"rig", *DECODER_KEYS}, "forward config")
    return DecoderConfig.from_json_obj({k: v for k, v in obj.items() if k != "rig"})


def cmd_forward(args) -> int:
    cfg_obj = load_json(args.config)
    with naming_file(args.config):
        config = _decoder_from_config(cfg_obj)
    scene = load_scene(args.scene)
    if cfg_obj.get("rig"):
        rig = load_extended_rig(cfg_obj["rig"])
    else:
        rig = scene.rig
    if args.seed is not None:
        check_seed(args.seed, "--seed")
        config = dataclasses.replace(config, seed=args.seed)
    decoder = HybridDecoder(config, rig)
    out, updated = decoder.forward(render_features(scene, rig, feature_scales(config)))
    report = out.to_json_obj()
    report["n_sublayers"] = out.n_sublayers
    report["final_scores"] = updated.scores.tolist()
    dump_json(report, args.out, indent=True)
    if args.out:
        print(f"forward: {out.n_sublayers} sub-layers, "
              f"{len(out.layers_2d)} 2D / {len(out.layers_3d)} 3D emissions -> {args.out}")
    return 0


# ------------------------------------------------------------------ eval-aar

def _eval_inputs(args) -> tuple[list[Scene], list[Detections]]:
    """``--gt``'s scenes and, for each, its detections in ``--pred``, each
    frame there with a scene; a scene without detections has none."""
    scenes = _load_gt_scenes(args.gt)
    det_by_frame = parse_detections(load_json(args.pred), source=str(args.pred))
    extra = set(det_by_frame) - {scene.frame_id for scene in scenes}
    if extra:
        raise ValueError(f"{args.pred}: frame_id {min(extra)} has no scene in {args.gt}")
    return scenes, [det_by_frame.get(s.frame_id) or Detections.empty() for s in scenes]


def cmd_eval_aar(args) -> int:
    with naming_file("--tau-dis"):
        params = MatchParams(**_given(tau_dis=args.tau_dis))
    with naming_file("--tau-iou-sweep"):
        taus = parse_sweep(TAU_IOU_SWEEP if args.tau_iou_sweep is None else args.tau_iou_sweep)
    scenes, dets = _eval_inputs(args)
    write_csv(aar_csv_lines(aar(dets, scenes, params, taus=taus).curve), args.out)
    if args.out:
        print(f"AAR curve over {len(scenes)} scene(s) -> {args.out}")
    return 0


def cmd_eval_ap(args) -> int:
    with naming_file("--iou-thresholds"):
        thresholds = _iou_thresholds(args.iou_thresholds.split(","))
    scenes, dets = _eval_inputs(args)
    ap = ap_2d(*ap_inputs(scenes, dets), thresholds)
    write_csv(ap_csv_lines(ap), args.out)
    if args.out:
        print(f"AP table -> {args.out}")
    return 0


# ---------------------------------------------------------------- crop-views

def cmd_crop_views(args) -> int:
    views = load_rig(args.rig)
    rules = load_crop_rules(args.rig)
    if not rules:
        if args.source_views is not None:
            ids = [view_key(v, "--source-views") for v in args.source_views.split(",")]
        else:
            ids = [views[0].view_id]
            if len(views) > 1:
                ids.append(views[len(views) // 2].view_id)  # front and rear
        rules = [
            CropRule(source_view_id=i,
                     **_given(placement=args.placement, scale_rate=args.scale_rate))
            for i in ids
        ]
    extended = extend_rig(views, rules)
    obj = {"views": [v.to_json_obj() for v in extended]}
    dump_json(obj, args.out, indent=True)
    if args.out:
        print(f"extended rig: {len(views)} -> {len(extended)} views -> {args.out}")
    return 0


# -------------------------------------------------------------- denoise-demo

def cmd_denoise_demo(args) -> int:
    for flag, value in (("--heads", args.heads), ("--channels", args.channels)):
        if value < 1:
            raise ValueError(f"{flag} must be positive, got {value}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    scene = load_scene(args.scene)
    rig = scene.rig
    channels = args.channels
    gt_array = scene.anchors
    if not len(gt_array):
        raise ValueError("scene has no ground-truth boxes to denoise")
    limits = AllocationLimits()
    match_alloc = allocate(clamp_anchors(gt_array, limits), rig, limits)
    m = match_alloc.mapping.n_2d
    noise_cfg = NoiseConfig(**_given(n_groups=args.groups))
    noisy, negative = make_noisy_anchors(gt_array, noise_cfg, seed=args.seed)
    layout = allocate_noise(scene.gt2d, scene.gt2d_link, noisy, match_len=m)
    cams = match_alloc.mapping.camera_of_col
    groups = denoise_groups(layout, cams)

    owner_anchors = gt_array[match_alloc.mapping.rows]
    x_match = encode_anchor_features(owner_anchors, channels)
    group_feats = encode_anchor_features(noisy, channels)[:, layout.kept_gt, :]
    x_noise = gather_noise(layout, group_feats)
    params = AttentionParams.seeded(channels, args.heads, np.random.default_rng(args.seed))
    out_full = attention(np.vstack([x_match, x_noise]), params, groups=groups)
    out_match_only = attention(x_match, params, groups=cams)
    leakage_free = bool(np.array_equal(out_full[:m], out_match_only))
    restored = restore_3d(out_full[m:], layout)

    report = {
        "match_columns": m,
        "noise_columns": layout.n_noise,
        "groups": noise_cfg.n_groups,
        "negative_groups": [bool(n) for n in negative],
        "kept_gt": layout.kept_gt,
        "skipped_gt": [i for i in range(len(gt_array)) if i not in layout.kept_gt],
        "restored_shape": list(restored.shape),
        "leakage_free": leakage_free,
    }
    dump_json(report, args.out, indent=True)
    if not leakage_free:
        print("ERROR: denoise queries leaked into match outputs", file=sys.stderr)
        return 1
    if args.out:
        print(f"denoise demo ok (leakage-free) -> {args.out}")
    return 0


# ----------------------------------------------------------------------- run

def cmd_run(args) -> int:
    """``pipeline.run`` over the run config ``--config``, into ``--out`` or
    the config's out_dir; ``--seed`` replaces the config's ``seeds.base``."""
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    obj = load_json(args.config)
    with naming_file(args.config):
        config = RunConfig.from_json_obj(obj)
    if args.seed is not None:
        check_seed_range("--seed", args.seed, config.seeds.scenes)
        config = dataclasses.replace(
            config, seeds=dataclasses.replace(config.seeds, base=args.seed))
    out_dir = Path(args.out or config.out_dir)
    summary = pipeline.run(config, out_dir, args.jobs)
    print(f"run complete -> {out_dir}")
    for note in summary["notes"]:
        print(f"note: {note}")
    return 0
