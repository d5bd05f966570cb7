"""Command-line front end: simulate, allocate, forward, evaluate, run.

All subcommands honor --seed and are reproducible; the MVDET_LOG
environment variable sets the logging level.  `run` executes the whole
pipeline end to end and writes scenes, allocations, head outputs and the
metrics CSVs into the output directory.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
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
from .geometry import (
    Boxes2D, anchors_to_array, dump_json, integer, json_bytes, load_json, load_rig,
    make_surround_rig, naming_file, reject_unknown_keys, save_rig,
)
from .groupattn import AttentionParams, attention
from .metrics import (
    Detections,
    MatchParams,
    aar,
    ap_2d,
    detections_to_json_obj,
    mean_ap,
    parse_detections,
)
from .simulator import (
    OracleNoise, Scene, blank_features, load_scene, perturb, render_features, sample_scene,
)

log = logging.getLogger("mvdet")


def _setup_logging() -> None:
    level = os.environ.get("MVDET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# The IoU thresholds of an AAR curve, as ``_parse_sweep`` reads them.
TAU_IOU_SWEEP = "0.1:0.9:0.1"


def _parse_sweep(spec: str) -> list[float]:
    """'0.1:0.9:0.1' -> [0.1, 0.2, ..., 0.9]: IoU thresholds from lo in whole
    steps, none above hi, within [0, 1], each rounded to 10 digits.  Raises
    when that rounding repeats one."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad sweep spec {spec!r}; expected lo:hi:step") from exc
    if not (0.0 <= lo <= hi <= 1.0 and step > 0):  # NaN fails too
        raise ValueError(f"bad sweep spec {spec!r}; expected 0 <= lo <= hi <= 1, step > 0")
    n = int((hi - lo) / step + 1e-9)  # the floor, but (0.9 - 0.1) / 0.1 is 7.999999999999999
    taus = [min(round(lo + i * step, 10), hi) for i in range(n + 1)]
    if len(set(taus)) < len(taus):
        raise ValueError(f"bad sweep spec {spec!r}; step {step:g} repeats thresholds at 10 digits")
    return taus


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
        anchors = anchors_to_array(np.asarray(load_json(args.anchors)["anchors"], dtype=np.float64))
        rows = np.flatnonzero(~np.isfinite(anchors).all(axis=1))
        if rows.size:
            raise ValueError(f"anchor row {rows[0]} is not finite")
        rows = np.flatnonzero((anchors[:, 3:6] <= 0.0).any(axis=1))
        if rows.size:
            raise ValueError(f"anchor row {rows[0]} has a non-positive size")
    limits = AllocationLimits(max_truncated_per_camera=args.max_truncated)
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

# The keys of a decoder config: its preset and every DecoderConfig entry.
_DECODER_KEYS = {"preset", *DecoderConfig().to_json_obj()}


def _decoder_from_config(obj: dict) -> DecoderConfig:
    """The decoder of a forward config: a "decoder" section or, without one,
    decoder keys at the top level; "rig" may stand beside either."""
    if "decoder" in obj:
        reject_unknown_keys(obj, {"decoder", "rig"}, "forward config")
        reject_unknown_keys(obj["decoder"], _DECODER_KEYS, "forward config")
        return DecoderConfig.from_json_obj(obj["decoder"])
    reject_unknown_keys(obj, {"rig", *_DECODER_KEYS}, "forward config")
    return DecoderConfig.from_json_obj({k: v for k, v in obj.items() if k != "rig"})


def _feature_scales(config: DecoderConfig) -> tuple[int, ...]:
    """The scales of the feature maps the decoder reads: one per level, 8 px upward."""
    return tuple(8 * 2**s for s in range(config.n_scales))


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
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        config = dataclasses.replace(config, seed=args.seed)
    decoder = HybridDecoder(config, rig)
    out, updated = decoder.forward(
        render_features(scene, rig, _feature_scales(config)), decoder.initial_queries()
    )
    report = out.to_json_obj()
    report["n_sublayers"] = out.n_sublayers
    report["final_scores"] = updated.scores.tolist() if updated.scores is not None else None
    dump_json(report, args.out, indent=True)
    if args.out:
        print(f"forward: {out.n_sublayers} sub-layers, "
              f"{len(out.layers_2d)} 2D / {len(out.layers_3d)} 3D emissions -> {args.out}")
    return 0


# ------------------------------------------------------------------ eval-aar

def _aar_curve_rows(scenes, det_by_frame, params, taus):
    """The AAR curve of every scene pooled, one (tau, aar, recall,
    n_candidate, n_valid) row per threshold; a scene without detections
    counts as one with none."""
    dets = [det_by_frame.get(scene.frame_id) or Detections.empty() for scene in scenes]
    return aar(dets, scenes, params, taus=taus).curve


def _aar_csv_lines(rows) -> list[str]:
    return ["tau_iou,aar,recall,n_candidate,n_valid"] + [
        f"{tau},{a!r},{r!r},{c},{v}" for tau, a, r, c, v in rows
    ]


def _ap_csv_lines(ap: dict[int, dict[float, float]]) -> list[str]:
    lines = ["class_id,iou_threshold,ap"]
    for cls in sorted(ap):
        for thr in sorted(ap[cls]):
            lines.append(f"{cls},{thr},{ap[cls][thr]!r}")
    lines.append(f"mean,,{mean_ap(ap)!r}")
    return lines


def _write_csv(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _eval_inputs(args) -> tuple[list[Scene], dict]:
    """``--gt``'s scenes and ``--pred``'s detections by frame id, each frame with a scene."""
    scenes = _load_gt_scenes(args.gt)
    det_by_frame = parse_detections(load_json(args.pred), source=str(args.pred))
    extra = set(det_by_frame) - {scene.frame_id for scene in scenes}
    if extra:
        raise ValueError(f"{args.pred}: frame_id {min(extra)} has no scene in {args.gt}")
    return scenes, det_by_frame


def cmd_eval_aar(args) -> int:
    with naming_file("--tau-dis"):
        params = MatchParams(tau_dis=args.tau_dis)
    with naming_file("--tau-iou-sweep"):
        taus = _parse_sweep(args.tau_iou_sweep)
    scenes, det_by_frame = _eval_inputs(args)
    rows = _aar_curve_rows(scenes, det_by_frame, params, taus)
    _write_csv(_aar_csv_lines(rows), args.out)
    if args.out:
        print(f"AAR curve over {len(scenes)} scene(s) -> {args.out}")
    return 0


def _ap_inputs(scenes, det_by_frame):
    """Pool 2D predictions, their scores and the 2D GT across frames, one
    view id per (frame, view).

    Greedy AP matching pairs boxes within a view id, so every (frame, view)
    pair gets its own id, numbered densely in sorted pair order; matches
    stay inside their own frame.
    """
    dets = [det_by_frame.get(scene.frame_id) or Detections.empty() for scene in scenes]
    tables = [det.boxes2d for det in dets] + [scene.gt2d for scene in scenes]
    frame_ids = [scene.frame_id for scene in scenes] * 2
    keys = np.stack([np.repeat(frame_ids, [len(t) for t in tables]).astype(np.intp),
                     np.concatenate([t.view_id for t in tables])], axis=1)
    dense = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    n_pred = sum(len(det.boxes2d) for det in dets)

    def pooled(parts, ids):
        return Boxes2D(np.concatenate([t.rect for t in parts]), ids,
                       np.concatenate([t.class_id for t in parts]))

    return (pooled(tables[:len(dets)], dense[:n_pred]),
            np.concatenate([det.scores2d for det in dets]),
            pooled(tables[len(dets):], dense[n_pred:]))


def cmd_eval_ap(args) -> int:
    with naming_file("--iou-thresholds"):
        thresholds = _iou_thresholds(args.iou_thresholds.split(","))
    scenes, det_by_frame = _eval_inputs(args)
    ap = ap_2d(*_ap_inputs(scenes, det_by_frame), thresholds)
    _write_csv(_ap_csv_lines(ap), args.out)
    if args.out:
        print(f"AP table -> {args.out}")
    return 0


# ---------------------------------------------------------------- crop-views

def cmd_crop_views(args) -> int:
    views = load_rig(args.rig)
    rules = load_crop_rules(args.rig)
    if not rules:
        if args.source_views:
            ids = [int(v) for v in args.source_views.split(",")]
        else:
            ids = [views[0].view_id]
            if len(views) > 1:
                ids.append(views[len(views) // 2].view_id)  # front and rear
        rules = [
            CropRule(source_view_id=i, placement=args.placement,
                     scale_rate=args.scale_rate)
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
    noise_cfg = NoiseConfig(n_groups=args.groups)
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
        "groups": args.groups,
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

# Query rows one decoder pass of `run` may hold: its scenes are cut into
# batches of max(1, BATCH_ROWS // n_queries) consecutive scenes, 16 at 64
# queries and one at 900.
BATCH_ROWS = 1024


class _Failed(Exception):
    """A failed step of a batch; args are the name of the scenes it ran on
    and the exception it raised, which pickle along from a worker."""


@contextlib.contextmanager
def _naming(scenes: str):
    """Re-raise a failure of the block as ``_Failed`` naming ``scenes``."""
    try:
        yield
    except Exception as exc:
        raise _Failed(scenes, exc) from exc


def _batch_name(first: int, seeds: range) -> str:
    """'scene 3 (seed 3)', or 'scenes 0-15 (seeds 0-15)' for a batch of several."""
    if len(seeds) == 1:
        return f"scene {first} (seed {seeds[0]})"
    return f"scenes {first}-{first + len(seeds) - 1} (seeds {seeds[0]}-{seeds[-1]})"


def _run_batch(payload: tuple) -> list[tuple]:
    """Worker: the pipeline of a batch of consecutive scenes on the run's
    one decoder, from the run's one decoder prefix.  Each scene is sampled,
    allocated, rendered into the batch's feature maps and perturbed in
    turn, then one decoder pass decodes them all.  Returns each scene's
    sampled scene, allocation, head outputs and detections."""
    (first, seeds, decoder, queries, prefix, noise, n_boxes) = payload
    config, rig = decoder.config, decoder.rig
    scales = _feature_scales(config)
    features = blank_features(rig, scales, len(seeds))
    done = []
    for slot, seed in enumerate(seeds):
        with _naming(_batch_name(first + slot, range(seed, seed + 1))):
            scene = sample_scene(seed, rig, n_boxes=n_boxes, frame_id=first + slot)
            # the scene's one projection serves its features and, where the
            # clamp left the anchors as sampled, its allocation; the run
            # keeps the scene, not the projection
            proj, scene.projection = scene.projection, None
            anchors = clamp_anchors(scene.anchors, config.limits)
            alloc = allocate(anchors, rig, config.limits,
                             projection=proj if np.array_equal(anchors, scene.anchors) else None)
            render_features(scene, rig, scales, projection=proj, into=features, slot=slot)
            done.append((scene, alloc, perturb(scene, noise, seed=seed + 1)))
    with _naming(_batch_name(first, seeds)):
        heads, _ = decoder.forward_scenes(features, queries, len(seeds), prefix=prefix)
    return [(scene, alloc, head_out, det) for (scene, alloc, det), head_out in zip(done, heads)]


def _batch_result(payload: tuple, result) -> list[tuple]:
    """``result()`` of one batch; a failure names its scene and seed, or
    the batch's scenes and seeds when it is not one scene's."""
    try:
        return result()
    except _Failed as failed:
        scenes, cause = failed.args
    except Exception as exc:  # the worker pool failed
        scenes, cause = _batch_name(*payload[:2]), exc
    raise RuntimeError(f"{scenes} failed: {cause}") from cause


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads():
    """The set and get thread-count calls of NumPy's bundled OpenBLAS, or
    None where it exports neither under these names."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


def _cap_blas_threads() -> int | None:
    """Cap NumPy's OpenBLAS at one thread, unless the environment sets a BLAS
    thread count or the library has no such call; returns the count it
    replaced, or None when it left BLAS alone.

    ``run`` computes on the threads it owns (scene workers and the
    attention helper); BLAS threads on top would oversubscribe the CPUs.
    """
    calls = None if any(v in os.environ for v in _BLAS_THREAD_VARS) else _openblas_threads()
    if calls is None:
        return None
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    return before


@contextlib.contextmanager
def _one_blas_thread():
    """``_cap_blas_threads`` for the duration of the block."""
    before = _cap_blas_threads()
    try:
        yield
    finally:
        if before is not None:
            _openblas_threads()[0](before)


def _batch_results(payloads: list[tuple], jobs: int):
    """Each batch's results in batch order, each as soon as it is ready.

    With ``jobs > 1`` the batches run in a process pool; when one fails,
    the batches not yet started are cancelled before the error propagates.
    """
    if jobs <= 1:
        for p in payloads:
            yield _batch_result(p, functools.partial(_run_batch, p))
        return
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs,
                                                  initializer=_cap_blas_threads)
    try:
        futures = collections.deque(pool.submit(_run_batch, p) for p in payloads)
        for p in payloads:
            yield _batch_result(p, futures.popleft().result)
    finally:
        pool.shutdown(cancel_futures=True)


def _write_scene(out_dir: str, result: tuple) -> tuple[bytes, list[tuple[str, bytes]]]:
    """Encode the scene, allocation, head-output and prediction files of one
    scene under ``out_dir``; returns the scene file's bytes (for
    gt_scenes.json) and the four (path, bytes) writes, which ``cmd_run``
    hands to its writer thread."""
    scene, alloc, head_out, det = result
    scene_bytes = json_bytes(scene.to_json_obj())
    name = f"{scene.frame_id:04d}.json"
    return scene_bytes, [
        (f"{out_dir}/scenes/scene_{name}", scene_bytes),
        (f"{out_dir}/alloc/alloc_{name}", json_bytes(alloc.to_json_obj())),
        (f"{out_dir}/forward/forward_{name}", json_bytes(head_out.to_json_obj())),
        (f"{out_dir}/pred/pred_{name}",
         json_bytes(detections_to_json_obj({scene.frame_id: det}))),
    ]


def _write_files(writes: collections.deque) -> None:
    """Write each (path, bytes) pair in order, taking it off ``writes`` so
    that its bytes are freed once written; stop at the first failure,
    re-raised as an OSError that names its path."""
    while writes:
        path, data = writes.popleft()
        try:
            with open(path, "wb") as f:
                f.write(data)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc


@contextlib.contextmanager
def _file_writer():
    """Yield ``queue(writes)``, which hands a batch's deque of (path, bytes)
    writes to one thread of its own (``mvdet-writer``), where they run in
    order.

    File creation is kernel time that releases the GIL, so the writes of
    batch k overlap the computing of batch k+1.  ``queue`` first waits for
    the writes queued before, so at most one batch's files are in flight,
    and re-raises their first failure.  Leaving the block waits for the
    last writes and joins the thread, also when the block fails; a write
    failure then takes the place of the block's error, which it chains.
    The executor is made on the first ``queue``, after a process pool that
    ``run`` starts has forked its workers.
    """
    pool, pending = None, None

    def drain() -> None:
        nonlocal pending
        if pending is not None:
            done, pending = pending, None
            done.result()

    def queue(writes: collections.deque) -> None:
        nonlocal pool, pending
        drain()
        if pool is None:
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="mvdet-writer")
        pending = pool.submit(_write_files, writes)

    try:
        yield queue
    finally:
        try:
            drain()
        finally:
            if pool is not None:
                pool.shutdown()


@contextlib.contextmanager
def _scene_set(path: Path):
    """Write ``path`` as a compact scene set, one scene at a time: yields a
    function that appends one scene's compact JSON bytes.  The file holds the
    bytes ``dump_json`` writes for the whole set; a failed block removes it."""
    with open(path, "wb") as f:
        f.write(b'{"format":"mvdet-scene-set/1","scenes":[')
        separator = b""

        def add(scene_bytes: bytes) -> None:
            nonlocal separator
            f.write(separator + scene_bytes.rstrip(b"\n"))
            separator = b","

        try:
            yield add
        except BaseException:
            f.close()
            path.unlink()
            raise
        f.write(b"]}\n")


# The keys a run config may hold; those of its sections as "section.key".
_RUN_KEYS = {
    "out_dir", "preset", "decoder", "rig", "views", "crop_rules", "seeds", "boxes",
    "noise", "tau_dis", "tau_iou_sweep", "seeds.base", "seeds.scenes",
    *(f"decoder.{key}" for key in _DECODER_KEYS),
    *(f"noise.{f.name}" for f in dataclasses.fields(OracleNoise)),
}


def _check_run_keys(cfg: dict) -> None:
    """Reject a key the run config does not read, naming the key."""
    keys = [*cfg, *(f"{s}.{k}" for s in ("seeds", "noise", "decoder") for k in cfg.get(s, {}))]
    reject_unknown_keys(keys, _RUN_KEYS, "run config")


def _config_int(value, name: str) -> int:
    """Run config value ``name`` as an int: an integer, or a string that
    ``int`` reads; a bool or a float raises."""
    return int(value) if isinstance(value, str) else integer(value, name)


def cmd_run(args) -> int:
    """The whole pipeline over a run config: decode the scenes in batches,
    write each scene's four files, then score every scene at once.

    The main thread computes the batches (``--jobs 1``) or merges them from
    the worker processes, in order, and encodes each scene's files as
    bytes.  A batch's writes then go to the ``mvdet-writer`` thread, in
    scene order, while the next batch is computed; at most one batch's
    files are in flight (``_file_writer``).  The writer is drained before
    the metrics and, on a failure, before the error propagates and before
    ``_scene_set`` removes gt_scenes.json, so the files of the scenes
    written before the failure stay.  The run's threads are the main
    thread, the attention helper (``mvdet-attention``, one per process, see
    ``groupattn``) and the writer, which is made after a ``--jobs`` pool
    has forked its workers and is joined before this returns; a ``--jobs``
    pool adds its own manager thread.
    """
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    cfg = load_json(args.config)
    with naming_file(args.config):
        _check_run_keys(cfg)
        decoder_obj = dict(cfg.get("decoder", {}))
        top, inner = cfg.get("preset"), decoder_obj.get("preset")
        if None not in (top, inner) and top != inner:
            raise ValueError(f"preset {top!r} and decoder.preset {inner!r} differ")
        preset = decoder_obj["preset"] = inner if top is None else top
        config = DecoderConfig.from_json_obj(decoder_obj)
        n_views = _config_int(cfg.get("views", 6), "views")
        rules = [CropRule.from_json_obj(r) for r in cfg.get("crop_rules", [])]
        seeds = cfg.get("seeds", {})
        base_seed = _config_int(seeds.get("base", 0), "seeds.base")
        base_seed = base_seed if args.seed is None else args.seed
        if base_seed < 0:
            raise ValueError(f"seeds.base must be non-negative, got {base_seed}")
        n_scenes = _config_int(seeds.get("scenes", 4), "seeds.scenes")
        if n_scenes < 1:
            raise ValueError(f"seeds.scenes must be positive, got {n_scenes}")
        n_boxes = _config_int(cfg.get("boxes", 15), "boxes")
        if n_boxes < 0:
            raise ValueError(f"boxes must be non-negative, got {n_boxes}")
        noise = OracleNoise.from_json_obj(cfg.get("noise", {}))
        taus = _parse_sweep(cfg.get("tau_iou_sweep", TAU_IOU_SWEEP))
        params = MatchParams(tau_dis=float(cfg.get("tau_dis", MatchParams.tau_dis)))
        if cfg.get("rig"):
            rig_path = Path(cfg["rig"])
            if not rig_path.exists():
                raise FileNotFoundError(f"rig file not found: {rig_path}")
            rig = load_extended_rig(rig_path)
        else:
            rig = make_surround_rig(n_views)
        if rules:
            rig = extend_rig(rig, rules)
        decoder = HybridDecoder(config, rig)
    out_dir = Path(args.out if args.out else cfg.get("out_dir", "mvdet-out"))
    for sub in ("scenes", "alloc", "forward", "pred", "metrics"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    save_rig(rig, out_dir / "rig.json")

    # Only what the metrics need outlives a batch's results.
    scenes, det_by_frame = [], {}
    per_batch = max(1, BATCH_ROWS // config.n_queries)
    with _one_blas_thread(), _scene_set(out_dir / "gt_scenes.json") as add_scene:
        queries = decoder.initial_queries()
        prefix = decoder.prefix(queries)  # the same for every scene
        payloads = [
            (first, range(base_seed + first, base_seed + min(first + per_batch, n_scenes)),
             decoder, queries, prefix, noise, n_boxes)
            for first in range(0, n_scenes, per_batch)
        ]
        with contextlib.closing(_batch_results(payloads, args.jobs)) as batches, \
                _file_writer() as queue_writes:
            for batch in batches:
                writes = collections.deque()
                for result in batch:
                    scenes.append(result[0])
                    det_by_frame[result[0].frame_id] = result[3]
                    scene_bytes, scene_writes = _write_scene(str(out_dir), result)
                    add_scene(scene_bytes)
                    writes += scene_writes
                queue_writes(writes)
                # let them go before the next batch is computed; the writer
                # frees each file's bytes once written
                del batch, result, writes, scene_bytes, scene_writes

    rows = _aar_curve_rows(scenes, det_by_frame, params, taus)
    _write_csv(_aar_csv_lines(rows), str(out_dir / "metrics" / "aar_curve.csv"))

    ap = ap_2d(*_ap_inputs(scenes, det_by_frame), [0.5, 0.75])
    _write_csv(_ap_csv_lines(ap), str(out_dir / "metrics" / "ap.csv"))

    no_2d = config.l_2d == 0
    summary = {
        "scenes": n_scenes,
        "views": len(rig),
        "decoder": config.to_json_obj(),
        "preset": preset,
        "notes": ["no 2D outputs (allocation skipped: l_2d = 0)"] if no_2d else [],
        "aar_at_0.5": next((a for t, a, *_ in rows if abs(t - 0.5) < 1e-9), None),
        "mean_ap": mean_ap(ap),
    }
    dump_json(summary, out_dir / "summary.json", indent=True)
    print(f"run complete -> {out_dir}")
    if no_2d:
        print("note: no 2D outputs (allocation skipped: l_2d = 0)")
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdet",
        description="Multi-camera 2D/3D detection core: simulation, "
                    "allocation, decoding and association metrics.",
    )
    parser.add_argument("--version", action="version", version=f"mvdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample synthetic scenes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rig", help="rig JSON (default: built-in 6-camera rig)")
    p.add_argument("--views", type=int, default=6, help="views for the built-in rig")
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--boxes", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("allocate", help="build the 3D-to-2D mapping for anchors")
    p.add_argument("--rig", required=True)
    p.add_argument("--anchors", required=True, help='JSON: {"anchors": [[9 floats],...]}')
    p.add_argument("--out", help="output JSON (default stdout)")
    p.add_argument("--max-truncated", type=int,
                   default=AllocationLimits.max_truncated_per_camera)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("forward", help="run the hybrid decoder on a scene")
    p.add_argument("--config", required=True, help="decoder config JSON")
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, help="override the decoder seed")
    p.add_argument("--out", help="output JSON (default stdout)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("eval-aar", help="association accuracy / recall curves")
    p.add_argument("--gt", required=True, help="scene or scene-set JSON")
    p.add_argument("--pred", required=True, help="detections JSON")
    p.add_argument("--tau-dis", type=float, default=MatchParams.tau_dis)
    p.add_argument("--tau-iou-sweep", default=TAU_IOU_SWEEP)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_eval_aar)

    p = sub.add_parser("eval-ap", help="11-point interpolated 2D AP")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou-thresholds", default="0.5")
    p.add_argument("--out", help="output CSV (default stdout)")
    p.set_defaults(func=cmd_eval_ap)

    p = sub.add_parser("crop-views", help="extend a rig with crop-and-scale views")
    p.add_argument("--rig", required=True)
    p.add_argument("--source-views", help="comma-separated view ids (default front+rear)")
    p.add_argument("--placement", default=CropRule.placement)
    p.add_argument("--scale-rate", type=float, default=CropRule.scale_rate)
    p.add_argument("--out", help="output rig JSON (default stdout)")
    p.set_defaults(func=cmd_crop_views)

    p = sub.add_parser("denoise-demo", help="propagating-denoising round trip")
    p.add_argument("--scene", required=True)
    p.add_argument("--groups", type=int, default=NoiseConfig.n_groups)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output JSON (default stdout)")
    p.set_defaults(func=cmd_denoise_demo)

    p = sub.add_parser("run", help="end-to-end pipeline")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="override the config base seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel scene workers")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # diagnostic + non-zero exit for any module error
        log.debug("traceback", exc_info=True)
        print(f"mvdet {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
