"""The end-to-end pipeline of `mvdet run` as a library call,
`run(config, out_dir, jobs)`, over one typed `RunConfig`; its AAR and AP
helpers also serve the `eval-aar` and `eval-ap` commands.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import ctypes
import functools
import os
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .allocation import allocate, clamp_anchors
from .crop_scale import CropRule, extend_rig, load_extended_rig
from .decoder import DecoderConfig, HybridDecoder
from .geometry import (
    Boxes2D, dump_json, integer, json_bytes, make_surround_rig, real, reject_unknown_keys,
    save_rig,
)
from .metrics import MatchParams, aar, ap_2d, detections_to_json_obj, mean_ap
from .simulator import (
    OracleNoise, blank_features, check_seed_range, perturb, render_features, sample_scene,
)

# The IoU thresholds of an AAR curve, as ``parse_sweep`` reads them.
TAU_IOU_SWEEP = "0.1:0.9:0.1"

# The most thresholds a sweep may hold: step 0.001 over [0, 1].
MAX_SWEEP = 1001


def parse_sweep(spec: str) -> list[float]:
    """'0.1:0.9:0.1' -> [0.1, 0.2, ..., 0.9]: IoU thresholds from lo in whole
    steps, none above hi, within [0, 1], each rounded to 10 digits.  Raises
    when there would be more than ``MAX_SWEEP``, before making any, and when
    that rounding repeats one."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad sweep spec {spec!r}; expected lo:hi:step") from exc
    if not (0.0 <= lo <= hi <= 1.0 and step > 0):  # NaN fails too
        raise ValueError(f"bad sweep spec {spec!r}; expected 0 <= lo <= hi <= 1, step > 0")
    steps = (hi - lo) / step + 1e-9  # the floor, but (0.9 - 0.1) / 0.1 is 7.999999999999999
    if steps >= MAX_SWEEP:  # a float, which a step of 5e-324 makes infinite
        raise ValueError(f"bad sweep spec {spec!r}; expected at most {MAX_SWEEP} thresholds")
    taus = [min(round(lo + i * step, 10), hi) for i in range(int(steps) + 1)]
    if len(set(taus)) < len(taus):
        raise ValueError(f"bad sweep spec {spec!r}; step {step:g} repeats thresholds at 10 digits")
    return taus


# The keys of a decoder config: its preset and every DecoderConfig entry.
DECODER_KEYS = {"preset", *DecoderConfig().to_json_obj()}


def _read(default, value, name: str):
    """``value`` of run config entry ``name`` as its ``default`` is typed: an
    int from an integer or a string that ``int`` reads (a bool or a float
    raises), a float from a number but a bool, crop rules and sections
    through their readers, anything else as it is."""
    if isinstance(default, int):
        return int(value) if isinstance(value, str) else integer(value, name)
    if isinstance(default, float):
        return real(value, name)
    if isinstance(default, tuple):
        return tuple(CropRule.from_json_obj(rule) for rule in value)
    if is_dataclass(default):
        return type(default).from_json_obj(value)
    return value


@dataclass(frozen=True)
class Seeds:
    """The scenes of a run: scene i is sampled from seed ``base + i``."""

    base: int = 0
    scenes: int = 4

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"seeds.base must be non-negative, got {self.base}")
        if self.scenes < 1:
            raise ValueError(f"seeds.scenes must be positive, got {self.scenes}")
        check_seed_range("seeds.base", self.base, self.scenes)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Seeds":
        return cls(**{f.name: _read(f.default, obj[f.name], f"seeds.{f.name}")
                      for f in fields(cls) if f.name in obj})


@dataclass(frozen=True)
class RunConfig:
    """A run: its decoder, its rig (the built-in surround rig of ``views``
    cameras, or the rig file ``rig``) extended by ``crop_rules``, its
    scenes of ``boxes`` boxes each, the oracle noise of their detections,
    and the thresholds they are scored at.  ``preset`` is the layer
    arrangement the decoder was read with, None when the config names none.

    Making one checks every value and builds ``cameras``, the run's rig;
    a bad value raises before ``run`` writes anything.
    """

    preset: str | None = None
    decoder: DecoderConfig = DecoderConfig()
    views: int = 6
    crop_rules: tuple[CropRule, ...] = ()
    seeds: Seeds = Seeds()
    boxes: int = 15
    noise: OracleNoise = OracleNoise()
    tau_iou_sweep: str = TAU_IOU_SWEEP
    tau_dis: float = MatchParams.tau_dis
    rig: str | None = None
    out_dir: str = "mvdet-out"
    cameras: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.boxes < 0:
            raise ValueError(f"boxes must be non-negative, got {self.boxes}")
        parse_sweep(self.tau_iou_sweep)
        MatchParams(tau_dis=self.tau_dis)
        if self.rig:
            if not Path(self.rig).exists():
                raise FileNotFoundError(f"rig file not found: {Path(self.rig)}")
            cameras = load_extended_rig(self.rig)
        else:
            cameras = make_surround_rig(self.views)
        cameras = tuple(extend_rig(cameras, self.crop_rules))
        if not cameras:
            raise ValueError("empty rig")
        if isinstance(self.noise.drop_prob, dict):
            unknown = set(self.noise.drop_prob) - {view.view_id for view in cameras}
            if unknown:
                raise ValueError(f"drop_prob names unknown view {min(unknown)}")
        object.__setattr__(self, "cameras", cameras)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        """Config from a run config's JSON object: an absent key takes its
        field's default, and a key that is no field, nor one of the seeds,
        noise or decoder section, raises naming it.  "preset" may stand at
        the top level or in "decoder", but not as two different ones."""
        sections = {f.name: DECODER_KEYS if f.name == "decoder" else
                    {g.name for g in fields(f.default)}
                    for f in fields(cls) if is_dataclass(f.default)}
        reject_unknown_keys(
            [*obj, *(f"{s}.{key}" for s in sections for key in obj.get(s, {}))],
            {*(f.name for f in fields(cls) if f.init),
             *(f"{s}.{key}" for s, keys in sections.items() for key in keys)},
            "run config")
        decoder = dict(obj.get("decoder", {}))
        top, inner = obj.get("preset"), decoder.get("preset")
        if None not in (top, inner) and top != inner:
            raise ValueError(f"preset {top!r} and decoder.preset {inner!r} differ")
        decoder["preset"] = inner if top is None else top
        obj = {**obj, "preset": decoder["preset"], "decoder": decoder}
        return cls(**{f.name: _read(f.default, obj[f.name], f.name)
                      for f in fields(cls) if f.init and f.name in obj})


def feature_scales(config: DecoderConfig) -> tuple[int, ...]:
    """The scales of the feature maps the decoder reads: one per level, 8 px upward."""
    return tuple(8 * 2**s for s in range(config.n_scales))


# ------------------------------------------------------------------- metrics

def aar_csv_lines(rows) -> list[str]:
    return ["tau_iou,aar,recall,n_candidate,n_valid"] + [
        f"{tau},{a!r},{r!r},{c},{v}" for tau, a, r, c, v in rows
    ]


def ap_csv_lines(ap: dict[int, dict[float, float]]) -> list[str]:
    lines = ["class_id,iou_threshold,ap"]
    for cls in sorted(ap):
        for thr in sorted(ap[cls]):
            lines.append(f"{cls},{thr},{ap[cls][thr]!r}")
    lines.append(f"mean,,{mean_ap(ap)!r}")
    return lines


def write_csv(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def ap_inputs(scenes, dets):
    """Pool the 2D predictions of ``dets``, their scores and the 2D GT of
    ``scenes``, one frame each, across frames, one view id per (frame, view).

    Greedy AP matching pairs boxes within a view id, so every (frame, view)
    pair gets its own id, numbered densely in sorted pair order; matches
    stay inside their own frame.
    """
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
    (first, seeds, decoder, prefix, noise, n_boxes) = payload
    config, rig = decoder.config, decoder.rig
    scales = feature_scales(config)
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
        heads, _ = decoder.forward_scenes(features, len(seeds), prefix=prefix)
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
    """Encode one scene's entry of gt_scenes.json and its allocation,
    head-output and prediction files under ``out_dir``; returns the entry's
    bytes and the three (path, bytes) writes, which ``run`` hands to its
    writer thread."""
    scene, alloc, head_out, det = result
    name = f"{scene.frame_id:04d}.json"
    return json_bytes(scene.to_json_obj()), [
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


def run(config: RunConfig, out_dir: str | Path, jobs: int = 1) -> dict:
    """The whole pipeline of ``config`` into ``out_dir``: decode the scenes
    in batches, on ``jobs`` worker processes when above 1, write each
    scene's ground truth into gt_scenes.json and its allocation, head
    outputs and predictions into files of their own, then score every scene
    at once; returns summary.json.

    The main thread computes the batches (``jobs`` 1) or merges them from
    the worker processes, in order, and encodes each scene's files and
    gt_scenes.json entry as bytes.  A batch's writes then go to the
    ``mvdet-writer`` thread, in scene order, while the next batch is
    computed; at most one batch's files are in flight (``_file_writer``).
    The writer is drained before the metrics and, on a failure, before the
    error propagates and before ``_scene_set`` removes gt_scenes.json, so
    the files of the scenes written before the failure stay (their ground
    truth does not; it is sampled again from the scene's seed).  The run's
    threads are the main thread, the attention helper (``mvdet-attention``,
    one per process, see ``groupattn``) and the writer, which is made after
    a ``jobs`` pool has forked its workers and is joined before this
    returns; a ``jobs`` pool adds its own manager thread.
    """
    decoder = HybridDecoder(config.decoder, config.cameras)
    out_dir = Path(out_dir)
    for sub in ("alloc", "forward", "pred", "metrics"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    save_rig(decoder.rig, out_dir / "rig.json")

    # Only what the metrics need outlives a batch's results.
    scenes, dets = [], []
    n_scenes, base = config.seeds.scenes, config.seeds.base
    per_batch = max(1, BATCH_ROWS // config.decoder.n_queries)
    with _one_blas_thread(), _scene_set(out_dir / "gt_scenes.json") as add_scene:
        prefix = decoder.prefix()  # the same for every scene
        payloads = [
            (first, range(base + first, base + min(first + per_batch, n_scenes)),
             decoder, prefix, config.noise, config.boxes)
            for first in range(0, n_scenes, per_batch)
        ]
        with contextlib.closing(_batch_results(payloads, jobs)) as batches, \
                _file_writer() as queue_writes:
            for batch in batches:
                writes = collections.deque()
                for result in batch:
                    scenes.append(result[0])
                    dets.append(result[3])
                    scene_bytes, scene_writes = _write_scene(str(out_dir), result)
                    add_scene(scene_bytes)
                    writes += scene_writes
                queue_writes(writes)
                # let them go before the next batch is computed; the writer
                # frees each file's bytes once written
                del batch, result, writes, scene_bytes, scene_writes

    rows = aar(dets, scenes, MatchParams(tau_dis=config.tau_dis),
               taus=parse_sweep(config.tau_iou_sweep)).curve
    write_csv(aar_csv_lines(rows), str(out_dir / "metrics" / "aar_curve.csv"))

    ap = ap_2d(*ap_inputs(scenes, dets), [0.5, 0.75])
    write_csv(ap_csv_lines(ap), str(out_dir / "metrics" / "ap.csv"))

    summary = {
        "scenes": n_scenes,
        "views": len(decoder.rig),
        "decoder": config.decoder.to_json_obj(),
        "preset": config.preset,
        "notes": ["no 2D outputs (allocation skipped: l_2d = 0)"]
                 if config.decoder.l_2d == 0 else [],
        "aar_at_0.5": next((a for t, a, *_ in rows if abs(t - 0.5) < 1e-9), None),
        "mean_ap": mean_ap(ap),
    }
    dump_json(summary, out_dir / "summary.json", indent=True)
    return summary
