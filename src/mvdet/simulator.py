"""Synthetic multi-camera scenes.

Stands in for real driving data: classed 3D boxes with velocities are
rejection-sampled without overlap, per-view 2D ground truth is derived by
projection, and analytic feature/depth maps give the decoder's sampling
something to read.  Everything is deterministic under its seed.

The per-scene work runs as array operations: a candidate box is tested
against every placed box by one batched separating-axis expression, and
perturbations draw their doubles as one block, each with the bits of the
per-candidate and per-box loops it replaced.  A view's Gaussian feature
bumps are separable, so its plane at each scale is one (H, B) @ (B, W)
product of 1-D Gaussians.  A sampled scene's one rig projection serves its
ground truth, its feature maps and (through ``mvdet run``) its allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import (
    Boxes2D, CameraView, RigProjection, column, finite_rows, integer, load_json, naming_file,
    project_rig, real, rig_from_json_obj, view_key,
)
from .groupattn import RigFeatures
from .metrics import Detections

# (name, mean size (w, l, h), log-size jitter, max |velocity|)
CLASS_PRIORS = (
    ("car", (1.9, 4.5, 1.6), 0.15, 8.0),
    ("truck", (2.5, 8.0, 3.0), 0.20, 6.0),
    ("pedestrian", (0.6, 0.6, 1.7), 0.10, 1.5),
    ("cyclist", (0.6, 1.8, 1.4), 0.15, 4.0),
    ("cone", (0.4, 0.4, 0.8), 0.10, 0.0),
)


@dataclass(frozen=True)
class SceneRanges:
    """Spatial extents boxes are sampled from (ground plane at z = 0)."""

    x: tuple[float, float] = (-50.0, 50.0)
    y: tuple[float, float] = (-50.0, 50.0)

    def __post_init__(self):
        if self.x[1] <= self.x[0] or self.y[1] <= self.y[0]:
            raise ValueError("ranges must be positive-width intervals")


@dataclass(frozen=True)
class OracleNoise:
    """Perturbation model turning ground truth into pseudo-detections.

    ``drop_prob`` applies per 2D ground-truth entry (scalar, or a per-view
    map); ``jitter_px``/``jitter_m`` bound uniform center jitter of 2D/3D
    boxes; ``score_spread`` lowers scores by up to that amount.  All zero
    reproduces the ground truth with score 1.
    """

    drop_prob: float | dict[int, float] = 0.0
    jitter_px: float = 0.0
    jitter_m: float = 0.0
    drop_prob_3d: float = 0.0
    score_spread: float = 0.0

    def __post_init__(self):
        probs = list(self.drop_prob.values()) if isinstance(self.drop_prob, dict) else [self.drop_prob]
        for p in probs + [self.drop_prob_3d]:
            if not (0.0 <= p <= 1.0):
                raise ValueError("drop probabilities must lie in [0, 1]")
        for name in ("jitter_px", "jitter_m"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not (0.0 <= self.score_spread <= 1.0):
            raise ValueError("bad noise magnitudes")

    def drop_for(self, view_id: int) -> float:
        if isinstance(self.drop_prob, dict):
            return self.drop_prob.get(view_id, 0.0)
        return self.drop_prob

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OracleNoise":
        """Noise from a JSON dict of numbers (``drop_prob`` may map view ids,
        keys that ``view_key`` reads, to numbers); an absent key takes its
        field's default."""
        def value(v, name):
            if isinstance(v, dict):
                return {view_key(k, name): real(p, name) for k, p in v.items()}
            return real(v, name)

        return cls(**{f.name: value(obj[f.name], f.name) for f in fields(cls) if f.name in obj})


@dataclass(eq=False)
class Scene:
    """One synthetic frame: classed 3D boxes and projection-derived 2D GT.

    ``anchors`` holds the (N, 9) boxes and ``classes`` their class ids; row
    j of ``gt2d`` is a 2D box of anchor ``gt2d_link[j]``.  The constructor
    takes array-likes and checks them: the boxes must be finite with
    positive sizes, and every link must name one of them, of the same class.
    A sampled scene keeps in ``projection`` the rig projection of its
    anchors that ``gt2d`` was derived from; it is not part of the JSON form.
    """

    seed: int
    frame_id: int
    anchors: np.ndarray    # (N, 9)
    classes: np.ndarray    # (N,)
    gt2d: Boxes2D
    gt2d_link: np.ndarray  # (M,)
    rig: list[CameraView]
    projection: RigProjection | None = field(default=None, repr=False)

    def __post_init__(self):
        self.anchors = finite_rows(self.anchors, 9, "3D box")
        bad = np.flatnonzero((self.anchors[:, 3:6] <= 0.0).any(axis=1))
        if bad.size:
            raise ValueError(f"3D box {bad[0]} sizes must be positive, "
                             f"got {self.anchors[bad[0], 3:6].tolist()}")
        n = len(self.anchors)
        self.classes = column(self.classes, np.intp, n, "class_id")
        self.gt2d_link = column(self.gt2d_link, np.intp, len(self.gt2d), "box3d_index")
        bad = np.flatnonzero((self.gt2d_link < 0) | (self.gt2d_link >= n))
        if bad.size:
            raise ValueError(f"gt2d box {bad[0]} links to 3D box {self.gt2d_link[bad[0]]}; "
                             f"the scene has {n}")
        bad = np.flatnonzero(self.gt2d.class_id != self.classes[self.gt2d_link])
        if bad.size:
            j, box = bad[0], self.gt2d_link[bad[0]]
            raise ValueError(f"gt2d box {j} has class_id {self.gt2d.class_id[j]}, "
                             f"but its 3D box {box} has class_id {self.classes[box]}")

    def to_json_obj(self) -> dict:
        gt = self.gt2d
        return {
            "format": "mvdet-scene/1",
            "seed": int(self.seed),
            "frame_id": int(self.frame_id),
            "rig": [v.to_json_obj() for v in self.rig],
            "boxes": [
                {"box": box, "class_id": c}
                for box, c in zip(self.anchors.tolist(), self.classes.tolist())
            ],
            "gt2d": [
                {"box": rect, "view_id": v, "class_id": c, "box3d_index": i}
                for rect, v, c, i in zip(gt.rect.tolist(), gt.view_id.tolist(),
                                         gt.class_id.tolist(), self.gt2d_link.tolist())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Scene":
        if obj.get("format") != "mvdet-scene/1":
            raise ValueError(f"not a scene file: format={obj.get('format')!r}")
        boxes, gt2d = obj["boxes"], obj["gt2d"]
        anchors = [b["box"] for b in boxes]
        classes = [integer(b["class_id"], "class_id") for b in boxes]
        rect = [g["box"] for g in gt2d]
        view_id = [integer(g["view_id"], "view_id") for g in gt2d]
        class_id = [integer(g["class_id"], "class_id") for g in gt2d]
        link = [integer(g["box3d_index"], "box3d_index") for g in gt2d]
        rig = rig_from_json_obj(obj["rig"], f"scene frame {obj['frame_id']}")
        return cls(
            seed=integer(obj["seed"], "seed"),
            frame_id=integer(obj["frame_id"], "frame_id"),
            anchors=anchors,
            classes=classes,
            gt2d=Boxes2D(rect, view_id, class_id),
            gt2d_link=link,
            rig=rig,
        )


def load_scene(path: str | Path) -> Scene:
    with naming_file(path):
        return Scene.from_json_obj(load_json(path))


# box_points' bottom-face corner signs as (length, width) pairs,
# counter-clockwise from (+x, +y)
_BEV_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
_MEAN_SIZES = np.array([prior[1] for prior in CLASS_PRIORS])


def _bev_rect(x: float, y: float, w: float, l: float, yaw: float):
    """(4, 2) bottom-face BEV corners of one box and (2, 2) normals of its
    edges 0-1 and 1-2, the axes of the separating-axis test.

    The corners carry the bits of ``box_points``: the same cosine and sine
    ufuncs, then the same products and sums, here on Python floats.
    """
    c, s = float(np.cos(yaw)), float(np.sin(yaw))
    hw, hl = 0.5 * w, 0.5 * l
    pts = [(x + (hl * sx * c - hw * sy * s), y + (hl * sx * s + hw * sy * c))
           for sx, sy in _BEV_SIGNS]
    (x0, y0), (x1, y1), (x2, y2), _ = pts
    return np.array(pts), np.array([(-(y1 - y0), x1 - x0), (-(y2 - y1), x2 - x1)])


def _separated(pairs: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Separating-axis test of rectangle pairs: ``pairs`` holds the (n, 2,
    4, 2) corners of each pair's two rectangles, ``axes`` its (n, 4, 2)
    edge normals (both rectangles' ``_bev_rect`` axes).  Returns (n,) True
    where some axis separates the pair; touching rectangles are not.

    Each rectangle goes on each axis by one (4, 2) @ (2, 1) product,
    batched, so a pair is decided with the arithmetic of ``rect @ axis``
    for that pair alone.
    """
    proj = pairs[:, :, None] @ axes[:, None, :, :, None]  # (n, 2, 4 axes, 4 corners, 1)
    c = proj.transpose(3, 0, 1, 2, 4)
    hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
    lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
    return ((hi[:, 0] < lo[:, 1]) | (hi[:, 1] < lo[:, 0])).any(axis=(1, 2))


def derive_gt2d(proj: RigProjection, classes: np.ndarray) -> tuple[Boxes2D, np.ndarray]:
    """Projection-derived 2D ground truth (valid views, non-degenerate
    rects) of anchors with projection ``proj`` and class ids ``classes``,
    and the anchor index of each of its boxes."""
    vi, ai = np.nonzero(proj.valid & (proj.rect_area > 0.0))
    return Boxes2D(proj.rect[vi, ai], proj.view_ids[vi], np.asarray(classes)[ai]), ai


def sample_scene(
    seed: int,
    rig: Sequence[CameraView],
    ranges: SceneRanges | None = None,
    n_boxes: int = 20,
    frame_id: int = 0,
    max_attempts_per_box: int = 200,
) -> Scene:
    """Rejection-sample non-overlapping classed boxes and derive 2D GT.

    Boxes rest on the ground plane; velocities are sampled within each
    class's bound.  A candidate draws its class, then its size jitter, x,
    y, yaw and velocity, whether or not earlier candidates were kept; its
    BEV rectangle is tested against all placed ones at once.  Raises after
    the attempt budget when the requested density is infeasible.  The scene
    keeps the rig projection its 2D ground truth was derived from.
    """
    if not rig:
        raise ValueError("empty rig")
    if n_boxes < 0:
        raise ValueError(f"n_boxes must be non-negative, got {n_boxes}")
    if max_attempts_per_box < 1:
        raise ValueError(f"max_attempts_per_box must be positive, got {max_attempts_per_box}")
    ranges = ranges or SceneRanges()
    x_lo, x_hi = map(float, ranges.x)
    y_lo, y_hi = map(float, ranges.y)
    rng = np.random.default_rng(seed)
    anchors = np.empty((n_boxes, 9))
    classes = np.empty(n_boxes, dtype=np.intp)
    # pair i: (candidate, placed box i) corners and their four edge normals
    pairs = np.empty((n_boxes, 2, 4, 2))
    pair_axes = np.empty((n_boxes, 4, 2))
    n = attempts = 0
    budget = max_attempts_per_box * max(n_boxes, 1)
    while n < n_boxes:
        if attempts >= budget:
            raise RuntimeError(
                f"could not place {n_boxes} boxes in {budget} attempts; "
                "scene too dense for the sampling ranges"
            )
        attempts += 1
        cls = int(rng.integers(len(CLASS_PRIORS)))
        _, _, jitter, vmax = CLASS_PRIORS[cls]
        # rng.uniform(lo, hi, k) is lo + (hi - lo) * rng.random(k): these
        # are the doubles of the size, x, y, yaw and velocity draws, in order
        u = rng.random(8)
        w, l, h = (_MEAN_SIZES[cls] * np.exp(jitter * (-1.0 + 2.0 * u[0:3]))).tolist()
        ux, uy, uyaw, uvx, uvy = u[3:].tolist()
        x = x_lo + (x_hi - x_lo) * ux
        y = y_lo + (y_hi - y_lo) * uy
        yaw = -np.pi + 2.0 * np.pi * uyaw
        # the candidate goes into every pair, and into slot n for when it is kept
        pairs[: n + 1, 0], pair_axes[: n + 1, 0:2] = _bev_rect(x, y, w, l, yaw)
        if not _separated(pairs[:n], pair_axes[:n]).all():
            continue
        anchors[n] = (x, y, h / 2.0, w, l, h, yaw,
                      vmax * (-1.0 + 2.0 * uvx), vmax * (-1.0 + 2.0 * uvy))
        classes[n], pairs[n, 1], pair_axes[n, 2:4] = cls, pairs[n, 0], pair_axes[n, 0:2]
        n += 1
    proj = project_rig(rig, anchors)
    gt2d, link = derive_gt2d(proj, classes)
    return Scene(seed=seed, frame_id=frame_id, anchors=anchors, classes=classes,
                 gt2d=gt2d, gt2d_link=link, rig=list(rig), projection=proj)


def _kept_draws(u: np.ndarray, pos: int, drop: list, n_draws: int):
    """Walk entries with drop probabilities ``drop`` through the doubles
    ``u`` from ``pos``: an entry with a positive probability first takes
    its drop test, and a kept entry then takes ``n_draws`` doubles.
    Returns the kept entries, the first double of each, and the next
    position."""
    first = np.full(len(drop), -1, dtype=np.intp)
    for i, p in enumerate(drop):
        if p > 0.0:
            pos += 1
            if u[pos - 1] < p:
                continue
        first[i] = pos
        pos += n_draws
    keep = np.flatnonzero(first >= 0)
    return keep, first[keep], pos


def perturb(scene: Scene, noise: OracleNoise | None = None, seed: int = 0) -> Detections:
    """Drop/perturb ground truth into scored pseudo-detections.

    Each 3D box, then each 2D box, draws in turn: its drop test where the
    drop probability is positive, then, when kept, its center jitter (3 or
    2 uniforms) and its score.  The doubles are drawn as one block up front
    and consumed in that order.  Zero noise reproduces the ground truth
    exactly with score 1.0.
    """
    noise = noise or OracleNoise()
    gt = scene.gt2d
    n, m = len(scene.anchors), len(gt)
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random()
    u = np.random.default_rng(seed).random(5 * n + 4 * m)
    drop2 = [noise.drop_for(v) for v in gt.view_id.tolist()]
    keep3, at3, pos = _kept_draws(u, 0, [noise.drop_prob_3d] * n, 4)
    keep2, at2, _ = _kept_draws(u, pos, drop2, 3)
    boxes3d = scene.anchors[keep3]
    boxes3d[:, 0:3] += noise.jitter_m * (-1.0 + 2.0 * u[at3[:, None] + np.arange(3)])
    rect = gt.rect[keep2]
    rect[:, 0:2] += noise.jitter_px * (-1.0 + 2.0 * u[at2[:, None] + np.arange(2)])
    return Detections(
        boxes3d=boxes3d, classes3d=scene.classes[keep3],
        scores3d=1.0 - noise.score_spread * u[at3 + 3],
        boxes2d=Boxes2D(rect, gt.view_id[keep2], gt.class_id[keep2]),
        scores2d=1.0 - noise.score_spread * u[at2 + 2],
    )


def blank_features(rig: Sequence[CameraView], scales: Sequence[int] = (8, 16),
                   n_scenes: int = 1) -> RigFeatures:
    """Unfilled feature maps of n_scenes scenes over ``rig``, one plane per
    view and scale of 1/scale its image size (at least 1), for
    ``render_features`` to fill scene by scene."""
    return RigFeatures(rig, _map_sizes(rig, scales), 1, n_scenes)


def _map_sizes(rig: Sequence[CameraView], scales: Sequence[int]) -> list:
    """(W, H) of each view's map at each scale: its image size over the scale, at least 1."""
    return [[(max(v.width // s, 1), max(v.height // s, 1)) for v in rig] for s in scales]


def render_features(
    scene: Scene,
    rig: Sequence[CameraView],
    scales: Sequence[int] = (8, 16),
    projection: RigProjection | None = None,
    into: RigFeatures | None = None,
    slot: int = 0,
) -> RigFeatures:
    """Analytic feature maps of every view, one plane per scale.

    Each map holds one Gaussian bump per visible box at its reference point
    (amplitude class_id + 1).  A bump is the outer product of a column and
    a row Gaussian, so a view-scale's B bumps are one (H, B) @ (B, W)
    product of B (H + W) exps, written into the view's one (H, W) plane of
    atlas rows; the decoder's sampler broadcasts it over its feature
    channels.  ``projection`` is ``project_rig(rig, scene.anchors)``, when
    the caller has it.  The maps go into a new ``RigFeatures``, or into
    scene ``slot`` of ``into``, a ``blank_features`` of several scenes over
    ``rig``; returns the features.
    """
    proj = project_rig(rig, scene.anchors) if projection is None else projection
    features = blank_features(rig, scales) if into is None else into
    first_view = slot * len(rig)
    if into is not None and not np.array_equal(
            into.map_size[:, first_view : first_view + len(rig)], _map_sizes(rig, scales)):
        raise ValueError(f"scene slot {slot} of the features does not hold this rig's maps")
    # visible (view, box) pairs, view-major with ascending boxes; view k's
    # are pairs first[k]:first[k + 1]
    vi, ai = np.nonzero(proj.valid)
    first = np.searchsorted(vi, np.arange(len(rig) + 1)).tolist()
    (u, v), width = proj.ref_point[vi, ai].T, proj.rect[vi, ai, 2]
    amp = (scene.classes[ai] + 1.0)[:, None]
    for si in range(len(scales)):
        wm, hm = features.map_size[si, first_view + vi].T
        img_w, img_h = features.image_size[first_view + vi].T
        fx, fy = wm / img_w, hm / img_h
        mx, my = (u * fx - 0.5)[:, None], (v * fy - 0.5)[:, None]
        sigma = np.maximum(width * fx / 4.0, 0.75)
        divisor = -(2.0 * sigma * sigma)[:, None]
        for k in range(len(rig)):
            fmap = features.view_map(si, first_view + k)
            box = slice(first[k], first[k + 1])
            gx = np.exp(np.square(np.arange(fmap.shape[1]) - mx[box]) / divisor[box])
            gy = np.exp(np.square(np.arange(fmap.shape[0]) - my[box]) / divisor[box])
            fmap[:, :, 0] = (gy * amp[box]).T @ gx
    return features


def render_depths(scene: Scene, rig: Sequence[CameraView], scale: int) -> dict[int, np.ndarray]:
    """Analytic per-view depth maps at one scale.

    Each cell holds the camera-frame center depth of the nearest box whose
    clipped rectangle covers it, infinity elsewhere.
    """
    anchors = scene.anchors
    proj = project_rig(rig, anchors)
    depths: dict[int, np.ndarray] = {}
    for view, valid, rect in zip(rig, proj.valid, proj.rect):
        hd = max(view.height // scale, 1)
        wd = max(view.width // scale, 1)
        dm = np.full((hd, wd), np.inf)
        r, t = view.rotation, view.translation
        for i in np.flatnonzero(valid):
            center = anchors[i, 0:3]
            zc = r[2, 0] * center[0] + r[2, 1] * center[1] + r[2, 2] * center[2] + t[2]
            if zc <= 0:
                continue
            cx, cy, w, h = rect[i].tolist()
            x0, y0, x1, y1 = cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h
            j0 = int(np.clip(np.floor(x0 * wd / view.width), 0, wd - 1))
            j1 = int(np.clip(np.ceil(x1 * wd / view.width), j0 + 1, wd))
            i0 = int(np.clip(np.floor(y0 * hd / view.height), 0, hd - 1))
            i1 = int(np.clip(np.ceil(y1 * hd / view.height), i0 + 1, hd))
            region = dm[i0:i1, j0:j1]
            np.minimum(region, zc, out=region)
        depths[view.view_id] = dm
    return depths
