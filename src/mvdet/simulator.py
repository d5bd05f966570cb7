"""Synthetic multi-camera scenes.

Stands in for real driving data: classed 3D boxes with velocities are
rejection-sampled without overlap, per-view 2D ground truth is derived by
projection, and analytic feature/depth maps give the decoder's sampling
something to read.  Everything is deterministic under its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._kernels import box_points
from .geometry import (
    Boxes2D, CameraView, column, finite_rows, load_json, naming_file, project_rig,
    rig_from_json_obj,
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
        if self.jitter_px < 0 or self.jitter_m < 0 or not (0.0 <= self.score_spread <= 1.0):
            raise ValueError("bad noise magnitudes")

    def drop_for(self, view_id: int) -> float:
        if isinstance(self.drop_prob, dict):
            return self.drop_prob.get(view_id, 0.0)
        return self.drop_prob

    @classmethod
    def from_json_obj(cls, obj: dict) -> "OracleNoise":
        drop = obj.get("drop_prob", 0.0)
        if isinstance(drop, dict):
            drop = {int(k): float(v) for k, v in drop.items()}
        return cls(
            drop_prob=drop,
            jitter_px=float(obj.get("jitter_px", 0.0)),
            jitter_m=float(obj.get("jitter_m", 0.0)),
            drop_prob_3d=float(obj.get("drop_prob_3d", 0.0)),
            score_spread=float(obj.get("score_spread", 0.0)),
        )


@dataclass(eq=False)
class Scene:
    """One synthetic frame: classed 3D boxes and projection-derived 2D GT.

    ``anchors`` holds the (N, 9) boxes and ``classes`` their class ids; row
    j of ``gt2d`` is a 2D box of anchor ``gt2d_link[j]``.  The constructor
    takes array-likes and checks them: the boxes must be finite with
    positive sizes, and every link must name one of them, of the same class.
    """

    seed: int
    frame_id: int
    anchors: np.ndarray    # (N, 9)
    classes: np.ndarray    # (N,)
    gt2d: Boxes2D
    gt2d_link: np.ndarray  # (M,)
    rig: list[CameraView]

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
        classes = [int(b["class_id"]) for b in boxes]
        rect = [g["box"] for g in gt2d]
        view_id = [int(g["view_id"]) for g in gt2d]
        class_id = [int(g["class_id"]) for g in gt2d]
        link = [int(g["box3d_index"]) for g in gt2d]
        rig = rig_from_json_obj(obj["rig"], f"scene frame {obj['frame_id']}")
        return cls(
            seed=int(obj["seed"]),
            frame_id=int(obj["frame_id"]),
            anchors=anchors,
            classes=classes,
            gt2d=Boxes2D(rect, view_id, class_id),
            gt2d_link=link,
            rig=rig,
        )


def load_scene(path: str | Path) -> Scene:
    with naming_file(path):
        return Scene.from_json_obj(load_json(path))


def _bev_corners(anchor: np.ndarray) -> np.ndarray:
    """(4, 2) bottom-face corners of one (9,) anchor in the BEV plane."""
    return box_points(anchor[None, :])[0][1:5, :2]


def _bev_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    """Separating-axis test of two yaw-rotated rectangles given by corners."""
    for rect in (ca, cb):
        for k in range(2):
            edge = rect[k + 1] - rect[k]
            axis = np.array([-edge[1], edge[0]])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def derive_gt2d(
    anchors: np.ndarray, classes: np.ndarray, rig: Sequence[CameraView]
) -> tuple[Boxes2D, np.ndarray]:
    """Projection-derived 2D ground truth (valid views, non-degenerate
    rects) and the anchor index of each of its boxes."""
    proj = project_rig(rig, anchors)
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
    class's bound.  Raises after the attempt budget when the requested
    density is infeasible.
    """
    if not rig:
        raise ValueError("empty rig")
    ranges = ranges or SceneRanges()
    rng = np.random.default_rng(seed)
    placed: list[np.ndarray] = []
    placed_corners: list[np.ndarray] = []
    classes: list[int] = []
    attempts = 0
    budget = max_attempts_per_box * max(n_boxes, 1)
    while len(placed) < n_boxes:
        if attempts >= budget:
            raise RuntimeError(
                f"could not place {n_boxes} boxes in {budget} attempts; "
                "scene too dense for the sampling ranges"
            )
        attempts += 1
        cls = int(rng.integers(len(CLASS_PRIORS)))
        _, mean_size, jitter, vmax = CLASS_PRIORS[cls]
        size = np.asarray(mean_size) * np.exp(jitter * rng.uniform(-1.0, 1.0, 3))
        x = rng.uniform(*ranges.x)
        y = rng.uniform(*ranges.y)
        yaw = rng.uniform(-np.pi, np.pi)
        vel = vmax * rng.uniform(-1.0, 1.0, 2)
        cand = np.array(
            [x, y, size[2] / 2.0, size[0], size[1], size[2], yaw, vel[0], vel[1]]
        )
        corners = _bev_corners(cand)
        if any(_bev_overlap(corners, p) for p in placed_corners):
            continue
        placed.append(cand)
        placed_corners.append(corners)
        classes.append(cls)
    anchors = np.stack(placed) if placed else np.zeros((0, 9))
    gt2d, link = derive_gt2d(anchors, classes, rig)
    return Scene(seed=seed, frame_id=frame_id, anchors=anchors, classes=classes,
                 gt2d=gt2d, gt2d_link=link, rig=list(rig))


def perturb(scene: Scene, noise: OracleNoise | None = None, seed: int = 0) -> Detections:
    """Drop/perturb ground truth into scored pseudo-detections.

    Zero noise reproduces the ground truth exactly with score 1.0.
    """
    noise = noise or OracleNoise()
    rng = np.random.default_rng(seed)

    def score() -> float:
        return float(1.0 - noise.score_spread * rng.uniform())

    keep3, centers, scores3 = [], [], []
    for i, box in enumerate(scene.anchors):
        if noise.drop_prob_3d > 0.0 and rng.uniform() < noise.drop_prob_3d:
            continue
        keep3.append(i)
        centers.append(box[0:3] + noise.jitter_m * rng.uniform(-1.0, 1.0, 3))
        scores3.append(score())
    boxes3d = scene.anchors[keep3]
    boxes3d[:, 0:3] = np.reshape(centers, (-1, 3))
    gt = scene.gt2d
    keep2, rect, scores2 = [], [], []
    for j, ((cx, cy, w, h), view_id) in enumerate(zip(gt.rect.tolist(), gt.view_id.tolist())):
        drop = noise.drop_for(view_id)
        if drop > 0.0 and rng.uniform() < drop:
            continue
        keep2.append(j)
        cx = cx + noise.jitter_px * rng.uniform(-1.0, 1.0)
        cy = cy + noise.jitter_px * rng.uniform(-1.0, 1.0)
        rect.append((cx, cy, w, h))
        scores2.append(score())
    return Detections(
        boxes3d=boxes3d, classes3d=scene.classes[keep3], scores3d=scores3,
        boxes2d=Boxes2D(rect, gt.view_id[keep2], gt.class_id[keep2]), scores2d=scores2,
    )


def render_features(
    scene: Scene,
    rig: Sequence[CameraView],
    scales: Sequence[int] = (8, 16),
    channels: int = 16,
) -> RigFeatures:
    """Analytic feature maps of every view, one per scale.

    Each map holds one Gaussian bump per visible box at its reference point
    (amplitude class_id + 1, identical across channels): the bumps are
    summed in one (H, W) plane, copied into every channel of the view's
    atlas rows at the end.
    """
    proj = project_rig(rig, scene.anchors)
    amps = (scene.classes + 1).tolist()
    sizes = [[(max(v.width // s, 1), max(v.height // s, 1)) for v in rig] for s in scales]
    features = RigFeatures(rig, sizes, channels)
    for k, view in enumerate(rig):
        valid, ref_point, rect = proj.valid[k], proj.ref_point[k], proj.rect[k]
        for si in range(len(scales)):
            fmap = features.view_map(si, k)
            hm, wm = fmap.shape[0], fmap.shape[1]
            plane = np.zeros((hm, wm))
            gy, gx = np.mgrid[0:hm, 0:wm]
            for i in np.flatnonzero(valid):
                u, v = ref_point[i]
                mx = u * (wm / view.width) - 0.5
                my = v * (hm / view.height) - 0.5
                sigma = max(float(rect[i, 2]) * (wm / view.width) / 4.0, 0.75)
                bump = amps[i] * np.exp(
                    -((gx - mx) ** 2 + (gy - my) ** 2) / (2.0 * sigma * sigma)
                )
                plane += bump
            fmap[...] = plane[:, :, None]
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
