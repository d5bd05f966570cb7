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
    Anchor3D, Box2D, CameraView, anchors_to_array, load_json, naming_missing_keys, project_rig,
    rig_from_json_obj,
)
from .groupattn import RigFeatures
from .metrics import FrameTruth, GtBox2D, Pred2D, Pred3D

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


@dataclass
class Scene:
    """One synthetic frame: classed 3D boxes and projection-derived 2D GT."""

    seed: int
    frame_id: int
    boxes: list[tuple[Anchor3D, int]]
    gt2d: list[GtBox2D]
    rig: list[CameraView]

    def anchors_array(self) -> np.ndarray:
        return anchors_to_array([a for a, _ in self.boxes])

    def classes_array(self) -> np.ndarray:
        return np.array([c for _, c in self.boxes], dtype=np.intp)

    def truth(self) -> FrameTruth:
        return FrameTruth(
            boxes3d=self.anchors_array(),
            classes3d=self.classes_array(),
            gt2d=list(self.gt2d),
            rig=list(self.rig),
        )

    def gt2d_assoc(self) -> list[list[tuple[int, Box2D]]]:
        """Per-3D-box view associations, as the denoising module expects."""
        assoc: list[list[tuple[int, Box2D]]] = [[] for _ in self.boxes]
        for g in self.gt2d:
            assoc[g.box3d_index].append((g.box.view_id, g.box))
        return assoc

    def to_json_obj(self) -> dict:
        return {
            "format": "mvdet-scene/1",
            "seed": int(self.seed),
            "frame_id": int(self.frame_id),
            "rig": [v.to_json_obj() for v in self.rig],
            "boxes": [
                {"box": [float(x) for x in a.as_array()], "class_id": int(c)}
                for a, c in self.boxes
            ],
            "gt2d": [
                {
                    "box": [g.box.cx, g.box.cy, g.box.w, g.box.h],
                    "view_id": int(g.box.view_id),
                    "class_id": int(g.class_id),
                    "box3d_index": int(g.box3d_index),
                }
                for g in self.gt2d
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Scene":
        if obj.get("format") != "mvdet-scene/1":
            raise ValueError(f"not a scene file: format={obj.get('format')!r}")
        boxes = [
            (Anchor3D.from_array(b["box"]), int(b["class_id"])) for b in obj["boxes"]
        ]
        gt2d = [
            GtBox2D(
                box=Box2D(
                    cx=float(g["box"][0]),
                    cy=float(g["box"][1]),
                    w=float(g["box"][2]),
                    h=float(g["box"][3]),
                    view_id=int(g["view_id"]),
                ),
                class_id=int(g["class_id"]),
                box3d_index=int(g["box3d_index"]),
            )
            for g in obj["gt2d"]
        ]
        rig = rig_from_json_obj(obj["rig"], f"scene frame {obj['frame_id']}")
        return cls(
            seed=int(obj["seed"]),
            frame_id=int(obj["frame_id"]),
            boxes=boxes,
            gt2d=gt2d,
            rig=rig,
        )


def load_scene(path: str | Path) -> Scene:
    with naming_missing_keys(path):
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


def derive_gt2d(anchors: np.ndarray, classes: np.ndarray, rig: Sequence[CameraView]) -> list[GtBox2D]:
    """Projection-derived 2D ground truth (valid views, non-degenerate rects)."""
    proj = project_rig(rig, anchors)
    vi, ai = np.nonzero(proj.valid & (proj.rect_area > 0.0))
    return [
        GtBox2D(box=Box2D(*rect, view_id=view_id), class_id=int(classes[i]), box3d_index=i)
        for rect, view_id, i in zip(
            proj.rect[vi, ai].tolist(), proj.view_ids[vi].tolist(), ai.tolist()
        )
    ]


def sample_scene(
    seed: int,
    rig: Sequence[CameraView],
    ranges: SceneRanges | None = None,
    class_priors=CLASS_PRIORS,
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
        cls = int(rng.integers(len(class_priors)))
        _, mean_size, jitter, vmax = class_priors[cls]
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
    cls_arr = np.asarray(classes, dtype=np.intp)
    boxes = [(Anchor3D.from_array(a), int(c)) for a, c in zip(placed, classes)]
    gt2d = derive_gt2d(anchors, cls_arr, rig) if placed else []
    return Scene(seed=seed, frame_id=frame_id, boxes=boxes, gt2d=gt2d, rig=list(rig))


def perturb(
    scene: Scene, noise: OracleNoise | None = None, seed: int = 0
) -> tuple[list[Pred3D], list[Pred2D]]:
    """Drop/perturb ground truth into scored pseudo-detections (p3d, p2d).

    Zero noise reproduces the ground truth exactly with score 1.0.
    """
    noise = noise or OracleNoise()
    rng = np.random.default_rng(seed)

    def score() -> float:
        return float(1.0 - noise.score_spread * rng.uniform())

    p3d: list[Pred3D] = []
    for anchor, cls in scene.boxes:
        if noise.drop_prob_3d > 0.0 and rng.uniform() < noise.drop_prob_3d:
            continue
        box = anchor.as_array()
        box[0:3] = box[0:3] + noise.jitter_m * rng.uniform(-1.0, 1.0, 3)
        p3d.append(Pred3D(box=box, class_id=cls, score=score()))
    p2d: list[Pred2D] = []
    for g in scene.gt2d:
        drop = noise.drop_for(g.box.view_id)
        if drop > 0.0 and rng.uniform() < drop:
            continue
        cx = g.box.cx + noise.jitter_px * rng.uniform(-1.0, 1.0)
        cy = g.box.cy + noise.jitter_px * rng.uniform(-1.0, 1.0)
        p2d.append(
            Pred2D(
                box=Box2D(cx=cx, cy=cy, w=g.box.w, h=g.box.h, view_id=g.box.view_id),
                class_id=g.class_id,
                score=score(),
            )
        )
    return p3d, p2d


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
    proj = project_rig(rig, scene.anchors_array())
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
                amp = float(scene.boxes[i][1] + 1)
                bump = amp * np.exp(
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
    anchors = scene.anchors_array()
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
            x0, y0, x1, y1 = Box2D(*(float(c) for c in rect[i]), view_id=view.view_id).corners
            j0 = int(np.clip(np.floor(x0 * wd / view.width), 0, wd - 1))
            j1 = int(np.clip(np.ceil(x1 * wd / view.width), j0 + 1, wd))
            i0 = int(np.clip(np.floor(y0 * hd / view.height), 0, hd - 1))
            i1 = int(np.clip(np.ceil(y1 * hd / view.height), i0 + 1, hd))
            region = dm[i0:i1, j0:j1]
            np.minimum(region, zc, out=region)
        depths[view.view_id] = dm
    return depths
