"""Synthetic multi-camera scenes.

Stands in for real driving data: classed 3D boxes with velocities are
rejection-sampled without overlap, per-view 2D ground truth is derived by
projection, and analytic feature/depth maps give the decoder's sampling
something to read.  Everything is deterministic under its seed.

The per-scene work runs as array operations, each with the bits of the
per-candidate, per-view and per-box loops it replaced.  Candidate boxes
are drawn ahead in blocks; a block meets the placed boxes in one
separation table of extents on edge normals, over which its boxes are
placed greedily in draw order.  Perturbations draw their doubles as one
block.  A view's Gaussian feature bumps are separable, so its plane at each
scale is an (H, B) @ (B, W) product of 1-D Gaussians, and the views of one
map size are rendered by one stacked product.  A sampled scene's one rig
projection serves its ground truth, its feature maps and (through ``mvdet
run``) its allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import (
    MAX_SEED, Boxes2D, CameraView, RigProjection, column, finite_rows, integer, load_json,
    naming_file, project_rig, real, rig_from_json_obj, view_key,
)
from .groupattn import RigFeatures, scene_view_ids
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


# box_points' bottom-face corner signs, counter-clockwise from (+x, +y)
_BEV_SIGNS = np.array([(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
_MEAN_SIZES = np.array([prior[1] for prior in CLASS_PRIORS])
_JITTERS = np.array([prior[2] for prior in CLASS_PRIORS])
_VMAXES = np.array([prior[3] for prior in CLASS_PRIORS])
# most candidates one placement block draws: its tables hold block x placed extents
_BLOCK = 32


def _bev_rects(x, y, w, l, yaw):
    """(K, 4, 2) bottom-face BEV corners of K boxes given by (K,) arrays and
    (K, 2, 2) normals of their edges 0-1 and 1-2, the axes of the
    separating-axis test.

    The corners carry the bits of ``box_points``: the same cosine and sine
    ufuncs, then the same products and sums.
    """
    c, s = np.cos(yaw)[:, None], np.sin(yaw)[:, None]
    lx, ly = (0.5 * l)[:, None] * _BEV_SIGNS[:, 0], (0.5 * w)[:, None] * _BEV_SIGNS[:, 1]
    corners = np.empty((len(yaw), 4, 2))
    corners[:, :, 0] = x[:, None] + (lx * c - ly * s)
    corners[:, :, 1] = y[:, None] + (lx * s + ly * c)
    # (x, y) edge vectors 0-1 and 1-2 turned to (-y, x)
    return corners, (corners[:, 1:3] - corners[:, 0:2])[:, :, ::-1] * (-1.0, 1.0)


def _extents(rects: np.ndarray, axes: np.ndarray):
    """(lo, hi), each (..., 2): the extent of rectangles ``rects`` (..., 4,
    2) on the two axes ``axes`` (..., 2, 2), broadcast.  Each rectangle goes
    on each axis by one (4, 2) @ (2, 1) product, batched, so an extent has
    the arithmetic of ``rect @ axis`` for that rectangle and axis alone."""
    c = (rects[..., None, :, :] @ axes[..., None])[..., 0]  # (..., 2 axes, 4 corners)
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    return (np.minimum(np.minimum(c0, c1), np.minimum(c2, c3)),
            np.maximum(np.maximum(c0, c1), np.maximum(c2, c3)))


def _apart(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Whether one of two axes separates rectangles a and b, given their
    (..., 2) extents on those axes; touching rectangles are not apart."""
    gap = (hi_a < lo_b) | (hi_b < lo_a)
    return gap[..., 0] | gap[..., 1]


def _separation(rects, axes, own_lo, own_hi, block_rects, block_axes):
    """The separation table of K candidate boxes (``block_rects`` and
    ``block_axes`` from ``_bev_rects``) against N placed ones (``rects``,
    ``axes`` and their extents on their own normals, ``own_lo`` and
    ``own_hi``).  Each extent is taken once: every candidate's on every
    normal, and each placed box's on the candidates' normals.  Returns the
    (K, N) and (K, K) masks of the pairs that a normal of either box
    separates, and each candidate's (K, 2) extents on its own normals."""
    n, k = len(rects), len(block_rects)
    lo, hi = _extents(block_rects[:, None], np.concatenate([axes, block_axes])[None])
    placed_lo, placed_hi = _extents(rects[:, None], block_axes[None])
    self_lo, self_hi = lo[np.arange(k), n + np.arange(k)], hi[np.arange(k), n + np.arange(k)]
    # candidate i against placed box p, on p's normals or on i's
    to_placed = (_apart(lo[:, :n], hi[:, :n], own_lo, own_hi)
                 | _apart(placed_lo, placed_hi, self_lo, self_hi).T)
    # candidate i against candidate j on j's normals; transposed, on i's
    to_block = _apart(lo[:, n:], hi[:, n:], self_lo, self_hi)
    return to_placed, to_block | to_block.T, self_lo, self_hi


def derive_gt2d(proj: RigProjection, classes: np.ndarray) -> tuple[Boxes2D, np.ndarray]:
    """Projection-derived 2D ground truth (valid views, non-degenerate
    rects) of anchors with projection ``proj`` and class ids ``classes``,
    and the anchor index of each of its boxes."""
    vi, ai = np.nonzero(proj.valid & (proj.rect_area > 0.0))
    return Boxes2D(proj.rect[vi, ai], proj.view_ids[vi], np.asarray(classes)[ai]), ai


def check_seed_range(name: str, base: int, scenes: int) -> None:
    """Raise a ValueError naming ``name`` when the seeds ``base`` to
    ``base + scenes - 1`` of consecutive scenes go past ``MAX_SEED``."""
    if base + scenes - 1 > MAX_SEED:
        raise ValueError(f"{name} {base} with {scenes} scene(s) reaches seed "
                         f"{base + scenes - 1}, past 2**64 - 1")


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
    y, yaw and velocity, whether or not earlier candidates were kept.
    Candidates are drawn ahead in blocks: each block's extents on its own
    and the placed boxes' edge normals form one separation table, and the
    block's boxes are then placed greedily in draw order.  Raises after the
    attempt budget when the requested density is infeasible.  The scene
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
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(): the doubles
    # 3-5 of a candidate's draws give its x, y and yaw
    lo = np.array([x_lo, y_lo, -np.pi])[:, None]
    span = np.array([x_hi - x_lo, y_hi - y_lo, 2.0 * np.pi])[:, None]
    anchors = np.empty((n_boxes, 9))
    classes = np.empty(n_boxes, dtype=np.intp)
    # the placed boxes' corners, edge normals and extents on their own normals
    rects, axes = np.empty((n_boxes, 4, 2)), np.empty((n_boxes, 2, 2))
    own_lo, own_hi = np.empty((n_boxes, 2)), np.empty((n_boxes, 2))
    n = attempts = 0
    budget = max_attempts_per_box * max(n_boxes, 1)
    while n < n_boxes:
        if attempts >= budget:
            raise RuntimeError(
                f"could not place {n_boxes} boxes in {budget} attempts; "
                "scene too dense for the sampling ranges"
            )
        # enough candidates for the boxes still missing at the rejection
        # rate so far, and a few to spare; the generator is the call's own,
        # so candidates drawn and not tested change nothing
        need = n_boxes - n
        k = min(budget - attempts, _BLOCK, need * max(attempts, 1) // max(n, 1) + need // 8 + 1)
        cls, u = np.empty(k, dtype=np.intp), np.empty((k, 8))
        for i, draws in enumerate(u):
            cls[i] = rng.integers(len(CLASS_PRIORS))
            rng.random(out=draws)  # size jitter, x, y, yaw and velocity
        box = np.empty((k, 9))
        box[:, 3:6] = _MEAN_SIZES[cls] * np.exp(_JITTERS[cls, None] * (-1.0 + 2.0 * u[:, 0:3]))
        box[:, 2] = box[:, 5] / 2.0
        x, y, yaw = lo + span * u[:, 3:6].T
        box[:, 0], box[:, 1], box[:, 6] = x, y, yaw
        box[:, 7:9] = _VMAXES[cls, None] * (-1.0 + 2.0 * u[:, 6:8])
        block_rects, block_axes = _bev_rects(x, y, box[:, 3], box[:, 4], yaw)
        to_placed, to_block, self_lo, self_hi = _separation(
            rects[:n], axes[:n], own_lo[:n], own_hi[:n], block_rects, block_axes)
        blocked, clash = ~to_placed.all(axis=1), ~to_block
        kept = []
        for i in range(k):
            attempts += 1
            if blocked[i]:
                continue
            kept.append(i)
            if len(kept) == need:
                break
            blocked |= clash[i]
        placed = slice(n, n + len(kept))
        anchors[placed], classes[placed] = box[kept], cls[kept]
        rects[placed], axes[placed] = block_rects[kept], block_axes[kept]
        own_lo[placed], own_hi[placed] = self_lo[kept], self_hi[kept]
        n += len(kept)
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
    return [[[max(v.width // s, 1), max(v.height // s, 1)] for v in rig] for s in scales]


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
    product of B (H + W) exps, its view's one (H, W) plane of atlas rows;
    the decoder's sampler broadcasts it over its feature channels.  At each
    scale, every run of consecutive views with one map size (a rig's
    cameras, then its crops) is rendered by one (V, H, B) @ (V, B, W)
    product, each view padded with zero bumps to the most boxes one of
    them sees, which adds exact zeros.  ``projection`` is
    ``project_rig(rig, scene.anchors)``, when the caller has it.  The maps
    go into a new ``RigFeatures``, or into scene ``slot`` of ``into``, a
    ``blank_features`` of several scenes over ``rig``; returns the
    features.
    """
    proj = project_rig(rig, scene.anchors) if projection is None else projection
    features = blank_features(rig, scales) if into is None else into
    n_views, first_view = len(rig), slot * len(rig)
    views = slice(first_view, first_view + n_views)
    ids = [v.view_id for v in rig]
    if into is not None and (
            into.view_ids[views].tolist() != scene_view_ids(slot, ids, ids).tolist()
            or into.map_size[:, views].tolist() != _map_sizes(rig, scales)):
        raise ValueError(f"scene slot {slot} of the features does not hold this rig's maps "
                         f"of views {ids}, in that order")
    # visible (view, box) pairs, view-major with ascending boxes; view k's
    # are pairs first[k]:first[k + 1], and a pair's rank is its place in them
    vi, ai = np.nonzero(proj.valid)
    count = np.bincount(vi, minlength=n_views)
    first = [0, *np.cumsum(count).tolist()]
    rank = np.arange(len(vi)) - np.asarray(first[:-1], dtype=np.intp)[vi]
    ref, width = proj.ref_point[vi, ai], proj.rect[vi, ai, 2]
    amp = (scene.classes[ai] + 1.0)[:, None]
    for si in range(len(scales)):
        sizes = features.map_size[si, views]
        f = (sizes / features.image_size[views])[vi]  # (fx, fy): map cells per pixel
        mean = ref * f - 0.5
        sigma = np.maximum(width * f[:, 0] / 4.0, 0.75)
        divisor = -(2.0 * sigma * sigma)[:, None]
        # runs of consecutive views with one map size; a map one cell high or
        # wide is a matrix-vector product, whose sums change with padding, so
        # its run also keeps to one box count
        key = [(w, h, 0 if min(w, h) > 1 else c)
               for (w, h), c in zip(sizes.tolist(), count.tolist())]
        runs = [k for k in range(1, n_views) if key[k] != key[k - 1]]
        for a, b in zip([0, *runs], [*runs, n_views]):
            (w, h, _), box = key[a], slice(first[a], first[b])
            # each bump's row Gaussian, then its column Gaussian
            g = np.exp(np.square(np.concatenate([np.arange(w), np.arange(h)])
                                 - np.repeat(mean[box], (w, h), axis=1)) / divisor[box])
            at, most = (vi[box] - a, rank[box]), count[a:b].max()
            gx, gy = np.zeros((b - a, most, w)), np.zeros((b - a, most, h))
            gx[at], gy[at] = g[:, :w], g[:, w:] * amp[box]
            row = features.start[si, first_view + a]
            features.atlas[si][row : row + (b - a) * h * w, 0] = (
                gy.transpose(0, 2, 1) @ gx).reshape(-1)
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
