"""Hungarian matching, detection losses and association metrics.

Implements the bipartite matcher with a documented tie-break, the 2D/3D
loss formulas with their default balancing weights (lambda1 = 0.5,
lambda2 = 0.2), the candidate/valid association predicates with the
AAR/Recall sweep, and a simplified 11-point-interpolated AP evaluator.

Both metrics score a whole run as array passes.  ``aar`` takes one scene
or a sequence of scenes, pools their counts, and evaluates padded
per-scene tables for every threshold at once.  ``ap_2d`` runs its greedy
matching one rank step at a time over every (class, view id) cell at once.
Either works through chunks of at most ``TABLE_BUDGET`` table elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from ._kernels import iou_matrix, iou_pairs
from .geometry import (
    Boxes2D, column, finite_rows, integer, naming_file, project_rig, real, view_key,
)

if TYPE_CHECKING:
    from .simulator import Scene

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0

# Instances up to this many cells get the exact lexicographic-smallest
# tie-break; larger ones return the solver's (deterministic) optimum.
_LEX_REFINE_MAX_CELLS = 256


@dataclass(frozen=True)
class MatchParams:
    """Association thresholds and matching cost weights."""

    tau_dis: float = 2.0
    tau_iou: float = 0.5
    w_class: float = 2.0
    w_l1: float = 5.0
    w_iou: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.tau_dis):
            raise ValueError(f"tau_dis must be finite, got {self.tau_dis}")
        if self.tau_dis <= 0:
            raise ValueError("tau_dis must be positive")
        if not (0.0 < self.tau_iou < 1.0):
            raise ValueError("tau_iou must lie in (0, 1)")


@dataclass(frozen=True)
class LossWeights:
    """Loss balancing constants and component toggles."""

    lambda1: float = 0.5
    lambda2: float = 0.2
    w_focal: float = 2.0
    w_l1: float = 5.0
    w_iou: float = 2.0
    include_alpha: bool = True
    include_aux: bool = True

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "w_focal", "w_l1", "w_iou"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class Detections:
    """Scored detections of one frame: (N, 9) 3D boxes with their class ids
    and scores, and a `Boxes2D` table with its scores.

    The constructor takes array-likes and checks them: the 3D boxes must
    be (N, 9) and finite, and every other array must hold one entry per
    box.
    """

    boxes3d: np.ndarray    # (N, 9)
    classes3d: np.ndarray  # (N,)
    scores3d: np.ndarray   # (N,)
    boxes2d: Boxes2D
    scores2d: np.ndarray   # (M,)

    def __post_init__(self):
        boxes3d = finite_rows(self.boxes3d, 9, "3D box")
        object.__setattr__(self, "boxes3d", boxes3d)
        for name, dtype, n in (("classes3d", np.intp, len(boxes3d)),
                               ("scores3d", np.float64, len(boxes3d)),
                               ("scores2d", np.float64, len(self.boxes2d))):
            object.__setattr__(self, name, column(getattr(self, name), dtype, n, name))

    @classmethod
    def empty(cls) -> "Detections":
        return cls(np.zeros((0, 9)), [], [], Boxes2D(np.zeros((0, 4)), [], []), [])


@dataclass
class AARResult:
    """Association accuracy at one threshold plus the sweep curve.

    ``aar`` is 100 * n_valid / n_candidate (0 with ``no_candidates`` set
    when nothing matched); ``recall`` is 100 * n_candidate / N_2d.  The
    curve rows are (tau_iou, aar, recall, n_candidate, n_valid).
    """

    n_candidate: int
    n_valid: int
    aar: float
    recall: float
    curve: list[tuple[float, float, float, int, int]] = field(default_factory=list)
    no_candidates: bool = False


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost one-to-one assignment of min(n, m) pairs.

    Raises on NaN or infinite costs.  Among cost-equal optima, instances up
    to 256 cells return the lexicographically smallest assignment (pairs
    compared sorted by row); larger instances return the solver's
    deterministic optimum.  Rows come back in ascending order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be 2D, got shape {cost.shape}")
    if cost.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if np.isnan(cost).any():
        raise ValueError("NaN in cost matrix")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    from scipy.optimize import linear_sum_assignment  # slow import; most CLI calls skip it

    rows, cols = linear_sum_assignment(cost)
    if cost.size <= _LEX_REFINE_MAX_CELLS:
        rows, cols = _lex_smallest(cost, float(cost[rows, cols].sum()))
    order = np.argsort(rows)
    return rows[order].astype(np.intp), cols[order].astype(np.intp)


def _lex_smallest(cost: np.ndarray, opt: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy construction of the lexicographically smallest optimal assignment."""
    from scipy.optimize import linear_sum_assignment

    n, m = cost.shape
    k = min(n, m)
    tol = 1e-9 * (1.0 + abs(opt))
    rows_left = list(range(n))
    cols_left = list(range(m))
    out_r: list[int] = []
    out_c: list[int] = []
    acc = 0.0
    lo = 0
    for step in range(k):
        need = k - step - 1
        picked = False
        for r in [rr for rr in rows_left if rr >= lo]:
            future = [rr for rr in rows_left if rr > r]
            if len(future) < need:
                break
            for c in cols_left:
                rest_cols = [cc for cc in cols_left if cc != c]
                if need == 0:
                    sub_opt = 0.0
                else:
                    sub = cost[np.ix_(future, rest_cols)]
                    sr, sc = linear_sum_assignment(sub)
                    sub_opt = float(sub[sr, sc].sum())
                if abs(acc + cost[r, c] + sub_opt - opt) <= tol:
                    acc += float(cost[r, c])
                    out_r.append(r)
                    out_c.append(c)
                    rows_left.remove(r)
                    cols_left.remove(c)
                    lo = r + 1
                    picked = True
                    break
            if picked:
                break
        if not picked:  # numerical fallback; should not happen
            rows, cols = linear_sum_assignment(cost)
            return rows.astype(np.intp), cols.astype(np.intp)
    return np.asarray(out_r, dtype=np.intp), np.asarray(out_c, dtype=np.intp)


def class_nll(logits: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """-log softmax(logits)[class] as an (n, m) matrix over id choices."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    return -logp[:, np.asarray(class_ids, dtype=np.intp)]


def match_2d_per_camera(
    pred_boxes: dict[int, np.ndarray],
    pred_logits: dict[int, np.ndarray],
    gt_boxes: dict[int, np.ndarray],
    gt_classes: dict[int, np.ndarray],
    params: MatchParams | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Hungarian matching run independently inside every camera group.

    Cost per (pred, gt) pair: w_class * class NLL + w_l1 * L1 over
    (cx, cy, w, h) + w_iou * (1 - IoU).  Cameras without ground truth get
    an empty assignment.
    """
    params = params or MatchParams()
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for view_id, boxes in pred_boxes.items():
        gt_b = gt_boxes.get(view_id)
        if gt_b is None or len(gt_b) == 0 or len(boxes) == 0:
            out[view_id] = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
            continue
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        gt_b = np.asarray(gt_b, dtype=np.float64).reshape(-1, 4)
        nll = class_nll(pred_logits[view_id], gt_classes[view_id])
        l1 = np.abs(boxes[:, None, :] - gt_b[None, :, :]).sum(axis=2)
        iou = iou_matrix(boxes, gt_b)
        cost = params.w_class * nll + params.w_l1 * l1 + params.w_iou * (1.0 - iou)
        out[view_id] = hungarian(cost)
    return out


def focal_loss(
    logits: np.ndarray, target_class: np.ndarray, normalizer: Optional[float] = None
) -> float:
    """Per-class sigmoid focal loss (alpha 0.25, gamma 2).

    ``target_class`` holds the positive class per row, -1 for background.
    Normalized by the positive count unless a normalizer is given.
    """
    logits = np.asarray(logits, dtype=np.float64)
    target_class = np.asarray(target_class, dtype=np.intp).reshape(-1)
    if logits.shape[0] == 0:
        return 0.0
    n, k = logits.shape
    t = np.zeros((n, k))
    pos = target_class >= 0
    t[np.flatnonzero(pos), target_class[pos]] = 1.0
    p = 1.0 / (1.0 + np.exp(-logits))
    eps = 1e-12
    loss = -FOCAL_ALPHA * t * (1.0 - p) ** FOCAL_GAMMA * np.log(p + eps) - (
        1.0 - FOCAL_ALPHA
    ) * (1.0 - t) * p ** FOCAL_GAMMA * np.log(1.0 - p + eps)
    if normalizer is None:
        normalizer = max(float(pos.sum()), 1.0)
    return float(loss.sum() / normalizer)


def loss_alpha(pred_sin_cos: np.ndarray, gt_theta: np.ndarray) -> float:
    """Mean absolute error of the encoded observation angle.

    (1/M) sum |sin(theta) - s_hat| + |cos(theta) - c_hat| over matched
    pairs; defined as 0 for an empty batch.
    """
    pred = np.asarray(pred_sin_cos, dtype=np.float64).reshape(-1, 2)
    theta = np.asarray(gt_theta, dtype=np.float64).reshape(-1)
    if pred.shape[0] != theta.shape[0]:
        raise ValueError("pred and gt angle counts differ")
    if pred.shape[0] == 0:
        return 0.0
    err = np.abs(np.sin(theta) - pred[:, 0]) + np.abs(np.cos(theta) - pred[:, 1])
    return float(err.mean())


def loss_2d_parts(
    pred_boxes: dict[int, np.ndarray],
    pred_logits: dict[int, np.ndarray],
    pred_alphas: dict[int, np.ndarray],
    gt_boxes: dict[int, np.ndarray],
    gt_classes: dict[int, np.ndarray],
    gt_thetas: dict[int, np.ndarray],
    assignments: dict[int, tuple[np.ndarray, np.ndarray]],
    weights: LossWeights | None = None,
) -> dict[str, float]:
    """Per-term 2D loss breakdown over per-camera matched predictions."""
    weights = weights or LossWeights()
    cls_total = 0.0
    l1_sum = 0.0
    iou_sum = 0.0
    alpha_pred = []
    alpha_gt = []
    n_matched = 0
    for view_id, boxes in pred_boxes.items():
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        logits = np.asarray(pred_logits[view_id], dtype=np.float64)
        pi, gi = assignments.get(view_id, (np.zeros(0, dtype=np.intp),) * 2)
        targets = np.full(boxes.shape[0], -1, dtype=np.intp)
        if len(pi):
            g_cls = np.asarray(gt_classes[view_id], dtype=np.intp)
            targets[pi] = g_cls[gi]
            g_box = np.asarray(gt_boxes[view_id], dtype=np.float64).reshape(-1, 4)
            l1_sum += float(np.abs(boxes[pi] - g_box[gi]).sum())
            iou_sum += float((1.0 - iou_pairs(boxes[pi], g_box[gi])).sum())
            alpha_pred.append(np.asarray(pred_alphas[view_id])[pi])
            alpha_gt.append(np.asarray(gt_thetas[view_id])[gi])
            n_matched += len(pi)
        cls_total += focal_loss(logits, targets, normalizer=None) * max(
            float((targets >= 0).sum()), 1.0
        )
    norm = max(float(n_matched), 1.0)
    cls = cls_total / norm
    l1 = l1_sum / norm
    iou = iou_sum / norm
    if alpha_pred:
        alpha = loss_alpha(np.concatenate(alpha_pred), np.concatenate(alpha_gt))
    else:
        alpha = 0.0
    detr2d = weights.w_focal * cls + weights.w_l1 * l1 + weights.w_iou * iou
    total = detr2d
    if weights.include_alpha:
        total = total + weights.lambda1 * alpha
    return {
        "class": cls,
        "l1": l1,
        "iou": iou,
        "alpha": alpha,
        "detr2d": detr2d,
        "total": total,
    }


def loss_2d(
    pred_boxes, pred_logits, pred_alphas, gt_boxes, gt_classes, gt_thetas,
    assignments, weights: LossWeights | None = None,
) -> float:
    """DETR-style 2D loss plus lambda1-weighted observation-angle loss."""
    return loss_2d_parts(
        pred_boxes, pred_logits, pred_alphas, gt_boxes, gt_classes, gt_thetas,
        assignments, weights,
    )["total"]


def loss_instance_depth(
    pred_bin_logits: np.ndarray,
    gt_depth: np.ndarray,
    range_max: float = 60.0,
) -> float:
    """Focal loss over uniform depth bins (multi-bin depth prediction)."""
    logits = np.asarray(pred_bin_logits, dtype=np.float64)
    depth = np.asarray(gt_depth, dtype=np.float64).reshape(-1)
    if logits.shape[0] != depth.shape[0]:
        raise ValueError("depth target count must match logits")
    if logits.shape[0] == 0:
        return 0.0
    n_bins = logits.shape[1]
    width = range_max / n_bins
    bins = np.clip(np.floor(depth / width), 0, n_bins - 1).astype(np.intp)
    return focal_loss(logits, bins)


def loss_dense_depth(pred_map: np.ndarray, gt_map: np.ndarray) -> float:
    """Masked L1 over a depth map; infinite ground truth is ignored."""
    pred = np.asarray(pred_map, dtype=np.float64)
    gt = np.asarray(gt_map, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError("depth maps must share a shape")
    mask = np.isfinite(gt)
    if not mask.any():
        return 0.0
    return float(np.abs(pred[mask] - gt[mask]).mean())


def loss_aux(
    l_roi2d: float, l_ins_depth: float, l_dense_depth: float,
    weights: LossWeights | None = None,
) -> float:
    """Auxiliary-branch combiner: roi + instance depth + lambda2 * dense."""
    weights = weights or LossWeights()
    return l_roi2d + l_ins_depth + weights.lambda2 * l_dense_depth


def loss_total(
    l3d: float, l2d: float, laux: float, weights: LossWeights | None = None
) -> float:
    """Overall loss: 3D + 2D + auxiliary (aux droppable via the toggle)."""
    weights = weights or LossWeights()
    for v in (l3d, l2d, laux):
        if not math.isfinite(v):
            raise ValueError("loss components must be finite")
    total = l3d + l2d
    if weights.include_aux:
        total += laux
    return float(total)


DEFAULT_TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))

# AAR and AP pad their per-scene and per-cell tables to one shape and
# evaluate many at once, in chunks of consecutive scenes or cells whose
# padded tables hold at most TABLE_BUDGET elements over all thresholds (at
# least one scene or cell each), so that scoring a long run stays small.
TABLE_BUDGET = 1 << 17


def _chunks(rows: Sequence[int], cols: Sequence[int], budget: int):
    """[start, stop) runs of consecutive items, each the longest whose
    padded (items, max rows, max cols) table stays within ``budget``
    elements, and at least one item long."""
    start, r, c = 0, 0, 0
    for i, (ri, ci) in enumerate(zip(rows, cols)):
        r2, c2 = max(r, ri), max(c, ci)
        if i > start and (i + 1 - start) * r2 * c2 > budget:
            yield start, i
            start, r2, c2 = i, ri, ci
        r, c = r2, c2
    if start < len(rows):
        yield start, len(rows)


def _padded(counts, first=None) -> tuple[np.ndarray, np.ndarray]:
    """Slots of S groups of items, ``counts[s]`` of group s, whose items
    sit at ``first[s]`` onward (default: back to back from 0): the (S, max
    count) index of each slot's item and the mask of real slots.  Padding
    slots index item -1, so they need masking."""
    counts = np.asarray(counts, dtype=np.intp)
    first = np.cumsum(counts) - counts if first is None else first
    slot = np.arange(int(counts.max(initial=0)))
    real = slot < counts[:, None]
    return np.where(real, first[:, None] + slot, -1), real


def _rig_key(rig: Sequence) -> tuple:
    """What a projection reads of a rig, as a hashable key."""
    return tuple((v.view_id, v.width, v.height, v.intrinsics.tobytes(), v.extrinsic.tobytes())
                 for v in rig)


def aar(
    det: "Detections | Sequence[Detections]",
    scene: "Scene | Sequence[Scene]",
    params: MatchParams | None = None,
    taus: Sequence[float] = DEFAULT_TAUS,
) -> AARResult:
    """Association accuracy rate and recall, with a tau_iou sweep.

    Candidates count every (3D prediction, 2D ground truth) pair passing
    the candidate predicate: the prediction's center lies within tau_dis
    of the ground truth's linked 3D box, the 3D classes agree, and the
    prediction's projected rectangle in the ground truth's view overlaps
    it with IoU >= tau_iou.  Valid matches count (3D prediction, 2D
    prediction) pairs that share a passing ground-truth box and whose 2D
    prediction also overlaps it at tau_iou with the right class.  Recall
    divides candidates by the number of 2D ground-truth boxes.

    ``det`` and ``scene`` are one frame's detections and scene, or equal-
    length sequences of them scored as one pooled set: the counts of every
    scene add up before the rates are taken.  Scenes are evaluated in
    chunks under ``TABLE_BUDGET``, with one ``project_rig`` of a chunk's
    3D predictions per distinct rig and every threshold in one broadcast.
    """
    params = params or MatchParams()
    if isinstance(det, Detections):
        det, scene = [det], [scene]
    dets, scenes = list(det), list(scene)
    if len(dets) != len(scenes):
        raise ValueError(f"{len(dets)} detection frames for {len(scenes)} scenes")
    sweep = np.array([*taus, params.tau_iou], dtype=np.float64)
    counts = np.zeros((len(sweep), 2), dtype=np.int64)
    by_rig: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenes):
        by_rig.setdefault(_rig_key(s.rig), []).append(i)
    for members in by_rig.values():
        n2 = [len(dets[i].boxes2d) for i in members]
        rows = [max(len(dets[i].boxes3d), k) for i, k in zip(members, n2)]
        cols = [max(len(scenes[i].gt2d), k) for i, k in zip(members, n2)]
        for start, stop in _chunks(rows, cols, TABLE_BUDGET // len(sweep)):
            part = members[start:stop]
            counts += _aar_counts([dets[i] for i in part], [scenes[i] for i in part],
                                  params.tau_dis, sweep)
    n2d = sum(len(s.gt2d) for s in scenes)

    def row(c: int, v: int) -> tuple[float, float, int, int]:
        """(aar, recall, n_candidate, n_valid) of one threshold's counts."""
        return 100.0 * v / c if c else 0.0, 100.0 * c / n2d if n2d else 0.0, c, v

    *curve, (c0, v0) = counts.tolist()
    a0, r0, _, _ = row(c0, v0)
    return AARResult(
        n_candidate=c0, n_valid=v0, aar=a0, recall=r0,
        curve=[(float(tau), *row(c, v)) for tau, (c, v) in zip(taus, curve)],
        no_candidates=(c0 == 0),
    )


def _aar_counts(dets: Sequence[Detections], scenes: Sequence["Scene"], tau_dis: float,
                sweep: np.ndarray) -> np.ndarray:
    """(T, 2) candidate and valid counts at each threshold of ``sweep``,
    summed over scenes that share one rig.

    Tables are padded per scene: (S, P, G) over 3D predictions and 2D
    ground truths, (S, K, G) over 2D predictions and 2D ground truths.
    """
    p_idx, p_real = _padded([len(d.boxes3d) for d in dets])
    k_idx, k_real = _padded([len(d.boxes2d) for d in dets])
    g_idx, g_real = _padded([len(s.gt2d) for s in scenes])

    def pooled(tables, name):
        return np.concatenate([getattr(t, name) for t in tables])

    boxes3d = pooled(dets, "boxes3d")
    proj = project_rig(scenes[0].rig, boxes3d)
    gts, p2s = [s.gt2d for s in scenes], [d.boxes2d for d in dets]
    g_view = pooled(gts, "view_id")
    row_of = {view_id: k for k, view_id in enumerate(proj.view_ids.tolist())}
    g_row = np.array([row_of.get(v, -1) for v in g_view.tolist()], dtype=np.intp)
    if (g_row < 0).any():
        raise ValueError(f"gt2d entry references view {g_view[np.argmin(g_row)]} "
                         "missing from the rig")
    # each 2D ground truth's linked 3D box and its class, padded per scene
    n_boxes = np.array([len(s.anchors) for s in scenes])
    links = pooled(scenes, "gt2d_link") + np.repeat(np.cumsum(n_boxes) - n_boxes,
                                                    [len(g) for g in gts])
    g3 = pooled(scenes, "anchors")[links][g_idx]
    g3_class = pooled(scenes, "classes")[links][g_idx]
    g_rect, g_row = pooled(gts, "rect")[g_idx][:, None], g_row[g_idx][:, None, :]

    # (S, P, G): IoU of each 3D prediction's rectangle in the 2D ground
    # truth's own view (NaN rects of invalid pairs give 0), and the gate of
    # center distance to the linked 3D box, 3D class and validity in that view
    p_col = p_idx[:, :, None]
    iou3 = iou_pairs(proj.rect[g_row, p_col], g_rect)
    gate = (
        (np.linalg.norm(boxes3d[p_col, :3] - g3[:, None, :, :3], axis=-1) <= tau_dis)
        & (pooled(dets, "classes3d")[p_col] == g3_class[:, None, :])
        & proj.valid[g_row, p_col] & p_real[:, :, None] & g_real[:, None, :]
    )

    # (S, K, G): IoU of each 2D prediction with each 2D ground truth, and
    # whether the two share the view and the class
    k_col = k_idx[:, :, None]
    same2d = ((pooled(p2s, "view_id")[k_col] == g_view[g_idx][:, None, :])
              & (pooled(p2s, "class_id")[k_col] == pooled(gts, "class_id")[g_idx][:, None, :])
              & k_real[:, :, None] & g_real[:, None, :])
    iou2 = iou_pairs(pooled(p2s, "rect")[k_col], g_rect)

    # (T, S, ...) per threshold; psi(i, k): some j with phi(i, j) and
    # ok2d(k, j), and ok2d is false across views.  float32 counts the shared
    # j exactly, as a scene holds far fewer than 2**24 of them
    tau = sweep[:, None, None, None]
    phi = gate & (iou3 >= tau)
    ok2d = same2d & (iou2 >= tau)
    shared = phi.astype(np.float32) @ ok2d.swapaxes(2, 3).astype(np.float32)
    return np.stack([phi.sum(axis=(1, 2, 3)), (shared > 0).sum(axis=(1, 2, 3))], axis=1)


def ap_2d(
    preds: Boxes2D,
    scores: np.ndarray,
    gt: Boxes2D,
    iou_thresholds: Sequence[float] = (0.5,),
) -> dict[int, dict[float, float]]:
    """11-point interpolated AP per class and IoU threshold.

    Predictions are ranked by descending score (ties by view then input
    order) and matched greedily to the best unused same-view ground truth:
    the one of highest IoU, at least the threshold and above 0, the lowest
    ground-truth index among equal IoUs.  Classes appearing in either
    predictions or ground truth are reported.

    Matches never cross a (class, view id) cell, so the greedy runs one
    rank step at a time over every cell at once, on padded (cells, rank,
    ground truth) IoU tables chunked under ``TABLE_BUDGET``; it gives the
    matches of ranking each class as a whole.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(preds),):
        raise ValueError(f"{scores.size} scores for {len(preds)} predictions")
    iou_thresholds = list(iou_thresholds)
    thresholds = np.array(iou_thresholds, dtype=np.float64).reshape(-1)
    # rank order: by class, then descending score, view and input order
    order = np.lexsort((np.arange(len(preds)), preds.view_id, -scores, preds.class_id))
    # classes of predictions then ground truths; return_inverse also keeps
    # np.unique from importing numpy.ma (about 1 MB) on its first call
    classes, class_of = np.unique(np.concatenate([preds.class_id, gt.class_id]),
                                  return_inverse=True)
    hits = _greedy_hits(preds, gt, class_of, order, thresholds)
    n_gts = np.bincount(class_of[len(preds):], minlength=len(classes)).tolist()
    out: dict[int, dict[float, float]] = {}
    recall_pts = np.linspace(0.0, 1.0, 11)
    ranked_class = preds.class_id[order]
    for cls, n_gt in zip(classes.tolist(), n_gts):
        ranked = order[np.searchsorted(ranked_class, cls):np.searchsorted(ranked_class, cls, "right")]
        out[cls] = {}
        for thr, hit in zip(iou_thresholds, hits):
            if n_gt == 0 or len(ranked) == 0:
                out[cls][float(thr)] = 0.0
                continue
            tp = hit[ranked].astype(np.float64)
            ctp = np.cumsum(tp)
            cfp = np.cumsum(1.0 - tp)
            recall = ctp / n_gt
            precision = ctp / np.maximum(ctp + cfp, 1e-12)
            ap = 0.0
            for r in recall_pts:
                sel = recall >= r - 1e-12
                ap += float(precision[sel].max()) if sel.any() else 0.0
            out[cls][float(thr)] = ap / 11.0
    return out


def _greedy_hits(preds: Boxes2D, gt: Boxes2D, class_of: np.ndarray, order: np.ndarray,
                 thresholds: np.ndarray) -> np.ndarray:
    """(T, N): whether prediction k matches a ground truth at threshold t,
    matching greedily in ``order`` within each (class, view id) cell;
    ``class_of`` holds dense class ids of predictions then ground truths."""
    # dense cell ids of (class, view id) over predictions then ground truths
    views, view_of = np.unique(np.concatenate([preds.view_id, gt.view_id]), return_inverse=True)
    cell = np.unique(class_of * len(views) + view_of, return_inverse=True)[1].reshape(-1)
    n = len(preds)
    p_cell, g_cell = cell[:n], cell[n:]
    n_cells = int(cell.max(initial=-1)) + 1
    # predictions by cell, in rank order inside each; ground truths by cell,
    # in index order inside each
    p_by_cell = order[np.argsort(p_cell[order], kind="stable")]
    g_by_cell = np.argsort(g_cell, kind="stable")
    n_p, n_g = np.bincount(p_cell, minlength=n_cells), np.bincount(g_cell, minlength=n_cells)
    p_first, g_first = np.cumsum(n_p) - n_p, np.cumsum(n_g) - n_g
    # cells with both sides, fewest predictions first so chunks pad little
    both = np.flatnonzero((n_p > 0) & (n_g > 0))
    both = both[np.argsort(n_p[both], kind="stable")]

    hits = np.zeros((len(thresholds), n), dtype=bool)
    thr = thresholds[:, None, None, None]
    for start, stop in _chunks(n_p[both].tolist(), n_g[both].tolist(),
                               TABLE_BUDGET // max(1, len(thresholds))):
        cells = both[start:stop]
        p_slot, p_real = _padded(n_p[cells], p_first[cells])
        g_slot, g_real = _padded(n_g[cells], g_first[cells])
        p_at, g_at = p_by_cell[p_slot], g_by_cell[g_slot]
        iou = iou_pairs(preds.rect[p_at][:, :, None], gt.rect[g_at][:, None])  # (C, P, G)
        allowed = (iou >= thr) & (iou > 0.0) & p_real[:, :, None] & g_real[:, None, :]
        used = np.zeros(allowed.shape[:2] + allowed.shape[3:], dtype=bool)  # (T, C, G)
        for step in range(allowed.shape[2]):
            ok = allowed[:, :, step] & ~used
            best = np.where(ok, iou[:, step], -1.0).argmax(axis=2)  # first of equal IoUs
            t_hit, c_hit = np.nonzero(ok.any(axis=2))
            used[t_hit, c_hit, best[t_hit, c_hit]] = True
            hits[t_hit, p_at[c_hit, step]] = True
    return hits


def mean_ap(ap: dict[int, dict[float, float]]) -> float:
    vals = [v for per_cls in ap.values() for v in per_cls.values()]
    return float(np.mean(vals)) if vals else 0.0


# ---------------------------------------------------------------------------
# detections interchange JSON ("mvdet-detections/1")

def detections_to_json_obj(frames: Mapping[int, Detections]) -> dict:
    """The detections object of ``{frame_id: detections}``; 2D boxes are
    grouped by view id, in the order each view first appears."""
    out_frames = []
    for frame_id, det in frames.items():
        boxes3d = [
            {"box": box, "class_id": c, "score": s}
            for box, c, s in zip(det.boxes3d.tolist(), det.classes3d.tolist(),
                                 det.scores3d.tolist())
        ]
        by_view: dict[str, list] = {}
        b2 = det.boxes2d
        for box, view_id, c, s in zip(b2.rect.tolist(), b2.view_id.tolist(),
                                      b2.class_id.tolist(), det.scores2d.tolist()):
            by_view.setdefault(str(view_id), []).append({"box": box, "class_id": c, "score": s})
        out_frames.append({"frame_id": int(frame_id), "boxes3d": boxes3d, "boxes2d": by_view})
    return {"format": "mvdet-detections/1", "frames": out_frames}


def parse_detections(obj: dict, source: str = "detections") -> dict[int, Detections]:
    """``{frame_id: detections}`` of a detections object; ``source`` names
    it in errors."""
    frames = {}
    with naming_file(source):
        if obj.get("format") != "mvdet-detections/1":
            raise ValueError(f"not a detections file: format={obj.get('format')!r}")
        for f in obj["frames"]:
            frame_id = integer(f.get("frame_id", 0), "frame_id")
            if frame_id in frames:
                raise ValueError(f"frame_id {frame_id} appears more than once")
            b3 = f["boxes3d"]
            views = [(view_key(key, "boxes2d"), entries)
                     for key, entries in f.get("boxes2d", {}).items()]
            b2 = [(view_id, b) for view_id, entries in views for b in entries]
            frames[frame_id] = Detections(
                boxes3d=[b["box"] for b in b3],
                classes3d=[integer(b["class_id"], "class_id") for b in b3],
                scores3d=[real(b.get("score", 1.0), "score") for b in b3],
                boxes2d=Boxes2D([b["box"] for _, b in b2], [v for v, _ in b2],
                                [integer(b["class_id"], "class_id") for _, b in b2]),
                scores2d=[real(b.get("score", 1.0), "score") for _, b in b2],
            )
    return frames
