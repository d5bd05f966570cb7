"""Propagating denoising: paired 3D/2D noisy queries from ground truth.

Noisy 3D anchors are perturbed copies of the ground-truth boxes, organized
in groups.  Their 2D counterparts are allocated from the ground truth's own
view associations (not by projecting the noisy anchors), grouped per camera
for group attention, isolated from the match queries by their group ids,
and averaged back into 3D noisy queries after the 2D sub-layer.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocation import mean_of_copies
from .geometry import Anchor3D, Box2D
from .groupattn import GroupMask

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise magnitudes for denoise-group construction.

    ``center_noise_scale`` bounds the center shift as a fraction of the box
    size per axis (0.25 = half of the box half-extent); ``size_noise_scale``
    is a log-scale factor; ``yaw_noise`` is in radians.  The trailing
    ``negative_ratio`` fraction of groups are negatives and use doubled
    scales.
    """

    n_groups: int = 4
    center_noise_scale: float = 0.25
    size_noise_scale: float = 0.2
    yaw_noise: float = 0.2
    negative_ratio: float = 0.5

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("need at least one denoise group")
        for name in ("center_noise_scale", "size_noise_scale", "yaw_noise", "negative_ratio"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class DenoiseLayout:
    """Spans of the concatenated query tensor when denoising is active.

    The match part occupies [0, match_len); each denoise group occupies one
    contiguous span after it, internally ordered by (camera, ground-truth
    index).  Per noise column the layout records its group, the index of
    the ground-truth box (into ``kept_gt``) and its camera view, plus the
    associated ground-truth 2D box whose center serves as reference point.
    """

    match_len: int
    group_spans: list[tuple[int, int]]
    col_group: np.ndarray   # (L,) denoise group per noise column
    col_gt: np.ndarray      # (L,) kept-GT index per noise column
    col_view: np.ndarray    # (L,) camera view per noise column
    col_boxes: list[Box2D]
    kept_gt: list[int]

    @property
    def n_noise(self) -> int:
        return int(self.col_group.shape[0])

    @property
    def total(self) -> int:
        return self.match_len + self.n_noise

    @property
    def n_groups(self) -> int:
        return len(self.group_spans)

    def part_ids(self) -> np.ndarray:
        """0 for every match column, g + 1 for denoise group g."""
        part = np.zeros(self.total, dtype=np.intp)
        for g, (start, length) in enumerate(self.group_spans):
            part[start : start + length] = g + 1
        return part

    def validate(self) -> None:
        """Spans must be disjoint and cover [match_len, total)."""
        pos = self.match_len
        for g, (start, length) in enumerate(self.group_spans):
            if start != pos or length < 0:
                raise ValueError(f"denoise group {g} span overlaps or leaves a gap")
            pos += length
        if pos != self.total:
            raise ValueError("denoise spans do not cover the query tensor")

    def ref_points(self) -> np.ndarray:
        """(L, 2) reference points: centers of the associated GT 2D boxes."""
        if not self.col_boxes:
            return np.zeros((0, 2))
        return np.array([[b.cx, b.cy] for b in self.col_boxes])


def make_noisy_anchors(
    gt: Sequence[Anchor3D], cfg: NoiseConfig, seed: int
) -> tuple[list[list[Anchor3D]], list[bool]]:
    """One perturbed copy of every ground-truth box per denoise group.

    Negative groups (the trailing ``negative_ratio`` fraction) use doubled
    noise scales.  Velocities are copied unperturbed.  Deterministic under
    the seed; with all scales zero the copies equal the ground truth
    exactly.
    """
    rng = np.random.default_rng(seed)
    n_neg = int(round(cfg.n_groups * cfg.negative_ratio))
    negative = [g >= cfg.n_groups - n_neg for g in range(cfg.n_groups)]
    groups: list[list[Anchor3D]] = []
    for g in range(cfg.n_groups):
        factor = 2.0 if negative[g] else 1.0
        members = []
        for box in gt:
            size = np.asarray(box.size)
            shift = factor * cfg.center_noise_scale * size * rng.uniform(-1.0, 1.0, 3)
            scale = np.exp(factor * cfg.size_noise_scale * rng.uniform(-1.0, 1.0, 3))
            dyaw = factor * cfg.yaw_noise * rng.uniform(-1.0, 1.0)
            members.append(
                Anchor3D(
                    center=tuple(float(c + d) for c, d in zip(box.center, shift)),
                    size=tuple(float(s * f) for s, f in zip(size, scale)),
                    yaw=float(box.yaw + dyaw),
                    velocity=box.velocity,
                )
            )
        groups.append(members)
    return groups, negative


def allocate_noise(
    gt_2d_assoc: Sequence[Sequence[tuple[int, Box2D]]],
    noisy: Sequence[Sequence[Anchor3D]],
    match_len: int = 0,
) -> DenoiseLayout:
    """Lay out grouped 2D noisy queries from ground-truth associations.

    Each noisy 3D anchor spawns one 2D noisy query per view its ground
    truth is associated with -- the mapping intentionally ignores where the
    noisy anchor itself would project.  Ground truth without any view
    association is skipped with a warning.  Columns within a group are
    ordered by (camera, ground-truth index) so camera sub-groups are
    contiguous.
    """
    n_groups = len(noisy)
    kept_gt = [t for t, assoc in enumerate(gt_2d_assoc) if len(assoc) > 0]
    skipped = [t for t in range(len(gt_2d_assoc)) if t not in kept_gt]
    if skipped:
        log.warning("denoising skips GT without view association: %s", skipped)
    for g, members in enumerate(noisy):
        if len(members) != len(gt_2d_assoc):
            raise ValueError(
                f"group {g} has {len(members)} anchors for {len(gt_2d_assoc)} GT boxes"
            )

    col_group: list[int] = []
    col_gt: list[int] = []
    col_view: list[int] = []
    col_boxes: list[Box2D] = []
    group_spans: list[tuple[int, int]] = []
    pos = match_len
    for g in range(n_groups):
        start = pos
        per_cam: dict[int, list[tuple[int, Box2D]]] = {}
        for ti, t in enumerate(kept_gt):
            for view_id, box in gt_2d_assoc[t]:
                per_cam.setdefault(view_id, []).append((ti, box))
        for view_id in sorted(per_cam):
            for ti, box in per_cam[view_id]:
                col_group.append(g)
                col_gt.append(ti)
                col_view.append(view_id)
                col_boxes.append(box)
                pos += 1
        group_spans.append((start, pos - start))

    return DenoiseLayout(
        match_len=match_len,
        group_spans=group_spans,
        col_group=np.asarray(col_group, dtype=np.intp),
        col_gt=np.asarray(col_gt, dtype=np.intp),
        col_view=np.asarray(col_view, dtype=np.intp),
        col_boxes=col_boxes,
        kept_gt=kept_gt,
    )


def denoise_groups(layout: DenoiseLayout, camera_groups: GroupMask) -> GroupMask:
    """Group ids over [match | denoise groups] for grouped attention.

    ``camera_groups`` covers the match part; noise columns carry their own
    cameras in the layout.  Each id composes the camera with the part (0
    for the match part, g + 1 for denoise group g), so two queries share an
    id iff they share the camera AND the part; match<->denoise and
    denoise<->denoise pairs across groups never do.
    """
    if camera_groups.size != layout.match_len:
        raise ValueError(
            f"camera groups cover {camera_groups.size} queries, "
            f"match part has {layout.match_len}"
        )
    layout.validate()
    cams = np.concatenate([camera_groups.group_of, layout.col_view])
    if cams.size and cams.min() < 0:
        raise ValueError("group id out of range")
    n_cams = int(cams.max(initial=-1)) + 1
    return GroupMask(layout.part_ids() * n_cams + cams)


def gather_noise(layout: DenoiseLayout, group_features: np.ndarray) -> np.ndarray:
    """Duplicate per-(group, GT) noisy 3D features onto their 2D columns.

    ``group_features`` is (n_groups, n_kept_gt, C); returns (L, C) in
    layout column order.
    """
    feats = np.asarray(group_features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[0] != layout.n_groups or feats.shape[1] != len(layout.kept_gt):
        raise ValueError(
            f"group features must be ({layout.n_groups}, {len(layout.kept_gt)}, C), "
            f"got {feats.shape}"
        )
    return feats[layout.col_group, layout.col_gt].copy()


def restore_3d(noisy_2d_updated: np.ndarray, layout: DenoiseLayout) -> np.ndarray:
    """Average each noisy anchor's 2D copies back into its 3D query.

    Mirror of the match-part mapping fusion: group-wise mean per (group,
    GT) pair, preserving group order.  Returns (n_groups, n_kept_gt, C).
    Uses the same ``mean_of_copies`` as the match part, so equal copies
    restore bit-identically.
    """
    q = np.asarray(noisy_2d_updated, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != layout.n_noise:
        raise ValueError(f"expected ({layout.n_noise}, C) updated queries, got {q.shape}")
    n_g, n_t = layout.n_groups, len(layout.kept_gt)
    flat = layout.col_group * n_t + layout.col_gt
    if (np.bincount(flat, minlength=n_g * n_t) == 0).any():
        raise ValueError("a noisy anchor has no 2D copies to restore from")
    return mean_of_copies(flat, q, n_g * n_t).reshape(n_g, n_t, q.shape[1])


def encode_anchor_features(anchors: np.ndarray, channels: int, seed: int = 7) -> np.ndarray:
    """Deterministic feature encoding of (…, 9) anchor rows, for demos."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0 / math.sqrt(channels), 1.0 / math.sqrt(channels), size=(9, channels))
    arr = np.asarray(anchors, dtype=np.float64)
    return arr @ w
