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

import numpy as np

from .allocation import mean_of_copies
from .geometry import Boxes2D
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
    rectangle of the associated ground-truth 2D box, whose center serves as
    reference point.
    """

    match_len: int
    group_spans: list[tuple[int, int]]
    col_group: np.ndarray   # (L,) denoise group per noise column
    col_gt: np.ndarray      # (L,) kept-GT index per noise column
    col_view: np.ndarray    # (L,) camera view per noise column
    col_rects: np.ndarray   # (L, 4) cx, cy, w, h per noise column
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
        return self.col_rects[:, 0:2].copy()


def make_noisy_anchors(
    gt: np.ndarray, cfg: NoiseConfig, seed: int
) -> tuple[np.ndarray, list[bool]]:
    """(n_groups, G, 9) perturbed copies of the (G, 9) ground-truth boxes,
    one copy of each box per denoise group, and which groups are negative.

    Negative groups (the trailing ``negative_ratio`` fraction) use doubled
    noise scales.  Velocities are copied unperturbed.  Deterministic under
    the seed: per group and box, three center draws, three size draws and
    one yaw draw.  With all scales zero the copies equal the ground truth
    exactly.
    """
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 9)
    rng = np.random.default_rng(seed)
    n_neg = int(round(cfg.n_groups * cfg.negative_ratio))
    negative = [g >= cfg.n_groups - n_neg for g in range(cfg.n_groups)]
    factor = np.where(negative, 2.0, 1.0)[:, None, None]
    u = rng.uniform(-1.0, 1.0, (cfg.n_groups, gt.shape[0], 7))
    size = gt[:, 3:6]
    noisy = np.broadcast_to(gt, u.shape[:2] + (9,)).copy()
    noisy[..., 0:3] += factor * cfg.center_noise_scale * size * u[..., 0:3]
    noisy[..., 3:6] = size * np.exp(factor * cfg.size_noise_scale * u[..., 3:6])
    noisy[..., 6] += factor[..., 0] * cfg.yaw_noise * u[..., 6]
    return noisy, negative


def allocate_noise(
    gt2d: Boxes2D,
    gt2d_link: np.ndarray,
    noisy: np.ndarray,
    match_len: int = 0,
) -> DenoiseLayout:
    """Lay out grouped 2D noisy queries from ground-truth associations.

    Row j of ``gt2d`` associates ground-truth box ``gt2d_link[j]`` with a
    view; ``noisy`` holds (n_groups, G, 9) noisy copies of the G boxes.
    Each noisy 3D anchor spawns one 2D noisy query per view its ground
    truth is associated with -- the mapping intentionally ignores where the
    noisy anchor itself would project.  Ground truth without any view
    association is skipped with a warning.  Columns within a group are
    ordered by (camera, ground-truth index, row of ``gt2d``) so camera
    sub-groups are contiguous.
    """
    n_groups, n_gt = np.shape(noisy)[:2]
    link = np.asarray(gt2d_link, dtype=np.intp)
    if link.size and not (0 <= link.min() and link.max() < n_gt):
        raise ValueError(f"gt2d links {link.min()}..{link.max()} fall outside {n_gt} GT boxes")
    kept_gt = np.unique(link).tolist()
    skipped = sorted(set(range(n_gt)) - set(kept_gt))
    if skipped:
        log.warning("denoising skips GT without view association: %s", skipped)

    order = np.lexsort((link, gt2d.view_id))  # stable: ties keep gt2d row order
    per_group = len(order)
    return DenoiseLayout(
        match_len=match_len,
        group_spans=[(match_len + g * per_group, per_group) for g in range(n_groups)],
        col_group=np.repeat(np.arange(n_groups, dtype=np.intp), per_group),
        col_gt=np.tile(np.searchsorted(kept_gt, link[order]), n_groups).astype(np.intp),
        col_view=np.tile(gt2d.view_id[order], n_groups),
        col_rects=np.tile(gt2d.rect[order], (n_groups, 1)),
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
