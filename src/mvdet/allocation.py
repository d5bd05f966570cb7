"""Dynamic query allocation: the 3D-to-2D mapping matrix and its algebra.

Builds one 2D query column per valid (anchor, view) pair, capped per camera
for truncated candidates, and provides the gather (Q2d = T^T Q3d) and
mean-scatter (T Q / colsum) operations against that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import CameraView, anchors_to_array, project_rig


@dataclass(frozen=True)
class AllocationLimits:
    """Caps applied during allocation.

    ``max_truncated_per_camera`` bounds the number of truncated (projection
    center) columns each camera group may contribute; ``size_clamp`` is the
    elementwise upper bound (w, l, h) applied to anchor sizes before
    projection.
    """

    max_truncated_per_camera: int = 100
    size_clamp: tuple[float, float, float] = (35.0, 35.0, 10.0)

    def __post_init__(self):
        if self.max_truncated_per_camera <= 0:
            raise ValueError("max_truncated_per_camera must be positive")
        if any(s <= 0 for s in self.size_clamp):
            raise ValueError("size clamp values must be positive")


@dataclass
class MappingMatrix:
    """Sparse N x M assignment from 3D queries to their 2D query columns.

    Every column has exactly one owning row; columns are ordered by camera
    group (all of the first rig view, then the next, ...), and by ascending
    anchor index within a group.
    """

    n_3d: int
    n_2d: int
    rows: np.ndarray          # (M,) owning 3D row per column
    camera_of_col: np.ndarray  # (M,) view id per column

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.intp).reshape(-1)
        self.camera_of_col = np.asarray(self.camera_of_col, dtype=np.intp).reshape(-1)
        if self.rows.shape[0] != self.n_2d or self.camera_of_col.shape[0] != self.n_2d:
            raise ValueError("column arrays must have length n_2d")
        if self.n_2d and (self.rows.min() < 0 or self.rows.max() >= self.n_3d):
            raise ValueError("row index out of range")


@dataclass
class AllocationResult:
    """Mapping plus the per-column geometry the 2D decoder consumes.

    ``truncation[j]`` is the center indicator of column j: True when the
    projected anchor center itself lies in the view (NOT truncated), False
    for truncated columns.  ``ref_points[j]`` is the projected anchor
    center when it is in view, else the center of the clipped bounding
    rectangle.  ``dropped`` lists (anchor_index, view_id) pairs whose
    clipped rectangle degenerated to zero area and were therefore not
    allocated; ``capped`` records per-view counts removed by the truncated
    cap.  ``rects[j]`` is column j's clipped bounding rectangle as
    (cx, cy, w, h); its view is ``mapping.camera_of_col[j]``.
    """

    mapping: MappingMatrix
    ref_points: np.ndarray    # (M, 2)
    truncation: np.ndarray    # (M,) bool
    rects: np.ndarray         # (M, 4) cx, cy, w, h
    dropped: list[tuple[int, int]] = field(default_factory=list)
    capped: dict[int, int] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "format": "mvdet-allocation/1",
            "n_3d": self.mapping.n_3d,
            "n_2d": self.mapping.n_2d,
            "rows": [int(r) for r in self.mapping.rows],
            "camera_of_col": [int(c) for c in self.mapping.camera_of_col],
            "ref_points": [[float(u), float(v)] for u, v in self.ref_points],
            "truncation": [bool(t) for t in self.truncation],
            "rects": [
                [*r, v] for r, v in zip(self.rects.tolist(), self.mapping.camera_of_col.tolist())
            ],
            "dropped_zero_area": [[int(i), int(v)] for i, v in self.dropped],
            "capped_per_view": {str(k): int(v) for k, v in self.capped.items()},
        }


def clamp_anchors(anchors: np.ndarray, limits: AllocationLimits | None = None) -> np.ndarray:
    """Clamp the sizes of (N, 9) anchors elementwise to the configured
    maximum, in a copy; centers, yaw and velocity are untouched."""
    limits = limits or AllocationLimits()
    out = anchors_to_array(anchors).copy()
    out[:, 3:6] = np.minimum(out[:, 3:6], np.asarray(limits.size_clamp, dtype=np.float64))
    return out


def allocate(
    anchors: np.ndarray,
    rig: Sequence[CameraView],
    limits: AllocationLimits | None = None,
) -> AllocationResult:
    """Build the mapping matrix and per-column data for one set of anchors.

    One column is created per (view, anchor) pair that passes the validity
    rule, in view-major order with ascending anchors, so camera groups are
    contiguous.
    Within a camera, truncated candidates (anchor center not in the view)
    beyond the per-camera cap are discarded, keeping those with the largest
    clipped rectangle area (ties favor the lower anchor index).  Columns
    whose clipped rectangle has zero area are dropped and reported rather
    than allocated.  Anchors are expected to be clamped already.
    """
    if len(rig) == 0:
        raise ValueError("empty rig")
    limits = limits or AllocationLimits()
    arr = anchors_to_array(anchors)
    proj = project_rig(rig, arr)
    keep = proj.valid & (proj.rect_area > 0.0)
    vi, ai = np.nonzero(proj.valid & ~keep)
    dropped = list(zip(ai.tolist(), proj.view_ids[vi].tolist()))

    truncated = keep & ~proj.center_in_view
    cap = limits.max_truncated_per_camera
    capped: dict[int, int] = {}
    for k in np.flatnonzero(truncated.sum(axis=1) > cap):
        trunc_idx = np.flatnonzero(truncated[k])
        # keep the largest clipped areas; lexsort's last key dominates,
        # ties fall back to the lower anchor index
        order = np.lexsort((trunc_idx, -proj.rect_area[k, trunc_idx]))
        keep[k, trunc_idx[order[cap:]]] = False
        capped[int(proj.view_ids[k])] = int(trunc_idx.size - cap)

    # view-major with ascending anchors: the camera groups are contiguous
    vi, ai = np.nonzero(keep)
    return AllocationResult(
        mapping=MappingMatrix(
            n_3d=arr.shape[0], n_2d=ai.size, rows=ai, camera_of_col=proj.view_ids[vi]
        ),
        ref_points=proj.ref_point[vi, ai],
        truncation=proj.center_in_view[vi, ai],
        rects=proj.rect[vi, ai],
        dropped=dropped,
        capped=capped,
    )


def gather_2d(mapping: MappingMatrix, q3d: np.ndarray) -> np.ndarray:
    """Build 2D query features by duplicating each owning 3D row.

    Sparse equivalent of the dense product T^T Q3d (exactly equal, since
    each column has a single unit entry).
    """
    q3d = np.asarray(q3d, dtype=np.float64)
    if q3d.ndim != 2 or q3d.shape[0] != mapping.n_3d:
        raise ValueError(
            f"q3d must be ({mapping.n_3d}, C), got {q3d.shape}"
        )
    return q3d[mapping.rows].copy()


def mean_of_copies(owner: np.ndarray, copies: np.ndarray, n: int) -> np.ndarray:
    """Mean of the rows of ``copies`` per owner: row i averages the copies
    whose ``owner`` is i, for i in 0..n-1; owners without a copy get zeros.

    Computed as first copy + mean of differences, in copy order, so an owner
    whose copies are all equal gets that value back bit-identically.
    """
    out = np.zeros((n, copies.shape[1]))
    if owner.size == 0:
        return out
    counts = np.bincount(owner, minlength=n)
    order = np.argsort(owner, kind="stable")  # each owner's copies together, in copy order
    start = np.cumsum(counts) - counts
    owned = np.flatnonzero(counts)
    anchor = copies[order[start[owned]]]
    diff_sum = np.zeros_like(anchor)
    for r in range(counts.max()):  # every owner's r-th copy at once keeps the copy order
        has = counts[owned] > r
        diff_sum[has] += copies[order[start[owned[has]] + r]] - anchor[has]
    out[owned] = anchor + diff_sum / counts[owned, None]
    return out


def scatter_mean(mapping: MappingMatrix, q2d: np.ndarray) -> np.ndarray:
    """Average each 3D query's 2D columns back into one row.

    Sparse equivalent of T Q2d / colsum(T); rows that own no column are
    zero-filled (their denominator would be 0).  See ``mean_of_copies``.
    """
    q2d = np.asarray(q2d, dtype=np.float64)
    if q2d.ndim != 2 or q2d.shape[0] != mapping.n_2d:
        raise ValueError(
            f"q2d must be ({mapping.n_2d}, C), got {q2d.shape}"
        )
    return mean_of_copies(mapping.rows, q2d, mapping.n_3d)
