"""Pinhole multi-camera geometry.

Anchor corner generation, point and anchor projection, view validity,
bounding rectangles and truncation flags, plus 2D IoU and the rig JSON
format.  All operations are pure functions of their inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._kernels import box_points, iou_matrix, project_points as _project_points_raw

# Camera-frame depth cutoff in meters.  The image-bounds validity test alone
# would accept points behind the camera (they can still project inside the
# image rectangle), so any point with camera-frame depth <= EPS_DEPTH is
# treated as not projectable.
EPS_DEPTH = 1e-3


@dataclass(frozen=True, eq=False)
class CameraView:
    """One pinhole camera: intrinsics, ego-to-camera pose and image size.

    Camera frame convention: z forward, x right, y down.  ``extrinsic`` is
    the 4x4 rigid transform taking ego coordinates to camera coordinates.
    Base cameras keep their principal point inside the image; derived
    (crop-and-scale) views set ``derived`` because an edge-aligned crop can
    legitimately push the principal point onto or past the image border.
    """

    view_id: int
    intrinsics: np.ndarray
    extrinsic: np.ndarray
    width: int
    height: int
    derived: bool = field(default=False, repr=False)

    def __post_init__(self):
        k = np.array(self.intrinsics, dtype=np.float64).reshape(3, 3)
        e = np.array(self.extrinsic, dtype=np.float64).reshape(4, 4)
        object.__setattr__(self, "intrinsics", k)
        object.__setattr__(self, "extrinsic", e)
        if not (k[0, 0] > 0.0 and k[1, 1] > 0.0):
            raise ValueError(f"view {self.view_id}: focal lengths must be positive")
        if not np.isfinite(k).all():
            raise ValueError(f"view {self.view_id}: non-finite intrinsics")
        if not self.derived and not (
            0.0 <= k[0, 2] < self.width and 0.0 <= k[1, 2] < self.height
        ):
            raise ValueError(
                f"view {self.view_id}: principal point outside the image"
            )
        r = e[:3, :3]
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-9):
            raise ValueError(f"view {self.view_id}: rotation block not orthonormal")
        if not np.allclose(e[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError(f"view {self.view_id}: bad homogeneous bottom row")

    @property
    def fx(self) -> float:
        return float(self.intrinsics[0, 0])

    @property
    def fy(self) -> float:
        return float(self.intrinsics[1, 1])

    @property
    def cx(self) -> float:
        return float(self.intrinsics[0, 2])

    @property
    def cy(self) -> float:
        return float(self.intrinsics[1, 2])

    @property
    def rotation(self) -> np.ndarray:
        return self.extrinsic[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.extrinsic[:3, 3]

    def to_json_obj(self) -> dict:
        obj = {
            "view_id": self.view_id,
            "intrinsics": [float(v) for v in self.intrinsics.reshape(-1)],
            "extrinsic": [float(v) for v in self.extrinsic.reshape(-1)],
            "width": self.width,
            "height": self.height,
        }
        if self.derived:
            obj["derived"] = True
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CameraView":
        return cls(
            view_id=int(obj["view_id"]),
            intrinsics=np.asarray(obj["intrinsics"], dtype=np.float64).reshape(3, 3),
            extrinsic=np.asarray(obj["extrinsic"], dtype=np.float64).reshape(4, 4),
            width=int(obj["width"]),
            height=int(obj["height"]),
            derived=bool(obj.get("derived", False)),
        )


@dataclass(frozen=True)
class Anchor3D:
    """3D box hypothesis: center, size (w, l, h), yaw and BEV velocity."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not all(s > 0.0 for s in self.size):
            raise ValueError(f"anchor sizes must be positive, got {self.size}")

    def as_array(self) -> np.ndarray:
        x, y, z = self.center
        w, l, h = self.size
        vx, vy = self.velocity
        return np.array([x, y, z, w, l, h, self.yaw, vx, vy], dtype=np.float64)

    @classmethod
    def from_array(cls, a: Sequence[float]) -> "Anchor3D":
        a = np.asarray(a, dtype=np.float64).reshape(9)
        return cls(
            center=(float(a[0]), float(a[1]), float(a[2])),
            size=(float(a[3]), float(a[4]), float(a[5])),
            yaw=float(a[6]),
            velocity=(float(a[7]), float(a[8])),
        )


def anchors_to_array(anchors: Sequence[Anchor3D] | np.ndarray) -> np.ndarray:
    """(N, 9) float64 array from a list of anchors (arrays pass through)."""
    if isinstance(anchors, np.ndarray):
        arr = np.ascontiguousarray(anchors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 9:
            raise ValueError(f"anchor array must be (N, 9), got {arr.shape}")
        return arr
    if len(anchors) == 0:
        return np.zeros((0, 9), dtype=np.float64)
    return np.stack([a.as_array() for a in anchors])


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image box: center (cx, cy) and size, in pixels."""

    cx: float
    cy: float
    w: float
    h: float
    view_id: int

    def __post_init__(self):
        if self.w < 0.0 or self.h < 0.0:
            raise ValueError(f"box sizes must be non-negative, got {self.w}x{self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1)."""
        return (
            self.cx - 0.5 * self.w,
            self.cy - 0.5 * self.h,
            self.cx + 0.5 * self.w,
            self.cy + 0.5 * self.h,
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


@dataclass(frozen=True)
class ProjectedAnchor:
    """Result of projecting one anchor's 9 object points into one view.

    ``uv`` holds pixel coordinates for all 9 points (center first); entries
    are NaN where ``present`` is False (point at or behind the image
    plane).  ``valid`` is True iff at least one present point lies strictly
    inside (0, W) x (0, H).  ``rect`` is the bounding rectangle of all
    present points clipped to the image; ``rect_unclipped`` keeps the raw
    extent for truncation analysis.  Both are None when not valid.
    """

    view_id: int
    uv: np.ndarray
    present: np.ndarray
    in_bounds: np.ndarray
    valid: bool
    center_in_view: bool
    rect: Optional[Box2D]
    rect_unclipped: Optional[Box2D]


@dataclass
class ViewProjection:
    """Vectorized projection of N anchors into one view (arrays over N)."""

    view_id: int
    uv: np.ndarray           # (N, 9, 2)
    present: np.ndarray      # (N, 9) bool
    in_bounds: np.ndarray    # (N, 9) bool
    valid: np.ndarray        # (N,) bool
    center_in_view: np.ndarray  # (N,) bool
    rect: np.ndarray         # (N, 4) cx, cy, w, h (clipped), NaN when invalid
    rect_unclipped: np.ndarray  # (N, 4)
    rect_area: np.ndarray    # (N,) clipped area, 0 when invalid


def corners_of(anchor: Anchor3D) -> np.ndarray:
    """Center plus the eight corners of an anchor as a (9, 3) array.

    Row 0 is the center; rows 1-8 are the yaw-rotated cuboid corners,
    bottom face counter-clockwise starting at local (+x, +y), then the top
    face in the same order.  Local x spans the length l, local y the width
    w, z the height h.
    """
    return box_points(anchor.as_array()[None, :])[0]


def project_point(view: CameraView, p: Sequence[float]) -> Optional[tuple[float, float]]:
    """Project one ego-frame point; None when at or behind the image plane."""
    pts = np.asarray(p, dtype=np.float64).reshape(1, 3)
    uv, front = _project_points_raw(
        pts, view.rotation, view.translation, view.fx, view.fy, view.cx, view.cy,
        EPS_DEPTH,
    )
    if not front[0]:
        return None
    return (float(uv[0, 0]), float(uv[0, 1]))


def project_view_points(view: CameraView, points: np.ndarray):
    """Batch point projection: returns ((P, 2) uv, (P,) front mask)."""
    pts = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
    return _project_points_raw(
        pts, view.rotation, view.translation, view.fx, view.fy, view.cx, view.cy,
        EPS_DEPTH,
    )


def project_anchor_batch(view: CameraView, anchors: np.ndarray | Sequence[Anchor3D]) -> ViewProjection:
    """Project N anchors (center + 8 corners each) into one view.

    Validity follows the strict bounds rule: an anchor is valid in the view
    iff any of its 9 projected points (u, v) satisfies 0 < u < W and
    0 < v < H, with points behind the image plane excluded up front.
    """
    arr = anchors_to_array(anchors)
    n = arr.shape[0]
    pts = box_points(arr).reshape(n * 9, 3)
    uv, front = project_view_points(view, pts)
    uv = uv.reshape(n, 9, 2)
    present = front.reshape(n, 9)
    w, h = float(view.width), float(view.height)
    u, v = uv[..., 0], uv[..., 1]
    in_bounds = present & (u > 0.0) & (u < w) & (v > 0.0) & (v < h)
    valid = in_bounds.any(axis=1)
    center_in_view = in_bounds[:, 0]

    rect = np.full((n, 4), np.nan)
    rect_unclipped = np.full((n, 4), np.nan)
    rect_area = np.zeros(n)
    if valid.any():
        sel = np.flatnonzero(valid)
        us, vs, ps = u[sel], v[sel], present[sel]
        x0 = np.where(ps, us, np.inf).min(axis=1)
        x1 = np.where(ps, us, -np.inf).max(axis=1)
        y0 = np.where(ps, vs, np.inf).min(axis=1)
        y1 = np.where(ps, vs, -np.inf).max(axis=1)
        cx0 = np.clip(x0, 0.0, w)
        cx1 = np.clip(x1, 0.0, w)
        cy0 = np.clip(y0, 0.0, h)
        cy1 = np.clip(y1, 0.0, h)
        rect[sel, 0] = 0.5 * (cx0 + cx1)
        rect[sel, 1] = 0.5 * (cy0 + cy1)
        rect[sel, 2] = cx1 - cx0
        rect[sel, 3] = cy1 - cy0
        rect_unclipped[sel, 0] = 0.5 * (x0 + x1)
        rect_unclipped[sel, 1] = 0.5 * (y0 + y1)
        rect_unclipped[sel, 2] = x1 - x0
        rect_unclipped[sel, 3] = y1 - y0
        rect_area[sel] = rect[sel, 2] * rect[sel, 3]
    return ViewProjection(
        view_id=view.view_id,
        uv=uv,
        present=present,
        in_bounds=in_bounds,
        valid=valid,
        center_in_view=center_in_view,
        rect=rect,
        rect_unclipped=rect_unclipped,
        rect_area=rect_area,
    )


def project_anchor(view: CameraView, anchor: Anchor3D) -> ProjectedAnchor:
    """Project one anchor into one view (see ProjectedAnchor)."""
    vp = project_anchor_batch(view, anchor.as_array()[None, :])
    valid = bool(vp.valid[0])
    rect = None
    rect_unclipped = None
    if valid:
        rect = Box2D(*(float(c) for c in vp.rect[0]), view_id=view.view_id)
        rect_unclipped = Box2D(
            *(float(c) for c in vp.rect_unclipped[0]), view_id=view.view_id
        )
    return ProjectedAnchor(
        view_id=view.view_id,
        uv=vp.uv[0],
        present=vp.present[0],
        in_bounds=vp.in_bounds[0],
        valid=valid,
        center_in_view=bool(vp.center_in_view[0]),
        rect=rect,
        rect_unclipped=rect_unclipped,
    )


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two boxes in the same view.

    Raises ValueError for boxes from different views (cross-view IoU is
    undefined).  Returns 0 when the union is empty.
    """
    if a.view_id != b.view_id:
        raise ValueError(
            f"cross-view IoU undefined (views {a.view_id} and {b.view_id})"
        )
    return float(iou_matrix(a.as_array()[None, :], b.as_array()[None, :])[0, 0])


def make_surround_rig(
    n_views: int = 6,
    width: int = 704,
    height: int = 256,
    fx: float = 500.0,
    fy: float = 500.0,
    cam_height: float = 1.5,
    radius: float = 0.5,
) -> list[CameraView]:
    """Evenly spaced horizontal surround rig (view 0 looks along ego +x).

    Cameras sit on a circle of the given radius at cam_height above the
    ego origin, yawed in equal steps; principal point at the image center.
    """
    views = []
    for i in range(n_views):
        yaw = 2.0 * math.pi * i / n_views
        fwd = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        # rows of R are the camera axes expressed in ego coordinates
        r = np.stack([right, down, fwd])
        pos = np.array([radius * fwd[0], radius * fwd[1], cam_height])
        e = np.eye(4)
        e[:3, :3] = r
        e[:3, 3] = -r @ pos
        k = np.array(
            [[fx, 0.0, width / 2.0], [0.0, fy, height / 2.0], [0.0, 0.0, 1.0]]
        )
        views.append(
            CameraView(view_id=i, intrinsics=k, extrinsic=e, width=width, height=height)
        )
    return views


def save_rig(views: Sequence[CameraView], path: str | Path, derived_rules=None) -> None:
    """Write a rig JSON file; see README for the schema."""
    obj = {"views": [v.to_json_obj() for v in views]}
    if derived_rules:
        obj["derived_views"] = [r.to_json_obj() for r in derived_rules]
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def load_rig(path: str | Path) -> list[CameraView]:
    """Read the base views of a rig JSON file (ignores derived_views)."""
    obj = json.loads(Path(path).read_text())
    return [CameraView.from_json_obj(v) for v in obj["views"]]
