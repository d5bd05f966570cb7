"""Pinhole multi-camera geometry.

Point projection and the strict in-image rule, rig-wide anchor projection
(validity, clipped rectangles, center flags and reference points), the
`Boxes2D` table of image boxes, plus the rig JSON format and the package's
one JSON reader and writer (`load_json`, `dump_json`, `naming_file`) with
the checks its readers share (`integer`, `real`, `reject_unknown_keys`).
Every other operation is a pure function of its inputs.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._kernels import box_points, project_points as _project_points_raw

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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"view {self.view_id}: image size must be at least 1x1, "
                             f"got {self.width}x{self.height}")
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
            "intrinsics": self.intrinsics.reshape(-1).tolist(),
            "extrinsic": self.extrinsic.reshape(-1).tolist(),
            "width": self.width,
            "height": self.height,
        }
        if self.derived:
            obj["derived"] = True
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CameraView":
        derived = obj.get("derived", False)
        if not isinstance(derived, bool):  # bool("false") is True
            raise ValueError(f"derived must be true or false, got {derived!r}")
        return cls(
            view_id=integer(obj["view_id"], "view_id"),
            intrinsics=np.asarray(obj["intrinsics"], dtype=np.float64).reshape(3, 3),
            extrinsic=np.asarray(obj["extrinsic"], dtype=np.float64).reshape(4, 4),
            width=integer(obj["width"], "width"),
            height=integer(obj["height"], "height"),
            derived=derived,
        )


def anchors_to_array(anchors: np.ndarray) -> np.ndarray:
    """The (N, 9) float64 array of ``anchors``, C-contiguous."""
    arr = np.ascontiguousarray(anchors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 9:
        raise ValueError(f"anchor array must be (N, 9), got {arr.shape}")
    return arr


def finite_rows(values, width: int, what: str) -> np.ndarray:
    """(N, ``width``) float64 array of ``values``, an array or a sequence
    of rows (an empty one gives N = 0); raises ValueError naming ``what``
    on another shape or on a row that is not finite."""
    if not isinstance(values, np.ndarray):
        for i, row in enumerate(values):
            if len(row) != width:
                raise ValueError(f"{what} {i} holds {len(row)} values, expected {width}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"each {what} must hold {width} values, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise ValueError(f"{what} {bad[0]} is not finite: {arr[bad[0]].tolist()}")
    return arr


def column(values, dtype, n: int, what: str) -> np.ndarray:
    """``values`` as a 1-D array of ``dtype``; raises ValueError naming
    ``what`` unless it holds ``n`` entries, one per box, each integral when
    ``dtype`` is an integer type."""
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind == "f" and np.issubdtype(dtype, np.integer):
        bad = np.flatnonzero(~np.isfinite(arr) | (arr != np.floor(arr)))
        if bad.size:
            raise ValueError(f"{what} must hold integers, got {arr[bad[0]].item()!r}")
    arr = arr.astype(dtype, copy=False)
    if arr.shape[0] != n:
        raise ValueError(f"{arr.shape[0]} {what} entries for {n} boxes")
    return arr


@dataclass(frozen=True, eq=False)
class Boxes2D:
    """Axis-aligned image boxes as one table: row i is a box in view
    ``view_id[i]`` of class ``class_id[i]``, with center (cx, cy) and size
    (w, h) in pixels as ``rect[i]``.

    The constructor takes array-likes and checks them: ``rect`` must be
    (M, 4), finite, with non-negative sizes, and the id arrays (M,).
    """

    rect: np.ndarray      # (M, 4) float64
    view_id: np.ndarray   # (M,) intp
    class_id: np.ndarray  # (M,) intp

    def __post_init__(self):
        rect = finite_rows(self.rect, 4, "2D box")
        neg = np.flatnonzero((rect[:, 2:4] < 0.0).any(axis=1))
        if neg.size:
            w, h = rect[neg[0], 2:4].tolist()
            raise ValueError(f"2D box sizes must be non-negative, got {w}x{h}")
        object.__setattr__(self, "rect", rect)
        for name in ("view_id", "class_id"):
            object.__setattr__(self, name, column(getattr(self, name), np.intp, len(rect), name))

    def __len__(self) -> int:
        return self.rect.shape[0]


@dataclass
class RigProjection:
    """Projection of N anchors (center + 8 corners each) into every view.

    Each array has a leading view axis in rig order, so row k of every
    array belongs to ``view_ids[k]``.  ``uv`` is NaN for points at or
    behind the image plane.  ``valid`` and ``center_in_view`` follow the
    strict bounds rule (see ``in_image``): any of the 9 points, or the
    center alone.  ``rect`` bounds the points in front of the camera,
    clipped to the image; it is NaN, and ``rect_area`` 0, where the anchor
    is not valid.  ``ref_point`` is the projected center where it is in
    view, else the center of ``rect``.
    """

    view_ids: np.ndarray     # (V,)
    uv: np.ndarray           # (V, N, 9, 2)
    valid: np.ndarray        # (V, N) bool
    center_in_view: np.ndarray  # (V, N) bool
    rect: np.ndarray         # (V, N, 4) cx, cy, w, h
    rect_area: np.ndarray    # (V, N)
    ref_point: np.ndarray    # (V, N, 2)

    def anchors(self, start: int, stop: int) -> "RigProjection":
        """The projection of anchors start:stop alone, as views of these arrays."""
        return RigProjection(self.view_ids, *(
            a[:, start:stop] for a in (self.uv, self.valid, self.center_in_view, self.rect,
                                       self.rect_area, self.ref_point)))


def project_point(view: CameraView, p: Sequence[float]) -> Optional[tuple[float, float]]:
    """Project one ego-frame point; None when at or behind the image plane."""
    uv, front, _ = project_views([view], p)
    return (float(uv[0, 0, 0]), float(uv[0, 0, 1])) if front[0, 0] else None


def in_image(uv: np.ndarray, front: np.ndarray, size) -> np.ndarray:
    """Strict bounds rule: in front of the camera, 0 < u < W and 0 < v < H,
    with the image (W, H) on the last axis of ``size``, broadcast to ``uv``."""
    (u, v), (w, h) = np.moveaxis(uv, -1, 0), np.moveaxis(np.asarray(size), -1, 0)
    return front & (u > 0.0) & (u < w) & (v > 0.0) & (v < h)


def project_views(views: Sequence[CameraView], points: np.ndarray):
    """Project (P, 3) ego-frame points into every view with one kernel call.

    Returns ((V, P, 2) uv, (V, P) front mask, (V, P) in-image mask).  Each
    view's rows keep the bits of projecting into that view alone.
    """
    k, e = np.stack([v.intrinsics for v in views]), np.stack([v.extrinsic for v in views])
    uv, front = _project_points_raw(np.reshape(points, (-1, 3)), e[:, :3, :3], e[:, :3, 3],
                                    k[:, 0, 0], k[:, 1, 1], k[:, 0, 2], k[:, 1, 2], EPS_DEPTH)
    return uv, front, in_image(uv, front, [[(v.width, v.height)] for v in views])


def project_rig(views: Sequence[CameraView], anchors: np.ndarray) -> RigProjection:
    """Project N anchors into every view as one (view, anchor) table.

    The 9 object points are built once and projected into all views in one
    call, with the same elementwise operations per view, so a view's row
    does not depend on which other views are projected alongside it.
    """
    arr = anchors_to_array(anchors)
    shape = (len(views), arr.shape[0], 9)
    uv, front, inside = project_views(views, box_points(arr).reshape(-1, 3))
    uv, front, inside = uv.reshape(shape + (2,)), front.reshape(shape), inside.reshape(shape)
    valid = inside.any(axis=2)
    center_in_view = inside[:, :, 0]

    # rectangles of the valid (view, anchor) pairs only; lo and hi are the
    # clipped (x0, y0) and (x1, y1), reduced over a contiguous point axis
    rect = np.full(shape[:2] + (4,), np.nan)
    rect_area = np.zeros(shape[:2])
    vi, ai = np.nonzero(valid)
    size = np.array([(v.width, v.height) for v in views], dtype=np.float64)[vi]
    seen, pts_uv = front[vi, ai, None, :], uv[vi, ai].transpose(0, 2, 1).copy()
    lo = np.clip(np.where(seen, pts_uv, np.inf).min(axis=2), 0.0, size)
    hi = np.clip(np.where(seen, pts_uv, -np.inf).max(axis=2), 0.0, size)
    rect[vi, ai, 0:2] = 0.5 * (lo + hi)
    rect[vi, ai, 2:4] = hi - lo
    rect_area[vi, ai] = rect[vi, ai, 2] * rect[vi, ai, 3]
    return RigProjection(
        view_ids=np.array([v.view_id for v in views], dtype=np.intp),
        uv=uv,
        valid=valid,
        center_in_view=center_in_view,
        rect=rect,
        rect_area=rect_area,
        ref_point=np.where(center_in_view[..., None], uv[:, :, 0, :], rect[..., 0:2]),
    )


def make_surround_rig(n_views: int = 6) -> list[CameraView]:
    """Evenly spaced horizontal surround rig (view 0 looks along ego +x).

    Cameras of 704x256 pixels and 500 px focal length sit on a 0.5 m
    circle 1.5 m above the ego origin, yawed in equal steps; principal
    point at the image center.
    """
    width, height, fx, fy, cam_height, radius = 704, 256, 500.0, 500.0, 1.5, 0.5
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


def load_json(path: str | Path) -> dict:
    """The JSON object in a file; raises ValueError naming the file when the
    text is not JSON or its top level is not an object."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


@contextlib.contextmanager
def naming_file(source):
    """Re-raise a missing key or a bad value read from ``source`` (a file)
    as a ValueError that names it, unless the message names it already."""
    prefix = f"{source}: "
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{prefix}missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        if str(exc).startswith(prefix):
            raise
        raise ValueError(f"{prefix}{exc}") from exc


def integer(value, name: str) -> int:
    """``value`` as an int when it is an integer, a NumPy one too; a bool, a
    float or anything else raises a ValueError naming ``name``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# the largest seed: scene files and run summaries hold a seed as a 64-bit JSON integer
MAX_SEED = 2**64 - 1


def check_seed(value: int, name: str) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is a seed, an
    integer within [0, ``MAX_SEED``]."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if value > MAX_SEED:
        raise ValueError(f"{name} must be at most 2**64 - 1, got {value}")


def view_key(key: str, name: str) -> int:
    """A view id written as a JSON object key of ``name``: digits with an
    optional minus sign (``int`` alone reads "1_0" as 10 and " 1" as 1),
    in the one spelling ``str`` gives, so that two keys never name one view."""
    if not re.fullmatch("-?[0-9]+", key):
        raise ValueError(f"{name} view key must be an integer, got {key!r}")
    if str(int(key)) != key:
        raise ValueError(f"{name} view key must be written {int(key)}, got {key!r}")
    return int(key)


def real(value, name: str) -> float:
    """``float(value)``, but a bool raises a ValueError naming ``name``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def reject_unknown_keys(keys, allowed, what: str) -> None:
    """Raise on the first of ``keys`` not in ``allowed``: 'unknown {what} key ...'."""
    unknown = [key for key in keys if key not in allowed]
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


def json_bytes(obj, *, indent: bool = False) -> bytes:
    """``obj`` as UTF-8 JSON and a newline: compact, or indented by two
    spaces with ``indent``.

    Floats are written in their shortest round-tripping form, NaN and
    infinities as null.  C-contiguous float64, int64 and bool arrays are
    written byte for byte like their ``tolist()``.
    """
    import orjson  # imported on first write; `mvdet --version` never needs it

    option = orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    option |= orjson.OPT_INDENT_2 if indent else 0
    return orjson.dumps(obj, option=option)


def dump_json(obj, path: str | Path | None, *, indent: bool = False) -> None:
    """Write ``json_bytes(obj, indent=indent)`` to ``path``, or its text to
    stdout when ``path`` is None."""
    data = json_bytes(obj, indent=indent)
    if path is None:
        sys.stdout.write(data.decode())
    else:
        Path(path).write_bytes(data)


def save_rig(views: Sequence[CameraView], path: str | Path, derived_rules=None) -> None:
    """Write a rig JSON file; see README for the schema."""
    obj = {"views": [v.to_json_obj() for v in views]}
    if derived_rules:
        obj["derived_views"] = [r.to_json_obj() for r in derived_rules]
    dump_json(obj, path, indent=True)


def rig_from_json_obj(views: Sequence[dict], source: str) -> list[CameraView]:
    """Cameras from a JSON view list; ``source`` names it in the error
    raised when two views share an id."""
    rig = [CameraView.from_json_obj(v) for v in views]
    seen = set()
    for view in rig:
        if view.view_id in seen:
            raise ValueError(f"{source}: view id {view.view_id} appears more than once")
        seen.add(view.view_id)
    return rig


def load_rig(path: str | Path) -> list[CameraView]:
    """Read the base views of a rig JSON file (ignores derived_views)."""
    with naming_file(path):
        return rig_from_json_obj(load_json(path)["views"], str(path))
