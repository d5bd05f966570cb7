"""NumPy implementations of the hot numeric kernels."""

import numpy as np


def project_points(points, rot, trans, fx, fy, cx, cy, eps_depth):
    """Project (P, 3) float64 ego-frame points through pinhole cameras.

    One camera is a (3, 3) ego-to-camera rotation, a (3,) translation and
    scalar intrinsics in pixels; V stacked cameras give (V, 3, 3), (V, 3)
    and (V,) and add a leading view axis to the results, each view keeping
    the bits of its camera alone.  Returns (uv, front): (P, 2) pixel
    coordinates and the (P,) mask of camera-frame depth > eps_depth; uv is
    NaN where the point is not in front.
    """
    x, y, z = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
    # a trailing axis on every camera parameter broadcasts it over the points
    rot, trans, fx, fy, cx, cy = (np.asarray(a)[..., None] for a in (rot, trans, fx, fy, cx, cy))
    xc = rot[..., 0, 0, :] * x + rot[..., 0, 1, :] * y + rot[..., 0, 2, :] * z + trans[..., 0, :]
    yc = rot[..., 1, 0, :] * x + rot[..., 1, 1, :] * y + rot[..., 1, 2, :] * z + trans[..., 1, :]
    zc = rot[..., 2, 0, :] * x + rot[..., 2, 1, :] * y + rot[..., 2, 2, :] * z + trans[..., 2, :]
    front = zc > eps_depth
    inv = 1.0 / np.where(front, zc, 1.0)
    u = fx * (xc * inv) + cx
    v = fy * (yc * inv) + cy
    uv = np.empty(front.shape + (2,), dtype=np.float64)
    uv[..., 0] = np.where(front, u, np.nan)
    uv[..., 1] = np.where(front, v, np.nan)
    return uv, front


# Corner sign pattern: bottom face counter-clockwise starting at (+x, +y),
# then the top face in the same x/y order.  Local x spans the box length,
# local y the width, z the height.
_CORNER_SIGNS = np.array(
    [
        [+1.0, +1.0, -1.0],
        [-1.0, +1.0, -1.0],
        [-1.0, -1.0, -1.0],
        [+1.0, -1.0, -1.0],
        [+1.0, +1.0, +1.0],
        [-1.0, +1.0, +1.0],
        [-1.0, -1.0, +1.0],
        [+1.0, -1.0, +1.0],
    ],
    dtype=np.float64,
)


def box_points(anchors):
    """Center plus eight yaw-rotated cuboid corners per anchor.

    Args:
        anchors: (N, 9) float64 rows (x, y, z, w, l, h, yaw, vx, vy).

    Returns:
        (N, 9, 3) points; row 0 of each anchor is the center, rows 1-8 the
        corners (bottom face CCW from +x+y, then the top face).
    """
    arr = np.ascontiguousarray(anchors, dtype=np.float64)
    out = np.empty((arr.shape[0], 9, 3), dtype=np.float64)
    # (N, 1) columns broadcast over the eight corners of _CORNER_SIGNS
    x, y, z = arr[:, 0:1], arr[:, 1:2], arr[:, 2:3]
    hw, hl, hh = 0.5 * arr[:, 3:4], 0.5 * arr[:, 4:5], 0.5 * arr[:, 5:6]
    c, s = np.cos(arr[:, 6:7]), np.sin(arr[:, 6:7])
    lx = hl * _CORNER_SIGNS[:, 0]
    ly = hw * _CORNER_SIGNS[:, 1]
    out[:, 0] = arr[:, 0:3]
    out[:, 1:, 0] = x + (lx * c - ly * s)
    out[:, 1:, 1] = y + (lx * s + ly * c)
    out[:, 1:, 2] = z + hh * _CORNER_SIGNS[:, 2]
    return out


def bilinear_sample(atlas, pts, start, width, height):
    """Bilinearly sample (H, W, C) maps stored row-major in one (R, C) atlas.

    Point i reads the W x H map starting at atlas row ``start[i]`` at grid
    coordinates ``pts[i]`` = (x, y), clamped to the map; ``start``,
    ``width`` and ``height`` are (P,) or scalars.  A single map is the call
    ``(fmap.reshape(-1, C), pts, 0, W, H)``.  Returns (P, C) samples.
    """
    atlas = np.ascontiguousarray(atlas, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    w, h = np.asarray(width, dtype=np.intp), np.asarray(height, dtype=np.intp)
    x = np.clip(pts[:, 0], 0.0, w - 1)
    y = np.clip(pts[:, 1], 0.0, h - 1)
    x0 = np.minimum(np.floor(x), np.maximum(w - 2, 0)).astype(np.intp)
    y0 = np.minimum(np.floor(y), np.maximum(h - 2, 0)).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = (x - x0)[:, None]
    ty = (y - y0)[:, None]
    f00 = atlas[start + y0 * w + x0]
    f01 = atlas[start + y0 * w + x1]
    f10 = atlas[start + y1 * w + x0]
    f11 = atlas[start + y1 * w + x1]
    return (1.0 - ty) * ((1.0 - tx) * f00 + tx * f01) + ty * (
        (1.0 - tx) * f10 + tx * f11
    )


def iou_matrix(a, b):
    """Pairwise IoU of axis-aligned boxes given as (cx, cy, w, h) rows.

    Returns an (A, B) matrix; pairs with zero union get IoU 0.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    ax0 = a[:, 0] - 0.5 * a[:, 2]
    ax1 = a[:, 0] + 0.5 * a[:, 2]
    ay0 = a[:, 1] - 0.5 * a[:, 3]
    ay1 = a[:, 1] + 0.5 * a[:, 3]
    bx0 = b[:, 0] - 0.5 * b[:, 2]
    bx1 = b[:, 0] + 0.5 * b[:, 2]
    by0 = b[:, 1] - 0.5 * b[:, 3]
    by1 = b[:, 1] + 0.5 * b[:, 3]
    iw = np.minimum(ax1[:, None], bx1[None, :]) - np.maximum(ax0[:, None], bx0[None, :])
    ih = np.minimum(ay1[:, None], by1[None, :]) - np.maximum(ay0[:, None], by0[None, :])
    iw = np.maximum(iw, 0.0)
    ih = np.maximum(ih, 0.0)
    inter = iw * ih
    # areas from the same corner differences as the intersection, so
    # identical boxes come out at exactly 1
    area_a = (ax1 - ax0) * (ay1 - ay0)
    area_b = (bx1 - bx0) * (by1 - by0)
    union = (area_a[:, None] + area_b[None, :]) - inter
    out = np.zeros_like(inter)
    pos = union > 0.0
    out[pos] = inter[pos] / union[pos]
    return out
