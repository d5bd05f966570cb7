"""NumPy implementations of the hot numeric kernels."""

import numpy as np


def project_points(points, rot, trans, fx, fy, cx, cy, eps_depth):
    """Project ego-frame 3D points through one pinhole camera.

    Args:
        points: (P, 3) float64 ego-frame points.
        rot: (3, 3) ego-to-camera rotation.
        trans: (3,) ego-to-camera translation.
        fx, fy, cx, cy: pinhole intrinsics in pixels.
        eps_depth: camera-frame depth cutoff; points at or below it are
            reported as not-in-front and get NaN pixel coordinates.

    Returns:
        (uv, front): uv is (P, 2) pixel coordinates (NaN where not in
        front), front is a (P,) bool mask of camera-frame depth > eps_depth.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    xc = rot[0, 0] * x + rot[0, 1] * y + rot[0, 2] * z + trans[0]
    yc = rot[1, 0] * x + rot[1, 1] * y + rot[1, 2] * z + trans[1]
    zc = rot[2, 0] * x + rot[2, 1] * y + rot[2, 2] * z + trans[2]
    front = zc > eps_depth
    inv = 1.0 / np.where(front, zc, 1.0)
    u = fx * (xc * inv) + cx
    v = fy * (yc * inv) + cy
    uv = np.empty((pts.shape[0], 2), dtype=np.float64)
    uv[:, 0] = np.where(front, u, np.nan)
    uv[:, 1] = np.where(front, v, np.nan)
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
    n = arr.shape[0]
    out = np.empty((n, 9, 3), dtype=np.float64)
    x, y, z = arr[:, 0], arr[:, 1], arr[:, 2]
    hw, hl, hh = 0.5 * arr[:, 3], 0.5 * arr[:, 4], 0.5 * arr[:, 5]
    c, s = np.cos(arr[:, 6]), np.sin(arr[:, 6])
    out[:, 0, 0] = x
    out[:, 0, 1] = y
    out[:, 0, 2] = z
    for k in range(8):
        sx, sy, sz = _CORNER_SIGNS[k]
        lx = hl * sx
        ly = hw * sy
        out[:, k + 1, 0] = x + (lx * c - ly * s)
        out[:, k + 1, 1] = y + (lx * s + ly * c)
        out[:, k + 1, 2] = z + hh * sz
    return out


def bilinear_sample(fmap, pts):
    """Bilinearly sample a feature map at fractional grid coordinates.

    Args:
        fmap: (H, W, C) float64 map.
        pts: (P, 2) float64 (x, y) grid coordinates; clamped to the map.

    Returns:
        (P, C) sampled values.
    """
    fmap = np.ascontiguousarray(fmap, dtype=np.float64)
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    h, w = fmap.shape[0], fmap.shape[1]
    x = np.clip(pts[:, 0], 0.0, float(w - 1))
    y = np.clip(pts[:, 1], 0.0, float(h - 1))
    x0 = np.minimum(np.floor(x), float(max(w - 2, 0))).astype(np.intp)
    y0 = np.minimum(np.floor(y), float(max(h - 2, 0))).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = (x - x0)[:, None]
    ty = (y - y0)[:, None]
    f00 = fmap[y0, x0]
    f01 = fmap[y0, x1]
    f10 = fmap[y1, x0]
    f11 = fmap[y1, x1]
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
