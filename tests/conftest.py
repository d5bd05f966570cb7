import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from mvdet.geometry import CameraView, make_surround_rig, project_rig


@pytest.fixture
def rig6():
    return make_surround_rig(6)


@pytest.fixture
def front_view():
    """Single forward-looking 704x256 camera at the ego origin height 1.5 m."""
    return make_surround_rig(1)[0]


def random_view(rng: np.random.Generator, view_id: int = 0,
                width: int = 704, height: int = 256) -> CameraView:
    """Random orthonormal camera pose with sane intrinsics."""
    fx = rng.uniform(200.0, 900.0)
    fy = rng.uniform(200.0, 900.0)
    cx = rng.uniform(0.25, 0.75) * width
    cy = rng.uniform(0.25, 0.75) * height
    k = np.array([[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]])
    # random rotation via QR of a Gaussian matrix
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    e = np.eye(4)
    e[:3, :3] = q
    e[:3, 3] = rng.uniform(-2.0, 2.0, 3)
    return CameraView(view_id=view_id, intrinsics=k, extrinsic=e,
                      width=width, height=height)


def project_homogeneous(view: CameraView, pts: np.ndarray):
    """Independent projection oracle via the stacked 3x4 homogeneous matrix.

    Returns (uv, depth): uv from P = K [R|t] followed by perspective
    division; depth is the camera-frame z.
    """
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    p34 = view.intrinsics @ view.extrinsic[:3, :]
    hom = np.hstack([pts, np.ones((pts.shape[0], 1))]) @ p34.T
    depth = hom[:, 2]
    with np.errstate(all="ignore"):
        uv = hom[:, :2] / depth[:, None]
    return uv, depth


def project_one_view(view: CameraView, anchors) -> SimpleNamespace:
    """Row 0 of ``project_rig([view], anchors)``: each array without its
    view axis, plus the scalar ``view_id``."""
    proj = project_rig([view], anchors)
    row = {f.name: getattr(proj, f.name)[0] for f in dataclasses.fields(proj)}
    row["view_id"] = int(row.pop("view_ids"))
    return SimpleNamespace(**row)


def random_rig_with_crop(rng):
    """Four random cameras plus a crop-and-scale view derived from the first."""
    from mvdet.crop_scale import CropRule, extend_rig

    views = [random_view(rng, view_id=i) for i in range(4)]
    return extend_rig(views, [CropRule(source_view_id=0, scale_rate=2.0)])


def random_anchor_array(rng, n):
    """Anchors around the rig origin: many straddle or sit behind the cameras."""
    anchors = np.zeros((n, 9))
    anchors[:, 0:3] = rng.uniform(-15, 15, size=(n, 3))
    anchors[:, 3:6] = rng.uniform(0.3, 6.0, size=(n, 3))
    anchors[:, 6] = rng.uniform(-np.pi, np.pi, n)
    return anchors


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
