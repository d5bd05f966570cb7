import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mvdet._kernels import box_points, iou_matrix, project_points
from mvdet.geometry import EPS_DEPTH, Boxes2D, CameraView, make_surround_rig, project_rig
from mvdet.groupattn import RigFeatures, softmax_rows
from mvdet.metrics import Detections, MatchParams
from mvdet.simulator import Scene


@pytest.fixture
def rig6():
    return make_surround_rig(6)


@pytest.fixture
def front_view():
    """Single forward-looking 704x256 camera at the ego origin height 1.5 m."""
    return make_surround_rig(1)[0]


def box9(center, size, yaw=0.0, velocity=(0.0, 0.0)) -> np.ndarray:
    """One 3D box as the (9,) row [x, y, z, w, l, h, yaw, vx, vy]."""
    return np.array([*center, *size, yaw, *velocity], dtype=np.float64)


def corners(box) -> np.ndarray:
    """(9, 3) center and eight corners of one (9,) box, in `box_points` order."""
    return box_points(np.asarray(box, dtype=np.float64)[None, :])[0]


def take(boxes: Boxes2D, rows) -> Boxes2D:
    """The given rows of a Boxes2D table."""
    return Boxes2D(boxes.rect[rows], boxes.view_id[rows], boxes.class_id[rows])


def scored(boxes3d, classes3d, boxes2d: Boxes2D) -> Detections:
    """Detections with every score 1."""
    return Detections(boxes3d, classes3d, np.ones(len(classes3d)), boxes2d, np.ones(len(boxes2d)))


def one_box_scene(rig, box, cls) -> Scene:
    """Scene of one (9,) box of class ``cls``, with a 2D ground-truth box in
    every view where its projected rectangle has area, found view by view."""
    rect, views = [], []
    for view in rig:
        pa = project_one_view(view, np.asarray(box)[None])
        if pa.valid[0] and pa.rect_area[0] > 0:
            rect.append(pa.rect[0])
            views.append(view.view_id)
    return Scene(seed=0, frame_id=0, anchors=[box], classes=[cls],
                 gt2d=Boxes2D(rect, views, [cls] * len(views)), gt2d_link=[0] * len(views),
                 rig=list(rig))


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


def rig_features(maps_by_view):
    """RigFeatures from {view_id: (width, height, [(H, W, C) map per scale])},
    each map copied into its view's atlas rows."""
    views = [SimpleNamespace(view_id=v, width=w, height=h)
             for v, (w, h, _) in maps_by_view.items()]
    per_view = [maps for _, _, maps in maps_by_view.values()]
    sizes = [[maps[s].shape[1::-1] for maps in per_view] for s in range(len(per_view[0]))]
    feats = RigFeatures(views, sizes, per_view[0][0].shape[2])
    for k, maps in enumerate(per_view):
        for s, fmap in enumerate(maps):
            feats.view_map(s, k)[...] = fmap
    return feats


def view_maps(features, view_id):
    """(width, height, [(H, W, C) map per scale]) of one view of a RigFeatures."""
    k = int(np.flatnonzero(features.view_ids == view_id)[0])
    width, height = features.image_size[k].tolist()
    return width, height, [features.view_map(s, k) for s in range(len(features.atlas))]


# ------------------------------------------------------------------------------
# The per-view loops that the rig-wide projection and feature sampler replaced,
# kept as bit-for-bit references.

def project_view_points(view: CameraView, points):
    """Single-camera projection: ((P, 2) uv, (P,) front mask)."""
    pts = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
    return project_points(
        pts, view.rotation, view.translation, view.fx, view.fy, view.cx, view.cy, EPS_DEPTH,
    )


def in_image_per_view(view: CameraView, uv, front):
    """Strict bounds rule of one view: in front, 0 < u < W and 0 < v < H."""
    u, v = uv[..., 0], uv[..., 1]
    return front & (u > 0.0) & (u < view.width) & (v > 0.0) & (v < view.height)


def bilinear_per_map(fmap, pts):
    """Bilinear sample of one (H, W, C) map at (P, 2) clamped grid coordinates."""
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


def mix_scales(vf, pts, params):
    """Scale-mixed samples of one view; ``vf`` is (width, height, maps)."""
    width, height, maps = vf
    weights = softmax_rows(params.scale_logits[None, :].copy())[0]
    combined = np.zeros((pts.shape[0], params.w_proj.shape[0]))
    for s, fmap in enumerate(maps):
        hs, ws = fmap.shape[0], fmap.shape[1]
        mx = pts[:, 0] * (ws / width) - 0.5
        my = pts[:, 1] * (hs / height) - 0.5
        combined = combined + weights[s] * bilinear_per_map(fmap, np.stack([mx, my], axis=1))
    return combined


def ref_point_cross_attention_per_view(x, ref_points, features, view_of, params):
    """Reference-point sampling, one camera group at a time."""
    out = np.zeros((np.shape(x)[0], params.w_proj.shape[1]))
    view_of = np.asarray(view_of)
    for view_id in np.unique(view_of):
        idx = np.flatnonzero(view_of == view_id)
        vf = view_maps(features, view_id)
        out[idx] = mix_scales(vf, ref_points[idx], params) @ params.w_proj
    return out


def cross_attention_3d_per_view(rig, anchors, features, params):
    """3D-query sampling, one view at a time: each anchor center samples the
    views it falls into, and the samples are averaged."""
    n = anchors.shape[0]
    acc = np.zeros((n, params.w_proj.shape[0]))
    cnt = np.zeros(n)
    for view in rig:
        uv, front = project_view_points(view, anchors[:, 0:3])
        idx = np.flatnonzero(in_image_per_view(view, uv, front))
        if idx.size == 0:
            continue
        acc[idx] += mix_scales(view_maps(features, view.view_id), uv[idx], params)
        cnt[idx] += 1.0
    seen = cnt > 0
    acc[seen] = acc[seen] / cnt[seen, None]
    return acc @ params.w_proj


# ------------------------------------------------------------------------------
# Float64 attention: the oracle that the package's float32 attention is held to.

def per_head_reference(x, kv, params):
    """Dense float64 attention of every row of x over kv, as a per-head loop
    with fresh temporaries."""
    h = params.heads
    d = x.shape[1] // h
    q = x @ params.w_q
    k = kv @ params.w_k
    v = kv @ params.w_v
    out = np.empty_like(x)
    for head in range(h):
        sl = slice(head * d, (head + 1) * d)
        scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(d)
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        out[:, sl] = (e / e.sum(axis=1, keepdims=True)) @ v[:, sl]
    return out


def float64_attention(x, params, *, groups=None, kv=None):
    """``groupattn.attention`` computed in float64 by ``per_head_reference``:
    every row over ``kv`` (default x), or each group of ``groups`` over
    itself."""
    x = np.asarray(x, dtype=np.float64)
    if groups is None:
        return per_head_reference(x, x if kv is None else np.asarray(kv, dtype=np.float64), params)
    groups = np.asarray(groups)
    out = np.empty(x.shape)
    for gid in np.unique(groups):
        rows = groups == gid
        out[rows] = per_head_reference(x[rows], x[rows], params)
    return out


# ------------------------------------------------------------------------------
# Per-pair and dense forms of the mapping and the association metric, kept as
# references for the sparse and whole-frame code.

def to_dense(mapping) -> np.ndarray:
    """The (n_3d, n_2d) 0/1 matrix T of a MappingMatrix: T[row, col] = 1
    where ``row`` owns column ``col``."""
    t = np.zeros((mapping.n_3d, mapping.n_2d))
    t[mapping.rows, np.arange(mapping.n_2d)] = 1.0
    return t


def candidate_match(box, class_id, j, scene, params=None) -> bool:
    """Candidate predicate of one (3D prediction, 2D ground truth) pair: the
    (9,) predicted ``box`` of class ``class_id`` and row ``j`` of
    ``scene.gt2d``.

    True iff the 3D centers of the prediction and the 2D box's linked 3D
    ground truth are within tau_dis, the prediction's projected rectangle
    overlaps the 2D ground truth with IoU >= tau_iou, and the 3D classes
    agree.
    """
    params = params or MatchParams()
    link = int(scene.gt2d_link[j])
    g3 = scene.anchors[link]
    if int(scene.classes[link]) != class_id:
        return False
    d = float(np.linalg.norm(np.asarray(box[:3]) - g3[:3]))
    if d > params.tau_dis:
        return False
    view_id = int(scene.gt2d.view_id[j])
    view = next((v for v in scene.rig if v.view_id == view_id), None)
    if view is None:
        raise ValueError(f"scene rig lacks view {view_id}")
    proj = project_rig([view], np.asarray(box, dtype=np.float64)[None, :])
    if not proj.valid[0, 0]:
        return False
    iou = iou_matrix(proj.rect[0], scene.gt2d.rect[j][None, :])[0, 0]
    return bool(iou >= params.tau_iou)
