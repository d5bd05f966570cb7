import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdet._kernels import iou_matrix
from mvdet.geometry import (
    EPS_DEPTH,
    Anchor3D,
    Box2D,
    CameraView,
    corners_of,
    iou_2d,
    load_rig,
    make_surround_rig,
    project_anchor,
    project_point,
    project_view_points,
    save_rig,
)

from conftest import project_homogeneous, random_view


def identity_view(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=704, height=256):
    k = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    return CameraView(view_id=0, intrinsics=k, extrinsic=np.eye(4), width=width, height=height)


# ---------------------------------------------------------------- corners_of

def corner_oracle(anchor: Anchor3D) -> np.ndarray:
    """Independent corner construction: explicit Rz(yaw) on local corners."""
    w, l, h = anchor.size
    signs = [
        (+1, +1, -1), (-1, +1, -1), (-1, -1, -1), (+1, -1, -1),
        (+1, +1, +1), (-1, +1, +1), (-1, -1, +1), (+1, -1, +1),
    ]
    local = np.array([[sx * l / 2, sy * w / 2, sz * h / 2] for sx, sy, sz in signs])
    c, s = math.cos(anchor.yaw), math.sin(anchor.yaw)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    return (rz @ local.T).T + np.asarray(anchor.center)


def test_unit_cube_corners():
    a = Anchor3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
    pts = corners_of(a)
    assert pts.shape == (9, 3)
    assert np.allclose(pts[0], 0.0)
    got = {tuple(p) for p in np.round(pts[1:], 12)}
    want = {(sx * 0.5, sy * 0.5, sz * 0.5) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    assert got == want


def test_unit_cube_quarter_turn_same_corner_set():
    a0 = Anchor3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
    a1 = Anchor3D(center=(0, 0, 0), size=(1, 1, 1), yaw=math.pi / 2)
    c0 = {tuple(p) for p in np.round(corners_of(a0)[1:], 9)}
    c1 = {tuple(p) for p in np.round(corners_of(a1)[1:], 9)}
    assert c0 == c1
    assert not np.allclose(corners_of(a0)[1:], corners_of(a1)[1:])  # permuted order


def test_corners_vs_rotation_oracle():
    a = Anchor3D(center=(1, 2, 0), size=(2, 4, 2), yaw=math.pi / 4)
    got = corners_of(a)[1:]
    want = corner_oracle(a)
    assert np.abs(got - want).max() <= 1e-12


def test_full_turn_keeps_corner_order():
    a = Anchor3D(center=(3.0, -1.0, 0.5), size=(1.5, 3.0, 1.2), yaw=0.7)
    b = Anchor3D(center=a.center, size=a.size, yaw=a.yaw + 2 * math.pi)
    assert np.abs(corners_of(a) - corners_of(b)).max() <= 1e-9


def test_anchor_invariants():
    with pytest.raises(ValueError):
        Anchor3D(center=(0, 0, 0), size=(0.0, 1, 1), yaw=0.0)


# ------------------------------------------------------------- project_point

def test_principal_ray():
    view = identity_view()
    assert project_point(view, (0, 0, 1)) == (0.0, 0.0)


def test_pinhole_arithmetic():
    view = identity_view(fx=500, fy=500, cx=352, cy=128)
    uv = project_point(view, (1, 0, 10))
    assert uv is not None
    assert abs(uv[0] - 402.0) <= 1e-12
    assert abs(uv[1] - 128.0) <= 1e-12


def test_behind_camera_absent():
    view = identity_view()
    assert project_point(view, (0, 0, -1.0)) is None
    assert project_point(view, (0, 0, EPS_DEPTH)) is None


def frustum_points(view, rng, n, margin=1.0, zmin=0.25, zmax=120.0):
    """Random points through the inverse camera, in and around the image.

    Keeps pixel magnitudes representative; points grazing the image plane
    blow up |uv| and the two independent projection formulations then
    diverge by formulation-rounding alone.
    """
    w, h = view.width, view.height
    u = rng.uniform(-margin * w, (1 + margin) * w, n)
    v = rng.uniform(-margin * h, (1 + margin) * h, n)
    z = rng.uniform(zmin, zmax, n)
    pc = np.stack(
        [(u - view.cx) / view.fx * z, (v - view.cy) / view.fy * z, z], axis=1
    )
    return (pc - view.translation) @ view.rotation


def test_projection_against_homogeneous_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        view = random_view(rng, view_id=trial)
        pts = frustum_points(view, rng, 500)
        uv, front = project_view_points(view, pts)
        o_uv, depth = project_homogeneous(view, pts)
        assert np.array_equal(front, depth > EPS_DEPTH)
        err = np.abs(uv[front] - o_uv[front]).max()
        assert err <= 1e-9, f"projection error {err}"


def test_front_mask_matches_oracle_on_free_points():
    rng = np.random.default_rng(12)
    n_behind = 0
    for trial in range(20):
        view = random_view(rng, view_id=trial)
        pts = rng.uniform(-60, 60, size=(500, 3))
        _, front = project_view_points(view, pts)
        _, depth = project_homogeneous(view, pts)
        assert np.array_equal(front, depth > EPS_DEPTH)
        n_behind += int((~front).sum())
    assert n_behind > 0  # the sample actually exercised behind-camera points


# ------------------------------------------------------------ project_anchor

def test_anchor_fully_behind_view(front_view):
    a = Anchor3D(center=(-20.0, 0.0, 0.5), size=(2, 4, 1.5), yaw=0.0)
    pa = project_anchor(front_view, a)
    assert not pa.valid
    assert pa.rect is None and pa.rect_unclipped is None


def test_anchor_single_corner_in_view(front_view):
    # box centered far left of the frustum; its +y corners cross the image edge
    half_fov = math.atan(front_view.width / (2 * front_view.fx))
    az = half_fov + 0.05
    dist = 12.0
    a = Anchor3D(
        center=(dist * math.cos(az), dist * math.sin(az), 0.75),
        size=(2.0, 4.0, 1.5),
        yaw=az,
    )
    pa = project_anchor(front_view, a)
    assert pa.valid
    assert not pa.center_in_view
    assert pa.rect is not None
    # dense surface sampling must also find visible surface points
    corners = corners_of(a)[1:]
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    grid = np.stack(
        np.meshgrid(*[np.linspace(lo[i], hi[i], 12) for i in range(3)]), axis=-1
    ).reshape(-1, 3)
    uv, front = project_view_points(front_view, grid)
    inside = (
        front
        & (uv[:, 0] > 0) & (uv[:, 0] < front_view.width)
        & (uv[:, 1] > 0) & (uv[:, 1] < front_view.height)
    )
    assert inside.any()


def test_validity_matches_bruteforce_bounds_check():
    rng = np.random.default_rng(5)
    for trial in range(10):
        view = random_view(rng, view_id=trial)
        anchors = np.zeros((200, 9))
        anchors[:, 0:3] = rng.uniform(-40, 40, size=(200, 3))
        anchors[:, 3:6] = rng.uniform(0.3, 6.0, size=(200, 3))
        anchors[:, 6] = rng.uniform(-np.pi, np.pi, 200)
        from mvdet.geometry import project_anchor_batch

        vp = project_anchor_batch(view, anchors)
        for i in range(200):
            a = Anchor3D.from_array(anchors[i])
            pts = corners_of(a)
            expect = False
            for p in pts:
                got = project_point(view, p)
                if got is None:
                    continue
                u, v = got
                if 0 < u < view.width and 0 < v < view.height:
                    expect = True
                    break
            assert vp.valid[i] == expect


def test_rect_clipping_and_center_flag(front_view):
    a = Anchor3D(center=(8.0, 0.0, 0.75), size=(2, 4, 1.5), yaw=0.3)
    pa = project_anchor(front_view, a)
    assert pa.valid and pa.center_in_view
    x0, y0, x1, y1 = pa.rect.corners
    assert 0 <= x0 <= x1 <= front_view.width
    assert 0 <= y0 <= y1 <= front_view.height
    ux0, uy0, ux1, uy1 = pa.rect_unclipped.corners
    assert ux0 <= x0 and ux1 >= x1 and uy0 <= y0 and uy1 >= y1


# -------------------------------------------------------------------- iou_2d

def test_iou_identical_and_disjoint():
    a = Box2D(cx=10, cy=10, w=4, h=4, view_id=0)
    assert iou_2d(a, a) == 1.0
    b = Box2D(cx=100, cy=100, w=4, h=4, view_id=0)
    assert iou_2d(a, b) == 0.0


def test_iou_hand_case():
    a = Box2D(cx=0, cy=0, w=2, h=2, view_id=0)
    b = Box2D(cx=1, cy=0, w=2, h=2, view_id=0)
    assert abs(iou_2d(a, b) - 1.0 / 3.0) <= 1e-12


def test_iou_cross_view_error():
    a = Box2D(cx=0, cy=0, w=2, h=2, view_id=0)
    b = Box2D(cx=0, cy=0, w=2, h=2, view_id=1)
    with pytest.raises(ValueError):
        iou_2d(a, b)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
    st.tuples(*[st.floats(0, 50) for _ in range(2)]),
    st.tuples(*[st.floats(-100, 100) for _ in range(2)]),
    st.tuples(*[st.floats(0, 50) for _ in range(2)]),
)
def test_iou_symmetric_bounded(ca, sa, cb, sb):
    a = Box2D(cx=ca[0], cy=ca[1], w=sa[0], h=sa[1], view_id=0)
    b = Box2D(cx=cb[0], cy=cb[1], w=sb[0], h=sb[1], view_id=0)
    iab = iou_2d(a, b)
    iba = iou_2d(b, a)
    assert iab == iba
    assert 0.0 <= iab <= 1.0
    # a box covers itself exactly, unless its corner span has no area
    boxes = np.array([a.as_array(), b.as_array()])
    x0, y0, x1, y1 = np.array([a.corners, b.corners]).T
    assert np.array_equal(np.diag(iou_matrix(boxes, boxes)),
                          np.where((x1 - x0) * (y1 - y0) > 0.0, 1.0, 0.0))


# ------------------------------------------------------------ views and rigs

def test_view_invariant_validation():
    with pytest.raises(ValueError):
        identity_view(fx=-1.0)
    with pytest.raises(ValueError):
        identity_view(cx=1000.0)
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError):
        CameraView(view_id=0, intrinsics=np.eye(3) * [500, 500, 1] + [[0, 0, 352], [0, 0, 128], [0, 0, 0]],
                   extrinsic=bad, width=704, height=256)


def test_surround_rig_geometry(rig6):
    assert len(rig6) == 6
    for v in rig6:
        r = v.rotation
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
    # forward camera sees a point ahead of the ego at the image center row
    uv = project_point(rig6[0], (10.0, 0.0, 1.5))
    assert uv is not None
    assert abs(uv[0] - rig6[0].cx) <= 1e-9


def test_rig_json_roundtrip(tmp_path, rig6):
    path = tmp_path / "rig.json"
    save_rig(rig6, path)
    back = load_rig(path)
    assert len(back) == len(rig6)
    for a, b in zip(rig6, back):
        assert a.view_id == b.view_id
        assert np.array_equal(a.intrinsics, b.intrinsics)
        assert np.array_equal(a.extrinsic, b.extrinsic)
        assert (a.width, a.height) == (b.width, b.height)
