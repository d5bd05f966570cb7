import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdet._kernels import iou_matrix, project_points
from mvdet.geometry import (
    EPS_DEPTH,
    Anchor3D,
    Box2D,
    CameraView,
    corners_of,
    dump_json,
    in_image,
    load_json,
    load_rig,
    make_surround_rig,
    project_point,
    project_rig,
    project_views,
    save_rig,
)

from conftest import (
    project_homogeneous,
    in_image_per_view,
    project_one_view,
    project_view_points,
    random_anchor_array,
    random_rig_with_crop,
    random_view,
    same_bits,
)


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_views=st.integers(1, 7), n_pts=st.integers(0, 60))
def test_stacked_projection_matches_per_view_calls(seed, n_views, n_pts):
    rng = np.random.default_rng(seed)
    views = [random_view(rng, view_id=k) for k in range(n_views)]
    # free points around the rig, plus one straight behind each camera
    behind = [-v.rotation.T @ v.translation - 5.0 * v.rotation[2] for v in views]
    pts = np.concatenate([rng.uniform(-30, 30, size=(n_pts, 3)), behind])
    k = np.stack([v.intrinsics for v in views])
    e = np.stack([v.extrinsic for v in views])
    uv, front = project_points(pts, e[:, :3, :3], e[:, :3, 3], k[:, 0, 0], k[:, 1, 1],
                               k[:, 0, 2], k[:, 1, 2], EPS_DEPTH)
    assert uv.shape == (n_views, len(pts), 2) and front.shape == (n_views, len(pts))
    assert not front[np.arange(n_views), n_pts + np.arange(n_views)].any()
    uv_all, front_all, inside_all = project_views(views, pts)
    for i, view in enumerate(views):
        uv_i, front_i = project_view_points(view, pts)
        assert np.array_equal(uv[i], uv_i, equal_nan=True)
        assert np.array_equal(front[i], front_i)
        assert np.array_equal(uv_all[i], uv_i, equal_nan=True)
        assert np.array_equal(front_all[i], front_i)
        assert np.array_equal(inside_all[i], in_image_per_view(view, uv_i, front_i))


# --------------------------------------------------------------- project_rig

def test_anchor_fully_behind_view(front_view):
    a = Anchor3D(center=(-20.0, 0.0, 0.5), size=(2, 4, 1.5), yaw=0.0)
    pa = project_one_view(front_view, a.as_array()[None])
    assert not pa.valid[0]
    assert np.isnan(pa.rect[0]).all() and pa.rect_area[0] == 0.0


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
    pa = project_one_view(front_view, a.as_array()[None])
    assert pa.valid[0]
    assert not pa.center_in_view[0]
    assert np.isfinite(pa.rect[0]).all()
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
        vp = project_one_view(view, anchors)
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
    pa = project_one_view(front_view, a.as_array()[None])
    assert pa.valid[0] and pa.center_in_view[0]
    x0, y0, x1, y1 = Box2D(*pa.rect[0].tolist(), view_id=0).corners
    assert 0 <= x0 <= x1 <= front_view.width
    assert 0 <= y0 <= y1 <= front_view.height


def test_in_image_is_strict_at_the_borders():
    view = identity_view(width=704, height=256)
    # with unit focal length and z = 1, (x, y) is the pixel itself
    pix = np.array([
        [0.0, 100.0], [704.0, 100.0], [300.0, 0.0], [300.0, 256.0],  # on a border
        [1e-9, 100.0], [703.5, 255.5], [300.0, 100.0],               # inside
    ])
    pts = np.hstack([pix, np.ones((len(pix), 1))])
    uv, front = project_view_points(view, pts)
    assert np.array_equal(uv, pix)
    assert in_image(uv, front, (view.width, view.height)).tolist() == [False] * 4 + [True] * 3
    behind = pts * np.array([1.0, 1.0, -1.0])
    assert not in_image(*project_view_points(view, behind), (view.width, view.height)).any()
    assert not project_views([view], behind)[2].any()


def test_project_rig_equals_each_view_alone():
    rng = np.random.default_rng(21)
    rig = random_rig_with_crop(rng)
    assert rig[-1].derived
    anchors = random_anchor_array(rng, 400)
    together = project_rig(rig, anchors)
    v, n = len(rig), len(anchors)
    assert together.view_ids.tolist() == [view.view_id for view in rig]
    assert together.uv.shape == (v, n, 9, 2)
    assert together.rect.shape == (v, n, 4) and together.ref_point.shape == (v, n, 2)
    assert together.valid.shape == together.center_in_view.shape == (v, n)
    assert together.rect_area.shape == (v, n)
    fields = ("uv", "valid", "center_in_view", "rect", "rect_area", "ref_point")
    partly_behind = 0
    for k, view in enumerate(rig):
        alone = project_one_view(view, anchors)
        assert alone.view_id == together.view_ids[k]
        for name in fields:
            assert same_bits(getattr(together, name)[k], getattr(alone, name)), (k, name)
        behind = np.isnan(together.uv[k, ..., 0])
        partly_behind += int(
            (behind.any(axis=1) & ~behind.all(axis=1) & together.valid[k]).sum()
        )
    assert partly_behind > 0  # valid anchors with corners behind the camera occur


def test_project_rig_builds_box_points_once(monkeypatch):
    import mvdet.geometry as geometry

    calls = []
    real = geometry.box_points

    def counting(anchors):
        calls.append(len(anchors))
        return real(anchors)

    monkeypatch.setattr(geometry, "box_points", counting)
    rng = np.random.default_rng(22)
    rig = random_rig_with_crop(rng)
    project_rig(rig, random_anchor_array(rng, 50))
    assert calls == [50]
    project_rig(rig[:1], random_anchor_array(rng, 3))
    assert calls == [50, 3]


def test_ref_point_matches_center_or_rect_center():
    rng = np.random.default_rng(23)
    rig = random_rig_with_crop(rng)
    anchors = random_anchor_array(rng, 150)
    seen = {"center": 0, "rect": 0, "invalid": 0}
    for view, ref_point in zip(rig, project_rig(rig, anchors).ref_point):
        for i in range(len(anchors)):
            pts = [project_point(view, p) for p in corners_of(Anchor3D.from_array(anchors[i]))]
            inside = [
                p is not None and 0 < p[0] < view.width and 0 < p[1] < view.height
                for p in pts
            ]
            if inside[0]:
                expect = pts[0]
                seen["center"] += 1
            elif any(inside):
                front = [p for p in pts if p is not None]
                x0 = min(max(min(u for u, _ in front), 0.0), view.width)
                x1 = min(max(max(u for u, _ in front), 0.0), view.width)
                y0 = min(max(min(v for _, v in front), 0.0), view.height)
                y1 = min(max(max(v for _, v in front), 0.0), view.height)
                expect = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
                seen["rect"] += 1
            else:
                assert np.isnan(ref_point[i]).all()
                seen["invalid"] += 1
                continue
            assert np.abs(ref_point[i] - np.asarray(expect)).max() <= 1e-9
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------- iou_matrix

def iou_of(a: Box2D, b: Box2D) -> float:
    return float(iou_matrix(a.as_array()[None, :], b.as_array()[None, :])[0, 0])


def test_iou_identical_and_disjoint():
    a = Box2D(cx=10, cy=10, w=4, h=4, view_id=0)
    assert iou_of(a, a) == 1.0
    b = Box2D(cx=100, cy=100, w=4, h=4, view_id=0)
    assert iou_of(a, b) == 0.0


def test_iou_hand_case():
    a = Box2D(cx=0, cy=0, w=2, h=2, view_id=0)
    b = Box2D(cx=1, cy=0, w=2, h=2, view_id=0)
    assert abs(iou_of(a, b) - 1.0 / 3.0) <= 1e-12


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
    iab = iou_of(a, b)
    iba = iou_of(b, a)
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


# JSON values with printable-ASCII strings, the only text the artifacts hold
_text = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)


def _json_values(floats):
    leaves = (st.none() | st.booleans() | st.integers(-(2**63), 2**64 - 1) | floats
              | _text)
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_text, kids, max_size=4),
        max_leaves=24,
    )


def _tagged(v):
    """``v`` with each scalar tagged by its type and each float by its bits,
    so that equality means bit-exact (True != 1, -0.0 != 0.0)."""
    if isinstance(v, dict):
        return {k: _tagged(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_tagged(x) for x in v]
    if isinstance(v, float):
        return ("float", struct.pack("<d", v))
    return (type(v).__name__, v)


@settings(max_examples=300, deadline=None)
@given(_json_values(st.floats(allow_nan=False, allow_infinity=False)), st.booleans())
@example([-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308], False)
@example({"a": [[], {}, [{}]], "b": {"c": []}, "t": True, "n": None, "i": -7}, True)
def test_dump_json_round_trips_bit_exact(tmp_path_factory, obj, indent):
    path = tmp_path_factory.mktemp("json") / "obj.json"
    dump_json(obj, path, indent=indent)
    text = path.read_text()
    assert text.endswith("\n")
    assert _tagged(json.loads(text)) == _tagged(obj)


@settings(max_examples=200, deadline=None)
@given(_json_values(st.floats(-1e15, 1e15).filter(lambda x: "e" not in repr(x))))
@example({"views": [{"view_id": 0, "intrinsics": [500.0, 0.0, 352.0]}], "notes": []})
def test_dump_json_indent_matches_stdlib_layout(tmp_path_factory, obj):
    # rig.json, summary.json and the one-file command outputs keep their
    # indent=2 bytes
    path = tmp_path_factory.mktemp("json") / "obj.json"
    dump_json(obj, path, indent=True)
    assert path.read_text() == json.dumps(obj, indent=2) + "\n"


def test_dump_json_writes_stdout_without_path(capsys):
    dump_json({"a": [1, 0.00001]}, None)
    assert capsys.readouterr().out == '{"a":[1,0.00001]}\n'


@pytest.mark.parametrize(
    "text, detail",
    [('{"views": [],\n}', "not valid JSON: Expecting property name"),
     ('[{"views": []}]', "expected a JSON object, got list"),
     ("", "not valid JSON")],
    ids=["malformed", "list", "empty"],
)
def test_load_json_names_the_file(tmp_path, text, detail):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {detail}")):
        load_json(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_rig(path)
