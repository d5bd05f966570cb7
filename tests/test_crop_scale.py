import json
import math
import re

import numpy as np
import pytest

from mvdet.allocation import allocate
from mvdet.crop_scale import PLACEMENTS, CropRule, derive_view, extend_rig
from mvdet.geometry import (
    CameraView,
    make_surround_rig,
    project_point,
)

from conftest import box9, project_one_view, project_view_points


def wide_view(view_id=0, width=1600, height=900, fx=1000.0, cx=None, cy=None):
    cx = width / 2.0 if cx is None else cx
    cy = height / 2.0 if cy is None else cy
    k = np.array([[fx, 0, cx], [0, fx, cy], [0, 0, 1.0]])
    return CameraView(view_id=view_id, intrinsics=k, extrinsic=np.eye(4),
                      width=width, height=height)


def test_pure_translation_crop():
    # output size equals the crop size, so the scale factor is exactly 1
    view = wide_view(fx=1000.0, cx=800.0, cy=450.0)
    rule = CropRule(source_view_id=0, scale_rate=2.0, out_width=800, out_height=450)
    derived, pmap = derive_view(view, rule, 1)
    assert pmap.scale == 1.0
    assert derived.fx == 1000.0
    assert derived.cx == 400.0  # cx - ox = 800 - 400
    assert derived.cy == 225.0


def test_focal_center_fixed_point():
    view = wide_view()
    for placement in PLACEMENTS:
        rule = CropRule(source_view_id=0, placement=placement, scale_rate=2.0)
        derived, _ = derive_view(view, rule, 1)
        # a point on the source principal ray projects to (cx, cy) in the
        # source and must land on the derived view's principal point
        p = (0.0, 0.0, 12.0)  # identity extrinsic: camera frame == ego frame
        src = project_point(view, p)
        assert np.allclose(src, (view.cx, view.cy))
        got = project_point(derived, p)
        assert got is not None
        assert abs(got[0] - derived.cx) <= 1e-9
        assert abs(got[1] - derived.cy) <= 1e-9


def sample_visible_points(view, rng, n, zmin=2.0, zmax=120.0):
    u = rng.uniform(0, view.width, n)
    v = rng.uniform(0, view.height, n)
    z = rng.uniform(zmin, zmax, n)
    pc = np.stack([(u - view.cx) / view.fx * z, (v - view.cy) / view.fy * z, z], axis=1)
    return (pc - view.translation) @ view.rotation


def test_two_path_projection_consistency():
    rng = np.random.default_rng(3)
    view = wide_view()
    for placement in PLACEMENTS:
        rule = CropRule(source_view_id=0, placement=placement, scale_rate=2.0)
        derived, pmap = derive_view(view, rule, 1)
        pts = sample_visible_points(derived, rng, 2000)
        uv_direct, front_d = project_view_points(derived, pts)
        uv_src, front_s = project_view_points(view, pts)
        sel = front_d & front_s
        assert sel.sum() > 1500
        uv_mapped = pmap.apply(uv_src[sel])
        err = np.abs(uv_direct[sel] - uv_mapped).max()
        assert err <= 1e-6, f"{placement}: two-path error {err}"


def test_distant_anchor_area_gain():
    view = wide_view()
    for rate in (1.5, 2.0, 2.5):
        rule = CropRule(source_view_id=0, scale_rate=rate)
        derived, _ = derive_view(view, rule, 1)
        a = box9(center=(0.4, 0.2, 650.0), size=(0.4, 0.4, 0.4), yaw=0.3)
        pa_src = project_one_view(view, a[None])
        pa_der = project_one_view(derived, a[None])
        assert pa_src.valid[0] and pa_der.valid[0]
        assert pa_src.rect_area[0] < 1.0  # subtends under a pixel in the source
        ratio = pa_der.rect_area[0] / pa_src.rect_area[0]
        assert abs(ratio - rate**2) <= 0.01 * rate**2


def test_horizon_alignment_edges():
    view = wide_view()
    left, _ = derive_view(view, CropRule(0, placement="left-aligned-horizon"), 1)
    right, pmap_r = derive_view(view, CropRule(0, placement="right-aligned-horizon"), 1)
    # left-aligned: source (0, cy) maps to the derived left edge
    lm = derive_view(view, CropRule(0, placement="left-aligned-horizon"), 1)[1]
    assert np.allclose(lm.apply(np.array([[0.0, view.cy]])), [[0.0, lm.scale * (view.cy - lm.oy)]])
    assert lm.ox == 0.0
    # right-aligned: source right edge maps to the derived right edge
    got = pmap_r.apply(np.array([[view.width, 0.0]]))[0, 0]
    assert abs(got - right.width) <= 1e-9


def test_crop_must_fit():
    view = wide_view(cx=100.0)  # principal point near the left edge
    with pytest.raises(ValueError):
        derive_view(view, CropRule(0, placement="centered-on-focal", scale_rate=2.0), 1)


def test_rule_validation():
    with pytest.raises(ValueError):
        CropRule(0, placement="somewhere")
    with pytest.raises(ValueError):
        CropRule(0, scale_rate=1.0)


def test_extend_rig_front_rear(rig6):
    rules = [CropRule(0), CropRule(3)]
    rig8 = extend_rig(rig6, rules)
    assert len(rig8) == 8
    assert [v.view_id for v in rig8[-2:]] == [6, 7]
    assert extend_rig(rig6, []) == list(rig6)


def test_extend_rig_all_surroundings(rig6):
    rules = [CropRule(v.view_id) for v in rig6]
    rig12 = extend_rig(rig6, rules)
    assert len(rig12) == 12


def test_extend_rig_errors(rig6):
    with pytest.raises(ValueError):
        extend_rig(rig6, [CropRule(17)])
    with pytest.raises(ValueError):
        extend_rig(rig6, [CropRule(0), CropRule(0)])


def test_rig_file_with_derived_rules(tmp_path, rig6):
    from mvdet.crop_scale import load_crop_rules, load_extended_rig
    from mvdet.geometry import save_rig

    rules = [CropRule(0), CropRule(3, placement="left-aligned-horizon", scale_rate=1.5)]
    path = tmp_path / "rig.json"
    save_rig(rig6, path, derived_rules=rules)
    back = load_crop_rules(path)
    assert back == rules
    extended = load_extended_rig(path)
    assert len(extended) == 8
    assert extended[-2].derived and extended[-1].derived
    # a plain rig file has no rules
    save_rig(rig6, path)
    assert load_crop_rules(path) == []
    assert len(load_extended_rig(path)) == 6


def test_extended_rig_rejects_repeated_view_ids(tmp_path, rig6):
    from mvdet.crop_scale import load_extended_rig
    from mvdet.geometry import save_rig

    path = tmp_path / "rig.json"
    save_rig(rig6, path, derived_rules=[CropRule(0)])
    obj = json.loads(path.read_text())
    obj["views"][3]["view_id"] = 0
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: view id 0 appears"):
        load_extended_rig(path)


def test_near_anchor_skips_derived_view(rig6):
    rig8 = extend_rig(rig6, [CropRule(0)])
    # a close off-axis target falls outside the zoomed crop's frustum but
    # stays visible in the source view
    near = box9(center=(6.0, 2.5, 0.4), size=(0.5, 0.5, 0.8), yaw=0.0)
    far = box9(center=(45.0, 0.0, 0.75), size=(2, 4, 1.5), yaw=0.0)
    res = allocate([near, far], rig8)
    derived_id = rig8[-1].view_id
    by_anchor = {}
    for r, v in zip(res.mapping.rows, res.mapping.camera_of_col):
        by_anchor.setdefault(int(r), set()).add(int(v))
    assert derived_id not in by_anchor[0]  # near target keeps its original views
    assert derived_id in by_anchor[1]      # distant target gains the new group
