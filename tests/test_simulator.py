import json

import numpy as np
import pytest

from mvdet.geometry import project_rig
from mvdet.metrics import MatchParams, aar
from mvdet.simulator import (
    OracleNoise,
    Scene,
    SceneRanges,
    _bev_corners,
    _bev_overlap,
    perturb,
    render_depths,
    render_features,
    sample_scene,
)

from conftest import project_one_view, random_rig_with_crop, scored, take, view_maps


def test_empty_scene(rig6):
    scene = sample_scene(0, rig6, n_boxes=0)
    assert scene.anchors.shape == (0, 9) and len(scene.classes) == 0
    assert len(scene.gt2d) == 0 and len(scene.gt2d_link) == 0


def test_seed_determinism(rig6):
    a = sample_scene(42, rig6, n_boxes=12)
    b = sample_scene(42, rig6, n_boxes=12)
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    c = sample_scene(43, rig6, n_boxes=12)
    assert json.dumps(a.to_json_obj()) != json.dumps(c.to_json_obj())


def test_gt2d_matches_projection_oracle(rig6):
    scene = sample_scene(3, rig6, n_boxes=15)
    views = {v.view_id: v for v in rig6}
    expected = set()
    for i, anchor in enumerate(scene.anchors):
        for view in rig6:
            pa = project_one_view(view, anchor[None])
            if pa.valid[0] and pa.rect_area[0] > 0:
                cx, cy = pa.rect[0, 0:2].tolist()
                expected.add((i, view.view_id, round(cx, 9), round(cy, 9)))
    gt = scene.gt2d
    got = {
        (link, view_id, round(cx, 9), round(cy, 9))
        for link, view_id, (cx, cy) in zip(scene.gt2d_link.tolist(), gt.view_id.tolist(),
                                           gt.rect[:, 0:2].tolist())
    }
    assert got == expected
    assert gt.class_id.tolist() == scene.classes[scene.gt2d_link].tolist()
    # and every entry satisfies the validity rule in its own view (no
    # hallucinated ground truth)
    for link, view_id in zip(scene.gt2d_link.tolist(), gt.view_id.tolist()):
        pa = project_one_view(views[view_id], scene.anchors[link][None])
        assert pa.valid[0]


def test_boxes_do_not_overlap(rig6):
    scene = sample_scene(7, rig6, n_boxes=25)
    arr = scene.anchors
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            assert not _bev_overlap(_bev_corners(arr[i]), _bev_corners(arr[j]))


def test_infeasible_density_raises(rig6):
    with pytest.raises(RuntimeError):
        sample_scene(
            0, rig6, ranges=SceneRanges(x=(-3, 3), y=(-3, 3)), n_boxes=200,
            max_attempts_per_box=5,
        )


def test_scene_json_roundtrip(rig6):
    scene = sample_scene(11, rig6, n_boxes=10)
    back = Scene.from_json_obj(json.loads(json.dumps(scene.to_json_obj())))
    assert back.to_json_obj() == scene.to_json_obj()
    assert np.array_equal(back.anchors, scene.anchors)
    assert np.array_equal(back.classes, scene.classes)
    assert np.array_equal(back.gt2d.rect, scene.gt2d.rect)
    assert np.array_equal(back.gt2d.view_id, scene.gt2d.view_id)
    assert np.array_equal(back.gt2d.class_id, scene.gt2d.class_id)
    assert np.array_equal(back.gt2d_link, scene.gt2d_link)


def test_zero_noise_perturb_reproduces_gt(rig6):
    scene = sample_scene(5, rig6, n_boxes=10)
    det = perturb(scene, OracleNoise(), seed=1)
    assert np.array_equal(det.boxes3d, scene.anchors)
    assert np.array_equal(det.classes3d, scene.classes) and np.all(det.scores3d == 1.0)
    assert np.array_equal(det.boxes2d.rect, scene.gt2d.rect)
    assert np.array_equal(det.boxes2d.view_id, scene.gt2d.view_id)
    assert np.array_equal(det.boxes2d.class_id, scene.gt2d.class_id)
    assert np.all(det.scores2d == 1.0)
    res = aar(det, scene, MatchParams())
    assert res.aar == 100.0 and res.recall == 100.0


def test_full_drop_empties_predictions(rig6):
    scene = sample_scene(5, rig6, n_boxes=10)
    noise = OracleNoise(drop_prob=1.0, drop_prob_3d=1.0)
    det = perturb(scene, noise, seed=1)
    assert det.boxes3d.shape == (0, 9) and len(det.classes3d) == len(det.scores3d) == 0
    assert len(det.boxes2d) == len(det.scores2d) == 0


def test_fixed_drop_pattern_hand_aar(rig6):
    # craft a scene-like truth with one straddling box, drop one view's 2D
    from test_metrics import straddling_truth

    truth, a = straddling_truth(rig6)
    view_to_drop = truth.gt2d.view_id[1]
    kept = take(truth.gt2d, truth.gt2d.view_id != view_to_drop)
    res = aar(scored([a], [0], kept), truth, MatchParams())
    assert (res.n_candidate, res.n_valid) == (2, 1)
    assert res.aar == 50.0


def test_perturb_per_view_drop(rig6):
    scene = sample_scene(9, rig6, n_boxes=12)
    views_present = set(scene.gt2d.view_id.tolist())
    target = sorted(views_present)[0]
    noise = OracleNoise(drop_prob={target: 1.0})
    p2d = perturb(scene, noise, seed=3).boxes2d
    assert all(view_id != target for view_id in p2d.view_id.tolist())
    assert set(p2d.view_id.tolist()) == views_present - {target}


def test_scene_rejects_repeated_view_ids(rig6):
    obj = sample_scene(4, rig6, n_boxes=3, frame_id=9).to_json_obj()
    obj["rig"][3]["view_id"] = 0
    with pytest.raises(ValueError, match="^scene frame 9: view id 0 appears"):
        Scene.from_json_obj(obj)


def test_simulated_scenes_link_gt2d_to_boxes_of_their_class(rig6):
    # every 2D box of a sampled scene carries its 3D box's class, so the
    # constructor's class check accepts them all, through the JSON form too
    for seed in range(6):
        scene = sample_scene(seed, rig6, n_boxes=20)
        assert len(scene.gt2d) > 0
        assert np.array_equal(scene.gt2d.class_id, scene.classes[scene.gt2d_link])
        back = Scene.from_json_obj(json.loads(json.dumps(scene.to_json_obj())))
        assert np.array_equal(back.gt2d.class_id, scene.gt2d.class_id)


def test_scene_rejects_gt2d_class_other_than_its_box(rig6):
    obj = sample_scene(4, rig6, n_boxes=6).to_json_obj()
    j = len(obj["gt2d"]) - 1
    entry = obj["gt2d"][j]
    own = obj["boxes"][entry["box3d_index"]]["class_id"]
    entry["class_id"] = (own + 1) % 5
    with pytest.raises(ValueError, match=(
            rf"^gt2d box {j} has class_id {(own + 1) % 5}, but its 3D box "
            rf"{entry['box3d_index']} has class_id {own}$")):
        Scene.from_json_obj(obj)


def test_render_features_empty_scene(rig6):
    scene = sample_scene(0, rig6, n_boxes=0)
    feats = render_features(scene, rig6)
    depths = render_depths(scene, rig6, 8)
    for v in rig6:
        for fmap in view_maps(feats, v.view_id)[2]:
            assert np.all(fmap == 0.0)
        assert np.all(np.isinf(depths[v.view_id]))


def render_features_per_channel(scene, rig, scales=(8, 16), channels=16):
    """Reference: every bump added to all channels of a (H, W, C) map."""
    proj = project_rig(rig, scene.anchors)
    features = {}
    for view, valid, ref_point, rect in zip(rig, proj.valid, proj.ref_point, proj.rect):
        maps = []
        for s in scales:
            hm = max(view.height // s, 1)
            wm = max(view.width // s, 1)
            fmap = np.zeros((hm, wm, channels))
            gy, gx = np.mgrid[0:hm, 0:wm]
            for i in np.flatnonzero(valid):
                u, v = ref_point[i]
                mx = u * (wm / view.width) - 0.5
                my = v * (hm / view.height) - 0.5
                sigma = max(float(rect[i, 2]) * (wm / view.width) / 4.0, 0.75)
                amp = float(scene.classes[i] + 1)
                bump = amp * np.exp(
                    -((gx - mx) ** 2 + (gy - my) ** 2) / (2.0 * sigma * sigma)
                )
                fmap += bump[:, :, None]
            maps.append(fmap)
        features[view.view_id] = maps
    return features


@pytest.mark.parametrize("rig_seed, scales, channels", [(0, (8, 16), 16), (7, (8,), 3),
                                                        (None, (4, 16, 32), 1)])
def test_render_features_matches_per_channel_loop(rig6, rig_seed, scales, channels):
    # random four-camera rigs with a crop view, and the six-camera rig
    rig = rig6 if rig_seed is None else random_rig_with_crop(np.random.default_rng(rig_seed))
    scene = sample_scene(11, rig, n_boxes=15)
    got = render_features(scene, rig, scales=scales, channels=channels)
    want = render_features_per_channel(scene, rig, scales=scales, channels=channels)
    assert got.view_ids.tolist() == [v.view_id for v in rig]
    assert [len(a) for a in got.atlas] == [  # the atlas holds the maps and nothing else
        sum(m[s].shape[0] * m[s].shape[1] for m in want.values()) for s in range(len(scales))
    ]
    for view_id, maps in want.items():
        width, height, got_maps = view_maps(got, view_id)
        assert (width, height) == next((v.width, v.height) for v in rig if v.view_id == view_id)
        assert len(got_maps) == len(maps)
        for g, w in zip(got_maps, maps):
            assert g.shape == w.shape and np.array_equal(g, w)


def test_feature_bump_peaks_at_projected_center(rig6):
    scene = sample_scene(21, rig6, n_boxes=6)
    feats = render_features(scene, rig6, scales=(8,))
    views = {v.view_id: v for v in rig6}
    # single-box view regions: the brightest cell must contain the
    # projected center of some box
    for view_id in feats.view_ids.tolist():
        fmap = view_maps(feats, view_id)[2][0][:, :, 0]
        if fmap.max() <= 0:
            continue
        iy, ix = np.unravel_index(np.argmax(fmap), fmap.shape)
        view = views[view_id]
        centers = []
        for anchor in scene.anchors:
            pa = project_one_view(view, anchor[None])
            if pa.valid[0]:
                u, v = pa.uv[0, 0] if pa.center_in_view[0] else pa.rect[0, 0:2]
                centers.append((u * fmap.shape[1] / view.width - 0.5,
                                v * fmap.shape[0] / view.height - 0.5))
        d = min(
            max(abs(mx - ix), abs(my - iy)) for mx, my in centers
        )
        assert d <= 1.0  # peak within one cell of a projected center


def test_depth_map_matches_camera_depth(rig6):
    scene = sample_scene(13, rig6, n_boxes=8)
    depths = render_depths(scene, rig6, 8)
    views = {v.view_id: v for v in rig6}
    checked = 0
    for link, view_id in zip(scene.gt2d_link.tolist(), scene.gt2d.view_id.tolist()):
        view = views[view_id]
        anchor = scene.anchors[link]
        pa = project_one_view(view, anchor[None])
        if not pa.center_in_view[0]:
            continue
        u, v = pa.uv[0, 0]
        dm = depths[view_id]
        j = int(np.clip(u * dm.shape[1] / view.width, 0, dm.shape[1] - 1))
        i = int(np.clip(v * dm.shape[0] / view.height, 0, dm.shape[0] - 1))
        c = anchor[0:3]
        zc = float(view.rotation[2] @ c + view.translation[2])
        assert dm[i, j] <= zc + 1e-9  # nearest covering box wins
        checked += 1
    assert checked > 0


def test_noise_validation():
    with pytest.raises(ValueError):
        OracleNoise(drop_prob=1.5)
    with pytest.raises(ValueError):
        OracleNoise(jitter_px=-1.0)
