import logging

import numpy as np
import pytest

from mvdet.denoising import (
    DenoiseLayout,
    NoiseConfig,
    allocate_noise,
    denoise_groups,
    encode_anchor_features,
    gather_noise,
    make_noisy_anchors,
    restore_3d,
)
from mvdet.geometry import Boxes2D
from mvdet.groupattn import AttentionParams, attention, build_mask

from conftest import box9


def gt_boxes():
    return np.stack([
        box9(center=(10.0, 0.0, 0.8), size=(2.0, 4.0, 1.6), yaw=0.2, velocity=(3, 0)),
        box9(center=(-5.0, 8.0, 0.9), size=(0.6, 0.6, 1.7), yaw=-1.0),
    ])


def box(view_id, cx=100.0, cy=50.0, w=30.0, h=20.0):
    return view_id, [cx, cy, w, h]


def assoc(*per_gt):
    """(gt2d, gt2d_link) of per-GT lists of (view_id, rect) associations."""
    rows = [(view_id, rect, t) for t, entries in enumerate(per_gt) for view_id, rect in entries]
    return (Boxes2D([r for _, r, _ in rows], [v for v, _, _ in rows], [0] * len(rows)),
            [t for _, _, t in rows])


# ---------------------------------------------------------- make_noisy_anchors

def test_zero_noise_reproduces_gt():
    cfg = NoiseConfig(n_groups=3, center_noise_scale=0.0, size_noise_scale=0.0, yaw_noise=0.0)
    groups, negative = make_noisy_anchors(gt_boxes(), cfg, seed=1)
    assert groups.shape == (3, 2, 9)
    for members in groups:
        assert np.array_equal(members, gt_boxes())
    assert negative == [False, True, True]  # round(0.5 * 3) = 2 trailing negatives


def test_center_shift_bound():
    cfg = NoiseConfig(n_groups=1, center_noise_scale=0.1, size_noise_scale=0.0,
                      yaw_noise=0.0, negative_ratio=0.0)
    base = box9(center=(0.0, 0.0, 0.0), size=(2.0, 4.0, 1.5), yaw=0.0)
    for seed in range(40):
        noisy = make_noisy_anchors(base[None], cfg, seed)[0][0][0]
        dx, dy, dz = np.abs(noisy[0:3])
        assert dx <= 0.1 * 2.0 and dy <= 0.1 * 4.0 and dz <= 0.1 * 1.5
        assert np.array_equal(noisy[3:6], base[3:6]) and noisy[6] == base[6]


def test_seed_determinism():
    cfg = NoiseConfig(n_groups=4)
    a, _ = make_noisy_anchors(gt_boxes(), cfg, seed=9)
    b, _ = make_noisy_anchors(gt_boxes(), cfg, seed=9)
    assert np.array_equal(a, b)
    c, _ = make_noisy_anchors(gt_boxes(), cfg, seed=10)
    assert not np.array_equal(a, c)


def test_negative_groups_use_larger_scales():
    cfg = NoiseConfig(n_groups=2, center_noise_scale=0.2, negative_ratio=0.5)
    groups, negative = make_noisy_anchors(gt_boxes(), cfg, seed=3)
    assert negative == [False, True]


# -------------------------------------------------------------- allocate_noise

def test_columns_follow_gt_associations():
    noisy, _ = make_noisy_anchors(gt_boxes()[:1], NoiseConfig(n_groups=1), seed=0)
    layout = allocate_noise(*assoc([box(0), box(1)]), noisy)
    assert layout.n_noise == 2
    assert layout.col_view.tolist() == [0, 1]
    assert layout.col_gt.tolist() == [0, 0]


def test_mapping_ignores_noisy_projection():
    # noisy anchors pushed far outside any plausible frustum still get the
    # ground truth's views
    far = box9(center=(1e6, 1e6, 1e6), size=(1, 1, 1), yaw=0.0)[None, None]
    layout = allocate_noise(*assoc([box(0)]), far)
    assert layout.n_noise == 1
    assert layout.col_view.tolist() == [0]


def camera_runs(layout, g):
    """(camera, first column, length) of each run of equal cameras in
    denoise group g, read from ``col_view``."""
    start, length = layout.group_spans[g]
    views = layout.col_view[start - layout.match_len :][:length]
    cuts = (np.flatnonzero(np.diff(views)) + 1).tolist()
    return [(int(views[a]), start + a, b - a) for a, b in zip([0, *cuts], [*cuts, length])]


def test_layout_hand_enumeration():
    # GT0 seen in views {0, 1}, GT1 in {1}; 3 groups
    noisy, _ = make_noisy_anchors(gt_boxes(), NoiseConfig(n_groups=3), seed=0)
    layout = allocate_noise(*assoc([box(0), box(1)], [box(1, cx=10.0)]), noisy, match_len=4)
    assert layout.match_len == 4
    assert layout.kept_gt == [0, 1]
    assert layout.n_noise == 9
    assert layout.group_spans == [(4, 3), (7, 3), (10, 3)]
    # within each group: camera 0 first (gt0), then camera 1 (gt0, gt1)
    assert layout.col_view.tolist() == [0, 1, 1] * 3
    assert layout.col_gt.tolist() == [0, 0, 1] * 3
    assert layout.col_group.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert layout.ref_points().tolist() == [[100.0, 50.0], [100.0, 50.0], [10.0, 50.0]] * 3
    assert camera_runs(layout, 0) == [(0, 4, 1), (1, 5, 2)]
    for g in range(layout.n_groups):
        cams = [cam for cam, _, _ in camera_runs(layout, g)]
        assert cams == sorted(set(cams))  # one contiguous run per camera
    layout.validate()


def test_gt_without_association_skipped(caplog):
    noisy, _ = make_noisy_anchors(gt_boxes(), NoiseConfig(n_groups=2), seed=0)
    with caplog.at_level(logging.WARNING):
        layout = allocate_noise(*assoc([box(0)], []), noisy)
    assert layout.kept_gt == [0]
    assert "skips GT" in caplog.text


# -------------------------------------------------------------- denoise_groups

def test_no_denoise_groups_reduces_to_camera_mask():
    layout = allocate_noise(*assoc([box(0)]), np.zeros((0, 1, 9)), match_len=3)
    cams = np.array([0, 0, 1])
    assert np.array_equal(denoise_groups(layout, cams), cams)


def test_match_denoise_blocked_both_ways():
    noisy, _ = make_noisy_anchors(gt_boxes()[:1], NoiseConfig(n_groups=1), seed=0)
    layout = allocate_noise(*assoc([box(0)]), noisy, match_len=2)
    cams = np.array([0, 0])  # match queries also in camera 0
    mask = build_mask(denoise_groups(layout, cams))
    assert mask.shape == (3, 3)
    assert mask[0, 2] != 0.0 and mask[2, 0] != 0.0
    assert mask[1, 2] != 0.0 and mask[2, 1] != 0.0
    assert mask[2, 2] == 0.0


def test_mask_pair_predicate_oracle():
    # 10-query layout: 4 match (cams 0,0,1,1) + 2 groups of 3 noise columns
    noisy, _ = make_noisy_anchors(gt_boxes(), NoiseConfig(n_groups=2), seed=0)
    layout = allocate_noise(*assoc([box(0), box(1)], [box(1, cx=5.0)]), noisy, match_len=4)
    cams_match = np.array([0, 0, 1, 1])
    mask = build_mask(denoise_groups(layout, cams_match))
    cams = np.concatenate([cams_match, layout.col_view])
    part = layout.part_ids()
    for i in range(10):
        for j in range(10):
            allowed = cams[i] == cams[j] and part[i] == part[j]
            assert (mask[i, j] == 0.0) == allowed, (i, j)


def test_mask_size_mismatch_rejected():
    noisy, _ = make_noisy_anchors(gt_boxes()[:1], NoiseConfig(n_groups=1), seed=0)
    layout = allocate_noise(*assoc([box(0)]), noisy, match_len=2)
    with pytest.raises(ValueError):
        denoise_groups(layout, np.array([0, 0, 0]))


def test_overlapping_spans_rejected():
    layout = DenoiseLayout(
        match_len=1,
        group_spans=[(1, 2), (2, 1)],
        col_group=np.array([0, 0, 1]),
        col_gt=np.zeros(3, dtype=np.intp),
        col_view=np.zeros(3, dtype=np.intp),
        col_rects=np.array([box(0)[1]] * 3),
        kept_gt=[0],
    )
    with pytest.raises(ValueError):
        denoise_groups(layout, np.array([0]))


# ------------------------------------------------------------------ restore_3d

def two_copy_layout():
    noisy, _ = make_noisy_anchors(gt_boxes()[:1], NoiseConfig(n_groups=1), seed=0)
    return allocate_noise(*assoc([box(0), box(1)]), noisy)


def test_restore_mean_hand_case():
    layout = two_copy_layout()
    out = restore_3d(np.array([[2.0], [4.0]]), layout)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 3.0


def test_restore_single_copy_identity():
    noisy, _ = make_noisy_anchors(gt_boxes()[:1], NoiseConfig(n_groups=1), seed=0)
    layout = allocate_noise(*assoc([box(0)]), noisy)
    q = np.random.default_rng(0).standard_normal((1, 5))
    assert np.array_equal(restore_3d(q, layout)[0], q)


def test_restore_matches_dense_mean():
    rng = np.random.default_rng(6)
    noisy, _ = make_noisy_anchors(gt_boxes(), NoiseConfig(n_groups=3), seed=0)
    layout = allocate_noise(*assoc([box(0), box(1), box(2)], [box(1, cx=9.0)]), noisy)
    q = rng.standard_normal((layout.n_noise, 7))
    got = restore_3d(q, layout)
    for g in range(3):
        for t in range(2):
            sel = (layout.col_group == g) & (layout.col_gt == t)
            want = q[sel].mean(axis=0)
            assert np.abs(got[g, t] - want).max() <= 1e-12


def test_restore_shape_contract():
    layout = two_copy_layout()
    got = restore_3d(np.zeros((2, 3)), layout)
    assert got.shape == (1, 1, 3)
    with pytest.raises(ValueError):
        restore_3d(np.zeros((5, 3)), layout)


def test_zero_noise_fixed_point():
    # zero scales + identity 2D processing: restored == gathered features
    gt = gt_boxes()
    cfg = NoiseConfig(n_groups=2, center_noise_scale=0.0, size_noise_scale=0.0, yaw_noise=0.0)
    noisy, _ = make_noisy_anchors(gt, cfg, seed=4)
    layout = allocate_noise(*assoc([box(0), box(1)], [box(1, cx=7.0)]), noisy)
    feats = np.stack([encode_anchor_features(g, 6) for g in noisy])
    q2 = gather_noise(layout, feats)
    restored = restore_3d(q2, layout)
    assert np.array_equal(restored, feats)


# ------------------------------------------------------------------ no leakage

def test_match_part_unaffected_by_denoise_queries():
    rng = np.random.default_rng(11)
    gt = gt_boxes()
    noisy, _ = make_noisy_anchors(gt, NoiseConfig(n_groups=2), seed=2)
    m = 6
    layout = allocate_noise(*assoc([box(0), box(1)], [box(1, cx=3.0)]), noisy, match_len=m)
    cams_match = np.array([0, 0, 0, 1, 1, 1])
    x_match = rng.standard_normal((m, 8))
    x_noise = rng.standard_normal((layout.n_noise, 8))
    params = AttentionParams.seeded(8, 2, np.random.default_rng(3))
    groups = denoise_groups(layout, cams_match)
    out_full = attention(np.vstack([x_match, x_noise]), params, groups=groups)
    out_match = attention(x_match, params, groups=cams_match)
    assert np.array_equal(out_full[:m], out_match)
