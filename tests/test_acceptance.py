"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the logged statistics.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mvdet.allocation import AllocationLimits, allocate, clamp_anchors, gather_2d, scatter_mean
from mvdet.cli import main as cli_main
from mvdet.crop_scale import PLACEMENTS, CropRule, derive_view
from mvdet.decoder import PRESETS, DecoderConfig, HybridDecoder
from mvdet.denoising import NoiseConfig, allocate_noise, denoise_groups, make_noisy_anchors
from mvdet.geometry import EPS_DEPTH, Boxes2D, CameraView, make_surround_rig, project_point
from mvdet.groupattn import AttentionParams, attention
from mvdet.metrics import (
    Detections,
    LossWeights,
    MatchParams,
    aar,
    focal_loss,
    hungarian,
    loss_2d_parts,
    loss_alpha,
    loss_aux,
    loss_total,
)
from mvdet.simulator import OracleNoise, perturb, render_features, sample_scene

from conftest import (
    box9, corners, one_box_scene, project_homogeneous, project_one_view, project_view_points,
    random_view, scored, take, to_dense,
)


def report(criterion: int, text: str) -> None:
    print(f"\nPASS criterion {criterion}: {text}")


def random_anchors(rng, n, spread=45.0):
    arr = np.zeros((n, 9))
    arr[:, 0:2] = rng.uniform(-spread, spread, size=(n, 2))
    arr[:, 2] = rng.uniform(0.2, 1.5, n)
    arr[:, 3:6] = rng.uniform(0.3, 6.0, size=(n, 3))
    arr[:, 6] = rng.uniform(-np.pi, np.pi, n)
    return arr


# --------------------------------------------------------------- criterion 1

def test_criterion_1_projection_oracle():
    """10^5 random (view, point) pairs vs the homogeneous-matrix oracle."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    total = 0
    worst = 0.0
    for trial in range(100):
        view = random_view(rng, view_id=trial)
        # points through the inverse camera: in and around the image at all
        # depths (pixel magnitudes stay representative of real use)
        u = rng.uniform(-view.width, 2 * view.width, 1000)
        v = rng.uniform(-view.height, 2 * view.height, 1000)
        z = rng.uniform(0.25, 120.0, 1000)
        pc = np.stack(
            [(u - view.cx) / view.fx * z, (v - view.cy) / view.fy * z, z], axis=1
        )
        pts = (pc - view.translation) @ view.rotation
        uv, front = project_view_points(view, pts)
        o_uv, depth = project_homogeneous(view, pts)
        assert np.array_equal(front, depth > EPS_DEPTH)
        worst = max(worst, float(np.abs(uv[front] - o_uv[front]).max()))
        total += int(front.sum())
    elapsed = time.perf_counter() - t0
    assert total >= 100_000
    assert worst <= 1e-9, f"max projection error {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"projection oracle: {total} pairs, max err {worst:.3e} px, "
              f"{elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_validity_equivalence():
    """Validity flag vs brute-force 9-point strict-bounds check, 10^4 pairs."""
    rng = np.random.default_rng(202)
    pairs = 0
    for trial in range(10):
        view = random_view(rng, view_id=trial)
        anchors = random_anchors(rng, 1000)
        vp = project_one_view(view, anchors)
        for i in range(1000):
            expect = False
            for p in corners(anchors[i]):
                got = project_point(view, p)
                if got is None:
                    continue
                if 0 < got[0] < view.width and 0 < got[1] < view.height:
                    expect = True
                    break
            assert bool(vp.valid[i]) == expect, (trial, i)
            pairs += 1
    assert pairs == 10_000
    report(2, f"validity flag equals brute-force bounds check on {pairs} pairs")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_mapping_algebra():
    """gather/scatter vs dense references; column uniqueness; camera cap."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 33))
        n_views = int(rng.integers(1, 7))
        rig = make_surround_rig(n_views)
        anchors = random_anchors(rng, n)
        res = allocate(clamp_anchors(anchors, AllocationLimits()), rig)
        t = to_dense(res.mapping)
        if res.mapping.n_2d:
            assert np.all(t.sum(axis=0) == 1.0)  # one owner per column
        for view in rig:
            cols = np.flatnonzero(res.mapping.camera_of_col == view.view_id)
            assert int((~res.truncation[cols]).sum()) <= 100
        c = int(rng.integers(1, 9))
        q3 = rng.standard_normal((n, c))
        q2 = rng.standard_normal((res.mapping.n_2d, c))
        g = gather_2d(res.mapping, q3)
        assert np.array_equal(g, t.T @ q3)
        colsum = t.sum(axis=1)
        dense = np.zeros((n, c))
        owned = colsum > 0
        dense[owned] = (t @ q2)[owned] / colsum[owned, None]
        err = float(np.abs(scatter_mean(res.mapping, q2) - dense).max()) if res.mapping.n_2d else 0.0
        worst = max(worst, err)
        assert err <= 1e-12
    report(3, f"mapping algebra on 500 instances, max scatter error {worst:.3e}")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_allocation_statistics():
    """Mean M for N=900 over the 6-camera rig, 100 seeds, within [900, 1600]."""
    rig = make_surround_rig(6)
    cfg = DecoderConfig(n_queries=900, channels=16, heads=4)
    decoder = HybridDecoder(cfg, rig)
    limits = cfg.limits
    sizes = []
    for seed in range(100):
        q = decoder.initial_queries(rng_seed=seed)
        res = allocate(clamp_anchors(q.anchors, limits), rig, limits)
        sizes.append(res.mapping.n_2d)
    mean_m = float(np.mean(sizes))
    assert 900.0 <= mean_m <= 1600.0, f"mean M {mean_m}"
    report(4, f"allocation statistics: mean M = {mean_m:.1f} over 100 seeds "
              f"(documented target is approximately 1100; logged comparison, "
              f"not a hard gate)")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_group_isolation():
    """Bit-exact isolation: camera groups (100 cases), denoising (50 cases)."""
    rng = np.random.default_rng(505)
    for case in range(100):
        m = int(rng.integers(4, 48))
        c = int(rng.choice([8, 16]))
        heads = int(rng.choice([1, 2, 4]))
        groups = np.sort(rng.integers(0, int(rng.integers(2, 5)), size=m))
        if len(np.unique(groups)) < 2:
            groups[m // 2 :] = groups[m // 2 :] + 1
        x = rng.standard_normal((m, c))
        params = AttentionParams.seeded(c, heads, rng)
        out = attention(x, params, groups=groups)
        target = int(rng.choice(np.unique(groups)))
        x2 = x.copy()
        sel = groups == target
        x2[sel] = rng.standard_normal((int(sel.sum()), c))
        out2 = attention(x2, params, groups=groups)
        assert np.array_equal(out[~sel], out2[~sel]), f"camera case {case}"

    def rand_box():
        return [float(rng.uniform(0, 700)), float(rng.uniform(0, 250)),
                float(rng.uniform(4, 60)), float(rng.uniform(4, 60))]

    for case in range(50):
        n_gt = int(rng.integers(1, 5))
        gt = np.stack([
            box9(center=(float(rng.uniform(-30, 30)), float(rng.uniform(-30, 30)), 0.8),
                 size=(2.0, 4.0, 1.6), yaw=float(rng.uniform(-3, 3)))
            for _ in range(n_gt)
        ])
        rects, views, links = [], [], []
        for t in range(n_gt):
            for v in sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False)):
                rects.append(rand_box())
                views.append(int(v))
                links.append(t)
        noisy, _ = make_noisy_anchors(gt, NoiseConfig(n_groups=int(rng.integers(1, 4))), seed=case)
        m = int(rng.integers(2, 12))
        layout = allocate_noise(Boxes2D(rects, views, [0] * len(views)), links, noisy,
                                match_len=m)
        cams_match = np.sort(rng.integers(0, 3, size=m))
        c = 16
        x_match = rng.standard_normal((m, c))
        x_noise = rng.standard_normal((layout.n_noise, c))
        params = AttentionParams.seeded(c, 2, rng)
        full = attention(
            np.vstack([x_match, x_noise]), params, groups=denoise_groups(layout, cams_match)
        )
        alone = attention(x_match, params, groups=cams_match)
        assert np.array_equal(full[:m], alone), f"denoise case {case}"
    report(5, "group isolation bit-exact: 100 camera cases, 50 denoising cases")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_crop_scale_consistency():
    """Two-path projection, all placements x scale rates {1.5, 2.0, 2.5}."""
    rng = np.random.default_rng(606)
    k = np.array([[1000.0, 0, 800.0], [0, 1000.0, 450.0], [0, 0, 1.0]])
    view = CameraView(view_id=0, intrinsics=k, extrinsic=np.eye(4), width=1600, height=900)
    worst = 0.0
    for placement in PLACEMENTS:
        for rate in (1.5, 2.0, 2.5):
            derived, pmap = derive_view(view, CropRule(0, placement=placement, scale_rate=rate), 1)
            n = 0
            while n < 10_000:
                u = rng.uniform(0, derived.width, 4000)
                v = rng.uniform(0, derived.height, 4000)
                z = rng.uniform(1.0, 150.0, 4000)
                pc = np.stack(
                    [(u - derived.cx) / derived.fx * z, (v - derived.cy) / derived.fy * z, z],
                    axis=1,
                )
                pts = (pc - derived.translation) @ derived.rotation
                uv_d, front_d = project_view_points(derived, pts)
                uv_s, front_s = project_view_points(view, pts)
                both = front_d & front_s
                err = float(np.abs(uv_d[both] - pmap.apply(uv_s[both])).max())
                worst = max(worst, err)
                assert err <= 1e-6, (placement, rate, err)
                n += int(both.sum())
    report(6, f"crop-and-scale two-path projection: max err {worst:.3e} px "
              f"over all placements and rates")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_hungarian_optimality():
    """1000 random cost matrices (n, m <= 6) vs exhaustive permutations."""
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, m))
        rows, cols = hungarian(cost)
        got = float(cost[rows, cols].sum())
        k = min(n, m)
        best = math.inf
        rows_iter = itertools.combinations(range(n), k)
        for rsel in rows_iter:
            for csel in itertools.permutations(range(m), k):
                total = sum(cost[r, c] for r, c in zip(rsel, csel))
                if total < best:
                    best = total
        assert abs(got - best) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(7, f"hungarian equals exhaustive optimum on 1000 matrices, {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 8

def straddling_truth(rig):
    az = math.radians(20.0)
    a = box9(
        center=(10.0 * math.cos(az), 10.0 * math.sin(az), 0.75),
        size=(2.0, 14.0, 1.5),
        yaw=az + math.pi / 2,
    )
    truth = one_box_scene(rig, a, 0)
    assert len(truth.gt2d) == 2
    return truth, a


def test_criterion_8_aar_cases_and_monotonicity():
    """AAR hand cases (100%, 50%, degenerate) and the monotone sweep."""
    rig = make_surround_rig(6)
    truth, a = straddling_truth(rig)
    perfect = aar(scored([a], [0], truth.gt2d), truth)
    assert (perfect.aar, perfect.recall) == (100.0, 100.0)
    half = aar(scored([a], [0], take(truth.gt2d, [0])), truth)
    assert (half.n_candidate, half.n_valid) == (2, 1) and half.aar == 50.0
    empty = aar(Detections.empty(), truth)
    assert empty.no_candidates and empty.aar == 0.0 and empty.n_candidate == 0

    noise = OracleNoise(drop_prob=0.25, jitter_px=5.0, jitter_m=0.5, score_spread=0.3)
    for seed in range(20):
        scene = sample_scene(seed, rig, n_boxes=10)
        res = aar(perturb(scene, noise, seed=seed + 1000), scene)
        aars = [row[1] for row in res.curve]
        recalls = [row[2] for row in res.curve]
        cands = [row[3] for row in res.curve]
        valids = [row[4] for row in res.curve]
        assert all(x >= y for x, y in zip(cands, cands[1:]))
        assert all(x >= y for x, y in zip(valids, valids[1:]))
        assert all(x >= y - 1e-9 for x, y in zip(recalls, recalls[1:]))
        assert all(v <= c for c, v in zip(cands, valids))
    report(8, "AAR hand cases exact; sweep counts non-increasing on 20 noisy scenes")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_loss_arithmetic():
    """Loss formula hand cases at 1e-9, with the default balance weights."""
    w = LossWeights()
    assert w.lambda1 == 0.5 and w.lambda2 == 0.2

    # alpha-angle encoding
    assert loss_alpha(np.array([[1.0, 0.0]]), np.array([0.0])) == 2.0
    assert loss_alpha(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0])) == 1.0

    # 2D loss composition on a single matched box
    boxes = {0: np.array([[10.0, 10.0, 4.0, 4.0]])}
    logits = {0: np.array([[2.0, -1.0]])}
    alphas = {0: np.array([[0.2, 0.8]])}
    gt_b = {0: np.array([[11.0, 10.0, 4.0, 4.0]])}
    gt_c = {0: np.array([0])}
    gt_t = {0: np.array([0.5])}
    assign = {0: (np.array([0]), np.array([0]))}
    parts = loss_2d_parts(boxes, logits, alphas, gt_b, gt_c, gt_t, assign, w)
    from mvdet._kernels import iou_matrix

    want = (
        w.w_focal * focal_loss(logits[0], np.array([0]))
        + w.w_l1 * 1.0
        + w.w_iou * (1.0 - iou_matrix(boxes[0], gt_b[0])[0, 0])
        + w.lambda1 * (abs(math.sin(0.5) - 0.2) + abs(math.cos(0.5) - 0.8))
    )
    assert abs(parts["total"] - want) <= 1e-9

    # auxiliary combiner and the overall sum
    assert abs(loss_aux(0.0, 0.0, 1.5, w) - 0.3) <= 1e-9  # 0.2 * mean{0,1,2,3}
    assert loss_total(0.0, 0.0, 0.0, w) == 0.0
    assert abs(loss_total(1.0, 2.0, 5.0, w) - 8.0) <= 1e-9
    report(9, "loss hand cases reproduce at 1e-9 with lambda1=0.5, lambda2=0.2")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_decoder_structure(tmp_path):
    """Presets A-F execute 6 sub-layers; preset F taps; byte-identical runs."""
    rig = make_surround_rig(6)
    scene = sample_scene(1, rig, n_boxes=8)
    feats = render_features(scene, rig, scales=(8, 16), channels=8)
    for name, (l2, l3, lh) in PRESETS.items():
        cfg = DecoderConfig(n_queries=24, channels=16, heads=4, feature_channels=8,
                            l_2d=l2, l_3d=l3, l_hybrid=lh)
        dec = HybridDecoder(cfg, rig)
        out, _ = dec.forward(feats, dec.initial_queries())
        assert out.n_sublayers == (l2 + l3) * lh == 6, name
        if name == "F":
            assert len(out.agg_taps) == 3
            assert all(layer.mapping.camera_of_col.size for layer in out.layers_2d)

    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "preset": "F",
        "decoder": {"n_queries": 24, "channels": 16, "heads": 4,
                    "feature_channels": 8, "seed": 3},
        "seeds": {"base": 11, "scenes": 2},
        "boxes": 6,
        "noise": {},
    }))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    identical = []
    for rel in ("metrics/aar_curve.csv", "metrics/ap.csv", "gt_scenes.json",
                "summary.json", "rig.json", "forward/forward_0000.json",
                "forward/forward_0001.json", "pred/pred_0000.json"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        identical.append(rel)
    report(10, f"presets A-F run 6 sub-layers; preset F emits 3 taps; "
               f"{len(identical)} run artifacts byte-identical across invocations")
