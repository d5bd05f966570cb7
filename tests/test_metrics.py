import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdet import metrics
from mvdet.crop_scale import CropRule, extend_rig
from mvdet.geometry import Boxes2D, make_surround_rig, project_rig
from mvdet.metrics import (
    Detections,
    LossWeights,
    MatchParams,
    aar,
    ap_2d,
    class_nll,
    detections_to_json_obj,
    focal_loss,
    hungarian,
    loss_2d,
    loss_2d_parts,
    loss_alpha,
    loss_aux,
    loss_dense_depth,
    loss_instance_depth,
    loss_total,
    match_2d_per_camera,
    mean_ap,
    parse_detections,
)
from mvdet.simulator import OracleNoise, Scene, perturb, sample_scene

from conftest import box9, candidate_match, one_box_scene, scored, take


# ----------------------------------------------------------------- hungarian

def brute_force_assignments(cost):
    """All optimal assignments by permutation enumeration (n, m small)."""
    n, m = cost.shape
    k = min(n, m)
    best = math.inf
    solutions = []
    rows_iter = itertools.combinations(range(n), k) if n > k else [tuple(range(n))]
    for rows in rows_iter:
        for cols in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(rows, cols))
            if total < best - 1e-12:
                best = total
                solutions = [list(zip(rows, cols))]
            elif abs(total - best) <= 1e-12:
                solutions.append(list(zip(rows, cols)))
    return best, solutions


def test_hungarian_hand_cases():
    rows, cols = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert list(zip(rows, cols)) == [(0, 0), (1, 1)]
    rows, cols = hungarian(np.array([[5.0, 1.0, 9.0]]))
    assert list(zip(rows, cols)) == [(0, 1)]


def test_hungarian_rejects_bad_costs():
    with pytest.raises(ValueError):
        hungarian(np.array([[np.nan, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))


def test_hungarian_vs_bruteforce_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(n, m))
        rows, cols = hungarian(cost)
        best, _ = brute_force_assignments(cost)
        got = float(cost[rows, cols].sum())
        assert abs(got - best) <= 1e-9
        assert len(rows) == min(n, m)


def test_hungarian_lexicographic_tie_break():
    rows, cols = hungarian(np.zeros((3, 3)))
    assert list(zip(rows, cols)) == [(0, 0), (1, 1), (2, 2)]
    rows, cols = hungarian(np.zeros((2, 4)))
    assert list(zip(rows, cols)) == [(0, 0), (1, 1)]
    # ties with integer costs: compare against the enumerated lex-smallest
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        cost = rng.integers(0, 3, size=(n, m)).astype(float)
        rows, cols = hungarian(cost)
        _, solutions = brute_force_assignments(cost)
        lex = min(sorted(s) for s in solutions)
        assert sorted(zip(rows, cols)) == [tuple(p) for p in lex]


# ------------------------------------------------------- match_2d_per_camera

def test_perfect_predictions_match_identity():
    rng = np.random.default_rng(2)
    boxes = rng.uniform(10, 200, size=(4, 4))
    logits = np.full((4, 3), -4.0)
    classes = np.array([0, 1, 2, 1])
    logits[np.arange(4), classes] = 6.0
    res = match_2d_per_camera(
        {0: boxes}, {0: logits}, {0: boxes}, {0: classes}, MatchParams()
    )
    pi, gi = res[0]
    assert np.array_equal(pi, gi)
    assert np.abs(boxes[pi] - boxes[gi]).sum() == 0.0


def test_empty_gt_camera():
    res = match_2d_per_camera(
        {0: np.zeros((2, 4))}, {0: np.zeros((2, 3))}, {}, {}, MatchParams()
    )
    assert len(res[0][0]) == 0


def test_match_cost_vs_permutation_oracle():
    rng = np.random.default_rng(3)
    params = MatchParams()
    boxes = rng.uniform(0, 100, size=(3, 4))
    logits = rng.standard_normal((3, 4))
    gt_b = rng.uniform(0, 100, size=(2, 4))
    gt_c = np.array([1, 3])
    res = match_2d_per_camera({0: boxes}, {0: logits}, {0: gt_b}, {0: gt_c}, params)
    pi, gi = res[0]
    from mvdet._kernels import iou_matrix

    cost = (
        params.w_class * class_nll(logits, gt_c)
        + params.w_l1 * np.abs(boxes[:, None, :] - gt_b[None, :, :]).sum(axis=2)
        + params.w_iou * (1.0 - iou_matrix(boxes, gt_b))
    )
    best, _ = brute_force_assignments(cost)
    assert abs(float(cost[pi, gi].sum()) - best) <= 1e-9


# ------------------------------------------------------------------- losses

def test_loss_alpha_nonnegative_zero_iff_exact():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # offsets below half an ulp of the encoded values vanish in the
    # addition, so "nonzero" means representably nonzero here
    offset = st.one_of(
        st.just(0.0),
        st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6),
    )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8), offset, offset)
    def check(thetas, ds, dc):
        theta = np.asarray(thetas)
        exact = np.stack([np.sin(theta), np.cos(theta)], axis=1)
        assert loss_alpha(exact, theta) == 0.0
        off = exact + np.array([ds, dc])
        val = loss_alpha(off, theta)
        assert val >= 0.0
        if ds != 0.0 or dc != 0.0:
            assert val > 0.0

    check()


def test_loss_alpha_cases():
    theta = np.array([0.7, -1.2])
    pred = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    assert loss_alpha(pred, theta) == 0.0
    assert loss_alpha(np.array([[1.0, 0.0]]), np.array([0.0])) == 2.0
    # per-item values {2, 0} -> mean 1
    pred2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss_alpha(pred2, np.array([0.0, 0.0])) == 1.0
    assert loss_alpha(np.zeros((0, 2)), np.zeros(0)) == 0.0


def perfect_camera_case():
    boxes = np.array([[50.0, 40.0, 20.0, 10.0], [120.0, 80.0, 30.0, 16.0]])
    classes = np.array([0, 2])
    logits = np.full((2, 3), -8.0)
    logits[np.arange(2), classes] = 8.0
    thetas = np.array([0.3, -0.9])
    alphas = np.stack([np.sin(thetas), np.cos(thetas)], axis=1)
    assign = {0: (np.array([0, 1]), np.array([0, 1]))}
    return (
        {0: boxes}, {0: logits}, {0: alphas}, {0: boxes}, {0: classes},
        {0: thetas}, assign,
    )


def test_loss_2d_perfect_predictions_floor_only():
    args = perfect_camera_case()
    parts = loss_2d_parts(*args)
    assert parts["l1"] == 0.0
    assert parts["iou"] == 0.0
    assert parts["alpha"] == 0.0
    assert parts["class"] > 0.0  # finite-logit focal floor
    assert parts["total"] == parts["detr2d"]


def test_loss_2d_lambda1_zero_reduces_to_detr():
    args = perfect_camera_case()
    w = LossWeights(lambda1=0.0)
    assert loss_2d(*args, weights=w) == loss_2d_parts(*args, weights=w)["detr2d"]
    w2 = LossWeights(include_alpha=False)
    assert loss_2d(*args, weights=w2) == loss_2d_parts(*args, weights=w2)["detr2d"]


def test_loss_2d_hand_case():
    # one camera, one prediction, one gt; verify the composition by hand
    boxes = {0: np.array([[10.0, 10.0, 4.0, 4.0]])}
    logits = {0: np.array([[2.0, -1.0]])}
    alphas = {0: np.array([[0.2, 0.8]])}
    gt_b = {0: np.array([[11.0, 10.0, 4.0, 4.0]])}
    gt_c = {0: np.array([0])}
    gt_t = {0: np.array([0.5])}
    assign = {0: (np.array([0]), np.array([0]))}
    w = LossWeights()
    parts = loss_2d_parts(boxes, logits, alphas, gt_b, gt_c, gt_t, assign, w)
    l1 = 1.0
    from mvdet._kernels import iou_matrix

    iou = iou_matrix(boxes[0], gt_b[0])[0, 0]
    focal = focal_loss(logits[0], np.array([0]))
    alpha = abs(math.sin(0.5) - 0.2) + abs(math.cos(0.5) - 0.8)
    want = w.w_focal * focal + w.w_l1 * l1 + w.w_iou * (1.0 - iou) + w.lambda1 * alpha
    assert abs(parts["total"] - want) <= 1e-9


def test_loss_2d_iou_term_keeps_the_matrix_diagonal_bits():
    # the matched pairs' IoU is the diagonal of their IoU matrix, bit for
    # bit, zero-union pairs included
    from mvdet._kernels import iou_matrix, iou_pairs

    rng = np.random.default_rng(9)
    a = np.column_stack([rng.uniform(0, 700, (40, 2)), rng.uniform(0, 60, (40, 2))])
    b = np.abs(a + rng.normal(0, 5, a.shape))
    a[::5, 2:] = b[::5, 2:] = 0.0
    assert iou_pairs(a, b).tobytes() == np.diagonal(iou_matrix(a, b)).tobytes()
    pi, gi = rng.permutation(40), rng.permutation(40)
    parts = loss_2d_parts({0: a}, {0: np.zeros((40, 3))}, {0: np.zeros((40, 2))}, {0: b},
                          {0: np.zeros(40, dtype=int)}, {0: np.zeros(40)}, {0: (pi, gi)})
    assert parts["iou"] == float((1.0 - np.diagonal(iou_matrix(a[pi], b[gi]))).sum()) / 40


def test_loss_total_cases():
    assert loss_total(0.0, 0.0, 0.0) == 0.0
    assert loss_total(1.0, 2.0, 5.0) == 8.0
    assert loss_total(1.0, 2.0, 5.0, LossWeights(include_aux=False)) == 3.0
    with pytest.raises(ValueError):
        loss_total(np.inf, 0.0, 0.0)


def test_dense_depth_hand_case():
    pred = np.array([[0.0, 1.0], [2.0, 3.0]])
    gt = np.zeros((2, 2))
    assert loss_dense_depth(pred, gt) == 1.5
    assert abs(loss_aux(0.0, 0.0, 1.5) - 0.3) <= 1e-12  # lambda2 = 0.2
    gt_masked = np.array([[0.0, np.inf], [np.inf, np.inf]])
    assert loss_dense_depth(pred, gt_masked) == 0.0
    assert loss_dense_depth(np.zeros((2, 2)), np.full((2, 2), np.inf)) == 0.0


def test_instance_depth_bins():
    logits = np.full((1, 64), -8.0)
    logits[0, 10] = 8.0  # bin 10 of 64 over [0, 60): depths [9.375, 10.3125)
    confident = loss_instance_depth(logits, np.array([9.5]))
    wrong = loss_instance_depth(logits, np.array([50.0]))
    assert confident < wrong


def test_default_weights_match_config():
    w = LossWeights()
    assert w.lambda1 == 0.5
    assert w.lambda2 == 0.2


# ----------------------------------------------------------- candidate match

def one_box_truth(rig, center=(15.0, 0.0, 0.8), cls=1):
    a = box9(center=center, size=(2.0, 4.0, 1.6), yaw=0.1)
    return one_box_scene(rig, a, cls), a


def test_candidate_match_cases(rig6):
    truth, a = one_box_truth(rig6)
    for tau in (0.1, 0.5, 0.9):
        assert candidate_match(a, 1, 0, truth, MatchParams(tau_iou=tau))
    assert not candidate_match(a, 0, 0, truth)  # wrong class
    off = a.copy()
    off[0] += 2.1
    assert not candidate_match(off, 1, 0, truth, MatchParams(tau_dis=2.0))


# --------------------------------------------------------------------- aar

def straddling_truth(rig):
    """One GT visible in two views."""
    az = math.radians(20.0)
    a = box9(
        center=(10.0 * math.cos(az), 10.0 * math.sin(az), 0.75),
        size=(2.0, 14.0, 1.5),
        yaw=az + math.pi / 2,
    )
    truth = one_box_scene(rig, a, 0)
    assert len(truth.gt2d) == 2
    return truth, a


def test_aar_perfect(rig6):
    truth, a = straddling_truth(rig6)
    res = aar(scored([a], [0], truth.gt2d), truth, MatchParams())
    assert res.n_candidate == 2
    assert res.n_valid == 2
    assert res.aar == 100.0
    assert res.recall == 100.0


def test_aar_missing_one_view_prediction(rig6):
    truth, a = straddling_truth(rig6)
    res = aar(scored([a], [0], take(truth.gt2d, [0])), truth, MatchParams())  # one view missing
    assert res.n_candidate == 2
    assert res.n_valid == 1
    assert res.aar == 50.0


def test_aar_no_predictions(rig6):
    truth, _ = straddling_truth(rig6)
    res = aar(Detections.empty(), truth, MatchParams())
    assert res.no_candidates
    assert res.aar == 0.0
    assert res.recall == 0.0
    assert res.n_candidate == 0


def test_aar_rejects_gt_views_missing_from_rig(rig6):
    truth, a = straddling_truth(rig6)
    truth.gt2d, truth.gt2d_link = Boxes2D([[1, 1, 2, 2]], [99], [0]), np.array([0])
    with pytest.raises(ValueError, match="view 99 missing from the rig"):
        aar(scored([a], [0], take(truth.gt2d, [])), truth)


def test_aar_valid_implies_candidate_and_monotone(rig6):
    from mvdet.simulator import OracleNoise, Scene, perturb, sample_scene

    for seed in range(6):
        scene = sample_scene(seed, rig6, n_boxes=8)
        noise = OracleNoise(drop_prob=0.3, jitter_px=4.0, jitter_m=0.4, score_spread=0.2)
        res = aar(perturb(scene, noise, seed=seed + 100), scene, MatchParams())
        assert res.n_valid <= res.n_candidate
        assert res.aar <= 100.0
        recalls = [row[2] for row in res.curve]
        assert all(x >= y - 1e-9 for x, y in zip(recalls, recalls[1:]))
        cands = [row[3] for row in res.curve]
        assert all(x >= y for x, y in zip(cands, cands[1:]))


def aar_pairwise_reference(det, scene, tau):
    """(n_candidate, n_valid) at tau_iou = tau, one predicate call per pair."""
    from mvdet._kernels import iou_matrix

    params = MatchParams(tau_iou=tau)
    gt, p2 = scene.gt2d, det.boxes2d
    cand = [[candidate_match(box, int(c), j, scene, params) for j in range(len(gt))]
            for box, c in zip(det.boxes3d, det.classes3d)]

    def ok2d(k, j):
        if p2.view_id[k] != gt.view_id[j] or p2.class_id[k] != gt.class_id[j]:
            return False
        return iou_matrix(p2.rect[k][None], gt.rect[j][None])[0, 0] >= tau

    n_valid = sum(
        any(cand[i][j] and ok2d(k, j) for j in range(len(gt)))
        for i in range(len(cand)) for k in range(len(p2))
    )
    return sum(map(sum, cand)), n_valid


def with_relabelled_copies(det):
    """``det`` plus every third 3D and 2D box again, with class id + 1."""
    b2 = det.boxes2d
    return scored(
        np.concatenate([det.boxes3d, det.boxes3d[::3]]),
        np.concatenate([det.classes3d, det.classes3d[::3] + 1]),
        Boxes2D(np.concatenate([b2.rect, b2.rect[::3]]),
                np.concatenate([b2.view_id, b2.view_id[::3]]),
                np.concatenate([b2.class_id, b2.class_id[::3] + 1])),
    )


def test_aar_matches_pairwise_reference(rig6):
    from mvdet.simulator import OracleNoise, Scene, perturb, sample_scene

    # 3D drops, 2D drops (all of view 3) and jitter large enough that some
    # pairs pass at low thresholds only
    noise = OracleNoise(drop_prob={0: 0.3, 1: 0.3, 2: 0.3, 3: 1.0, 4: 0.3, 5: 0.3},
                        jitter_px=8.0, jitter_m=0.8, drop_prob_3d=0.25)
    taus = (0.1, 0.3, 0.5, 0.7, 0.9)
    n_straddling = 0
    for seed in range(40):
        scene = sample_scene(seed, rig6, n_boxes=12)
        # relabelled copies, so that both class tests decide some pairs
        det = with_relabelled_copies(perturb(scene, noise, seed=seed + 100))
        links = scene.gt2d_link.tolist()
        n_straddling += len(links) - len(set(links))
        res = aar(det, scene, MatchParams(), taus=taus)
        assert [row[0] for row in res.curve] == list(taus)
        for tau, _, _, c, v in res.curve:
            assert (c, v) == aar_pairwise_reference(det, scene, tau), (seed, tau)
    assert n_straddling > 0  # some boxes are seen in two views


# ---------------------------------------------------------------------- ap_2d

def test_ap_perfect_single_prediction():
    g = Boxes2D([[10, 10, 4, 4]], [0], [0])
    ap = ap_2d(g, [0.9], g)
    assert ap[0][0.5] == 1.0


def test_ap_all_wrong_class():
    g = Boxes2D([[10, 10, 4, 4]], [0], [0])
    p = Boxes2D(g.rect, [0], [1])
    ap = ap_2d(p, [0.9], g)
    assert ap[0][0.5] == 0.0
    assert ap[1][0.5] == 0.0
    assert mean_ap(ap) == 0.0


def test_ap_ranked_hand_case():
    # 3 predictions, 2 gt, one false positive ranked between the true ones:
    # ranks: TP(0.9), FP(0.8), TP(0.7) -> precision at recalls .5, 1 = 1, 2/3
    gt = Boxes2D([[10, 10, 4, 4], [40, 10, 4, 4]], [0, 0], [0, 0])
    preds = Boxes2D([[10, 10, 4, 4], [80, 40, 4, 4], [40, 10, 4, 4]], [0, 0, 0], [0, 0, 0])
    ap = ap_2d(preds, [0.9, 0.8, 0.7], gt)[0][0.5]
    # 11-point interpolation: recalls 0..0.5 see precision 1, .6..1.0 see 2/3
    want = (6 * 1.0 + 5 * (2.0 / 3.0)) / 11.0
    assert abs(ap - want) <= 1e-12


def test_ap_takes_the_best_gt_not_the_first():
    # the first prediction overlaps ground truth 0 at IoU 1/7 and 1 exactly;
    # taking 1 leaves 0 for the second prediction, which overlaps 0 alone
    gt = Boxes2D([[10, 10, 4, 4], [13, 10, 4, 4]], [0, 0], [0, 0])
    preds = Boxes2D([[13, 10, 4, 4], [8, 10, 4, 4]], [0, 0], [0, 0])
    assert ap_2d(preds, [0.9, 0.8], gt, (0.1,))[0][0.1] == 1.0


def test_ap_tie_goes_to_the_lowest_gt_index():
    # the first prediction overlaps both ground truths at IoU 1/3; taking
    # the lower index leaves the second prediction, an exact copy of that
    # ground truth, without a match
    a, b = [10, 10, 4, 4], [14, 10, 4, 4]
    preds = Boxes2D([[12, 10, 4, 4], a], [0, 0], [0, 0])
    assert ap_2d(preds, [0.9, 0.8], Boxes2D([a, b], [0, 0], [0, 0]), (0.3,))[0][0.3] == 6 / 11
    assert ap_2d(preds, [0.9, 0.8], Boxes2D([b, a], [0, 0], [0, 0]), (0.3,))[0][0.3] == 1.0


def ap_2d_pairwise_reference(preds, scores, gt, thresholds):
    """Greedy matching with one IoU evaluation per (prediction, GT) pair."""
    from mvdet._kernels import iou_matrix

    classes = sorted(set(preds.class_id.tolist()) | set(gt.class_id.tolist()))
    out = {}
    for cls in classes:
        ranked = sorted(
            [k for k in range(len(preds)) if preds.class_id[k] == cls],
            key=lambda k: (-scores[k], preds.view_id[k], k),
        )
        cls_gt = [j for j in range(len(gt)) if gt.class_id[j] == cls]
        out[cls] = {}
        for thr in thresholds:
            used = [False] * len(cls_gt)
            tp = np.zeros(len(ranked))
            for rank, k in enumerate(ranked):
                best_iou, best_j = 0.0, -1
                for j, g in enumerate(cls_gt):
                    if used[j] or gt.view_id[g] != preds.view_id[k]:
                        continue
                    iou = iou_matrix(preds.rect[k][None], gt.rect[g][None])[0, 0]
                    if iou >= thr and iou > best_iou:
                        best_iou, best_j = iou, j
                if best_j >= 0:
                    used[best_j] = True
                    tp[rank] = 1.0
            if not cls_gt or not ranked:
                out[cls][thr] = 0.0
                continue
            ctp = np.cumsum(tp)
            recall = ctp / len(cls_gt)
            precision = ctp / np.maximum(ctp + np.cumsum(1.0 - tp), 1e-12)
            ap = 0.0
            for r in np.linspace(0.0, 1.0, 11):
                sel = recall >= r - 1e-12
                ap += float(precision[sel].max()) if sel.any() else 0.0
            out[cls][thr] = ap / 11.0
    return out


def test_ap_matches_pairwise_reference():
    # crowded random boxes over several views, classes and tied scores
    rng = np.random.default_rng(17)
    for _ in range(20):
        def rand_box():
            box = [float(rng.uniform(0, 60)), float(rng.uniform(0, 40)),
                   float(rng.uniform(2, 20)), float(rng.uniform(2, 20))]
            return box, int(rng.integers(0, 3))

        gt = [(*rand_box(), int(rng.integers(0, 3))) for _ in range(int(rng.integers(0, 15)))]
        preds = [(*rand_box(), int(rng.integers(0, 3)), float(rng.choice([0.3, 0.5, 0.9])))
                 for _ in range(int(rng.integers(0, 25)))]
        preds += [(*g, 0.7) for g in gt[::2]]

        def table(rows):
            return Boxes2D([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])

        scores = np.array([p[3] for p in preds])
        thresholds = (0.1, 0.3, 0.5, 0.7)
        assert (ap_2d(table(preds), scores, table(gt), thresholds)
                == ap_2d_pairwise_reference(table(preds), scores, table(gt), thresholds))

def test_ap_rejects_fewer_scores_than_predictions():
    preds = Boxes2D([[10, 10, 4, 4], [20, 10, 4, 4]], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="1 scores for 2 predictions"):
        ap_2d(preds, [0.9], preds)


def test_ap_rejects_more_scores_than_predictions():
    preds = Boxes2D([[10, 10, 4, 4], [20, 10, 4, 4]], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="3 scores for 2 predictions"):
        ap_2d(preds, [0.9, 0.8, 0.7], preds)


# budgets that cut chunks after every cell or scene, inside a run of them,
# or not at all
BUDGETS = st.sampled_from([1, 8, 40, 300, metrics.TABLE_BUDGET])

# few coordinates and sizes: duplicated boxes (IoU exactly 1), zero-area
# boxes and equal IoUs are common
_coord = st.sampled_from([0.0, 1.0, 2.0, 3.0])
_size = st.sampled_from([0.0, 1.0, 2.0, 4.0])
_box = st.tuples(_coord, _coord, _size, _size)


def sized_lists(elements, max_size):
    """Lists of a uniformly drawn length up to ``max_size``, so that crowded
    cells, where the matching order decides, come up often."""
    return st.integers(0, max_size).flatmap(
        lambda n: st.lists(elements, min_size=n, max_size=n))


def table2d(rows) -> Boxes2D:
    """Boxes2D of (box, view id, class id) rows."""
    return Boxes2D(np.array([r[0] for r in rows], dtype=np.float64).reshape(-1, 4),
                   [r[1] for r in rows], [r[2] for r in rows])


@settings(max_examples=300, deadline=None)
@given(
    # ground truth in views 0-1 and classes 0-1; predictions also in view 2,
    # which has none, and class 2, which only predictions have
    gt=sized_lists(st.tuples(_box, st.integers(0, 1), st.integers(0, 1)), 12),
    preds=sized_lists(st.tuples(_box, st.integers(0, 2), st.integers(0, 2),
                                st.sampled_from([0.2, 0.5, 0.9])), 18),
    budget=BUDGETS,
)
def test_ap_array_pass_matches_pairwise_reference(gt, preds, budget):
    thresholds = (0.0, 0.3, 0.5, 1.0)
    scores = np.array([p[3] for p in preds])
    with mock.patch.object(metrics, "TABLE_BUDGET", budget):
        got = ap_2d(table2d(preds), scores, table2d(gt), thresholds)
    assert got == ap_2d_pairwise_reference(table2d(preds), scores, table2d(gt), thresholds)


RIGS = (make_surround_rig(6),
        extend_rig(make_surround_rig(4), [CropRule(source_view_id=0, scale_rate=2.0)]))


def with_awkward_boxes(det: Detections) -> Detections:
    """``det`` plus exact copies of its first 3D box and its first two 2D
    boxes, a zero-width copy of its first 2D box, and a copy of its first
    2D box in view 99, which holds no ground truth."""
    b2 = det.boxes2d
    rect = np.concatenate([b2.rect, b2.rect[:2], b2.rect[:1] * [1, 1, 0, 1], b2.rect[:1]])
    views = np.concatenate([b2.view_id, b2.view_id[:2], b2.view_id[:1], [99] * min(1, len(b2))])
    classes = np.concatenate([b2.class_id, b2.class_id[:2], b2.class_id[:1], b2.class_id[:1]])
    return scored(np.concatenate([det.boxes3d, det.boxes3d[:1]]),
                  np.concatenate([det.classes3d, det.classes3d[:1]]),
                  Boxes2D(rect, views, classes))


@st.composite
def scenes_and_detections(draw, max_scenes=3):
    """Scenes over either of two rigs, each with no detections, exact ones
    or noisy ones with relabelled copies and awkward boxes."""
    scenes, dets = [], []
    for frame_id in range(draw(st.integers(1, max_scenes))):
        rig = draw(st.sampled_from(RIGS))
        seed = draw(st.integers(0, 2**16))
        scene = sample_scene(seed, rig, n_boxes=draw(st.integers(0, 8)), frame_id=frame_id)
        kind = draw(st.sampled_from(["none", "exact", "noisy", "noisy"]))
        if kind == "none":
            det = Detections.empty()
        else:
            noise = OracleNoise() if kind == "exact" else OracleNoise(
                drop_prob=0.3, jitter_px=6.0, jitter_m=0.6, drop_prob_3d=0.2, score_spread=0.5)
            det = with_awkward_boxes(with_relabelled_copies(perturb(scene, noise, seed + 1)))
        scenes.append(scene)
        dets.append(det)
    return scenes, dets


@settings(max_examples=60, deadline=None)
@given(case=scenes_and_detections(), budget=BUDGETS)
def test_aar_batch_equals_the_per_scene_reference_sum(case, budget):
    scenes, dets = case
    taus = (0.1, 0.5, 0.8)
    with mock.patch.object(metrics, "TABLE_BUDGET", budget):
        res = aar(dets, scenes, MatchParams(), taus=taus)
    n2d = sum(len(s.gt2d) for s in scenes)
    for (tau, a, r, c, v) in res.curve:
        want = [aar_pairwise_reference(det, scene, tau) for det, scene in zip(dets, scenes)]
        assert (c, v) == tuple(map(sum, zip(*want))), tau
        assert (a, r) == (100.0 * v / c if c else 0.0, 100.0 * c / n2d if n2d else 0.0)
    one_by_one = [aar(det, scene, taus=taus) for det, scene in zip(dets, scenes)]
    assert (res.n_candidate, res.n_valid) == (sum(x.n_candidate for x in one_by_one),
                                              sum(x.n_valid for x in one_by_one))


def test_aar_projects_once_per_distinct_rig(monkeypatch):
    # scenes 0 and 2 share a rig by content, not by object
    scenes = [sample_scene(seed, list(RIGS[seed % 2]), n_boxes=6, frame_id=seed)
              for seed in range(3)]
    dets = [perturb(scene, OracleNoise(jitter_px=2.0), scene.seed) for scene in scenes]
    calls = []
    monkeypatch.setattr(metrics, "project_rig",
                        lambda rig, anchors: calls.append(len(rig)) or project_rig(rig, anchors))
    pooled = aar(dets, scenes)
    assert sorted(calls) == [5, 6]
    for tau, _, _, c, v in pooled.curve:
        want = [aar_pairwise_reference(det, scene, tau) for det, scene in zip(dets, scenes)]
        assert (c, v) == tuple(map(sum, zip(*want)))


def test_aar_rejects_unequal_scene_and_frame_counts(rig6):
    scene = sample_scene(0, rig6, n_boxes=3)
    with pytest.raises(ValueError, match="2 detection frames for 1 scenes"):
        aar([Detections.empty()] * 2, [scene])


# ----------------------------------------------------- box order (metamorphic)

def permuted(det: Detections, rng, order_3d=True, order_2d=True) -> Detections:
    """``det`` with its 3D and/or 2D predictions in a random order."""
    p3 = rng.permutation(len(det.boxes3d)) if order_3d else np.arange(len(det.boxes3d))
    p2 = rng.permutation(len(det.boxes2d)) if order_2d else np.arange(len(det.boxes2d))
    b2 = det.boxes2d
    return Detections(det.boxes3d[p3], det.classes3d[p3], det.scores3d[p3],
                      Boxes2D(b2.rect[p2], b2.view_id[p2], b2.class_id[p2]), det.scores2d[p2])


def with_gt_rows_permuted(scene, rng):
    """``scene`` with its 2D ground-truth rows (and their links) in a random order."""
    p = rng.permutation(len(scene.gt2d))
    gt = scene.gt2d
    return Scene(seed=scene.seed, frame_id=scene.frame_id, anchors=scene.anchors,
                 classes=scene.classes, gt2d=Boxes2D(gt.rect[p], gt.view_id[p], gt.class_id[p]),
                 gt2d_link=scene.gt2d_link[p], rig=scene.rig)


def metric_counts(det, scene, taus):
    """Every threshold's (c, v) counts and the AP dict of one frame."""
    counts = [(c, v) for _, _, _, c, v in aar(det, scene, taus=taus).curve]
    return counts, ap_2d(det.boxes2d, det.scores2d, scene.gt2d, (0.3, 0.5, 0.75))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n_boxes=st.integers(1, 10), rig=st.sampled_from(RIGS),
       perm_seed=st.integers(0, 2**16))
def test_metrics_ignore_box_order(seed, n_boxes, rig, perm_seed):
    # continuous jitter: no two ground truths at exactly the same IoU of a
    # prediction; the copies come back scored 1, so the 2D boxes get
    # distinct scores afresh
    scene = sample_scene(seed, rig, n_boxes=n_boxes)
    noise = OracleNoise(drop_prob=0.2, jitter_px=4.0, jitter_m=0.5)
    det = with_relabelled_copies(perturb(scene, noise, seed + 1))
    det = Detections(det.boxes3d, det.classes3d, det.scores3d, det.boxes2d,
                     np.linspace(0.9, 0.1, len(det.boxes2d))[
                         np.random.default_rng(seed).permutation(len(det.boxes2d))])
    taus = metrics.DEFAULT_TAUS
    want = metric_counts(det, scene, taus)
    rng = np.random.default_rng(perm_seed)
    assert metric_counts(permuted(det, rng, order_2d=False), scene, taus) == want
    assert metric_counts(permuted(det, rng, order_3d=False), scene, taus) == want
    assert metric_counts(det, with_gt_rows_permuted(scene, rng), taus) == want


# ------------------------------------------------------------ detections JSON

def test_detections_roundtrip():
    det = Detections(boxes3d=[np.arange(9.0)], classes3d=[2], scores3d=[0.75],
                     boxes2d=Boxes2D([[1.5, 2.5, 3.0, 4.0]], [3], [1]), scores2d=[0.5])
    frames = parse_detections(detections_to_json_obj({7: det}))
    assert list(frames) == [7]
    back = frames[7]
    assert np.array_equal(back.boxes3d, det.boxes3d)
    assert back.classes3d.tolist() == [2] and back.scores3d.tolist() == [0.75]
    assert np.array_equal(back.boxes2d.rect, det.boxes2d.rect)
    assert back.boxes2d.view_id.tolist() == [3]
    assert back.boxes2d.class_id.tolist() == [1]
    assert back.scores2d.tolist() == [0.5]
    with pytest.raises(ValueError):
        parse_detections({"format": "something-else"})
