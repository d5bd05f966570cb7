import itertools
import math

import numpy as np
import pytest

from mvdet.geometry import Boxes2D
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
    from mvdet.simulator import OracleNoise, perturb, sample_scene

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
    from mvdet.simulator import OracleNoise, perturb, sample_scene

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
