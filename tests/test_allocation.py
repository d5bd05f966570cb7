import math

import numpy as np
import pytest

from mvdet.allocation import (
    AllocationLimits,
    MappingMatrix,
    allocate,
    clamp_anchors,
    gather_2d,
    mean_of_copies,
    scatter_mean,
)
from mvdet._kernels import box_points
from mvdet.geometry import EPS_DEPTH, make_surround_rig, project_point

from conftest import (
    box9,
    corners,
    project_one_view,
    random_anchor_array,
    random_rig_with_crop,
    random_view,
    same_bits,
    to_dense,
)


# --------------------------------------------------------------------- clamp

def test_clamp_oversized():
    a = box9(center=(0, 0, 0), size=(40, 40, 12), yaw=0.0)
    out = clamp_anchors(a[None, :])[0]
    assert out[3:6].tolist() == [35.0, 35.0, 10.0]
    assert np.array_equal(out[0:3], a[0:3]) and out[6] == a[6]


def test_clamp_under_limit_unchanged():
    a = box9(center=(1, 2, 3), size=(2, 4, 1.5), yaw=0.4, velocity=(1, -1))
    out = clamp_anchors(a[None, :])[0]
    assert np.array_equal(out, a)


def test_clamp_batch_order_and_length():
    anchors = np.stack([
        box9(center=(i, 0, 0), size=(40 + i, 2, 12), yaw=0.0) for i in range(5)
    ])
    out = clamp_anchors(anchors)
    assert out.shape == (5, 9)
    assert out[:, 0].tolist() == [0, 1, 2, 3, 4]
    assert np.all(out[:, 3] == 35.0)
    assert np.array_equal(out[:, [0, 1, 2, 4, 6, 7, 8]], anchors[:, [0, 1, 2, 4, 6, 7, 8]])
    assert np.array_equal(out[:, 5], np.full(5, 10.0))


# ------------------------------------------------------------------ allocate

def brute_force_alloc(anchors, rig):
    """Oracle: project all 9 points per (anchor, view) with project_point."""
    cols = []
    for view in rig:
        for i, a in enumerate(anchors):
            pts = corners(a)
            in_bounds = []
            for p in pts:
                uv = project_point(view, p)
                ok = uv is not None and 0 < uv[0] < view.width and 0 < uv[1] < view.height
                in_bounds.append(ok)
            if any(in_bounds):
                cols.append((i, view.view_id, in_bounds[0]))
    return cols


def test_single_anchor_single_view(rig6):
    a = box9(center=(15.0, 0.0, 0.75), size=(2, 4, 1.5), yaw=0.0)
    res = allocate([a], rig6)
    assert res.mapping.n_2d == 1
    assert res.mapping.rows.tolist() == [0]
    assert res.mapping.camera_of_col[0] == 0
    assert res.truncation.tolist() == [True]


def test_straddling_anchor_two_views(rig6):
    # long box centered well inside view 0 whose tail crosses into view 1
    az = math.radians(20.0)
    c = (10.0 * math.cos(az), 10.0 * math.sin(az), 0.75)
    a = box9(center=c, size=(2.0, 14.0, 1.5), yaw=az + math.pi / 2)
    oracle = brute_force_alloc([a], rig6)
    views_hit = {v for _, v, _ in oracle}
    assert views_hit == {0, 1}, f"construction should straddle views 0/1, got {views_hit}"
    res = allocate([a], rig6)
    assert res.mapping.n_2d == 2
    assert res.mapping.rows.tolist() == [0, 0]
    assert res.mapping.camera_of_col.tolist() == sorted(views_hit)
    expected_trunc = [flag for _, v, flag in sorted(oracle, key=lambda e: e[1])]
    assert res.truncation.tolist() == expected_trunc
    assert expected_trunc.count(True) == 1  # center in exactly one of the views


def test_allocation_matches_bruteforce(rig6):
    rng = np.random.default_rng(3)
    anchors = []
    for _ in range(40):
        anchors.append(
            box9(
                center=(rng.uniform(-30, 30), rng.uniform(-30, 30), rng.uniform(0.2, 1.5)),
                size=tuple(rng.uniform(0.5, 5.0, 3)),
                yaw=rng.uniform(-np.pi, np.pi),
            )
        )
    res = allocate(anchors, rig6)
    oracle = brute_force_alloc(anchors, rig6)
    got = {(int(r), int(v)) for r, v in zip(res.mapping.rows, res.mapping.camera_of_col)}
    want = {(i, v) for i, v, _ in oracle}
    dropped = set(res.dropped)
    assert got | dropped == want
    trunc_by_col = {
        (int(r), int(v)): bool(t)
        for r, v, t in zip(res.mapping.rows, res.mapping.camera_of_col, res.truncation)
    }
    for i, v, center_in in oracle:
        if (i, v) in trunc_by_col:
            assert trunc_by_col[(i, v)] == center_in


def test_empty_rig_error():
    with pytest.raises(ValueError):
        allocate([], [])


def test_allocate_zero_anchors(rig6):
    res = allocate(np.zeros((0, 9)), rig6)
    assert res.mapping.n_3d == 0 and res.mapping.n_2d == 0
    assert gather_2d(res.mapping, np.zeros((0, 4))).shape == (0, 4)


def test_truncated_cap_keeps_largest_areas(front_view):
    # anchors just outside the horizontal field of view: corners poke in,
    # centers stay out, so every column is a truncated candidate
    half_fov = math.atan(front_view.width / (2 * front_view.fx))
    rng = np.random.default_rng(7)
    anchors = []
    for i in range(140):
        az = half_fov + rng.uniform(0.02, 0.10)
        dist = rng.uniform(8.0, 30.0)
        anchors.append(
            box9(
                center=(dist * math.cos(az), dist * math.sin(az), 0.75),
                size=(2.0, 4.5, 1.5),
                yaw=az,
            )
        )
    limits = AllocationLimits(max_truncated_per_camera=100)
    res = allocate(anchors, [front_view], limits)
    n_trunc = int((~res.truncation).sum())
    assert n_trunc <= 100
    uncapped = allocate(anchors, [front_view], AllocationLimits(max_truncated_per_camera=10_000))
    if uncapped.mapping.n_2d > 100:
        assert n_trunc == 100
        kept = {int(r) for r in res.mapping.rows}
        areas = {
            int(r): float(w * h) for r, (_, _, w, h) in zip(uncapped.mapping.rows, uncapped.rects)
        }
        worst_kept = min(areas[r] for r in kept)
        best_dropped = max(
            (a for r, a in areas.items() if r not in kept), default=-np.inf
        )
        assert worst_kept >= best_dropped - 1e-9


def test_group_contiguity_and_determinism(rig6):
    rng = np.random.default_rng(9)
    anchors = np.zeros((80, 9))
    anchors[:, 0:2] = rng.uniform(-40, 40, (80, 2))
    anchors[:, 2] = rng.uniform(0.2, 1.2, 80)
    anchors[:, 3:6] = rng.uniform(0.5, 4.0, (80, 3))
    anchors[:, 6] = rng.uniform(-np.pi, np.pi, 80)
    a = allocate(anchors, rig6)
    b = allocate(anchors, rig6)
    assert np.all(np.diff(a.mapping.camera_of_col) >= 0)
    assert np.array_equal(a.mapping.rows, b.mapping.rows)
    assert np.array_equal(a.ref_points, b.ref_points)
    assert np.array_equal(a.truncation, b.truncation)
    # ref point is the projected center for non-truncated columns,
    # the clipped-rect center otherwise
    for j in range(a.mapping.n_2d):
        cx, cy = a.rects[j, 0:2]
        if a.truncation[j]:
            assert 0 < a.ref_points[j, 0] < rig6[0].width
        else:
            assert abs(a.ref_points[j, 0] - cx) <= 1e-12
            assert abs(a.ref_points[j, 1] - cy) <= 1e-12


def test_zero_area_column_dropped_and_flagged(front_view):
    # box straddling the image plane with exactly one vertical edge in
    # front: both visible corners share a pixel column, so the clipped
    # rectangle degenerates to zero width
    a = box9(center=(-1.0, -1.0, 1.5), size=(4.0, 6.0, 0.8), yaw=math.pi / 4)
    pa = project_one_view(front_view, a[None])
    assert pa.valid[0] and pa.rect_area[0] == 0.0
    res = allocate([a], [front_view])
    assert res.mapping.n_2d == 0
    assert res.dropped == [(0, front_view.view_id)]
    assert res.to_json_obj()["dropped_zero_area"] == [[0, front_view.view_id]]


def per_view_reference(anchors, rig, limits):
    """Allocation as a per-view loop over one-view projections, with the
    columns gathered in per-view lists and concatenated at the end."""
    rows, cams, refs, truncs, rects = [], [], [], [], []
    dropped, capped = [], {}
    for view in rig:
        vp = project_one_view(view, anchors)
        usable = vp.valid & (vp.rect_area > 0.0)
        for i in np.flatnonzero(vp.valid & ~usable):
            dropped.append((int(i), vp.view_id))
        trunc_idx = np.flatnonzero(usable & ~vp.center_in_view)
        if trunc_idx.size > limits.max_truncated_per_camera:
            order = np.lexsort((trunc_idx, -vp.rect_area[trunc_idx]))
            keep = np.sort(trunc_idx[order[: limits.max_truncated_per_camera]])
            capped[vp.view_id] = int(trunc_idx.size - keep.size)
            trunc_idx = keep
        center_idx = np.flatnonzero(usable & vp.center_in_view)
        idx = np.sort(np.concatenate([center_idx, trunc_idx])).astype(np.intp)
        rows.append(idx)
        cams.append(np.full(idx.size, vp.view_id, dtype=np.intp))
        refs.append(vp.ref_point[idx])
        truncs.append(vp.center_in_view[idx])
        rects.append(vp.rect[idx])
    return {
        "rows": np.concatenate(rows),
        "camera_of_col": np.concatenate(cams),
        "ref_points": np.concatenate(refs, axis=0),
        "truncation": np.concatenate(truncs),
        "rects": np.concatenate(rects, axis=0),
        "dropped": dropped,
        "capped": list(capped.items()),
    }


def one_corner_anchor(view, rng):
    """An anchor whose only point in front of ``view`` is one corner, on the
    optical axis: valid there, with a zero-area clipped rectangle."""
    anchor = random_anchor_array(rng, 1)[0]
    anchor[0:3] = 0.0
    axis = view.rotation[2]  # camera-frame depth direction in ego coordinates
    reach = box_points(anchor[None])[0, 1:] @ axis
    order = np.argsort(reach)
    gap = reach[order[-1]] - reach[order[-2]]
    camera = -view.rotation.T @ view.translation
    corner = box_points(anchor[None])[0, 1 + order[-1]]
    anchor[0:3] = camera + (EPS_DEPTH + 0.5 * gap) * axis - corner
    return anchor


@pytest.mark.parametrize("cap", [1, 3, 10, 100])
def test_allocate_equals_per_view_reference(cap):
    limits = AllocationLimits(max_truncated_per_camera=cap)
    n_dropped = n_capped = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        rig = random_rig_with_crop(rng)
        anchors = np.vstack(
            [random_anchor_array(rng, 2000)] + [one_corner_anchor(v, rng)[None] for v in rig]
        )
        anchors = anchors[rng.permutation(len(anchors))]
        res = allocate(anchors, rig, limits)
        ref = per_view_reference(anchors, rig, limits)
        assert same_bits(res.mapping.rows, ref["rows"])
        assert same_bits(res.mapping.camera_of_col, ref["camera_of_col"])
        for name in ("ref_points", "truncation", "rects"):
            assert same_bits(getattr(res, name), ref[name]), (seed, name)
        assert res.dropped == ref["dropped"]
        assert list(res.capped.items()) == ref["capped"]
        n_dropped += len(res.dropped)
        n_capped += len(res.capped)
    assert n_dropped > 0 and n_capped > 0  # both rules are exercised at every cap


# ---------------------------------------------------------- gather / scatter

def mapping_of(entries, n_3d, cams=None):
    rows = np.array([r for r, _ in entries], dtype=np.intp)
    cams = np.zeros(len(entries), dtype=np.intp) if cams is None else np.asarray(cams)
    return MappingMatrix(n_3d=n_3d, n_2d=len(entries), rows=rows, camera_of_col=cams)


def test_gather_duplication():
    m = mapping_of([(0, 0), (0, 1)], n_3d=2)
    q = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gather_2d(m, q)
    assert np.array_equal(out, np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_gather_empty():
    m = mapping_of([], n_3d=4)
    out = gather_2d(m, np.ones((4, 8)))
    assert out.shape == (0, 8)


def test_gather_matches_dense():
    rng = np.random.default_rng(1)
    n, c = 16, 8
    rows = rng.integers(0, n, size=23)
    m = mapping_of([(int(r), j) for j, r in enumerate(rows)], n_3d=n)
    q = rng.standard_normal((n, c))
    dense = to_dense(m).T @ q
    assert np.array_equal(gather_2d(m, q), dense)


def test_gather_shape_mismatch():
    m = mapping_of([(0, 0)], n_3d=2)
    with pytest.raises(ValueError):
        gather_2d(m, np.ones((3, 4)))


def test_scatter_mean_hand_case():
    m = mapping_of([(0, 0), (0, 1)], n_3d=1)
    out = scatter_mean(m, np.array([[1.0], [3.0]]))
    assert out.tolist() == [[2.0]]


def test_scatter_mean_zero_fill():
    m = mapping_of([(0, 0)], n_3d=3)
    out = scatter_mean(m, np.array([[5.0, 6.0]]))
    assert np.array_equal(out[1], [0.0, 0.0])
    assert np.array_equal(out[2], [0.0, 0.0])


def test_scatter_mean_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        m_cols = int(rng.integers(0, 25))
        rows = rng.integers(0, n, size=m_cols)
        m = mapping_of([(int(r), j) for j, r in enumerate(rows)], n_3d=n)
        q = rng.standard_normal((m_cols, 5))
        t = to_dense(m)
        colsum = t.sum(axis=1)
        dense = np.zeros((n, 5))
        owned = colsum > 0
        dense[owned] = (t @ q)[owned] / colsum[owned, None]
        assert np.abs(scatter_mean(m, q) - dense).max() <= 1e-12


def test_scatter_of_gather_identity_exact():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        m_cols = int(rng.integers(1, 30))
        rows = rng.integers(0, n, size=m_cols)
        m = mapping_of([(int(r), j) for j, r in enumerate(rows)], n_3d=n)
        q = rng.standard_normal((n, 6))
        back = scatter_mean(m, gather_2d(m, q))
        owned = np.bincount(rows, minlength=n) > 0
        assert np.array_equal(back[owned], q[owned])
        assert np.all(back[~owned] == 0.0)


def mean_of_copies_by_add_at(owner, copies, n):
    """``mean_of_copies`` with one unbuffered add per copy, in copy order."""
    counts = np.bincount(owner, minlength=n).astype(np.float64)
    owned, first = np.unique(owner, return_index=True)
    anchor = np.zeros((n, copies.shape[1]))
    anchor[owned] = copies[first]
    diff_sum = np.zeros_like(anchor)
    np.add.at(diff_sum, owner, copies - anchor[owner])
    out = np.zeros_like(anchor)
    out[owned] = anchor[owned] + diff_sum[owned] / counts[owned, None]
    return out


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_mean_of_copies_adds_in_copy_order():
    # owners in any order with up to 9 copies, plus infinities: the same
    # bits as one add per copy in copy order
    rng = np.random.default_rng(11)
    for _ in range(20):
        owner = rng.permutation(np.repeat(np.arange(60), rng.integers(0, 10, 60)))
        copies = rng.standard_normal((owner.size, 5)) * 10.0 ** rng.integers(-3, 4, (owner.size, 1))
        copies[rng.random(copies.shape) < 0.01] = np.inf
        got = mean_of_copies(owner, copies, 64)
        assert np.array_equal(got, mean_of_copies_by_add_at(owner, copies, 64), equal_nan=True)
