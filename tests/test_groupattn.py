import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdet import groupattn
from mvdet._kernels import bilinear_sample
from mvdet.denoising import denoise_groups
from mvdet.groupattn import (
    NEG_INF,
    SCORE_BUDGET,
    AttentionParams,
    CrossAttentionParams,
    GroupMask,
    ViewFeatures,
    attention,
    build_mask,
    ref_point_cross_attention,
    softmax_rows,
)


def seeded_params(c, heads=1, seed=0):
    return AttentionParams.seeded(c, heads, np.random.default_rng(seed))


# ---------------------------------------------------------------- build_mask

def test_mask_two_groups():
    mask = build_mask(GroupMask(np.array([0, 0, 1])))
    allowed = {(i, j) for i in range(3) for j in range(3) if mask[i, j] == 0.0}
    assert allowed == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    assert np.all(mask[~(mask == 0.0).astype(bool)] == NEG_INF)


def test_mask_single_group_all_zero():
    mask = build_mask(GroupMask(np.zeros(5, dtype=int)))
    assert np.array_equal(mask, np.zeros((5, 5)))


def test_mask_negative_group_id_rejected():
    with pytest.raises(ValueError):
        build_mask(GroupMask(np.array([0, -1])))


def test_mask_diagonal_always_allowed():
    rng = np.random.default_rng(0)
    g = GroupMask(rng.integers(0, 4, size=17))
    mask = build_mask(g)
    assert np.all(np.diag(mask) == 0.0)


def test_mask_with_denoise_groups_enumerated():
    # camera groups of sizes (2, 2) plus two one-column denoise groups
    from mvdet.denoising import allocate_noise, make_noisy_anchors, NoiseConfig
    from mvdet.geometry import Anchor3D, Box2D

    gt = [Anchor3D(center=(10.0, 0.0, 0.8), size=(2, 4, 1.6), yaw=0.0)]
    assoc = [[(0, Box2D(cx=50, cy=50, w=20, h=10, view_id=0))]]
    noisy, _ = make_noisy_anchors(gt, NoiseConfig(n_groups=2), seed=0)
    layout = allocate_noise(assoc, noisy, match_len=4)
    cams = np.array([0, 0, 1, 1])
    ids = denoise_groups(layout, GroupMask(cams)).group_of
    cam_all = np.concatenate([cams, layout.col_view])
    part = layout.part_ids()
    mask = build_mask(GroupMask(cam_all), layout)
    for i in range(6):
        for j in range(6):
            allowed = cam_all[i] == cam_all[j] and part[i] == part[j]
            assert (ids[i] == ids[j]) == allowed, (i, j)
            assert (mask[i, j] == 0.0) == allowed, (i, j)


# ------------------------------------------------------------------ attention

def test_uniform_weights_within_group():
    # zero keys give every allowed pair the same logit, so each output row
    # is the plain mean of its own group's values and nothing else
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4))
    g = np.array([0, 0, 0, 1, 1])
    params = AttentionParams(
        w_q=rng.standard_normal((4, 4)), w_k=np.zeros((4, 4)),
        w_v=rng.standard_normal((4, 4)),
    )
    out = attention(x, params, groups=GroupMask(g))
    v = x @ params.w_v
    assert np.allclose(out[0:3], v[0:3].mean(axis=0))
    assert np.allclose(out[3:5], v[3:5].mean(axis=0))


def test_single_query_reduces_to_value_projection():
    x = np.array([[0.3, -1.2, 4.0, 0.7]])
    params = seeded_params(4, seed=3)
    assert np.allclose(attention(x, params), x @ params.w_v, atol=1e-15)
    out = attention(x, params, groups=GroupMask(np.array([2])))
    assert np.allclose(out, x @ params.w_v, atol=1e-15)


def masked_softmax_reference(x, mask, params):
    """Dense reference: explicit renormalization over allowed entries only."""
    m, c = x.shape
    h = params.heads
    d = c // h
    q = x @ params.w_q
    k = x @ params.w_k
    v = x @ params.w_v
    out = np.zeros_like(x)
    for head in range(h):
        sl = slice(head * d, (head + 1) * d)
        for i in range(m):
            allowed = np.flatnonzero(mask[i] == 0.0)
            logits = np.array([q[i, sl] @ k[j, sl] / math.sqrt(d) for j in allowed])
            e = np.exp(logits - logits.max())
            w = e / e.sum()
            out[i, sl] = sum(wj * v[j, sl] for wj, j in zip(w, allowed))
    return out


def test_against_masked_softmax_reference():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 4))
    groups = GroupMask(np.array([0, 0, 1]))
    params = seeded_params(4, seed=5)
    got = attention(x, params, groups=groups)
    want = masked_softmax_reference(x, build_mask(groups), params)
    assert np.abs(got - want).max() <= 1e-12


def test_multihead_row_stochastic():
    # with every value row equal to ones, each head's output is the sum of
    # its attention weights; with random values it stays inside the hull
    # of the group's own value rows
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(2, 30))
        c = 8
        x = rng.standard_normal((m, c))
        x[:, 0] = 1.0
        g = np.sort(rng.integers(0, 3, size=m))
        params = AttentionParams.seeded(c, 2, rng)
        ones = AttentionParams(params.w_q, params.w_k, np.zeros((c, c)), heads=2)
        ones.w_v[0, :] = 1.0
        sums = attention(x, ones, groups=GroupMask(g))
        assert np.abs(sums - 1.0).max() <= 1e-12
        out = attention(x, params, groups=GroupMask(g))
        v = x @ params.w_v
        for gid in np.unique(g):
            sel = g == gid
            assert np.all(out[sel] >= v[sel].min(axis=0) - 1e-12)
            assert np.all(out[sel] <= v[sel].max(axis=0) + 1e-12)


def test_nan_input_fails_fast():
    x = np.ones((2, 4))
    x[0, 0] = np.nan
    with pytest.raises(ValueError):
        attention(x, seeded_params(4), groups=GroupMask(np.zeros(2, int)))
    with pytest.raises(ValueError):
        attention(np.ones((2, 4)), seeded_params(4), kv=x)


def test_heads_must_divide_channels():
    with pytest.raises(ValueError):
        attention(np.ones((2, 6)), seeded_params(6, heads=4))


def test_invalid_groups_rejected():
    params = seeded_params(4)
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match="cover"):
        attention(x, params, groups=GroupMask(np.array([0, 1])))
    with pytest.raises(ValueError, match="out of range"):
        attention(x, params, groups=GroupMask(np.array([0, -1, 1])))
    with pytest.raises(ValueError, match="both"):
        attention(x, params, groups=GroupMask(np.zeros(3, int)), kv=x)


def test_empty_query_set():
    out = attention(np.zeros((0, 4)), seeded_params(4), groups=GroupMask(np.zeros(0, int)))
    assert out.shape == (0, 4)


def test_kv_defaults_to_x():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 8))
    kv = rng.standard_normal((4, 8))
    params = seeded_params(8, heads=2, seed=1)
    assert np.array_equal(attention(x, params), attention(x, params, kv=x))
    # one group over everything is plain self-attention, bit for bit
    assert np.array_equal(
        attention(x, params), attention(x, params, groups=GroupMask(np.full(7, 3)))
    )
    got = attention(x, params, kv=kv)
    assert got.shape == (7, 8)
    assert not np.array_equal(got, attention(x, params))


def dense_sentinel_reference(x, mask, params):
    """Reference evaluating the literal additive-sentinel formulation."""
    m, c = x.shape
    h = params.heads
    d = c // h
    q = x @ params.w_q
    k = x @ params.w_k
    v = x @ params.w_v
    out = np.zeros_like(x)
    for head in range(h):
        sl = slice(head * d, (head + 1) * d)
        scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(d) + mask
        shifted = scores - scores.max(axis=1, keepdims=True)
        w = np.exp(shifted)
        w = w / w.sum(axis=1, keepdims=True)
        out[:, sl] = w @ v[:, sl]
    return out


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.sampled_from([0, 3, 4, 17, 250, 10_001]), min_size=1, max_size=24),
    heads=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_attention_property(ids, heads, seed):
    # unsorted, non-contiguous, gappy ids: the result matches the dense
    # additive-sentinel formulation and equals each group run on its own
    rng = np.random.default_rng(seed)
    g = np.array(ids)
    x = rng.standard_normal((g.size, 8))
    params = AttentionParams.seeded(8, heads, rng)
    out = attention(x, params, groups=GroupMask(g))
    want = dense_sentinel_reference(x, build_mask(GroupMask(g)), params)
    assert np.abs(out - want).max() <= 1e-12
    for gid in np.unique(g):
        sel = g == gid
        assert np.array_equal(out[sel], attention(x[sel], params))


def test_group_isolation_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(4, 24))
        c = 8
        groups = np.sort(rng.integers(0, 3, size=m))
        x = rng.standard_normal((m, c))
        params = AttentionParams.seeded(c, 2, rng)
        out = attention(x, params, groups=GroupMask(groups))
        target = int(groups[0])
        x2 = x.copy()
        x2[groups == target] = rng.standard_normal((int((groups == target).sum()), c))
        out2 = attention(x2, params, groups=GroupMask(groups))
        other = groups != target
        assert np.array_equal(out[other], out2[other])


# ------------------------------------------- head-batched dense attention

def per_head_reference(x, kv, params):
    """Dense attention as a per-head loop with fresh temporaries."""
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    heads=st.sampled_from([1, 2, 4, 8]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_attention_matches_per_head_loop(n, m, heads, d, seed):
    rng = np.random.default_rng(seed)
    c = heads * d
    x = 3.0 * rng.standard_normal((n, c))
    kv = 3.0 * rng.standard_normal((m, c))
    params = AttentionParams.seeded(c, heads, rng)
    assert np.array_equal(attention(x, params, kv=kv), per_head_reference(x, kv, params))
    assert np.array_equal(attention(x, params), per_head_reference(x, x, params))


@pytest.mark.parametrize(
    "n, m, heads",
    [
        (SCORE_BUDGET // 4096, 1024, 2),  # both heads fit with room to spare
        (SCORE_BUDGET // 2048, 1024, 2),  # two heads fill the budget exactly
        (SCORE_BUDGET // 2048, 1025, 2),  # two heads overflow it: one per chunk
        (SCORE_BUDGET // 1024, 1024, 2),  # one head fills it exactly
        (SCORE_BUDGET // 1024, 1025, 2),  # one head overflows it
        (SCORE_BUDGET // 2048, 1024, 4),  # two chunks of two heads
        (SCORE_BUDGET // 4096, 1024, 8),  # eight heads, four fit
        (900, 900, 8),                    # the decoder's 3D self-attention
        (900, 256, 4),
    ],
)
def test_dense_attention_around_score_budget(n, m, heads, monkeypatch):
    rng = np.random.default_rng(n + m + heads)
    c = 2 * heads
    x = rng.standard_normal((n, c))
    kv = rng.standard_normal((m, c))
    params = AttentionParams.seeded(c, heads, rng)
    want = per_head_reference(x, kv, params)
    for cores in (1, 2, 8):
        monkeypatch.setattr(groupattn, "usable_cpus", lambda: cores)
        assert np.array_equal(attention(x, params, kv=kv), want), cores


def test_dense_attention_empty_queries():
    params = seeded_params(8, heads=2)
    kv = np.ones((3, 8))
    assert attention(np.zeros((0, 8)), params).shape == (0, 8)
    got = attention(np.zeros((0, 8)), params, kv=kv)
    assert np.array_equal(got, per_head_reference(np.zeros((0, 8)), kv, params))


def test_dense_attention_peak_memory(monkeypatch):
    # all score buffers of a call share one budget whatever the core count:
    # at N = 900 two N x N buffers, not an h x N x N stack, one buffer per
    # core or fresh per-head temporaries
    n, c, heads = 900, 64, 8
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c))
    params = AttentionParams.seeded(c, heads, rng)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 8)
    tracemalloc.start()
    try:
        attention(x, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


def test_dense_attention_head_over_budget_memory(monkeypatch):
    # one N x M head larger than the budget: the call still holds a single
    # N x M score buffer, on the calling thread, however many cores there are
    n, m, heads = SCORE_BUDGET // 1024, 1025, 2
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, 2 * heads))
    kv = rng.standard_normal((m, 2 * heads))
    params = AttentionParams.seeded(2 * heads, heads, rng)
    seen = set()
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 8)
    monkeypatch.setattr(groupattn, "softmax_rows", softmax_recording_threads(seen))
    tracemalloc.start()
    try:
        attention(x, params, kv=kv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * m > SCORE_BUDGET
    assert peak < 1.1 * n * m * 8
    assert seen == {threading.get_ident()}


class InjectedFailure(Exception):
    pass


def softmax_recording_threads(seen, fail_off_main=False):
    """``softmax_rows`` that records the threads it runs on."""
    real = groupattn.softmax_rows

    def recording(scores):
        seen.add(threading.get_ident())
        if fail_off_main and threading.current_thread() is not threading.main_thread():
            raise InjectedFailure("worker failed")
        return real(scores)

    return recording


@pytest.mark.parametrize("cores, n, threads", [(1, 900, 1), (2, 900, 2), (8, 900, 2),
                                               (8, 300, 1)])
def test_dense_attention_threads_end_with_the_call(monkeypatch, cores, n, threads):
    # N = 900, 8 heads: two heads fit, so two threads when two cores are
    # usable; N = 300 fits all heads in one chunk on the calling thread
    rng = np.random.default_rng(1)
    x = rng.standard_normal((n, 16))
    params = AttentionParams.seeded(16, 8, rng)
    seen = set()
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: cores)
    monkeypatch.setattr(groupattn, "softmax_rows", softmax_recording_threads(seen))
    before = threading.active_count()
    assert np.array_equal(attention(x, params), per_head_reference(x, x, params))
    assert threading.active_count() == before
    assert len(seen) == threads


def test_dense_attention_worker_error_reaches_caller(monkeypatch):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((900, 16))
    params = AttentionParams.seeded(16, 8, rng)
    seen = set()
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    monkeypatch.setattr(groupattn, "softmax_rows",
                        softmax_recording_threads(seen, fail_off_main=True))
    before = threading.active_count()
    with pytest.raises(InjectedFailure, match="worker failed"):
        attention(x, params)
    assert threading.active_count() == before
    assert len(seen) == 2


def test_softmax_rows_in_place():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((2, 3, 5))
    got = softmax_rows(scores)
    assert got is scores
    assert np.abs(got.sum(axis=-1) - 1.0).max() <= 1e-15


# ------------------------------------------------- ref point cross attention

def single_scale_params(c_feat, c, seed=0):
    rng = np.random.default_rng(seed)
    return CrossAttentionParams(
        scale_logits=np.zeros(1),
        w_proj=rng.uniform(-0.2, 0.2, size=(c_feat, c)),
    )


def test_constant_map_sampling():
    fmap = np.full((5, 7, 3), 4.25)
    vf = ViewFeatures(width=70, height=50, maps=[fmap])
    params = single_scale_params(3, 3)
    x = np.zeros((4, 3))
    refs = np.array([[1.0, 1.0], [35.0, 25.0], [69.0, 49.0], [200.0, -10.0]])
    out = ref_point_cross_attention(x, refs, {0: vf}, GroupMask(np.zeros(4, int)), params)
    want = np.full((4, 3), 4.25) @ params.w_proj
    assert np.abs(out - want).max() <= 1e-12


def test_grid_node_sampling_exact():
    fmap = np.arange(12, dtype=float).reshape(3, 4, 1)
    pts = np.array([[2.0, 1.0]])  # exactly on node (row 1, col 2)
    assert bilinear_sample(fmap, pts)[0, 0] == fmap[1, 2, 0]


def tent_bilinear(fmap, pts):
    """Brute force: every map node weighted by its tent distance to the
    clamped point."""
    h, w, c = fmap.shape
    x = np.clip(pts[:, 0], 0.0, w - 1.0)
    y = np.clip(pts[:, 1], 0.0, h - 1.0)
    wx = np.maximum(0.0, 1.0 - np.abs(x[:, None] - np.arange(w)))
    wy = np.maximum(0.0, 1.0 - np.abs(y[:, None] - np.arange(h)))
    out = np.zeros((len(pts), c))
    for i in range(h):
        for j in range(w):
            out += (wy[:, i] * wx[:, j])[:, None] * fmap[i, j]
    return out


@pytest.mark.parametrize("h,w,c", [(1, 1, 2), (1, 5, 3), (7, 1, 1), (16, 24, 4)])
def test_bilinear_matches_tent_formula(h, w, c):
    rng = np.random.default_rng(2024)
    fmap = rng.standard_normal((h, w, c))
    pts = np.concatenate([
        rng.uniform(-2, max(h, w) + 2, size=(200, 2)),
        rng.integers(-2, max(h, w) + 2, size=(50, 2)).astype(float),
    ])
    got = bilinear_sample(fmap, pts)
    want = tent_bilinear(fmap, pts)
    # where the clamped point is a map node (always on a 1x1 map) both
    # reduce to that node's value times one
    node = np.all(np.clip(pts, 0.0, [w - 1.0, h - 1.0]) % 1.0 == 0.0, axis=1)
    assert node.sum() >= 50
    assert np.array_equal(got[node], want[node])
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def test_bilinear_cell_center():
    fmap = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
    assert bilinear_sample(fmap, np.array([[0.5, 0.5]]))[0, 0] == 1.5
    # via the view-coordinate path: the view center lands mid-cell on a 2x2 map
    vf = ViewFeatures(width=100, height=80, maps=[fmap])
    params = CrossAttentionParams(scale_logits=np.zeros(1), w_proj=np.eye(1))
    out = ref_point_cross_attention(
        np.zeros((1, 1)), np.array([[50.0, 40.0]]), {0: vf},
        GroupMask(np.zeros(1, int)), params,
    )
    assert out[0, 0] == 1.5


def test_missing_view_features_error():
    params = single_scale_params(2, 2)
    with pytest.raises(ValueError):
        ref_point_cross_attention(
            np.zeros((1, 2)), np.zeros((1, 2)), {}, GroupMask(np.zeros(1, int)), params
        )


def test_view_isolation_bitwise():
    rng = np.random.default_rng(4)
    m, c, c_feat = 10, 4, 3
    groups = GroupMask(np.sort(rng.integers(0, 2, size=m)))
    x = rng.standard_normal((m, c))
    refs = rng.uniform(0, 60, size=(m, 2))
    params = CrossAttentionParams(
        scale_logits=rng.standard_normal(2),
        w_proj=rng.standard_normal((c_feat, c)),
    )
    feats = {
        v: ViewFeatures(width=64, height=64, maps=[rng.standard_normal((8, 8, c_feat)),
                                                   rng.standard_normal((4, 4, c_feat))])
        for v in (0, 1)
    }
    logits = params.scale_logits.copy()
    out = ref_point_cross_attention(x, refs, feats, groups, params)
    assert np.array_equal(params.scale_logits, logits)  # in-place softmax on a copy
    feats2 = dict(feats)
    feats2[1] = ViewFeatures(width=64, height=64,
                             maps=[m_ + 1.0 for m_ in feats[1].maps])
    out2 = ref_point_cross_attention(x, refs, feats2, groups, params)
    g = groups.group_of
    assert np.array_equal(out[g == 0], out2[g == 0])
    assert not np.array_equal(out[g == 1], out2[g == 1])
