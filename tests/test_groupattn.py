import copy
import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdet import groupattn
from mvdet._kernels import bilinear_sample
from mvdet.denoising import denoise_groups
from mvdet.groupattn import (
    BLOCK_BUDGET,
    NEG_INF,
    AttentionParams,
    CrossAttentionParams,
    attention,
    build_mask,
    ref_point_cross_attention,
    softmax_rows,
)

from conftest import (
    bilinear_per_map,
    box9,
    per_head_reference,
    ref_point_cross_attention_per_view,
    rig_features,
)


def seeded_params(c, heads=1, seed=0):
    return AttentionParams.seeded(c, heads, np.random.default_rng(seed))


# ---------------------------------------------------------------- build_mask

def test_mask_two_groups():
    mask = build_mask(np.array([0, 0, 1]))
    allowed = {(i, j) for i in range(3) for j in range(3) if mask[i, j] == 0.0}
    assert allowed == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    assert np.all(mask[~(mask == 0.0).astype(bool)] == NEG_INF)


def test_mask_single_group_all_zero():
    mask = build_mask(np.zeros(5, dtype=int))
    assert np.array_equal(mask, np.zeros((5, 5)))


def test_mask_negative_group_id_rejected():
    with pytest.raises(ValueError):
        build_mask(np.array([0, -1]))


def test_mask_diagonal_always_allowed():
    rng = np.random.default_rng(0)
    g = rng.integers(0, 4, size=17)
    mask = build_mask(g)
    assert np.all(np.diag(mask) == 0.0)


def test_mask_with_denoise_groups_enumerated():
    # camera groups of sizes (2, 2) plus two one-column denoise groups
    from mvdet.denoising import allocate_noise, make_noisy_anchors, NoiseConfig
    from mvdet.geometry import Boxes2D

    gt = box9(center=(10.0, 0.0, 0.8), size=(2, 4, 1.6), yaw=0.0)[None]
    gt2d = Boxes2D([[50, 50, 20, 10]], [0], [0])
    noisy, _ = make_noisy_anchors(gt, NoiseConfig(n_groups=2), seed=0)
    layout = allocate_noise(gt2d, [0], noisy, match_len=4)
    cams = np.array([0, 0, 1, 1])
    ids = denoise_groups(layout, cams)
    cam_all = np.concatenate([cams, layout.col_view])
    part = layout.part_ids()
    mask = build_mask(cam_all, layout)
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
    out = attention(x, params, groups=g)
    v = x @ params.w_v
    assert np.allclose(out[0:3], v[0:3].mean(axis=0))
    assert np.allclose(out[3:5], v[3:5].mean(axis=0))


def test_single_query_reduces_to_value_projection():
    x = np.array([[0.3, -1.2, 4.0, 0.7]])
    params = seeded_params(4, seed=3)
    assert np.allclose(attention(x, params), x @ params.w_v, atol=1e-15)
    out = attention(x, params, groups=np.array([2]))
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
    groups = np.array([0, 0, 1])
    params = seeded_params(4, seed=5)
    got = attention(x, params, groups=groups)
    want = masked_softmax_reference(x, build_mask(groups), params)
    assert np.abs(got - want).max() <= FLOAT32_REL_TOL * np.abs(x @ params.w_v).max()


def test_multihead_row_stochastic():
    # with every value row equal to ones, each head's output is the sum of
    # its attention weights; with random values it stays inside the hull
    # of the group's own value rows, up to the float32 rounding of v
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
        sums = attention(x, ones, groups=g)
        assert np.abs(sums - 1.0).max() <= FLOAT32_REL_TOL
        out = attention(x, params, groups=g)
        v = x @ params.w_v
        tol = FLOAT32_REL_TOL * np.abs(v).max()
        for gid in np.unique(g):
            sel = g == gid
            assert np.all(out[sel] >= v[sel].min(axis=0) - tol)
            assert np.all(out[sel] <= v[sel].max(axis=0) + tol)


def test_nan_input_fails_fast():
    x = np.ones((2, 4))
    x[0, 0] = np.nan
    with pytest.raises(ValueError):
        attention(x, seeded_params(4), groups=np.zeros(2, int))
    with pytest.raises(ValueError):
        attention(x, seeded_params(4))


def test_heads_must_divide_channels():
    with pytest.raises(ValueError):
        attention(np.ones((2, 6)), seeded_params(6, heads=4))


def test_invalid_groups_rejected():
    params = seeded_params(4)
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match="cover"):
        attention(x, params, groups=np.array([0, 1]))
    with pytest.raises(ValueError, match="out of range"):
        attention(x, params, groups=np.array([0, -1, 1]))


def test_empty_query_set():
    out = attention(np.zeros((0, 4)), seeded_params(4), groups=np.zeros(0, int))
    assert out.shape == (0, 4)


def test_one_group_is_plain_self_attention():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 8))
    params = seeded_params(8, heads=2, seed=1)
    # one group over everything is plain self-attention, bit for bit
    assert np.array_equal(
        attention(x, params), attention(x, params, groups=np.full(7, 3))
    )


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
    # unsorted, non-contiguous, gappy ids: the result is near the dense
    # additive-sentinel formulation, as a call is near float64 attention,
    # and equals each group run on its own
    rng = np.random.default_rng(seed)
    g = np.array(ids)
    x = rng.standard_normal((g.size, 8))
    params = AttentionParams.seeded(8, heads, rng)
    out = attention(x, params, groups=g)
    want = dense_sentinel_reference(x, build_mask(g), params)
    for gid in np.unique(g):
        sel = g == gid
        tol = FLOAT32_REL_TOL * np.abs(x[sel] @ params.w_v).max()
        assert np.abs(out[sel] - want[sel]).max() <= tol
        assert np.array_equal(out[sel], attention(x[sel], params))


def test_group_isolation_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(4, 24))
        c = 8
        groups = np.sort(rng.integers(0, 3, size=m))
        x = rng.standard_normal((m, c))
        params = AttentionParams.seeded(c, 2, rng)
        out = attention(x, params, groups=groups)
        target = int(groups[0])
        x2 = x.copy()
        x2[groups == target] = rng.standard_normal((int((groups == target).sum()), c))
        out2 = attention(x2, params, groups=groups)
        other = groups != target
        assert np.array_equal(out[other], out2[other])
    # ids as a Python list of sparse, unsorted values
    ids = [1000, 3, 1000, 7, 3, 1000]
    x = rng.standard_normal((len(ids), 8))
    params = AttentionParams.seeded(8, 2, rng)
    out = attention(x, params, groups=ids)
    target = np.array(ids) == 1000
    x2 = x.copy()
    x2[target] = rng.standard_normal((int(target.sum()), 8))
    out2 = attention(x2, params, groups=ids)
    assert np.array_equal(out[~target], out2[~target])
    assert not np.array_equal(out[target], out2[target])
    for gid in set(ids):
        rows = np.array(ids) == gid
        assert np.array_equal(out[rows], attention(x[rows], params))


def test_group_rows_stack_groups_by_size():
    # one (G, r) array per size, ascending; ids ascending within a size
    ids = [5, 2, 5, 9, 2, 7, 4, 4, 4]
    buckets = groupattn._group_rows(ids, len(ids))
    assert [b.tolist() for b in buckets] == [[[5], [3]], [[1, 4], [0, 2]], [[6, 7, 8]]]
    assert groupattn._group_rows([], 0) == []


def test_grouped_attention_leaves_numpy_ma_out():
    # splitting groups by size must not import numpy.ma (np.unique does,
    # about 1 MB of peak RSS in a run)
    script = """
import sys
import numpy as np
from mvdet import groupattn
x = np.random.default_rng(0).standard_normal((12, 8))
groupattn.attention(x, groupattn.AttentionParams.seeded(8, 2, np.random.default_rng(1)),
                    groups=[3, 3, 1, 7, 1, 3, 9, 9, 9, 7, 1, 3])
print("numpy.ma" in sys.modules)
"""
    src = str(Path(groupattn.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([1, 2, 3, 5, 8, 40]), min_size=1, max_size=9),
    heads=st.sampled_from([1, 2, 4]),
    budget=st.sampled_from([BLOCK_BUDGET, 300, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_groups_keep_each_groups_bits(sizes, heads, budget, seed):
    # groups of repeated sizes under sparse, shuffled ids, some of one row;
    # a budget of 300 or 1 cuts the larger groups into several row blocks.
    # The last group repeats the first one's size with entries large enough
    # to need the row max, which its bucket-mates do not.  Each group's rows
    # equal that group attending alone, bit for bit.
    rng = np.random.default_rng(seed)
    sizes = sizes + sizes[:1]
    ids = rng.choice(10_000, size=len(sizes), replace=False)
    g = np.repeat(ids, sizes)
    x = 0.5 * rng.standard_normal((g.size, 8))
    x[g == ids[-1]] *= 200.0
    order = rng.permutation(g.size)
    g, x = g[order], x[order]
    params = AttentionParams.seeded(8, heads, rng)
    shifts, needs_row_max = [], groupattn.needs_row_max

    def recording(q, k, v):
        shifts.append(needs_row_max(q, k, v))
        return shifts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupattn, "BLOCK_BUDGET", budget)
        mp.setattr(groupattn, "needs_row_max", recording)
        out = attention(x, params, groups=g)
        assert any(s.any() and not s.all() for s in shifts)
        for gid in ids:
            rows = g == gid
            assert np.array_equal(out[rows], attention(x[rows], params))


def test_equal_groups_share_one_score_product(monkeypatch):
    # a batch's 3D self-attention: 16 scenes of 64 queries, 32 channels and
    # 4 heads fit one score block, so the call makes a single QK^T product
    rng = np.random.default_rng(9)
    x = rng.standard_normal((16 * 64, 32))
    params = AttentionParams.seeded(32, 4, rng)
    products = []
    monkeypatch.setattr(np, "matmul", recording_threads(np.matmul, products))
    got = attention(x, params, groups=np.repeat(np.arange(16), 64))
    monkeypatch.undo()
    assert len(products) == 1
    for j in range(16):
        rows = slice(64 * j, 64 * (j + 1))
        assert np.array_equal(got[rows], attention(x[rows], params))


# ------------------------------------------------------ dense attention

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    heads=st.sampled_from([1, 2, 4, 8]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_attention_matches_per_head_loop(n, heads, d, seed):
    # float64 input computes as its float32 cast, in the fused per-head loop
    rng = np.random.default_rng(seed)
    c = heads * d
    x = 3.0 * rng.standard_normal((n, c))
    params = AttentionParams.seeded(c, heads, rng)
    want = fused_per_head_reference(x.astype(np.float32), params)
    assert np.array_equal(attention(x, params), want)


@pytest.mark.parametrize("call", ["plain", "one_chunk", "groups"])
def test_float64_input_gives_the_bits_of_its_float32_cast(call):
    # one body: float64 input computes as its float32 cast, whatever the
    # call: 300 rows in two score chunks, 70 rows in one, or groups
    rng = np.random.default_rng(11)
    x = 3.0 * rng.standard_normal((300, 16))
    groups = rng.integers(0, 5, size=300)
    params = AttentionParams.seeded(16, 4, rng)
    run = {"plain": lambda x: attention(x, params),
           "one_chunk": lambda x: attention(x[:70], params),
           "groups": lambda x: attention(x, params, groups=groups)}[call]
    assert np.array_equal(run(x), run(x.astype(np.float32)))


@pytest.mark.parametrize(
    "n, m, heads",
    [
        (512, 1024, 2),   # 256-row score blocks: two; 128-row blocks: eight
        (2048, 1024, 2),  # 64-row blocks: thirty-two; eight of 128 rows
        (2048, 1025, 2),  # thirty-two of 64 rows; 127-row blocks: the ninth holds 9
        (1024, 1024, 2),  # eight full blocks
        (1024, 1025, 2),  # eight full blocks; the ninth of 127 holds 9 rows
        (1024, 1024, 4),  # 64-row blocks: sixteen
        (512, 1024, 8),   # 64-row blocks: eight; 32-row blocks: thirty-two
        (900, 900, 8),    # the decoder's 3D self-attention: 25 blocks of 36 rows
        (900, 256, 4),    # 72-row blocks: the 13th holds 36 rows; 256 rows in one chunk
    ],
)
def test_dense_attention_around_score_budget(n, m, heads):
    # self-attention of n rows and of m rows, each over row blocks of
    # BLOCK_BUDGET // (heads * rows) rows: the blocks follow the row count
    rng = np.random.default_rng(n + m + heads)
    c = 2 * heads
    params = AttentionParams.seeded(c, heads, rng)
    for rows in (n, m):
        x = rng.standard_normal((rows, c)).astype(np.float32)
        assert np.array_equal(attention(x, params), fused_per_head_reference(x, params))


def test_dense_attention_empty_queries():
    params = seeded_params(8, heads=2)
    assert attention(np.zeros((0, 8)), params).shape == (0, 8)


def traced_peak(call):
    """Peak bytes traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_attention_peak_memory():
    # float64 input runs the float32 score blocks too: no N x N buffer of
    # either dtype, and the bound of float32 input
    n, c, heads = 900, 64, 8
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c))
    params = AttentionParams.seeded(c, heads, rng)
    assert traced_peak(lambda: attention(x, params)) < 4 * 2**20


def test_dense_attention_head_over_budget_memory():
    # one N x N head sixteen times the score block: the call holds one block
    # buffer on each of its two threads, never an N x N head
    n, heads = 2048, 2
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, 2 * heads)).astype(np.float32)
    params = AttentionParams.seeded(2 * heads, heads, rng)
    peak = traced_peak(lambda: attention(x, params))
    assert n * n > 8 * BLOCK_BUDGET
    assert peak < 2.5 * 4 * BLOCK_BUDGET


def recording_threads(func, seen):
    """``func`` that appends the id of the thread of each call to ``seen``."""

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return func(*args, **kwargs)

    return recording


@pytest.mark.parametrize("dtype, n, calls", [("float32", 900, 25), ("float32", 20, 1),
                                             ("float64", 900, 25), ("float64", 300, 3)])
def test_dense_attention_runs_on_the_calling_thread(monkeypatch, dtype, n, calls):
    # in a process that can use one CPU, every row block (36 rows at N =
    # 900, 109 at N = 300, 8 heads) runs on the calling thread, and the call
    # starts no thread; float64 input runs the blocks of its float32 cast
    rng = np.random.default_rng(1)
    x = rng.standard_normal((n, 16)).astype(dtype)
    params = AttentionParams.seeded(16, 8, rng)
    seen = []
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 1)
    monkeypatch.setattr(np, "exp2", recording_threads(np.exp2, seen))
    before = threading.active_count()
    got = attention(x, params)
    assert threading.active_count() == before
    assert seen == [threading.get_ident()] * calls
    x32 = x.astype(np.float32)
    assert np.array_equal(got, fused_per_head_reference(x32, params))


@pytest.mark.parametrize("n, here, there", [(900, 13, 12), (72, 1, 1), (20, 1, 0)])
def test_float32_row_blocks_split_with_one_helper(monkeypatch, n, here, there):
    # with two CPUs the second half of the row blocks runs on one helper
    # thread; the blocks are those of the serial loop, so the result equals
    # the one-CPU result bit for bit.  One block stays on the calling thread.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((n, 16)).astype(np.float32)
    params = AttentionParams.seeded(16, 8, rng)
    monkeypatch.setattr(groupattn, "BLOCK_BUDGET", 8 * n * 36)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 1)
    serial = attention(x, params)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    seen = []
    monkeypatch.setattr(np, "exp2", recording_threads(np.exp2, seen))
    got = attention(x, params)
    seen = list(seen)
    assert np.array_equal(got, serial)
    assert np.array_equal(got, fused_per_head_reference(x, params))
    me = threading.get_ident()
    assert seen.count(me) == here
    assert len(seen) - here == there and len(set(seen) - {me}) == min(1, there)


def test_float32_helper_error_reaches_the_caller(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((900, 16)).astype(np.float32)
    params = AttentionParams.seeded(16, 8, rng)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    me, exp2 = threading.get_ident(), np.exp2

    def failing_off_the_caller(*args, **kwargs):
        if threading.get_ident() != me:
            raise FloatingPointError("injected on the helper")
        return exp2(*args, **kwargs)

    monkeypatch.setattr(np, "exp2", failing_off_the_caller)
    with pytest.raises(FloatingPointError, match="injected on the helper"):
        attention(x, params)
    monkeypatch.setattr(np, "exp2", exp2)
    assert np.array_equal(attention(x, params), fused_per_head_reference(x, params))


def test_dense_call_hands_the_helper_one_job(monkeypatch):
    # the calling thread projects q, k and v itself; the helper's one job
    # is the second half of the 25 row blocks
    rng = np.random.default_rng(6)
    x = rng.standard_normal((900, 16)).astype(np.float32)
    params = AttentionParams.seeded(16, 8, rng)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    attention(x, params)  # makes the helper
    jobs, submit = [], groupattn._helper.submit

    def recording_submit(fn, *args, **kwargs):
        jobs.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(groupattn._helper, "submit", recording_submit)
    got = attention(x, params)
    assert len(jobs) == 1
    assert np.array_equal(got, fused_per_head_reference(x, params))


def test_float32_caller_error_waits_for_the_helper(monkeypatch):
    # an error of the calling thread's half reaches the caller only once the
    # helper's slowed half is done, and the helper is free for the next call
    rng = np.random.default_rng(7)
    x = rng.standard_normal((900, 16)).astype(np.float32)
    params = AttentionParams.seeded(16, 8, rng)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    me, exp2, helper_blocks = threading.get_ident(), np.exp2, []

    def failing_on_the_caller(*args, **kwargs):
        if threading.get_ident() == me:
            raise FloatingPointError("injected on the caller")
        time.sleep(0.005)
        helper_blocks.append(1)
        return exp2(*args, **kwargs)

    monkeypatch.setattr(np, "exp2", failing_on_the_caller)
    with pytest.raises(FloatingPointError, match="injected on the caller"):
        attention(x, params)
    assert len(helper_blocks) == 12
    monkeypatch.setattr(np, "exp2", exp2)
    assert np.array_equal(attention(x, params), fused_per_head_reference(x, params))


def test_float32_helper_is_one_thread_over_many_calls(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((400, 16)).astype(np.float32)
    params = AttentionParams.seeded(16, 8, rng)
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    before = threading.active_count()
    for _ in range(50):
        attention(x, params)
    assert threading.active_count() <= before + 1


def test_float32_helper_shared_by_concurrent_callers(monkeypatch):
    # more calling threads than cores, switching often: each call gets its
    # own result, whether it holds the helper or runs alone
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(5)
    params = AttentionParams.seeded(16, 8, rng)
    xs = [rng.standard_normal((300, 16)).astype(np.float32) for _ in range(4)]
    want = [fused_per_head_reference(x, params) for x in xs]
    wrong = []

    def calls(i):
        for _ in range(10):
            if not np.array_equal(attention(xs[i], params), want[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_process_exits_with_no_helper_thread_left(tmp_path):
    # an exit handler registered before mvdet's runs after it and counts
    # the threads still alive
    script = """
import atexit, threading
atexit.register(lambda: print("threads at exit", threading.active_count()))
import numpy as np
from mvdet import groupattn
groupattn.usable_cpus = lambda: 2
x = np.random.default_rng(0).standard_normal((900, 16)).astype(np.float32)
groupattn.attention(x, groupattn.AttentionParams.seeded(16, 8, np.random.default_rng(1)))
print("threads after call", threading.active_count())
"""
    src = str(Path(groupattn.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["threads after call 2", "threads at exit 1"]


def scaled_to_logit_bound(x, params, bound):
    """x scaled so the float32 body's logit bound of self-attention is
    ``bound`` (it grows with the square of the scale)."""
    h, d = params.heads, x.shape[1] // params.heads
    def logit_bound(x):
        q = ((x @ params.w_q) * (math.log2(math.e) / math.sqrt(d))).astype(np.float32)
        k = (x @ params.w_k).astype(np.float32)
        heads = [slice(i * d, (i + 1) * d) for i in range(h)]
        return (max(np.linalg.norm(q[:, sl].astype(np.float64), axis=1).max() for sl in heads)
                * max(np.linalg.norm(k[:, sl].astype(np.float64), axis=1).max() for sl in heads))
    scaled = (x * math.sqrt(bound / logit_bound(x))).astype(np.float32)
    return scaled, logit_bound(scaled)


@pytest.mark.parametrize("bound, shifted", [(63.5, False), (64.5, True), (2000.0, True)])
def test_float32_row_max_only_above_the_logit_bound(monkeypatch, bound, shifted):
    # under the bound no row max is taken; above it the exact row max keeps
    # logits around 1e3 finite; either way the result equals the reference
    rng = np.random.default_rng(7)
    params = AttentionParams.seeded(16, 4, rng)
    x, got_bound = scaled_to_logit_bound(rng.standard_normal((300, 16)), params, bound)
    assert (got_bound > groupattn.SHIFT_FREE_LOGIT) == shifted
    subtracted = []
    monkeypatch.setattr(np, "subtract", recording_threads(np.subtract, subtracted))
    monkeypatch.setattr(groupattn, "usable_cpus", lambda: 1)
    got = attention(x, params)
    monkeypatch.undo()
    assert bool(subtracted) == shifted
    assert np.isfinite(got).all()
    assert np.array_equal(got, fused_per_head_reference(x, params))
    if bound > 1000:  # logits q.k / sqrt(d) beyond 1e3: exp2 would overflow unshifted
        q, k = x.astype(np.float64) @ params.w_q, x.astype(np.float64) @ params.w_k
        heads = [slice(4 * i, 4 * i + 4) for i in range(4)]
        assert max(np.abs(q[:, sl] @ k[:, sl].T).max() / 2 for sl in heads) > 1e3


def test_float32_row_max_when_values_are_large():
    # a small logit bound with M * max|v| above SHIFT_FREE_MASS keeps the row max
    rng = np.random.default_rng(8)
    params = AttentionParams.seeded(8, 2, rng)
    x = rng.standard_normal((40, 8)).astype(np.float32)
    big = dataclasses.replace(params, w_v=params.w_v * 2.0**60)
    q = (x @ params.w_q).reshape(40, 2, 4).transpose(1, 0, 2).astype(np.float32)
    k = (x @ params.w_k).reshape(40, 2, 4).transpose(1, 2, 0).astype(np.float32)
    v = (x @ params.w_v).astype(np.float32)
    assert not groupattn.needs_row_max(q[None] * 0.01, k[None], v[None])
    assert groupattn.needs_row_max(q[None] * 0.01, k[None], v[None] * 2.0**60)
    got = attention(x, big)
    assert np.isfinite(got).all()
    assert np.array_equal(got, fused_per_head_reference(x, big))


def test_softmax_rows_in_place():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((2, 3, 5))
    got = softmax_rows(scores)
    assert got is scores
    assert np.abs(got.sum(axis=-1) - 1.0).max() <= 1e-15


# ------------------------------------------------ float32 dense attention

# float32 drift from the float64 per-head loop, as a share of the output scale
FLOAT32_REL_TOL = 1e-5


def fused_per_head_reference(x, params):
    """The float32 formula as a per-head loop over the same row blocks as
    ``attention``: q scaled by log2(e)/sqrt(d) before its cast, the row max
    subtracted only when the logit bound does not make it unnecessary, exp2,
    and the row sum carried by a ones row appended to the transposed v."""
    n, c = x.shape
    h = params.heads
    d = c // h
    q = ((x @ params.w_q) * (math.log2(math.e) / math.sqrt(d))).astype(np.float32)
    k = (x @ params.w_k).astype(np.float32)
    v = (x @ params.w_v).astype(np.float32)
    rows = max(1, groupattn.BLOCK_BUDGET // (h * n))
    heads = [slice(head * d, (head + 1) * d) for head in range(h)]
    row_norm = lambda a, sl: np.linalg.norm(a[:, sl].astype(np.float64), axis=1).max()
    logit_bound = max(row_norm(q, sl) for sl in heads) * max(row_norm(k, sl) for sl in heads)
    shift = not (logit_bound <= groupattn.SHIFT_FREE_LOGIT
                 and n * max(1.0, np.abs(v).max()) <= groupattn.SHIFT_FREE_MASS)
    out = np.empty(x.shape)
    for sl in heads:
        q_head = np.ascontiguousarray(q[:, sl])
        k_head = np.ascontiguousarray(k[:, sl].T)
        v_head = np.ones((d + 1, n), dtype=np.float32)
        v_head[:d] = v[:, sl].T
        for s in range(0, n, rows):
            scores = q_head[s : s + rows] @ k_head
            e = np.exp2(scores - scores.max(axis=1, keepdims=True) if shift else scores)
            num = e @ v_head.T
            out[s : s + rows, sl] = num[:, :d] / num[:, d:]
    return out


def float32_drift(x, params):
    """Largest |float32 - float64 per-head reference|, and the reference.

    The float32 result must also equal the fused per-head loop bit for bit,
    at every size."""
    x32 = x.astype(np.float32)
    got = attention(x32, params)
    assert got.dtype == np.float64
    assert np.array_equal(got, fused_per_head_reference(x32, params))
    want = per_head_reference(x, params)
    return np.abs(got - want).max(), want


@pytest.mark.parametrize("feature_scale", [1.0, 3.0])
def test_float32_attention_near_float64_at_decoder_size(feature_scale):
    rng = np.random.default_rng(int(feature_scale))
    x = feature_scale * rng.standard_normal((900, 64))
    params = AttentionParams.seeded(64, 8, rng)
    drift, want = float32_drift(x, params)
    assert drift <= FLOAT32_REL_TOL * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    heads=st.sampled_from([1, 2, 4, 8]),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_attention_near_float64_property(n, heads, d, seed):
    rng = np.random.default_rng(seed)
    c = heads * d
    x = 3.0 * rng.standard_normal((n, c))
    params = AttentionParams.seeded(c, heads, rng)
    # an output row is a convex combination of value rows, which can cancel
    # to near zero in a one-channel head: the bound scales with the values
    drift, _ = float32_drift(x, params)
    assert drift <= FLOAT32_REL_TOL * np.abs(x @ params.w_v).max()


@pytest.mark.parametrize("budget", [1, 8 * 900 * 7, BLOCK_BUDGET, 8 * 900 * 900, 1 << 30])
def test_float32_attention_matches_reference_at_every_block_size(budget, monkeypatch):
    # one row; seven rows with a ragged last block; the default 36; one
    # block; a budget larger than the call.  Blocks are not compared with
    # each other: BLAS may round a product over fewer rows differently.
    n, c, heads = 900, 64, 8
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, c)).astype(np.float32)
    params = AttentionParams.seeded(c, heads, rng)
    monkeypatch.setattr(groupattn, "BLOCK_BUDGET", budget)
    assert np.array_equal(attention(x, params), fused_per_head_reference(x, params))


def test_float32_attention_peak_memory():
    # one 1 MiB block of scores, q, k, [v | 1] and the output: not a stack
    # of N x N score buffers
    rng = np.random.default_rng(0)
    x = rng.standard_normal((900, 64)).astype(np.float32)
    params = AttentionParams.seeded(64, 8, rng)
    assert traced_peak(lambda: attention(x, params)) < 4 * 2**20


def test_float32_attention_returns_float64_and_rejects_nan():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, 8)).astype(np.float32)
    params = seeded_params(8, heads=2)
    assert attention(x, params).dtype == np.float64
    assert attention(x[:3], params).dtype == np.float64
    assert attention(x, params, groups=np.array([0, 0, 1, 1, 1, 2])).dtype == np.float64
    assert attention(x[:0], params).dtype == np.float64
    bad = x.copy()
    bad[2, 3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        attention(bad, params)
    with pytest.raises(ValueError, match="NaN"):
        attention(bad, params, groups=np.zeros(6, int))
    # beyond the float32 range, or infinite: not finite once cast
    big = x.astype(np.float64)
    big[1, 0] = 1e39
    with pytest.raises(ValueError, match="not finite in float32"):
        attention(big, params)
    inf = x.copy()
    inf[4, 1] = np.inf
    with pytest.raises(ValueError, match="not finite in float32"):
        attention(inf, params)
    inf[4, 1] = -np.inf
    with pytest.raises(ValueError, match="not finite in float32"):
        attention(inf, params, groups=np.array([0, 0, 1, 1, 1, 2]))


# ------------------------------------------------- ref point cross attention

def single_scale_params(c_feat, c, seed=0):
    rng = np.random.default_rng(seed)
    return CrossAttentionParams(
        scale_logits=np.zeros(1),
        w_proj=rng.uniform(-0.2, 0.2, size=(c_feat, c)),
    )


def one_view(fmap, pts):
    """The one-view atlas call on an (H, W, C) map."""
    h, w, c = fmap.shape
    return bilinear_sample(fmap.reshape(-1, c), pts, 0, w, h)


def test_constant_map_sampling():
    fmap = np.full((5, 7, 3), 4.25)
    feats = rig_features({0: (70, 50, [fmap])})
    params = single_scale_params(3, 3)
    x = np.zeros((4, 3))
    refs = np.array([[1.0, 1.0], [35.0, 25.0], [69.0, 49.0], [200.0, -10.0]])
    out = ref_point_cross_attention(x, refs, feats, np.zeros(4, int), params)
    want = np.full((4, 3), 4.25) @ params.w_proj
    assert np.abs(out - want).max() <= 1e-12


def test_grid_node_sampling_exact():
    fmap = np.arange(12, dtype=float).reshape(3, 4, 1)
    pts = np.array([[2.0, 1.0]])  # exactly on node (row 1, col 2)
    assert one_view(fmap, pts)[0, 0] == fmap[1, 2, 0]


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


def sample_points(rng, h, w):
    """Fractional and integer grid points in and around an h x w map."""
    return np.concatenate([
        rng.uniform(-2, max(h, w) + 2, size=(200, 2)),
        rng.integers(-2, max(h, w) + 2, size=(50, 2)).astype(float),
    ])


@pytest.mark.parametrize("h,w,c", [(1, 1, 2), (1, 5, 3), (7, 1, 1), (16, 24, 4)])
def test_bilinear_matches_tent_formula(h, w, c):
    rng = np.random.default_rng(2024)
    fmap = rng.standard_normal((h, w, c))
    pts = sample_points(rng, h, w)
    got = one_view(fmap, pts)
    want = tent_bilinear(fmap, pts)
    # where the clamped point is a map node (always on a 1x1 map) both
    # reduce to that node's value times one
    node = np.all(np.clip(pts, 0.0, [w - 1.0, h - 1.0]) % 1.0 == 0.0, axis=1)
    assert node.sum() >= 50
    assert np.array_equal(got[node], want[node])
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    assert np.array_equal(got, bilinear_per_map(fmap, pts))  # the per-map kernel's bits


def test_two_view_atlas_reads_each_points_own_map():
    rng = np.random.default_rng(7)
    maps = [rng.standard_normal((5, 9, 3)), rng.standard_normal((12, 4, 3))]
    atlas = np.concatenate([m.reshape(-1, 3) for m in maps])
    pts = [sample_points(rng, *m.shape[:2]) for m in maps]
    view = np.repeat([1, 0], [len(pts[1]), len(pts[0])])  # view 1's points first
    all_pts = np.concatenate([pts[1], pts[0]])
    start = np.array([0, maps[0].shape[0] * maps[0].shape[1]])[view]
    width = np.array([m.shape[1] for m in maps])[view]
    height = np.array([m.shape[0] for m in maps])[view]
    got = bilinear_sample(atlas, all_pts, start, width, height)
    for k in (0, 1):
        mine = view == k
        assert np.max(np.abs(got[mine] - tent_bilinear(maps[k], pts[k]))) <= 1e-12
        assert np.array_equal(got[mine], bilinear_per_map(maps[k], pts[k]))
        # the other view's map gives other values: nothing leaks across views
        assert not np.allclose(got[mine], tent_bilinear(maps[1 - k], pts[k]))


def test_bilinear_cell_center():
    fmap = np.array([[0.0, 1.0], [2.0, 3.0]])[:, :, None]
    assert one_view(fmap, np.array([[0.5, 0.5]]))[0, 0] == 1.5
    # via the view-coordinate path: the view center lands mid-cell on a 2x2 map
    feats = rig_features({0: (100, 80, [fmap])})
    params = CrossAttentionParams(scale_logits=np.zeros(1), w_proj=np.eye(1))
    out = ref_point_cross_attention(
        np.zeros((1, 1)), np.array([[50.0, 40.0]]), feats,
        np.zeros(1, int), params,
    )
    assert out[0, 0] == 1.5


def test_missing_view_features_error():
    params = single_scale_params(2, 2)
    feats = rig_features({1: (16, 16, [np.zeros((2, 2, 2))])})
    with pytest.raises(ValueError, match="missing feature maps for view 0"):
        ref_point_cross_attention(
            np.zeros((1, 2)), np.zeros((1, 2)), feats, np.zeros(1, int), params
        )
    with pytest.raises(ValueError, match="view 1: expected 2 scales, got 1"):
        ref_point_cross_attention(
            np.zeros((1, 2)), np.zeros((1, 2)), feats, np.ones(1, int),
            CrossAttentionParams(scale_logits=np.zeros(2), w_proj=params.w_proj),
        )


def random_features(rng, c_feat, sizes):
    """{view_id: (width, height, [maps])}: random (H/8, W/8) and (H/16, W/16) maps."""
    return {
        v: (w, h, [rng.standard_normal((h // 8, w // 8, c_feat)),
                   rng.standard_normal((h // 16, w // 16, c_feat))])
        for v, (w, h) in sizes.items()
    }


def test_view_isolation_bitwise():
    rng = np.random.default_rng(4)
    m, c, c_feat = 10, 4, 3
    groups = np.sort(rng.integers(0, 2, size=m))
    x = rng.standard_normal((m, c))
    refs = rng.uniform(0, 60, size=(m, 2))
    params = CrossAttentionParams(
        scale_logits=rng.standard_normal(2),
        w_proj=rng.standard_normal((c_feat, c)),
    )
    feats = rig_features(random_features(rng, c_feat, {0: (64, 64), 1: (64, 64)}))
    logits = params.scale_logits.copy()
    out = ref_point_cross_attention(x, refs, feats, groups, params)
    assert np.array_equal(params.scale_logits, logits)  # in-place softmax on a copy
    feats2 = copy.deepcopy(feats)
    for s in range(len(feats2.atlas)):
        feats2.view_map(s, 1)[...] += 1.0  # view 1's atlas rows only
    out2 = ref_point_cross_attention(x, refs, feats2, groups, params)
    assert np.array_equal(out[groups == 0], out2[groups == 0])
    assert not np.array_equal(out[groups == 1], out2[groups == 1])


def test_ref_point_sampling_matches_per_view_loop():
    # view ids out of order and image sizes that differ between views
    rng = np.random.default_rng(9)
    m, c, c_feat = 300, 8, 5
    sizes = {4: (704, 256), 1: (352, 128), 7: (640, 480)}
    feats = rig_features(random_features(rng, c_feat, sizes))
    groups = rng.choice(list(sizes), size=m)
    refs = rng.uniform(-20, 720, size=(m, 2))
    params = CrossAttentionParams(
        scale_logits=rng.standard_normal(2), w_proj=rng.standard_normal((c_feat, c)),
    )
    x = np.zeros((m, c))
    got = ref_point_cross_attention(x, refs, feats, groups, params)
    assert np.array_equal(got, ref_point_cross_attention_per_view(x, refs, feats, groups, params))
    # view ids as a Python list of sparse, unsorted values
    feats = rig_features(random_features(rng, c_feat, {1000: (704, 256), 3: (352, 128), 7: (640, 480)}))
    ids = [1000, 3, 1000, 7, 3]
    refs = rng.uniform(-20, 720, size=(len(ids), 2))
    x = np.zeros((len(ids), c))
    got = ref_point_cross_attention(x, refs, feats, ids, params)
    assert np.array_equal(got, ref_point_cross_attention_per_view(x, refs, feats, ids, params))
