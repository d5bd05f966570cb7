"""Query-group attention and reference-point sampling.

A group id per 2D query (its camera, composed with its denoise part when
denoising is active) keeps queries of different groups from attending to
each other.  Grouped attention is evaluated group by group, so the output
rows of one group depend only on that group's inputs -- perturbing or
removing another group leaves them bit-identical.  ``build_mask`` spells
the same rule out as a dense additive mask for reference checks.

Dense attention (each group, or every row over ``kv``) is head-batched:
the score buffers of one call hold together as many heads as fit in
``SCORE_BUDGET`` doubles (at least one), and the softmax runs in place.
A call whose heads do not fit in one buffer splits them among threads,
one buffer each, up to the number of usable cores; the threads end with
the call.  The results are bit-identical to a per-head loop.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import numpy as np

from ._kernels import bilinear_sample

# Additive sentinel standing in for -inf.  After row-max subtraction the
# exponent of a masked logit is below the double underflow threshold, so its
# softmax weight is exactly 0.0 (holds for |unmasked logits| << 1e9).
NEG_INF = -1e9

# Doubles in all score buffers of one dense attention call together
# (16 MiB): small calls batch all heads in one product; at N = M = 900 two
# heads fit, one on each of two threads.
SCORE_BUDGET = 1 << 21


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class GroupMask:
    """Group id per query column (camera ids, plus denoise-group ids)."""

    group_of: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.group_of, dtype=np.intp).reshape(-1)
        object.__setattr__(self, "group_of", g)

    @property
    def size(self) -> int:
        return self.group_of.shape[0]


@dataclass(frozen=True)
class AttentionParams:
    """Projection weights for scaled dot-product attention."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    heads: int = 1

    @classmethod
    def seeded(cls, channels: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        bound = 1.0 / math.sqrt(channels)
        draw = lambda: rng.uniform(-bound, bound, size=(channels, channels))
        return cls(w_q=draw(), w_k=draw(), w_v=draw(), heads=heads)


@dataclass(frozen=True)
class CrossAttentionParams:
    """Reference-point sampling parameters: scale mixing and projection."""

    scale_logits: np.ndarray  # (S,) mixed through a softmax
    w_proj: np.ndarray        # (C_feat, C)

    @classmethod
    def seeded(
        cls, feature_channels: int, channels: int, n_scales: int,
        rng: np.random.Generator,
    ) -> "CrossAttentionParams":
        bound = 1.0 / math.sqrt(channels)
        return cls(
            scale_logits=rng.uniform(-bound, bound, size=n_scales),
            w_proj=rng.uniform(-bound, bound, size=(feature_channels, channels)),
        )


@dataclass(frozen=True)
class ViewFeatures:
    """Multi-scale feature maps of one camera view, with its pixel size."""

    width: int
    height: int
    maps: list[np.ndarray]  # each (H_s, W_s, C_feat)


def build_mask(groups: GroupMask, denoise=None) -> np.ndarray:
    """Additive attention mask: 0 within a group, the -inf sentinel across.

    A dense (M, M) reference of the rule ``attention(..., groups=...)``
    applies from group ids; for checks only, never on the forward path.
    With a denoise layout present, a pair is permitted only when it shares
    the camera group AND the part (both in the match part, or both in the
    same denoise group); match and denoise parts are blocked from each
    other in both directions.
    """
    g = groups.group_of
    if g.size and g.min() < 0:
        raise ValueError("group id out of range")
    same = g[:, None] == g[None, :]
    if denoise is not None:
        part = denoise.part_ids()
        if part.shape[0] != g.shape[0]:
            raise ValueError(
                f"denoise layout covers {part.shape[0]} queries, mask has {g.shape[0]}"
            )
        same = same & (part[:, None] == part[None, :])
    mask = np.where(same, 0.0, NEG_INF)
    return mask


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in place; returns ``scores``."""
    np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
    np.exp(scores, out=scores)
    np.divide(scores, scores.sum(axis=-1, keepdims=True), out=scores)
    return scores


def _attend(x: np.ndarray, kv: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Multi-head softmax(QK^T / sqrt(d)) V of every row of x over kv.

    The budget of SCORE_BUDGET doubles (or one N x M head, when that is
    larger) is shared by the score buffers of the call.  When all heads fit
    in it they run in one chunk on the calling thread.  Otherwise up to
    ``usable_cpus()`` workers each take a buffer of an equal share of the
    budget and run every workers-th chunk of heads through it; the calling
    thread is one of them.  Every head sees the same operations in the same
    order as a per-head loop, so the output is bit-identical to it whatever
    the chunking or thread count.  Query rows are never blocked: BLAS may
    pick another kernel for the smaller products and change the last bits.
    """
    n, c = x.shape
    m = kv.shape[0]
    h = params.heads
    d = c // h
    if n == 0:  # nothing to normalise, even when kv is empty too
        return np.empty((0, c))
    q = (x @ params.w_q).reshape(n, h, d).transpose(1, 0, 2)
    k = (kv @ params.w_k).reshape(m, h, d).transpose(1, 2, 0)
    v = (kv @ params.w_v).reshape(m, h, d).transpose(1, 0, 2)
    out = np.empty((n, h, d))
    heads_out = out.transpose(1, 0, 2)
    fit = max(1, SCORE_BUDGET // max(1, n * m))  # heads the budget holds
    workers = 1 if fit >= h else min(usable_cpus(), fit)
    step = min(h, fit // workers)
    starts = range(0, h, step)
    scale = math.sqrt(d)

    def run_chunks(first: int) -> None:
        buf = np.empty((step, n, m))
        for s in starts[first::workers]:
            e = min(h, s + step)
            scores = np.matmul(q[s:e], k[s:e], out=buf[: e - s])
            np.divide(scores, scale, out=scores)
            heads_out[s:e] = softmax_rows(scores) @ v[s:e]

    if workers == 1:
        run_chunks(0)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(run_chunks, w) for w in range(1, workers)]
            run_chunks(0)
            for f in futures:
                f.result()
    return out.reshape(n, c)


def attention(
    x: np.ndarray,
    params: AttentionParams,
    *,
    groups: GroupMask | None = None,
    kv: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled dot-product attention of the rows of x.

    Without ``groups`` every row attends over ``kv`` (default: x itself).
    With ``groups`` a row attends only to the rows of x sharing its group
    id; each group is evaluated on its own, so its output rows depend only
    on that group's inputs -- perturbing or removing another group leaves
    them bit-identical.  Raises on NaN input (fail fast), when C is not
    divisible by the head count, on a groups/x length mismatch, on a
    negative group id, and when both ``groups`` and ``kv`` are given.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be (M, C), got {x.shape}")
    if groups is not None and kv is not None:
        raise ValueError("groups apply to self-attention only; got both groups and kv")
    kv = x if kv is None else np.asarray(kv, dtype=np.float64)
    if np.isnan(x).any() or np.isnan(kv).any():
        raise ValueError("NaN in attention input")
    if x.shape[1] % params.heads:
        raise ValueError(f"channels {x.shape[1]} not divisible by heads {params.heads}")
    if groups is None:
        return _attend(x, kv, params)
    g = groups.group_of
    if g.shape[0] != x.shape[0]:
        raise ValueError(f"groups cover {g.shape[0]} queries, x has {x.shape[0]}")
    if g.size and g.min() < 0:
        raise ValueError("group id out of range")
    order = np.argsort(g, kind="stable")
    starts = np.flatnonzero(np.diff(g[order])) + 1
    out = np.empty_like(x)
    for rows in np.split(order, starts):
        if rows.size:  # an empty x splits into one empty block
            xr = x[rows]
            out[rows] = _attend(xr, xr, params)
    return out


def mix_scales(vf: ViewFeatures, pts: np.ndarray, params: CrossAttentionParams) -> np.ndarray:
    """Softmax-weighted sum over scales of one bilinear sample per point.

    ``pts`` are (P, 2) view pixel coordinates; view pixel u covers map
    coordinate u * W_s / W - 0.5 on a scale of width W_s.  Returns
    (P, C_feat), before the projection.
    """
    weights = softmax_rows(params.scale_logits[None, :].copy())[0]
    combined = np.zeros((pts.shape[0], params.w_proj.shape[0]))
    for s, fmap in enumerate(vf.maps):
        hs, ws = fmap.shape[0], fmap.shape[1]
        mx = pts[:, 0] * (ws / vf.width) - 0.5
        my = pts[:, 1] * (hs / vf.height) - 0.5
        combined = combined + weights[s] * bilinear_sample(fmap, np.stack([mx, my], axis=1))
    return combined


def ref_point_cross_attention(
    x: np.ndarray,
    ref_points: np.ndarray,
    features: dict[int, ViewFeatures],
    groups: GroupMask,
    params: CrossAttentionParams,
) -> np.ndarray:
    """Sample each query's own view at its reference point.

    One bilinear sample per scale (clamped to the map), mixed with learned
    softmax scale weights and projected to the query width.  A query never
    reads another view's features, so perturbing the maps of view v can
    only change the outputs of group v.
    """
    x = np.asarray(x, dtype=np.float64)
    ref_points = np.asarray(ref_points, dtype=np.float64).reshape(-1, 2)
    m = x.shape[0]
    if ref_points.shape[0] != m or groups.size != m:
        raise ValueError("x, ref_points and groups must agree in length")
    out = np.zeros((m, params.w_proj.shape[1]))
    for view_id in np.unique(groups.group_of):
        idx = np.flatnonzero(groups.group_of == view_id)
        vf = features.get(int(view_id))
        if vf is None:
            raise ValueError(f"missing feature maps for view {view_id}")
        if len(vf.maps) != params.scale_logits.shape[0]:
            raise ValueError(
                f"view {view_id} has {len(vf.maps)} scales, "
                f"params expect {params.scale_logits.shape[0]}"
            )
        out[idx] = mix_scales(vf, ref_points[idx], params) @ params.w_proj
    return out
