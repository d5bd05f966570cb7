"""Query-group attention and reference-point sampling.

A group id per 2D query (its camera, composed with its denoise part when
denoising is active) keeps queries of different groups from attending to
each other.  Grouped attention is evaluated group by group, so the output
rows of one group depend only on that group's inputs -- perturbing or
removing another group leaves them bit-identical.  ``build_mask`` spells
the same rule out as a dense additive mask for reference checks.

Dense attention (each group, or every row over ``kv``) is head-batched:
the score buffers of one call hold together as many heads as fit in
``SCORE_BUDGET`` elements (at least one), and the softmax runs in place.
A call whose heads do not fit in one buffer splits them among threads,
one buffer each, up to the number of usable cores; the threads end with
the call.

Attention computes in float32 when it is given float32 queries and in
float64 otherwise, and always returns float64.  The float64 path is
bit-identical to a per-head loop.  The float32 path fuses the softmax into
the value product (a ones column in V carries the row sum); it is
bit-identical across chunkings and thread counts, and differs from the
float64 result by less than 1e-5 of the largest value entry.  The decoder
runs its dense self-attentions over the 3D queries in float32.
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

# Elements in all score buffers of one dense attention call together
# (16 MiB in float64, 8 MiB in float32): small calls batch all heads in one
# product; at N = M = 900 two heads fit, one on each of two threads.
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


class RigFeatures:
    """Multi-scale feature maps of every view of a rig, one flat atlas per scale.

    ``atlas[s]`` holds each view's (H, W, C) map row-major, one view after
    another: view k (id ``view_ids[k]``, ``image_size[k]`` = (W, H) pixels)
    starts at row ``start[s, k]`` with a map of ``map_size[s, k]`` = (W, H).
    Built unfilled from ``views`` (each with a view_id, width and height)
    and ``map_size[s][k]``; ``view_map`` gives a view's map to write.
    """

    def __init__(self, views, map_size, channels: int):
        self.view_ids = np.array([v.view_id for v in views], dtype=np.intp)
        self.image_size = np.array([(v.width, v.height) for v in views], dtype=np.intp)
        self.map_size = np.asarray(map_size, dtype=np.intp).reshape(-1, len(views), 2)
        cells = self.map_size.prod(axis=2)
        self.start = np.cumsum(cells, axis=1) - cells
        self.atlas = [np.empty((n, channels)) for n in cells.sum(axis=1)]

    def view_map(self, s: int, k: int) -> np.ndarray:
        """View k's (H, W, C) map at scale s; writing to it writes its atlas rows."""
        (w, h), first = self.map_size[s, k], self.start[s, k]
        return self.atlas[s][first : first + w * h].reshape(h, w, -1)

    def rows(self, view_ids, n_scales: int) -> np.ndarray:
        """The index k of each given view id.  Raises naming the lowest id
        without maps, or the first id when there are not n_scales scales."""
        ids = np.asarray(view_ids, dtype=np.intp)
        known = np.isin(ids, self.view_ids)  # np.setdiff1d would import numpy.ma
        if not known.all():
            raise ValueError(f"missing feature maps for view {ids[~known].min()}")
        if ids.size and len(self.atlas) != n_scales:
            raise ValueError(f"view {ids[0]}: expected {n_scales} scales, got {len(self.atlas)}")
        order = np.argsort(self.view_ids)
        return order[np.searchsorted(self.view_ids, ids, sorter=order)]


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

    Computes in the dtype of x (float32 or float64) and returns float64.
    The budget of SCORE_BUDGET elements (or one N x M head, when that is
    larger) is shared by the score buffers of the call.  When all heads fit
    in it they run in one chunk on the calling thread.  Otherwise up to
    ``usable_cpus()`` workers each take a buffer of an equal share of the
    budget and run every workers-th chunk of heads through it; the calling
    thread is one of them.  Every head sees the same operations in the same
    order whatever the chunking or thread count, so the output does not
    depend on them; in float64 it is bit-identical to a per-head loop.
    Query rows are never blocked: BLAS may pick another kernel for the
    smaller products and change the last bits.

    The float32 body scales q by 1/sqrt(d) before its cast and appends a
    ones column to v, so one product yields both the softmax numerator and
    its row sum (at least 1: the row maximum contributes exp(0)).
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
    scale = math.sqrt(d)
    fused = x.dtype == np.float32
    if fused:
        q = (q / scale).astype(np.float32)
        k = k.astype(np.float32)
        v = np.concatenate([v, np.ones((h, m, 1))], axis=2, dtype=np.float32)
    out = np.empty((n, h, d))
    heads_out = out.transpose(1, 0, 2)
    fit = max(1, SCORE_BUDGET // max(1, n * m))  # heads the budget holds
    workers = 1 if fit >= h else min(usable_cpus(), fit)
    step = min(h, fit // workers)
    starts = range(0, h, step)

    def run_chunks(first: int) -> None:
        buf = np.empty((step, n, m), dtype=x.dtype)
        for s in starts[first::workers]:
            e = min(h, s + step)
            scores = np.matmul(q[s:e], k[s:e], out=buf[: e - s])
            if fused:
                np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
                np.exp(scores, out=scores)
                num = scores @ v[s:e]
                heads_out[s:e] = num[..., :d] / num[..., d:]
            else:
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
    them bit-identical.  Float32 x (and kv, cast to it) runs the fused
    float32 body; any other input computes in float64.  The result is
    float64 either way.  Raises on NaN input (fail fast), when C is not
    divisible by the head count, on a groups/x length mismatch, on a
    negative group id, and when both ``groups`` and ``kv`` are given.
    """
    x = np.asarray(x)
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    if x.ndim != 2:
        raise ValueError(f"x must be (M, C), got {x.shape}")
    if groups is not None and kv is not None:
        raise ValueError("groups apply to self-attention only; got both groups and kv")
    kv = x if kv is None else np.asarray(kv, dtype=dtype)
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
    out = np.empty(x.shape)
    for rows in np.split(order, starts):
        if rows.size:  # an empty x splits into one empty block
            xr = x[rows]
            out[rows] = _attend(xr, xr, params)
    return out


def sample_views(features: RigFeatures, view_ids, pts, params: CrossAttentionParams) -> np.ndarray:
    """Softmax-weighted sum over scales of one bilinear sample per pair.

    Pair i reads view ``view_ids[i]`` at view pixel ``pts[i]``; view pixel
    u covers map coordinate u * W_s / W - 0.5 on a scale of width W_s.
    Each scale takes one gather over all pairs.  Returns (P, C_feat),
    before the projection.
    """
    k = features.rows(view_ids, params.scale_logits.shape[0])
    weights = softmax_rows(params.scale_logits[None, :].copy())[0]
    image_size = features.image_size[k]
    combined = np.zeros((pts.shape[0], params.w_proj.shape[0]))
    for s, atlas in enumerate(features.atlas):
        map_size = features.map_size[s, k]
        grid = pts * (map_size / image_size) - 0.5
        sample = bilinear_sample(atlas, grid, features.start[s, k], *map_size.T)
        combined = combined + weights[s] * sample
    return combined


def ref_point_cross_attention(
    x: np.ndarray,
    ref_points: np.ndarray,
    features: RigFeatures,
    groups: GroupMask,
    params: CrossAttentionParams,
) -> np.ndarray:
    """Sample each query's own view at its reference point.

    One bilinear sample per scale (clamped to the map), mixed with learned
    softmax scale weights and projected to the query width.  A query never
    reads another view's features, so perturbing the maps of view v can
    only change the outputs of group v.
    """
    ref_points = np.asarray(ref_points, dtype=np.float64).reshape(-1, 2)
    m = np.shape(x)[0]
    if ref_points.shape[0] != m or groups.size != m:
        raise ValueError("x, ref_points and groups must agree in length")
    mixed = sample_views(features, groups.group_of, ref_points, params)
    out = np.zeros((m, params.w_proj.shape[1]))
    # one product per camera group: BLAS may round a product over more rows differently
    for view_id in np.unique(groups.group_of):
        idx = np.flatnonzero(groups.group_of == view_id)
        out[idx] = mixed[idx] @ params.w_proj
    return out
