"""Query-group attention and reference-point sampling.

A group id per 2D query (its camera, composed with its denoise part when
denoising is active) keeps queries of different groups from attending to
each other.  Grouped attention stacks the groups of each size and runs
them as one call with a leading group axis, every product and the row-max
decision taken per group, so the output rows of one group depend only on
that group's inputs -- perturbing or removing another group, or adding
one of the same size, leaves them bit-identical.  ``build_mask`` spells
the same rule out as a dense additive mask for reference checks.

Attention computes in float32, as the paper's PyTorch model does by
default: it casts its inputs to float32 and returns float64.  Dense
attention is one group of every row.  A call runs chunks of query rows of
one group, or of several whole groups, with all heads at once, through a
score block of ``BLOCK_BUDGET`` elements sized so it stays in cache
through the softmax and the value product.  It works in base 2 (q is
scaled by log2(e)/sqrt(d), then ``exp2``), subtracts the row max only in a
group where a bound on its logits does not prove it unnecessary
(``needs_row_max``), and fuses the softmax into the value product (a ones
column in V carries the row sum).  A call of two chunks or more projects
q, k and v on the calling thread, then hands the second half of its chunks
to the one worker of a per-process ``ThreadPoolExecutor``.  A process that
can use only one CPU runs it all on the calling thread, to the same bits.
The result is bit-identical to a per-head loop over the same row blocks,
and differs from float64 attention by less than 1e-5 of the largest value
entry.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from ._kernels import bilinear_sample

# Additive sentinel standing in for -inf.  After row-max subtraction the
# exponent of a masked logit is below the double underflow threshold, so its
# softmax weight is exactly 0.0 (holds for |unmasked logits| << 1e9).
NEG_INF = -1e9

# Elements of the score block (1 MiB, sized for L2): all h heads over
# max(1, BLOCK_BUDGET // (h * N)) rows of a group of N, 36 rows at N = 900,
# h = 8, or over as many whole groups of N <= that many rows as fit.
BLOCK_BUDGET = 1 << 18

# Attention skips the row max when every base-2 logit is at most
# SHIFT_FREE_LOGIT in size and M * max(1, max|v|) <= SHIFT_FREE_MASS
# (derived in ``needs_row_max``).
SHIFT_FREE_LOGIT = 64.0
SHIFT_FREE_MASS = 2.0**60


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


def scene_view_ids(scene, view_ids, rig_ids) -> np.ndarray:
    """The group id of view ``view_ids`` of scene ``scene`` (broadcast) in a
    batch of scenes over a rig with view ids ``rig_ids``: scene * (max rig
    id + 1) + view id, the rule ``denoise_groups`` also composes a camera
    with its denoise part by.  Scene 0's views keep their own ids."""
    stride = int(np.max(rig_ids, initial=-1)) + 1
    return np.asarray(scene, dtype=np.intp) * stride + np.asarray(view_ids, dtype=np.intp)


class RigFeatures:
    """Multi-scale feature maps of every view of a rig, one flat atlas per scale.

    ``atlas[s]`` holds each view's (H, W, C) map row-major, one view after
    another: view k (id ``view_ids[k]``, ``image_size[k]`` = (W, H) pixels)
    starts at row ``start[s, k]`` with a map of ``map_size[s, k]`` = (W, H).
    Built unfilled from ``views`` (each with a view_id, width and height)
    and ``map_size[s][k]``; ``view_map`` gives a view's map to write.  With
    ``n_scenes``, it holds the views of that many scenes over the same rig,
    scene after scene, scene j's views under ``scene_view_ids(j, ...)``.
    """

    def __init__(self, views, map_size, channels: int, n_scenes: int = 1):
        ids = np.array([v.view_id for v in views], dtype=np.intp)
        self.view_ids = scene_view_ids(np.arange(n_scenes)[:, None], ids, ids).reshape(-1)
        size = np.array([(v.width, v.height) for v in views], dtype=np.intp).reshape(-1, 2)
        self.image_size = np.tile(size, (n_scenes, 1))
        self.map_size = np.tile(
            np.asarray(map_size, dtype=np.intp).reshape(-1, len(views), 2), (1, n_scenes, 1))
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


def _group_rows(group_of, n: int) -> list[np.ndarray]:
    """The groups of the ids ``group_of``, one per row of n, stacked by
    size: one (G, r) array of row indices per distinct group size r, in
    ascending size, its groups in ascending id order and each group's rows
    ascending (a stable argsort, cut where the sorted id changes).  Raises
    when the ids do not cover n rows or one is negative."""
    g = np.asarray(group_of, dtype=np.intp).reshape(-1)
    if g.shape[0] != n:
        raise ValueError(f"groups cover {g.shape[0]} queries, x has {n}")
    if g.size and g.min() < 0:
        raise ValueError("group id out of range")
    if not n:
        return []
    order = np.argsort(g, kind="stable")
    edges = [0, *(np.flatnonzero(np.diff(g[order])) + 1).tolist(), n]
    firsts: dict[int, list[int]] = {}  # group size -> where each such group starts in order
    for a, b in zip(edges, edges[1:]):
        firsts.setdefault(b - a, []).append(a)
    return [order[np.array(f)[:, None] + np.arange(r)] for r, f in sorted(firsts.items())]


def build_mask(group_of, denoise=None) -> np.ndarray:
    """Additive attention mask: 0 within a group, the -inf sentinel across.

    A dense (M, M) reference of the rule ``attention(..., groups=...)``
    applies to the integer group ids ``group_of``; for checks only, never
    on the forward path.  With a denoise layout present, a pair is
    permitted only when it shares the camera group AND the part (both in
    the match part, or both in the same denoise group); match and denoise
    parts are blocked from each other in both directions.
    """
    g = np.asarray(group_of, dtype=np.intp).reshape(-1)
    _group_rows(g, g.shape[0])  # raises on a negative id
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


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_helper: futures.ThreadPoolExecutor | None = None  # made by the first call that shares its work
_helper_busy = threading.Lock()  # held by the call the helper works for


def _forget_helper() -> None:
    """After a fork: the child holds the executor but not its thread."""
    global _helper, _helper_busy
    _helper, _helper_busy = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _both(first, second) -> None:
    """Run ``first()`` here and ``second()`` on the helper thread at once;
    both here, in turn, when the process can use only one CPU or another
    thread holds the helper.  Waits for ``second()`` before it returns or
    re-raises an error of either."""
    global _helper
    if usable_cpus() > 1 and _helper_busy.acquire(blocking=False):
        try:
            if _helper is None:
                _helper = futures.ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="mvdet-attention")
            done = _helper.submit(second)
            try:
                first()
            finally:
                futures.wait((done,))
            done.result()
        finally:
            _helper_busy.release()
        return
    first()
    second()


def _attend_blocks(q, k, v1, heads_out, chunks, per: int, rows: int, shift) -> None:
    """The score chunks ``chunks`` of ``_attend``, through a score buffer of
    their own for at most ``per`` groups of ``rows`` rows: chunk (j, je, s,
    e) covers rows s:e of groups j:je and writes ``heads_out[j:je, :,
    s:e]``.  ``shift``, None when no group needs it, is a (G, 1, 1, 1) mask
    of the groups whose row max is subtracted."""
    d = v1.shape[3] - 1
    buf = np.empty((min(per, q.shape[0]), q.shape[1], rows, k.shape[3]), dtype=np.float32)
    for j, je, s, e in chunks:
        scores = np.matmul(q[j:je, :, s:e], k[j:je], out=buf[: je - j, :, : e - s])
        if shift is not None:
            np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores,
                        where=shift[j:je])
        np.exp2(scores, out=scores)
        num = scores @ v1[j:je]
        heads_out[j:je, :, s:e] = num[..., :d] / num[..., d:]


def needs_row_max(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether attention must subtract the row max before exp2, per group.

    q is (G, h, N, d), already scaled by log2(e)/sqrt(d); k is (G, h, d,
    M); v is (G, ...), each group's value entries; all float32.  Returns a
    (G,) bool array, each entry decided from its own group's inputs alone.
    Cauchy-Schwarz bounds each base-2 logit s = q_i . k_j of every head of a
    group by |s| <= B = max |q_i| * max |k_j|, the largest norms of a query
    and of a key row of any of its heads, computed here in float64.
    Rounding in the float32 product adds at most gamma_d * B, where gamma_d
    = d u / (1 - d u) with u = 2**-24 is under 2**-9 for d <= 2**14; so
    with B <= SHIFT_FREE_LOGIT = 64 every computed |s| < 65, and exp2(s) is
    a normal float32 in [2**-65, 2**65] that keeps its full relative
    precision.  A numerator entry or row sum then adds M terms of at most
    2**65 * max(1, max|v|) in size: at most 2**125 when M * max(1, max|v|)
    <= SHIFT_FREE_MASS = 2**60.  Float32 summation inflates a sum of M
    terms by at most (1 + u)**M < e**2 < 8 for M < 2**25, which keeps every
    partial sum below the float32 maximum of nearly 2**128.  The row sum is
    at least 2**-65, so the division is safe.  The shift does not change
    the softmax, so skipping it changes only rounding.  Any other input
    keeps the exact row max (``attention`` has rejected non-finite input).
    """
    d, m = q.shape[3], k.shape[3]
    if d > 1 << 14 or m >= 1 << 25:
        return np.ones(q.shape[0], dtype=bool)
    q_norm = np.square(q, dtype=np.float64).sum(axis=3).max(axis=(1, 2))
    k_norm = np.square(k, dtype=np.float64).sum(axis=2).max(axis=(1, 2))
    v_max = np.abs(v).reshape(v.shape[0], -1).max(axis=1)
    return ((np.sqrt(q_norm * k_norm) > SHIFT_FREE_LOGIT)
            | (m * np.maximum(1.0, v_max) > SHIFT_FREE_MASS))


def _attend(x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Multi-head softmax(QK^T / sqrt(d)) V self-attention within each
    group of float32 x (G, N, C); returns (G, N, C) float64.

    Projects q, k and v once for every group, then runs chunks of query
    rows, all heads at once, through a buffer of at most BLOCK_BUDGET
    elements: blocks of max(1, BLOCK_BUDGET // (h * N)) rows of one group,
    or whole groups, as many as fit, when N is no more than that.  A chunk
    takes QK^T with q scaled by log2(e)/sqrt(d) before its cast, minus the
    row max in each group where ``needs_row_max`` does not prove it
    unnecessary, exp2 in place, and one product with [v | 1] that yields
    the numerator and its row sum.  q, k and the transpose of [v | 1] are
    stored group by group and head by head, as BLAS reads them fastest,
    and every product is one BLAS call per (group, head) over the rows of
    a block.  With two chunks or more, the helper thread runs the second
    half of the chunks through a buffer of its own; the chunks are those of
    the serial loop, so the result is the same bit for bit.
    """
    g, n, c = x.shape
    h = params.heads
    d = c // h
    if n == 0:  # nothing to normalise
        return np.empty((g, 0, c))
    out = np.empty((g, n, h, d))
    rows = min(n, max(1, BLOCK_BUDGET // (h * n)))
    per = max(1, BLOCK_BUDGET // (h * rows * n))  # 1 when rows < n
    chunks = [(j, min(g, j + per), s, min(n, s + rows))
              for j in range(0, g, per) for s in range(0, n, rows)]
    scale = math.log2(math.e) / math.sqrt(d)
    q = np.ascontiguousarray(
        (x @ params.w_q).reshape(g, n, h, d).transpose(0, 2, 1, 3) * scale, dtype=np.float32)
    k = np.ascontiguousarray((x @ params.w_k).reshape(g, n, h, d).transpose(0, 2, 3, 1),
                             dtype=np.float32)
    v1 = np.ones((g, h, d + 1, n), dtype=np.float32)
    v1[:, :, :d] = (x @ params.w_v).reshape(g, n, h, d).transpose(0, 2, 3, 1)
    shift = needs_row_max(q, k, v1[:, :, :d])
    blocks = functools.partial(_attend_blocks, q, k, v1.transpose(0, 1, 3, 2),
                               out.transpose(0, 2, 1, 3), per=per, rows=rows,
                               shift=shift[:, None, None, None] if shift.any() else None)
    if len(chunks) > 1:
        half = (len(chunks) + 1) // 2
        _both(functools.partial(blocks, chunks[:half]), functools.partial(blocks, chunks[half:]))
    else:
        blocks(chunks)
    return out.reshape(g, n, c)


def _finite_float32(a) -> np.ndarray:
    """``a`` as float32; raises unless every entry is finite there."""
    with np.errstate(over="ignore"):  # an entry beyond the float32 range casts to inf
        a = np.asarray(a, dtype=np.float32)
    if not np.isfinite(a).all():
        raise ValueError("attention input not finite in float32 (NaN, inf or beyond 3.4e38)")
    return a


def attention(
    x: np.ndarray,
    params: AttentionParams,
    *,
    groups=None,
) -> np.ndarray:
    """Scaled dot-product self-attention of the rows of x.

    Without ``groups`` every row attends over every row of x.  With
    ``groups``, an integer group id per row of x, a row attends only to
    the rows of x sharing its id.  The groups of each size run as one
    stacked call, each group through products and a row-max decision of
    its own, so its output rows are those of the group attending alone --
    perturbing or removing another group leaves them bit-identical.  x
    computes in float32; the result is float64.  Raises on an entry that
    is not finite in float32 (NaN, inf, or beyond the float32 range; fail
    fast), when C is not divisible by the head count, on a groups/x length
    mismatch and on a negative group id.
    """
    x = _finite_float32(x)
    if x.ndim != 2:
        raise ValueError(f"x must be (M, C), got {x.shape}")
    if x.shape[1] % params.heads:
        raise ValueError(f"channels {x.shape[1]} not divisible by heads {params.heads}")
    if groups is None:
        return _attend(x[None], params)[0]
    out = np.empty(x.shape)
    for rows in _group_rows(groups, x.shape[0]):
        out[rows] = _attend(x[rows], params)
    return out


def sample_views(features: RigFeatures, view_ids, pts, params: CrossAttentionParams) -> np.ndarray:
    """Softmax-weighted sum over scales of one bilinear sample per pair.

    Pair i reads view ``view_ids[i]`` at view pixel ``pts[i]``; view pixel
    u covers map coordinate u * W_s / W - 0.5 on a scale of width W_s.
    Each scale takes one gather over all pairs.  Returns (P, C_feat),
    before the projection; over a one-plane atlas (``render_features``)
    every column holds that plane's sample, the bits of a C_feat-channel
    atlas of identical channels.
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
    view_of,
    params: CrossAttentionParams,
) -> np.ndarray:
    """Sample each query's own view, ``view_of[i]``, at its reference point.

    One bilinear sample per scale (clamped to the map), mixed with learned
    softmax scale weights and projected to the query width.  A query never
    reads another view's features, so perturbing the maps of view v can
    only change the outputs of group v.
    """
    ref_points = np.asarray(ref_points, dtype=np.float64).reshape(-1, 2)
    m = np.shape(x)[0]
    if ref_points.shape[0] != m:
        raise ValueError(f"ref_points cover {ref_points.shape[0]} queries, x has {m}")
    groups = _group_rows(view_of, m)
    mixed = sample_views(features, view_of, ref_points, params)
    out = np.zeros((m, params.w_proj.shape[1]))
    # one BLAS product per camera group, as matmul runs one per group of a
    # stack: BLAS may round a product over more rows differently
    for rows in groups:
        out[rows] = mixed[rows] @ params.w_proj
    return out
