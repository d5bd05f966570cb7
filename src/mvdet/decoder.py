"""Hybrid decoder: interleaved multi-view 2D and 3D sub-layers.

Each hybrid layer runs its 2D sub-layers (allocate -> group attention ->
2D head -> gate -> aggregate, with a 3D deep-supervision tap) followed by
its 3D sub-layers (self-attention, reference-point sampling, 3D head).
Heads are toy two-layer perceptrons with additive anchor refinement; all
parameters come from one seeded initializer so a fixed seed and inputs give
bit-identical outputs.

The query state stays float64.  Every attention (the 2D group
self-attention, the two dense self-attentions over the N 3D queries and
temporal attention) computes in float32, as the paper's PyTorch model
does by default, through groupattn's row-blocked body; reference-point
sampling stays float64.  Layer 0 up to its first feature read depends on
the initial queries alone: ``HybridDecoder.prefix`` computes it once and
``forward`` can start from it, bit for bit.
``HeadOutputs.to_json_obj`` hands the head outputs to the JSON writer as
NumPy arrays, never as lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .aggregation import GateParams, aggregate, gate_truncation, sigmoid
from .allocation import (
    AllocationLimits, AllocationResult, MappingMatrix, allocate, clamp_anchors, gather_2d,
)
from .geometry import CameraView, anchors_to_array, project_views
from .groupattn import (
    AttentionParams,
    CrossAttentionParams,
    RigFeatures,
    attention,
    ref_point_cross_attention,
    sample_views,
)

# Table-style layer arrangements: letter -> (l_2d, l_3d, l_hybrid); every
# preset totals (l_2d + l_3d) * l_hybrid = 6 sub-layers.
PRESETS = {
    "A": (0, 1, 6),
    "B": (1, 0, 6),
    "C": (2, 1, 2),
    "D": (1, 2, 2),
    "E": (3, 3, 1),
    "F": (1, 1, 3),
}

MIN_BOX_SIZE = 0.01  # meters; floor applied after additive size refinement
BEV_RANGE = 55.0  # meters; initial anchor centers lie within +-BEV_RANGE in x and y


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder shape, arrangement and seeding."""

    n_queries: int = 900
    channels: int = 64
    l_2d: int = 1
    l_3d: int = 1
    l_hybrid: int = 3
    heads: int = 8
    seed: int = 0
    n_classes: int = 5
    feature_channels: int = 16
    n_scales: int = 2
    limits: AllocationLimits = field(default_factory=AllocationLimits)

    def __post_init__(self):
        if self.n_queries <= 0:
            raise ValueError("n_queries must be positive")
        if self.l_2d < 0 or self.l_3d < 0 or self.l_hybrid < 1:
            raise ValueError("layer counts must be non-negative, l_hybrid >= 1")
        if self.l_2d + self.l_3d == 0:
            raise ValueError("at least one sub-layer per hybrid layer")
        for name in ("heads", "channels", "n_classes", "feature_channels", "n_scales"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.channels % self.heads:
            raise ValueError("channels must be divisible by heads")

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "DecoderConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
        l_2d, l_3d, l_hybrid = PRESETS[name]
        return cls(l_2d=l_2d, l_3d=l_3d, l_hybrid=l_hybrid, **overrides)

    def to_json_obj(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "channels": self.channels,
            "l_2d": self.l_2d,
            "l_3d": self.l_3d,
            "l_hybrid": self.l_hybrid,
            "heads": self.heads,
            "seed": self.seed,
            "n_classes": self.n_classes,
            "feature_channels": self.feature_channels,
            "n_scales": self.n_scales,
            "max_truncated_per_camera": self.limits.max_truncated_per_camera,
            "size_clamp": list(self.limits.size_clamp),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecoderConfig":
        """Config from a JSON dict; a "preset" key other than null wins over
        explicit l_2d / l_3d / l_hybrid entries."""
        obj = dict(obj)
        preset = obj.pop("preset", None)
        limits = AllocationLimits(
            max_truncated_per_camera=obj.pop("max_truncated_per_camera", 100),
            size_clamp=tuple(obj.pop("size_clamp", (35.0, 35.0, 10.0))),
        )
        known = {
            k: obj[k]
            for k in (
                "n_queries", "channels", "l_2d", "l_3d", "l_hybrid", "heads",
                "seed", "n_classes", "feature_channels", "n_scales",
            )
            if k in obj
        }
        if preset is not None:
            for k in ("l_2d", "l_3d", "l_hybrid"):
                known.pop(k, None)
            return cls.from_preset(preset, limits=limits, **known)
        return cls(limits=limits, **known)


@dataclass
class QuerySet:
    """Query features with their anchors (and optional scores)."""

    features: np.ndarray          # (N, C)
    anchors: np.ndarray           # (N, 9)
    scores: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.anchors = anchors_to_array(self.anchors)
        if self.features.shape[0] != self.anchors.shape[0]:
            raise ValueError("features and anchors must have the same row count")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
            if self.scores.shape[0] != self.features.shape[0]:
                raise ValueError("scores must align with features")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass
class Layer3DOutput:
    """One 3D head emission: refined anchors plus class logits."""

    boxes3d: np.ndarray  # (N, 9)
    logits: np.ndarray   # (N, K)
    source: str          # "3d" sub-layer or "agg" supervision tap


@dataclass
class Layer2DOutput:
    """One 2D sub-layer emission, aligned 1:1 with its mapping columns."""

    mapping: MappingMatrix
    ref_points: np.ndarray
    truncation: np.ndarray
    boxes2d: np.ndarray  # (M, 4) cx, cy, w, h in pixels
    logits: np.ndarray   # (M, K)
    alphas: np.ndarray   # (M, 2) predicted (sin, cos)


@dataclass(frozen=True)
class Prefix:
    """Layer 0 of a forward pass up to its first feature read
    (``HybridDecoder.prefix``): the query state there, plus, when layer 0
    opens with a 2D sub-layer, its allocation and group-attended 2D queries."""

    q3: np.ndarray                           # (N, C) 3D query features
    anchors: np.ndarray                      # (N, 9), clamped after a 2D opening
    alloc: Optional[AllocationResult] = None
    q2: Optional[np.ndarray] = None          # (M, C)


@dataclass
class HeadOutputs:
    """Per-layer head emissions for deep supervision."""

    layers_2d: list[Layer2DOutput] = field(default_factory=list)
    layers_3d: list[Layer3DOutput] = field(default_factory=list)
    agg_taps: list[Layer3DOutput] = field(default_factory=list)

    @property
    def n_sublayers(self) -> int:
        return len(self.layers_2d) + len(self.layers_3d)

    def to_json_obj(self) -> dict:
        """JSON form for ``geometry.dump_json``: C-contiguous float64, int64
        and bool arrays, which it encodes like their ``tolist()``."""
        floats = lambda a: np.ascontiguousarray(a, dtype=np.float64)

        def l3(o: Layer3DOutput) -> dict:
            return {"source": o.source, "boxes3d": floats(o.boxes3d), "logits": floats(o.logits)}

        def l2(o: Layer2DOutput) -> dict:
            return {
                "rows": np.ascontiguousarray(o.mapping.rows, dtype=np.int64),
                "camera_of_col": np.ascontiguousarray(o.mapping.camera_of_col, dtype=np.int64),
                "boxes2d": floats(o.boxes2d),
                "logits": floats(o.logits),
                "alphas": floats(o.alphas),
                "truncation": np.ascontiguousarray(o.truncation, dtype=bool),
            }

        return {
            "format": "mvdet-headoutputs/1",
            "layers_2d": [l2(o) for o in self.layers_2d],
            "layers_3d": [l3(o) for o in self.layers_3d],
            "agg_taps": [l3(o) for o in self.agg_taps],
        }


@dataclass
class MlpParams:
    """Two-layer perceptron weights."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def seeded(cls, c_in: int, hidden: int, c_out: int, rng: np.random.Generator) -> "MlpParams":
        bound = 1.0 / math.sqrt(c_in)
        return cls(
            w1=rng.uniform(-bound, bound, size=(c_in, hidden)),
            b1=rng.uniform(-bound, bound, size=hidden),
            w2=rng.uniform(-bound, bound, size=(hidden, c_out)),
            b2=rng.uniform(-bound, bound, size=c_out),
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x @ self.w1 + self.b1, 0.0) @ self.w2 + self.b2


def wrap_yaw(theta: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    out = np.remainder(np.asarray(theta, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


@dataclass
class _Layer2DParams:
    temporal: AttentionParams
    self_attn: AttentionParams
    cross: CrossAttentionParams
    head2d: MlpParams
    gate: GateParams
    agg_attn: AttentionParams
    agg_head3d: MlpParams


@dataclass
class _Layer3DParams:
    temporal: AttentionParams
    self_attn: AttentionParams
    cross: CrossAttentionParams
    head3d: MlpParams


class HybridDecoder:
    """Seeded decoder over a fixed rig.

    Parameters are drawn in a fixed documented order from one generator, so
    construction is deterministic and independent of the rig (heads and
    attention weights are shared across camera groups).
    """

    def __init__(self, config: DecoderConfig, rig: Sequence[CameraView]):
        if len(rig) == 0:
            raise ValueError("empty rig")
        self.config = config
        self.rig = list(rig)
        self.view_ids = np.array([view.view_id for view in self.rig])
        rng = np.random.default_rng(config.seed)
        c, h = config.channels, config.heads
        cf, ns, k = config.feature_channels, config.n_scales, config.n_classes
        self.layers_2d: list[list[_Layer2DParams]] = []
        self.layers_3d: list[list[_Layer3DParams]] = []
        for _ in range(config.l_hybrid):
            p2, p3 = [], []
            for _ in range(config.l_2d):
                p2.append(
                    _Layer2DParams(
                        temporal=AttentionParams.seeded(c, h, rng),
                        self_attn=AttentionParams.seeded(c, h, rng),
                        cross=CrossAttentionParams.seeded(cf, c, ns, rng),
                        head2d=MlpParams.seeded(c, c, 4 + k + 2, rng),
                        gate=GateParams.seeded(c, c, rng),
                        agg_attn=AttentionParams.seeded(c, h, rng),
                        agg_head3d=MlpParams.seeded(c, c, 7 + k, rng),
                    )
                )
            for _ in range(config.l_3d):
                p3.append(
                    _Layer3DParams(
                        temporal=AttentionParams.seeded(c, h, rng),
                        self_attn=AttentionParams.seeded(c, h, rng),
                        cross=CrossAttentionParams.seeded(cf, c, ns, rng),
                        head3d=MlpParams.seeded(c, c, 7 + k, rng),
                    )
                )
            self.layers_2d.append(p2)
            self.layers_3d.append(p3)

    def initial_queries(self, rng_seed: Optional[int] = None) -> QuerySet:
        """Seeded initial query set: anchors spread over the BEV square of
        half-width BEV_RANGE, uniform features."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed if rng_seed is None else rng_seed)
        bound = 1.0 / math.sqrt(cfg.channels)
        feats = rng.uniform(-bound, bound, size=(cfg.n_queries, cfg.channels))
        anchors = np.zeros((cfg.n_queries, 9))
        anchors[:, 0] = rng.uniform(-BEV_RANGE, BEV_RANGE, cfg.n_queries)
        anchors[:, 1] = rng.uniform(-BEV_RANGE, BEV_RANGE, cfg.n_queries)
        anchors[:, 2] = rng.uniform(0.2, 1.2, cfg.n_queries)
        anchors[:, 3] = rng.uniform(0.6, 2.2, cfg.n_queries)
        anchors[:, 4] = rng.uniform(0.6, 5.0, cfg.n_queries)
        anchors[:, 5] = rng.uniform(0.5, 2.0, cfg.n_queries)
        anchors[:, 6] = rng.uniform(-np.pi, np.pi, cfg.n_queries)
        return QuerySet(features=feats, anchors=anchors)

    def _refine_anchors(self, anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        out = anchors.copy()
        out[:, 0:3] = out[:, 0:3] + deltas[:, 0:3]
        out[:, 3:6] = np.maximum(out[:, 3:6] + deltas[:, 3:6], MIN_BOX_SIZE)
        out[:, 6] = wrap_yaw(out[:, 6] + deltas[:, 6])
        return out

    def _cross_attention_3d(
        self,
        q3: np.ndarray,
        anchors: np.ndarray,
        features: RigFeatures,
        params: CrossAttentionParams,
    ) -> np.ndarray:
        """Anchor centers sample every view they fall into; mean over views,
        each anchor's samples summed in rig order."""
        n = q3.shape[0]
        uv, _, inside = project_views(self.rig, anchors[:, 0:3])
        vi, ai = np.nonzero(inside)  # view-major, an anchor at most once per view
        samples = sample_views(features, self.view_ids[vi], uv[vi, ai], params)
        acc = np.zeros((n, params.w_proj.shape[0]))
        bounds = np.searchsorted(vi, np.arange(len(self.rig) + 1))
        for s, e in zip(bounds[:-1], bounds[1:]):  # one view at a time keeps the rig order
            acc[ai[s:e]] += samples[s:e]
        cnt = np.bincount(ai, minlength=n)[:, None]
        np.divide(acc, cnt, out=acc, where=cnt > 0)
        return acc @ params.w_proj

    def _open_2d(self, p: _Layer2DParams, q3, anchors, temporal) -> Prefix:
        """A 2D sub-layer up to its first feature read: temporal attention,
        clamp, allocate, gather and the group self-attention."""
        if temporal is not None and temporal.n > 0:
            q3 = q3 + attention(q3, p.temporal, kv=temporal.features)
        anchors = clamp_anchors(anchors, self.config.limits)
        alloc = allocate(anchors, self.rig, self.config.limits)
        q2 = gather_2d(alloc.mapping, q3)
        if alloc.mapping.n_2d:
            q2 = q2 + attention(q2, p.self_attn, groups=alloc.mapping.camera_of_col)
        return Prefix(q3=q3, anchors=anchors, alloc=alloc, q2=q2)

    def _open_3d(self, p: _Layer3DParams, q3, anchors, temporal) -> Prefix:
        """A 3D sub-layer up to its first feature read: temporal attention
        and the self-attention."""
        if temporal is not None and temporal.n > 0:
            q3 = q3 + attention(q3, p.temporal, kv=temporal.features)
        q3 = q3 + attention(q3, p.self_attn)
        return Prefix(q3=q3, anchors=anchors)

    def _check_queries(self, queries: QuerySet) -> None:
        if queries.n != self.config.n_queries:
            raise ValueError(
                f"query set has {queries.n} rows, config expects {self.config.n_queries}"
            )

    def prefix(self, queries: QuerySet) -> Prefix:
        """Layer 0 of ``forward`` without temporal queries, up to its first
        feature read: it depends on the queries alone, so a run over many
        scenes computes it once.  A 2D first sub-layer covers clamp,
        allocate, gather and group self-attention; a 3D one covers its
        self-attention."""
        self._check_queries(queries)
        q3 = np.asarray(queries.features, dtype=np.float64).copy()
        anchors = queries.anchors.copy()
        if self.config.l_2d:
            return self._open_2d(self.layers_2d[0][0], q3, anchors, None)
        return self._open_3d(self.layers_3d[0][0], q3, anchors, None)

    def forward(
        self,
        features: RigFeatures,
        queries: QuerySet,
        temporal: Optional[QuerySet] = None,
        prefix: Optional[Prefix] = None,
    ) -> tuple[HeadOutputs, QuerySet]:
        """Run every hybrid layer; returns head outputs and updated queries.

        The allocation mapping is recomputed inside every 2D sub-layer
        (anchors may have been refined since the previous one).  With
        ``prefix``, which must be ``self.prefix(queries)``, layer 0 starts
        from it, bit for bit as without it; it excludes temporal queries.
        Nothing here writes into the arrays of ``queries`` or ``prefix``.
        """
        cfg = self.config
        self._check_queries(queries)
        if prefix is not None and temporal is not None and temporal.n > 0:
            raise ValueError("a prefix holds no temporal attention; got both")
        features.rows(self.view_ids, cfg.n_scales)  # every view has all its maps
        q3 = np.asarray(queries.features, dtype=np.float64).copy()
        anchors = queries.anchors.copy()
        out = HeadOutputs()
        last_logits = None
        for li in range(cfg.l_hybrid):
            for p in self.layers_2d[li]:
                o = prefix if prefix is not None else self._open_2d(p, q3, anchors, temporal)
                prefix = None
                q3, anchors, alloc, q2 = o.q3, o.anchors, o.alloc, o.q2
                if alloc.mapping.n_2d:
                    q2 = q2 + ref_point_cross_attention(
                        q2, alloc.ref_points, features, alloc.mapping.camera_of_col, p.cross,
                    )
                raw = p.head2d.apply(q2)
                boxes2d = alloc.rects + raw[:, 0:4]
                boxes2d[:, 2:4] = np.maximum(boxes2d[:, 2:4], 0.0)
                out.layers_2d.append(
                    Layer2DOutput(
                        mapping=alloc.mapping,
                        ref_points=alloc.ref_points,
                        truncation=alloc.truncation,
                        boxes2d=boxes2d,
                        logits=raw[:, 4 : 4 + cfg.n_classes],
                        alphas=raw[:, 4 + cfg.n_classes :],
                    )
                )
                q2g = gate_truncation(q2, alloc.truncation, p.gate)
                q3 = aggregate(q3, q2g, alloc.mapping, p.agg_attn)
                tap = p.agg_head3d.apply(q3)
                anchors = self._refine_anchors(anchors, tap[:, 0:7])
                logits = tap[:, 7:]
                out.agg_taps.append(
                    Layer3DOutput(boxes3d=anchors.copy(), logits=logits, source="agg")
                )
                last_logits = logits
            for p in self.layers_3d[li]:
                o = prefix if prefix is not None else self._open_3d(p, q3, anchors, temporal)
                prefix = None
                q3 = o.q3 + self._cross_attention_3d(o.q3, anchors, features, p.cross)
                raw = p.head3d.apply(q3)
                anchors = self._refine_anchors(anchors, raw[:, 0:7])
                logits = raw[:, 7:]
                out.layers_3d.append(
                    Layer3DOutput(boxes3d=anchors.copy(), logits=logits, source="3d")
                )
                last_logits = logits
        scores = None
        if last_logits is not None:
            scores = sigmoid(last_logits.max(axis=1))
        updated = QuerySet(features=q3, anchors=anchors, scores=scores)
        return out, updated


def propagate_topk(queries: QuerySet, k: int) -> QuerySet:
    """Keep the K best-scored queries as next-frame temporal queries.

    Rows are ordered by descending score; ties keep the lower index first.
    Requires scores; raises when k exceeds the query count.
    """
    if queries.scores is None:
        raise ValueError("propagate_topk requires scores")
    n = queries.n
    if k > n:
        raise ValueError(f"k={k} exceeds query count {n}")
    order = np.lexsort((np.arange(n), -queries.scores))[:k]
    return QuerySet(
        features=queries.features[order].copy(),
        anchors=queries.anchors[order].copy(),
        scores=queries.scores[order].copy(),
    )
