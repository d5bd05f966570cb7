"""Hybrid decoder: interleaved multi-view 2D and 3D sub-layers.

Each hybrid layer runs its 2D sub-layers (allocate -> group attention ->
2D head -> gate -> aggregate, with a 3D deep-supervision tap) followed by
its 3D sub-layers (self-attention, reference-point sampling, 3D head).
Heads are toy two-layer perceptrons with additive anchor refinement; all
parameters come from one seeded initializer so a fixed seed and inputs give
bit-identical outputs.

The query state stays float64.  Every attention (the 2D group
self-attention and the two self-attentions over the N 3D queries)
computes in float32, as the paper's PyTorch model does by default,
through groupattn's row-blocked body; reference-point sampling stays
float64.  Every pass starts from the decoder's own initial queries
(``HybridDecoder.initial_queries``), so layer 0 up to its first feature
read depends on the decoder alone: ``HybridDecoder.prefix`` computes it
once for one scene, and ``forward_scenes`` tiles it over its scenes,
given or computed.  ``forward_scenes`` decodes a batch of scenes in one
pass, with each scene's rows kept to their own groups and its 2D columns
through a head and gate call of their own, so its outputs do not depend
on its batch; ``forward`` is its one-scene call.
``HeadOutputs.to_json_obj`` hands the head outputs to the JSON writer as
NumPy arrays, never as lists.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .aggregation import GateParams, aggregate, gate_truncation, sigmoid
from .allocation import (
    AllocationLimits, AllocationResult, MappingMatrix, allocate, clamp_anchors, gather_2d,
)
from .geometry import (
    CameraView, anchors_to_array, check_seed, integer, project_rig, project_views,
)
from .groupattn import (
    AttentionParams,
    CrossAttentionParams,
    RigFeatures,
    attention,
    ref_point_cross_attention,
    sample_views,
    scene_view_ids,
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
        for f in fields(self):
            if f.name != "limits":  # every other field is an integer
                object.__setattr__(self, f.name, integer(getattr(self, f.name), f.name))
        if self.n_queries <= 0:
            raise ValueError("n_queries must be positive")
        if self.l_2d < 0 or self.l_3d < 0 or self.l_hybrid < 1:
            raise ValueError("layer counts must be non-negative, l_hybrid >= 1")
        if self.l_2d + self.l_3d == 0:
            raise ValueError("at least one sub-layer per hybrid layer")
        for name in ("heads", "channels", "n_classes", "feature_channels", "n_scales"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        check_seed(self.seed, "seed")
        if self.channels % self.heads:
            raise ValueError("channels must be divisible by heads")

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "DecoderConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
        l_2d, l_3d, l_hybrid = PRESETS[name]
        return cls(l_2d=l_2d, l_3d=l_3d, l_hybrid=l_hybrid, **overrides)

    def to_json_obj(self) -> dict:
        """Every field but ``limits``, then every field of ``limits``."""
        obj = asdict(self)
        obj.update(obj.pop("limits"))
        obj["size_clamp"] = list(obj["size_clamp"])
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DecoderConfig":
        """Config from ``to_json_obj``'s keys and "preset", each optional: an
        absent key takes its field's default, and explicit l_2d / l_3d /
        l_hybrid entries must agree with a "preset" other than null."""
        obj = dict(obj)
        preset = obj.pop("preset", None)
        limits = AllocationLimits(
            **{f.name: obj.pop(f.name) for f in fields(AllocationLimits) if f.name in obj})
        if preset is None:
            return cls(limits=limits, **obj)
        layers = {k: obj.pop(k) for k in ("l_2d", "l_3d", "l_hybrid") if k in obj}
        config = cls.from_preset(preset, limits=limits, **obj)
        for k, v in layers.items():
            if integer(v, k) != getattr(config, k):
                raise ValueError(f"preset {preset!r} has {k} {getattr(config, k)}, not {v!r}")
        return config


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
    """A sub-layer of S scenes up to its first feature read
    (``HybridDecoder.prefix`` is layer 0's for one scene): the query state
    there, plus, when the sub-layer is 2D, each scene's allocation, their
    columns stacked, and the group-attended 2D queries."""

    q3: np.ndarray                           # (S * N, C) 3D query features
    anchors: np.ndarray                      # (S * N, 9), clamped in a 2D sub-layer
    alloc: Optional[AllocationResult] = None
    q2: Optional[np.ndarray] = None          # (M, C)
    allocs: tuple[AllocationResult, ...] = ()


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
    self_attn: AttentionParams
    cross: CrossAttentionParams
    head2d: MlpParams
    gate: GateParams
    agg_attn: AttentionParams
    agg_head3d: MlpParams


@dataclass
class _Layer3DParams:
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
        """Anchor centers sample every view of their own scene (row i is in
        scene i // n_queries) they fall into; mean over views, each anchor's
        samples summed in rig order."""
        n = q3.shape[0]
        uv, _, inside = project_views(self.rig, anchors[:, 0:3])
        vi, ai = np.nonzero(inside)  # view-major, an anchor at most once per view
        ids = scene_view_ids(ai // self.config.n_queries, self.view_ids[vi], self.view_ids)
        samples = sample_views(features, ids, uv[vi, ai], params)
        acc = np.zeros((n, params.w_proj.shape[0]))
        bounds = np.searchsorted(vi, np.arange(len(self.rig) + 1))
        for s, e in zip(bounds[:-1], bounds[1:]):  # one view at a time keeps the rig order
            acc[ai[s:e]] += samples[s:e]
        cnt = np.bincount(ai, minlength=n)[:, None]
        np.divide(acc, cnt, out=acc, where=cnt > 0)
        return acc @ params.w_proj

    def _stack(self, allocs: list[AllocationResult]) -> AllocationResult:
        """The columns of a batch: scene j's after scene j - 1's, their rows
        offset by j * n_queries and their cameras composed with the scene
        (``scene_view_ids``)."""
        scene = np.repeat(np.arange(len(allocs)), [a.mapping.n_2d for a in allocs])
        cat = lambda arrays: np.concatenate(list(arrays))
        return AllocationResult(
            mapping=MappingMatrix(
                n_3d=len(allocs) * self.config.n_queries, n_2d=scene.size,
                rows=scene * self.config.n_queries + cat(a.mapping.rows for a in allocs),
                camera_of_col=scene_view_ids(
                    scene, cat(a.mapping.camera_of_col for a in allocs), self.view_ids),
            ),
            ref_points=cat(a.ref_points for a in allocs),
            truncation=cat(a.truncation for a in allocs),
            rects=cat(a.rects for a in allocs),
        )

    def _open_2d(self, p: _Layer2DParams, q3, anchors, n_scenes: int):
        """A 2D sub-layer of n_scenes scenes up to its first feature read:
        clamp, one projection of every anchor, one allocation per scene,
        gather and the group self-attention over (scene, camera) groups."""
        anchors = clamp_anchors(anchors, self.config.limits)
        proj, n = project_rig(self.rig, anchors), self.config.n_queries
        allocs = [
            allocate(anchors[j * n : (j + 1) * n], self.rig, self.config.limits,
                     proj.anchors(j * n, (j + 1) * n))
            for j in range(n_scenes)
        ]
        alloc = self._stack(allocs)
        q2 = gather_2d(alloc.mapping, q3)
        if alloc.mapping.n_2d:
            q2 = q2 + attention(q2, p.self_attn, groups=alloc.mapping.camera_of_col)
        return Prefix(q3=q3, anchors=anchors, alloc=alloc, q2=q2, allocs=tuple(allocs))

    def _open_3d(self, p: _Layer3DParams, q3, anchors, scene: np.ndarray) -> Prefix:
        """A 3D sub-layer up to its first feature read: the self-attention
        within each scene (``scene``, one id per row)."""
        return Prefix(q3=q3 + attention(q3, p.self_attn, groups=scene), anchors=anchors)

    def _tile(self, prefix: Prefix, n_scenes: int) -> Prefix:
        """A one-scene ``prefix`` for each of n_scenes scenes."""
        tile = lambda a: None if a is None else np.tile(a, (n_scenes, 1))
        allocs = prefix.allocs * n_scenes
        return Prefix(q3=tile(prefix.q3), anchors=tile(prefix.anchors),
                      alloc=self._stack(allocs) if allocs else None, q2=tile(prefix.q2),
                      allocs=allocs)

    def prefix(self) -> Prefix:
        """Layer 0 of one scene up to its first feature read, from the
        initial queries: it depends on the decoder alone, so a run over many
        scenes computes it once.  A 2D first sub-layer covers clamp,
        allocate, gather and group self-attention; a 3D one covers its
        self-attention."""
        queries = self.initial_queries()
        if self.config.l_2d:
            return self._open_2d(self.layers_2d[0][0], queries.features, queries.anchors, 1)
        scene = np.zeros(queries.n, dtype=np.intp)
        return self._open_3d(self.layers_3d[0][0], queries.features, queries.anchors, scene)

    def forward(
        self, features: RigFeatures, prefix: Optional[Prefix] = None,
    ) -> tuple[HeadOutputs, QuerySet]:
        """Run every hybrid layer on one scene; returns head outputs and
        updated queries.  ``forward_scenes`` with one scene."""
        outs, updated = self.forward_scenes(features, 1, prefix)
        return outs[0], updated

    def forward_scenes(
        self, features: RigFeatures, n_scenes: int = 1, prefix: Optional[Prefix] = None,
    ) -> tuple[list[HeadOutputs], QuerySet]:
        """Run every hybrid layer on n_scenes scenes at once, each from the
        initial queries; returns each scene's head outputs and the updated
        queries of all of them (n_scenes * N rows, scene after scene).

        ``features`` holds every scene's maps, scene j's view v under the
        id ``scene_view_ids(j, v, rig ids)`` (a ``RigFeatures`` with
        ``n_scenes``).  Each scene keeps to its own rows: the 3D
        self-attentions and the aggregate attend within a scene, and each
        2D column carries its scene's composed camera id, for its group
        attention and reference-point sampling.  The allocation mapping is
        recomputed inside every 2D sub-layer (anchors may have been refined
        since the previous one), one allocation per scene over one
        projection of the batch.  The 2D head and the gate run once per
        scene, over its own columns: a product over the stacked columns
        would round a scene's rows by their offset in the batch.  Every
        scene's layer 0 starts from ``prefix``, ``self.prefix()`` when it is
        None, tiled; nothing here writes into its arrays.
        """
        cfg = self.config
        if n_scenes < 1:
            raise ValueError(f"n_scenes must be positive, got {n_scenes}")
        views = scene_view_ids(np.arange(n_scenes)[:, None], self.view_ids, self.view_ids)
        features.rows(views.reshape(-1), cfg.n_scales)  # every view has all its maps
        n, k = cfg.n_queries, cfg.n_classes
        scene = np.repeat(np.arange(n_scenes), n)
        rows = [slice(j * n, (j + 1) * n) for j in range(n_scenes)]
        opened = self._tile(prefix or self.prefix(), n_scenes)
        q3, anchors = opened.q3, opened.anchors
        outs = [HeadOutputs() for _ in range(n_scenes)]

        def emit_3d(layers: str, anchors, logits, source: str) -> None:
            for out, r in zip(outs, rows):
                getattr(out, layers).append(
                    Layer3DOutput(boxes3d=anchors[r].copy(), logits=logits[r], source=source))

        last_logits = None
        for li in range(cfg.l_hybrid):
            for p in self.layers_2d[li]:
                o = opened or self._open_2d(p, q3, anchors, n_scenes)
                opened = None
                q3, anchors, alloc, allocs, q2 = o.q3, o.anchors, o.alloc, o.allocs, o.q2
                if alloc.mapping.n_2d:
                    q2 = q2 + ref_point_cross_attention(
                        q2, alloc.ref_points, features, alloc.mapping.camera_of_col, p.cross,
                    )
                bounds = np.cumsum([0] + [a.mapping.n_2d for a in allocs]).tolist()
                cols = [slice(c0, c1) for c0, c1 in zip(bounds[:-1], bounds[1:])]
                raw = np.concatenate([p.head2d.apply(q2[c]) for c in cols])
                boxes2d = alloc.rects + raw[:, 0:4]
                boxes2d[:, 2:4] = np.maximum(boxes2d[:, 2:4], 0.0)
                for out, a, c in zip(outs, allocs, cols):
                    out.layers_2d.append(
                        Layer2DOutput(
                            mapping=a.mapping,
                            ref_points=a.ref_points,
                            truncation=a.truncation,
                            boxes2d=boxes2d[c],
                            logits=raw[c, 4 : 4 + k],
                            alphas=raw[c, 4 + k :],
                        )
                    )
                q2g = np.concatenate(
                    [gate_truncation(q2[c], a.truncation, p.gate) for a, c in zip(allocs, cols)])
                q3 = aggregate(q3, q2g, alloc.mapping, p.agg_attn, groups=scene)
                tap = p.agg_head3d.apply(q3)
                anchors = self._refine_anchors(anchors, tap[:, 0:7])
                last_logits = tap[:, 7:]
                emit_3d("agg_taps", anchors, last_logits, "agg")
            for p in self.layers_3d[li]:
                o = opened or self._open_3d(p, q3, anchors, scene)
                opened = None
                q3 = o.q3 + self._cross_attention_3d(o.q3, anchors, features, p.cross)
                raw = p.head3d.apply(q3)
                anchors = self._refine_anchors(anchors, raw[:, 0:7])
                last_logits = raw[:, 7:]
                emit_3d("layers_3d", anchors, last_logits, "3d")
        scores = sigmoid(last_logits.max(axis=1))  # every config has a sub-layer
        return outs, QuerySet(features=q3, anchors=anchors, scores=scores)

