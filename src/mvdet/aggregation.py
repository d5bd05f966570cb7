"""Adaptive query aggregation: truncation gating, fusion and self-attention.

2D queries are rescaled by a gate conditioned on their center indicator,
averaged back onto their owning 3D queries through the mapping matrix, and
merged with the original 3D queries by a residual plus plain self-attention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import MappingMatrix, scatter_mean
from .groupattn import AttentionParams, attention


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow for either sign."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class GateParams:
    """Two-layer perceptron (C+1 -> hidden -> C) squashed into (0, 1)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, a)
            if not np.isfinite(a).all():
                raise ValueError(f"gate parameter {name} is not finite")

    @classmethod
    def seeded(cls, channels: int, hidden: int, rng: np.random.Generator) -> "GateParams":
        bound = 1.0 / math.sqrt(channels)
        return cls(
            w1=rng.uniform(-bound, bound, size=(channels + 1, hidden)),
            b1=rng.uniform(-bound, bound, size=hidden),
            w2=rng.uniform(-bound, bound, size=(hidden, channels)),
            b2=rng.uniform(-bound, bound, size=channels),
        )


def gate_values(q2d: np.ndarray, truncation: np.ndarray, params: GateParams) -> np.ndarray:
    """Gate in (0, 1) per 2D query row: MLP(concat(row, center indicator)).

    The indicator is 1 for a non-truncated column (anchor center inside the
    view) and 0 for a truncated one.
    """
    q2d = np.asarray(q2d, dtype=np.float64)
    truncation = np.asarray(truncation, dtype=bool).reshape(-1)
    if q2d.shape[0] != truncation.shape[0]:
        raise ValueError("q2d and truncation must agree in length")
    indicator = truncation.astype(np.float64)[:, None]
    z = np.concatenate([q2d, indicator], axis=1)
    hidden = np.maximum(z @ params.w1 + params.b1, 0.0)
    return sigmoid(hidden @ params.w2 + params.b2)


def gate_truncation(q2d: np.ndarray, truncation: np.ndarray, params: GateParams) -> np.ndarray:
    """Rescale 2D queries elementwise by their truncation-aware gate."""
    return q2d * gate_values(q2d, truncation, params)


def aggregate(
    q3d: np.ndarray,
    q2d_gated: np.ndarray,
    mapping: MappingMatrix,
    self_attn_params: AttentionParams,
    groups=None,
) -> np.ndarray:
    """Fuse gated 2D queries into the 3D queries.

    Mapping-mean fusion, residual add, then self-attention over the N 3D
    queries, which like every attention computes in float32 and returns
    float64: plain (unmasked), or within the groups of ``groups``, an
    integer id per 3D query (its scene, in a batch of scenes).  3D queries
    owning no 2D column contribute their original features unchanged into
    the attention.
    """
    q3d = np.asarray(q3d, dtype=np.float64)
    if q3d.shape[0] != mapping.n_3d:
        raise ValueError(f"q3d must have {mapping.n_3d} rows, got {q3d.shape[0]}")
    fused = scatter_mean(mapping, q2d_gated)
    return attention(q3d + fused, self_attn_params, groups=groups)
