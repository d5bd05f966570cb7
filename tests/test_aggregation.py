import math

import numpy as np
import pytest

from mvdet.aggregation import GateParams, aggregate, gate_truncation, gate_values, sigmoid
from mvdet.allocation import MappingMatrix, scatter_mean
from mvdet.groupattn import AttentionParams, attention

from conftest import to_dense


def mapping_of(rows, n_3d, cams=None):
    rows = np.asarray(rows, dtype=np.intp)
    cams = np.zeros(len(rows), dtype=np.intp) if cams is None else np.asarray(cams)
    return MappingMatrix(n_3d=n_3d, n_2d=len(rows), rows=rows, camera_of_col=cams)


def constant_gate(channels: int, hidden: int, value: float) -> GateParams:
    """Parameters forcing the gate to a constant (0.5 exact at value=0.5;
    values >= 1 or <= 0 saturate the sigmoid)."""
    if value >= 1.0:
        b2 = 50.0
    elif value <= 0.0:
        b2 = -800.0
    else:
        b2 = math.log(value / (1.0 - value))
    return GateParams(w1=np.zeros((channels + 1, hidden)), b1=np.zeros(hidden),
                      w2=np.zeros((hidden, channels)), b2=np.full(channels, b2))


def test_saturated_gate_is_identity():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((6, 8))
    trunc = np.array([True, False, True, True, False, True])
    params = constant_gate(8, 8, 1.0)
    assert np.array_equal(gate_truncation(q, trunc, params), q)


def test_half_gate_halves():
    rng = np.random.default_rng(1)
    q = rng.standard_normal((4, 8))
    params = constant_gate(8, 8, 0.5)
    assert np.array_equal(gate_truncation(q, np.ones(4, bool), params), q / 2.0)


def test_truncation_flag_changes_gate():
    rng = np.random.default_rng(2)
    c = 8
    params = GateParams.seeded(c, c, rng)
    row = rng.standard_normal(c)
    q = np.stack([row, row])
    out = gate_values(q, np.array([True, False]), params)
    assert not np.allclose(out[0], out[1])
    # hand-rolled perceptron reference
    for r, flag in ((0, 1.0), (1, 0.0)):
        z = np.concatenate([row, [flag]])
        hidden = np.maximum(z @ params.w1 + params.b1, 0.0)
        t = hidden @ params.w2 + params.b2
        want = 1.0 / (1.0 + np.exp(-t))
        assert np.abs(out[r] - want).max() <= 1e-12


def test_nonfinite_gate_params_rejected():
    with pytest.raises(ValueError):
        GateParams(w1=np.full((3, 2), np.inf), b1=np.zeros(2),
                   w2=np.zeros((2, 2)), b2=np.zeros(2))


def test_gate_range():
    rng = np.random.default_rng(3)
    params = GateParams.seeded(4, 4, rng)
    g = gate_values(rng.standard_normal((30, 4)), rng.uniform(size=30) > 0.5, params)
    assert np.all(g > 0.0) and np.all(g < 1.0)


def test_aggregate_empty_mapping_is_plain_self_attention():
    rng = np.random.default_rng(4)
    q3 = rng.standard_normal((5, 8))
    m = mapping_of([], n_3d=5)
    attn = AttentionParams.seeded(8, 2, np.random.default_rng(9))
    out = aggregate(q3, np.zeros((0, 8)), m, attn)
    # the aggregate attends in float32
    want = attention(q3.astype(np.float32), attn, groups=np.zeros(5, dtype=int))
    assert np.array_equal(out, want)


def test_identity_gate_single_view_doubles_before_attention():
    rng = np.random.default_rng(5)
    q3 = rng.standard_normal((1, 8))
    m = mapping_of([0], n_3d=1)
    q2 = q3.copy()  # identity 2D processing, gate == 1
    fused = scatter_mean(m, q2)
    assert np.array_equal(fused, q3)
    assert np.array_equal(q3 + fused, 2.0 * q3)


def test_fusion_matches_dense_reference():
    rng = np.random.default_rng(6)
    n, m_cols, c = 8, 13, 4
    rows = rng.integers(0, n, size=m_cols)
    m = mapping_of(rows, n_3d=n)
    q3 = rng.standard_normal((n, c))
    q2 = rng.standard_normal((m_cols, c))
    t = to_dense(m)
    colsum = t.sum(axis=1)
    dense = np.zeros((n, c))
    owned = colsum > 0
    dense[owned] = (t @ q2)[owned] / colsum[owned, None]
    pre = q3 + scatter_mean(m, q2)
    assert np.abs(pre - (q3 + dense)).max() <= 1e-12


def test_column_permutation_within_group_invariance():
    rng = np.random.default_rng(7)
    n, c = 6, 8
    rows = np.array([0, 0, 0, 2, 2, 5], dtype=np.intp)
    m = mapping_of(rows, n_3d=n)
    q3 = rng.standard_normal((n, c))
    q2 = rng.standard_normal((len(rows), c))
    attn = AttentionParams.seeded(c, 2, np.random.default_rng(8))
    base = aggregate(q3, q2, m, attn)
    perm = np.array([2, 0, 1, 4, 3, 5])
    m_perm = mapping_of(rows[perm], n_3d=n)
    out = aggregate(q3, q2[perm], m_perm, attn)
    assert np.abs(base - out).max() <= 1e-12


def test_aggregate_shape_mismatch():
    m = mapping_of([0], n_3d=2)
    attn = AttentionParams.seeded(4, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        aggregate(np.zeros((3, 4)), np.zeros((1, 4)), m, attn)


def two_branch_sigmoid(t):
    """1 / (1 + exp(-t)) where t >= 0, exp(t) / (1 + exp(t)) elsewhere."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_its_two_branch_form():
    # bit for bit over both signs, both zeros, subnormal, saturating values and NaN
    rng = np.random.default_rng(9)
    t = np.concatenate([rng.standard_normal(1000) * 30, [0.0, -0.0, 5e-324, -5e-324, 709.0,
                                                          -745.0, 800.0, -800.0, np.nan]])
    got = sigmoid(t)
    assert got.dtype == np.float64
    assert np.array_equal(got, two_branch_sigmoid(t), equal_nan=True)
    assert sigmoid(t[:0]).shape == (0,)
