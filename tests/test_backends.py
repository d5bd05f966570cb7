"""Compiled-vs-NumPy kernel equivalence.

Both backends are written to evaluate every formula in the same
floating-point order (the extension builds with -ffp-contract=off), so
outputs must agree bit for bit, not just within tolerance.
"""

import numpy as np
import pytest

from mvdet._kernels import _ref

core = pytest.importorskip(
    "mvdet._kernels._core", reason="compiled kernel extension not built"
)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_project_points_bitwise(rng):
    for _ in range(20):
        pts = rng.uniform(-80, 80, size=(500, 3))
        rot = random_rotation(rng)
        trans = rng.uniform(-3, 3, 3)
        args = (pts, rot, trans, rng.uniform(100, 900), rng.uniform(100, 900),
                rng.uniform(0, 700), rng.uniform(0, 250), 1e-3)
        uv_a, f_a = _ref.project_points(*args)
        uv_b, f_b = core.project_points(*args)
        assert np.array_equal(f_a, f_b)
        assert np.array_equal(uv_a[f_a], uv_b[f_b])
        assert np.all(np.isnan(uv_b[~f_b]))


def test_box_points_bitwise(rng):
    anchors = np.zeros((300, 9))
    anchors[:, 0:3] = rng.uniform(-50, 50, size=(300, 3))
    anchors[:, 3:6] = rng.uniform(0.1, 10, size=(300, 3))
    anchors[:, 6] = rng.uniform(-np.pi, np.pi, 300)
    assert np.array_equal(_ref.box_points(anchors), core.box_points(anchors))


def test_bilinear_sample_bitwise(rng):
    for h, w, c in ((1, 1, 2), (1, 5, 3), (7, 1, 1), (16, 24, 4)):
        fmap = rng.standard_normal((h, w, c))
        pts = rng.uniform(-2, max(h, w) + 2, size=(200, 2))
        assert np.array_equal(_ref.bilinear_sample(fmap, pts),
                              core.bilinear_sample(fmap, pts))


def test_iou_matrix_bitwise(rng):
    a = np.column_stack([rng.uniform(-50, 50, (40, 2)), rng.uniform(0, 30, (40, 2))])
    b = np.column_stack([rng.uniform(-50, 50, (60, 2)), rng.uniform(0, 30, (60, 2))])
    assert np.array_equal(_ref.iou_matrix(a, b), core.iou_matrix(a, b))
    ident = _ref.iou_matrix(a, a)
    assert np.array_equal(ident, core.iou_matrix(a, a))
    assert np.all(np.diag(ident) == 1.0)


def test_backend_env_selection(tmp_path):
    import os
    import subprocess
    import sys

    code = "import mvdet; print(mvdet.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "MVDET_BACKEND": "python"},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "python"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "MVDET_BACKEND": "compiled"},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "compiled"
