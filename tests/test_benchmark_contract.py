"""The parts of the package that the benchmark in perfbench/ reads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import mvdet._kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_env_probe_records_python_backend(perfbench):
    import run

    probe = subprocess.run([sys.executable, "-c", run.ENV_PROBE], cwd=run.ROOT,
                           env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout)["backend"] == "python"


def test_kernels_expose_traced_names(perfbench):
    import traced_run

    names = {attr for _, module, attr, _ in traced_run.FUNCTIONS if module == "mvdet._kernels"}
    assert names == {"project_points", "box_points", "bilinear_sample", "iou_matrix"}
    for name in names:
        assert callable(getattr(mvdet._kernels, name))
