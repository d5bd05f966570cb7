"""Start-up: the command line's parser answers before the compute modules
load, and ``import mvdet`` resolves each public name on first use."""

import importlib
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import mvdet

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
VERSION = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]

# the public names of the package, by the submodule that defines each
PUBLIC = {
    "geometry": ["Boxes2D", "CameraView", "load_rig", "make_surround_rig", "project_point",
                 "save_rig"],
    "allocation": ["AllocationLimits", "AllocationResult", "MappingMatrix", "allocate",
                   "clamp_anchors", "gather_2d", "scatter_mean"],
    "groupattn": ["AttentionParams", "RigFeatures", "attention", "build_mask",
                  "ref_point_cross_attention"],
    "aggregation": ["GateParams", "aggregate", "gate_truncation"],
    "crop_scale": ["CropRule", "derive_view", "extend_rig"],
    "decoder": ["PRESETS", "DecoderConfig", "HeadOutputs", "HybridDecoder", "QuerySet"],
    "denoising": ["DenoiseLayout", "NoiseConfig", "allocate_noise", "denoise_groups",
                  "make_noisy_anchors", "restore_3d"],
    "metrics": ["AARResult", "Detections", "LossWeights", "MatchParams", "aar", "ap_2d",
                "hungarian", "loss_2d", "loss_alpha", "loss_total", "match_2d_per_camera"],
    "simulator": ["OracleNoise", "Scene", "perturb", "render_depths", "render_features",
                  "sample_scene"],
}


def python(*argv):
    """``python -X importtime argv`` on the source tree: the finished
    process and the names of the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc, names


def assert_light(names, entry="mvdet.entry"):
    assert entry in names  # the probe saw the imports
    assert not {n for n in names if n == "numpy" or n.startswith("numpy.")}
    assert not {n for n in names if n.startswith("mvdet.") and n != entry}


@pytest.mark.parametrize("argv, code, stdout", [
    (["--version"], 0, f"mvdet {VERSION}\n"),
    (["--help"], 0, "usage: mvdet [-h] [--version]"),
    (["run", "--help"], 0, "usage: mvdet run [-h] --config CONFIG"),
    (["run"], 2, ""),
], ids=["version", "help", "run_help", "run_without_config"])
def test_parser_answers_without_numpy(argv, code, stdout):
    proc, names = python("-m", "mvdet", *argv)
    assert proc.returncode == code, proc.stderr[-2000:]
    assert proc.stdout.startswith(stdout) and (stdout or not proc.stdout)
    if code == 2:
        assert proc.stderr.endswith(
            "mvdet run: error: the following arguments are required: --config\n")
    assert_light(names)


def test_console_script_is_the_stdlib_only_entry():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, func = scripts["mvdet"].split(":")
    assert (module, func) == ("mvdet.entry", "main")
    proc, names = python("-c", f"import sys; from {module} import {func}; "
                               f"sys.exit({func}(['--version']))")
    assert proc.returncode == 0 and proc.stdout == f"mvdet {VERSION}\n"
    assert_light(names, module)


def test_import_mvdet_leaves_numpy_out():
    code = ("import sys, mvdet; print('numpy' in sys.modules, mvdet.BACKEND); "
            "mvdet.CropRule; print(sorted(m for m in sys.modules if m.startswith('mvdet')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # a name loads its own module and what that imports, not the command line
    assert proc.stdout.splitlines() == [
        "False python", "['mvdet', 'mvdet._kernels', 'mvdet.crop_scale', 'mvdet.geometry']"]


def test_public_names_are_their_defining_modules_objects():
    assert sorted(mvdet.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"mvdet.{module}")
        for name in names:
            value = getattr(mvdet, name)
            assert value is vars(defining)[name], name
            assert getattr(value, "__module__", defining.__name__) == defining.__name__, name
        assert getattr(mvdet, module) is defining


def test_namespace_lists_and_star_imports_every_public_name():
    assert set(mvdet.__all__) <= set(dir(mvdet))
    assert {"__version__", "BACKEND"} <= set(dir(mvdet))
    namespace = {}
    exec("from mvdet import *", namespace)
    assert all(namespace[name] is getattr(mvdet, name) for name in mvdet.__all__)
    assert mvdet.__version__ == VERSION and mvdet.BACKEND == "python"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'mvdet' has no attribute 'no_such_name'"):
        mvdet.no_such_name  # noqa: B018
    assert not hasattr(mvdet, "_no_such_module")
