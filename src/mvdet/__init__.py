"""mvdet: desk-scale multi-camera 2D/3D detection core.

Library + CLI implementing dynamic 3D-to-2D query allocation, query-group
attention, adaptive aggregation, crop-and-scale view derivation,
propagating denoising, the detection loss formulas and the association
(AAR/Recall) metric, verified against geometric and combinatorial oracles
on synthetic multi-camera scenes.

Each public name, and each submodule that defines one, is imported on
first use (PEP 562), so ``import mvdet`` and the command line's parser
load neither NumPy nor the compute modules.
"""

import importlib

__version__ = "0.1.0"
# The kernels have one NumPy implementation; benchmark environment records still read this.
BACKEND = "python"

# the public names, by the submodule that defines each
_EXPORTS = {
    "geometry": ("Boxes2D", "CameraView", "load_rig", "make_surround_rig", "project_point",
                 "save_rig"),
    "allocation": ("AllocationLimits", "AllocationResult", "MappingMatrix", "allocate",
                   "clamp_anchors", "gather_2d", "scatter_mean"),
    "groupattn": ("AttentionParams", "RigFeatures", "attention", "build_mask",
                  "ref_point_cross_attention"),
    "aggregation": ("GateParams", "aggregate", "gate_truncation"),
    "crop_scale": ("CropRule", "derive_view", "extend_rig"),
    "decoder": ("PRESETS", "DecoderConfig", "HeadOutputs", "HybridDecoder", "QuerySet"),
    "denoising": ("DenoiseLayout", "NoiseConfig", "allocate_noise", "denoise_groups",
                  "make_noisy_anchors", "restore_3d"),
    "metrics": ("AARResult", "Detections", "LossWeights", "MatchParams", "aar", "ap_2d",
                "hungarian", "loss_2d", "loss_alpha", "loss_total", "match_2d_per_camera"),
    "simulator": ("OracleNoise", "Scene", "perturb", "render_depths", "render_features",
                  "sample_scene"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
