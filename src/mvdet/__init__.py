"""mvdet: desk-scale multi-camera 2D/3D detection core.

Library + CLI implementing dynamic 3D-to-2D query allocation, query-group
attention, adaptive aggregation, crop-and-scale view derivation,
propagating denoising, the detection loss formulas and the association
(AAR/Recall) metric, verified against geometric and combinatorial oracles
on synthetic multi-camera scenes.
"""

from .geometry import (
    Boxes2D,
    CameraView,
    load_rig,
    make_surround_rig,
    project_point,
    save_rig,
)
from .allocation import (
    AllocationLimits,
    AllocationResult,
    MappingMatrix,
    allocate,
    clamp_anchors,
    gather_2d,
    scatter_mean,
)
from .groupattn import (
    AttentionParams,
    RigFeatures,
    attention,
    build_mask,
    ref_point_cross_attention,
)
from .aggregation import GateParams, aggregate, gate_truncation
from .crop_scale import CropRule, derive_view, extend_rig
from .decoder import (
    PRESETS,
    DecoderConfig,
    HeadOutputs,
    HybridDecoder,
    QuerySet,
)
from .denoising import (
    DenoiseLayout,
    NoiseConfig,
    allocate_noise,
    denoise_groups,
    make_noisy_anchors,
    restore_3d,
)
from .metrics import (
    AARResult,
    Detections,
    LossWeights,
    MatchParams,
    aar,
    ap_2d,
    hungarian,
    loss_2d,
    loss_alpha,
    loss_total,
    match_2d_per_camera,
)
from .simulator import OracleNoise, Scene, perturb, render_depths, render_features, sample_scene

__version__ = "0.1.0"
# The kernels have one NumPy implementation; benchmark environment records still read this.
BACKEND = "python"
