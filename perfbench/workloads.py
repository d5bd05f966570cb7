"""The benchmark's workloads: run configs and the rig each one implies.

Each workload is an `mvdet run` config.  The benchmark's `--seed` becomes
the run's scene base seed (`mvdet run --seed`), so scene s of a run is
sampled from seed `base + s` and perturbed with seed `base + s + 1`; the
decoder weights keep their config seed.  `expected_rig` rebuilds the camera
rig from the config with this package's own formulas, so the output checks
never take camera matrices on trust from the program.
"""

from __future__ import annotations

import math

import numpy as np

# README run config, as written.
REF_F = {
    "preset": "F",
    "decoder": {"n_queries": 900, "channels": 64, "heads": 8, "seed": 0},
    "rig": None,
    "views": 6,
    "crop_rules": [
        {"source_view_id": 0, "placement": "centered-on-focal", "scale_rate": 2.0}
    ],
    "noise": {"drop_prob": 0.2, "jitter_px": 3.0, "jitter_m": 0.3},
    "seeds": {"base": 0, "scenes": 10},
    "boxes": 15,
    "tau_dis": 2.0,
    "tau_iou_sweep": "0.1:0.9:0.1",
}

WORKLOADS = {
    "ref-F": REF_F,
    # same rig, scenes and decoder width; plain 3D decoder (0/1/6)
    "plain3d-A": {**REF_F, "preset": "A"},
    # small decoder over many busier scenes, two crop views
    "many-scenes": {
        **REF_F,
        "decoder": {"n_queries": 64, "channels": 32, "heads": 4, "seed": 0},
        "crop_rules": [
            {"source_view_id": 0, "placement": "centered-on-focal", "scale_rate": 2.0},
            {"source_view_id": 3, "placement": "centered-on-focal", "scale_rate": 2.0},
        ],
        "seeds": {"base": 0, "scenes": 150},
        "boxes": 20,
    },
}

# (l_2d, l_3d, l_hybrid) per preset, from the paper's layer table.
PRESET_LAYERS = {
    "A": (0, 1, 6),
    "B": (1, 0, 6),
    "C": (2, 1, 2),
    "D": (1, 2, 2),
    "E": (3, 3, 1),
    "F": (1, 1, 3),
}


def scene_base(seed: int) -> int:
    """Scene base seed for a benchmark seed (NumPy seeds must be >= 0)."""
    return abs(int(seed)) % (2**31)


def expected_rig(cfg: dict) -> list[dict]:
    """Camera views of a workload as dicts with K (3x3), E (4x4), width, height.

    Base views form an evenly spaced surround rig: view i looks along ego
    yaw 2*pi*i/n from a 0.5 m circle at 1.5 m height, 500 px focal length,
    704 x 256 pixels, principal point at the image centre.  Each
    centered-on-focal crop rule appends a view with the source pose whose
    crop (1/scale_rate of the source height, output aspect) is centred on
    the source principal point and rescaled to the source size.
    """
    if cfg.get("rig"):
        raise ValueError("benchmark workloads use the built-in rig")
    n = int(cfg.get("views", 6))
    width, height, f = 704, 256, 500.0
    views = []
    for i in range(n):
        yaw = 2.0 * math.pi * i / n
        forward = np.array([math.cos(yaw), math.sin(yaw), 0.0])
        right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        rot = np.vstack([right, down, forward])
        position = np.array([0.5 * forward[0], 0.5 * forward[1], 1.5])
        ext = np.eye(4)
        ext[:3, :3] = rot
        ext[:3, 3] = -rot @ position
        k = np.array([[f, 0.0, width / 2.0], [0.0, f, height / 2.0], [0.0, 0.0, 1.0]])
        views.append({"view_id": i, "K": k, "E": ext, "width": width, "height": height})
    next_id = n
    for rule in cfg.get("crop_rules", []):
        if rule.get("placement") != "centered-on-focal":
            raise ValueError("benchmark workloads use centered-on-focal crops")
        src = views[int(rule["source_view_id"])]
        crop_h = src["height"] / float(rule["scale_rate"])
        crop_w = crop_h * src["width"] / src["height"]
        scale = src["width"] / crop_w
        k_src = src["K"]
        origin_u = k_src[0, 2] - 0.5 * crop_w
        origin_v = k_src[1, 2] - 0.5 * crop_h
        k = np.array([
            [scale * k_src[0, 0], 0.0, scale * (k_src[0, 2] - origin_u)],
            [0.0, scale * k_src[1, 1], scale * (k_src[1, 2] - origin_v)],
            [0.0, 0.0, 1.0],
        ])
        views.append({"view_id": next_id, "K": k, "E": src["E"].copy(),
                      "width": src["width"], "height": src["height"]})
        next_id += 1
    return views
