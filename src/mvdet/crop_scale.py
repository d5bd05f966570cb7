"""Crop-and-scale view derivation for long-range perception.

Cropping a region of a source camera's image and rescaling it to the model
input size is equivalent to a new pinhole camera with scaled focal lengths
and a shifted principal point; that derived camera is appended to the rig
and treated like any other view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    CameraView, integer, load_json, load_rig, naming_file, real, reject_unknown_keys,
)

PLACEMENTS = ("centered-on-focal", "left-aligned-horizon", "right-aligned-horizon")


@dataclass(frozen=True)
class CropRule:
    """How to derive one long-range view from a source camera.

    The crop covers 1/scale_rate of the source field vertically; its aspect
    ratio is fixed to the output aspect (out_width / out_height), so the
    horizontal coverage equals 1/scale_rate whenever source and output
    aspects agree.  ``None`` output dimensions inherit the source size;
    others must be positive integers.
    """

    source_view_id: int
    placement: str = "centered-on-focal"
    scale_rate: float = 2.0
    out_width: Optional[int] = None
    out_height: Optional[int] = None

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of {PLACEMENTS}"
            )
        if not (math.isfinite(self.scale_rate) and self.scale_rate > 1.0):
            raise ValueError(f"scale_rate must be finite and > 1, got {self.scale_rate}")
        for name in ("out_width", "out_height"):
            size = getattr(self, name)
            if size is not None and not (isinstance(size, (int, np.integer))
                                         and not isinstance(size, bool) and size > 0):
                raise ValueError(f"{name} must be a positive integer, got {size!r}")

    def to_json_obj(self) -> dict:
        """Every field, leaving out output sizes inherited from the source."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CropRule":
        """Rule from a JSON dict; raises on a key that is not a field, and an
        absent key takes its field's default."""
        reject_unknown_keys(obj, {f.name for f in fields(cls)}, "crop rule")
        rule = {**obj, "source_view_id": integer(obj["source_view_id"], "source_view_id")}
        if "scale_rate" in obj:
            rule["scale_rate"] = real(obj["scale_rate"], "scale_rate")
        return cls(**rule)


@dataclass(frozen=True)
class PixelMap:
    """Affine source-to-derived pixel mapping: u' = s (u - ox), v' = s (v - oy)."""

    scale: float
    ox: float
    oy: float

    def apply(self, uv: np.ndarray) -> np.ndarray:
        uv = np.asarray(uv, dtype=np.float64)
        out = np.empty_like(uv)
        out[..., 0] = self.scale * (uv[..., 0] - self.ox)
        out[..., 1] = self.scale * (uv[..., 1] - self.oy)
        return out


def derive_view(
    original: CameraView, rule: CropRule, new_view_id: int
) -> tuple[CameraView, PixelMap]:
    """Derive a zoomed long-range view from a source camera.

    The focal region is the source principal point.  Crop origin depends on
    the placement: centered on the principal point, or flush with the left
    or right image edge with the crop's vertical center on the horizon row
    (the principal point's v).  Derived intrinsics: fx' = s fx, fy' = s fy,
    cx' = s (cx - ox), cy' = s (cy - oy) with s the crop-to-output scale.
    The derived view has id ``new_view_id``.  Raises when the crop does
    not fit inside the source image.
    """
    w_o, h_o = float(original.width), float(original.height)
    out_w = rule.out_width if rule.out_width is not None else original.width
    out_h = rule.out_height if rule.out_height is not None else original.height
    h_c = h_o / rule.scale_rate
    w_c = h_c * (out_w / out_h)
    if w_c > w_o + 1e-9 or h_c > h_o + 1e-9:
        raise ValueError(
            f"crop {w_c:.1f}x{h_c:.1f} exceeds source image {w_o:.0f}x{h_o:.0f}"
        )

    cx, cy = original.cx, original.cy
    oy = cy - 0.5 * h_c
    if rule.placement == "centered-on-focal":
        ox = cx - 0.5 * w_c
    elif rule.placement == "left-aligned-horizon":
        ox = 0.0
    else:  # right-aligned-horizon
        ox = w_o - w_c
    if ox < -1e-9 or oy < -1e-9 or ox + w_c > w_o + 1e-9 or oy + h_c > h_o + 1e-9:
        raise ValueError(
            f"crop origin ({ox:.1f}, {oy:.1f}) size {w_c:.1f}x{h_c:.1f} "
            f"leaves source image {w_o:.0f}x{h_o:.0f}"
        )

    s = out_w / w_c
    k = np.array(
        [
            [s * original.fx, 0.0, s * (cx - ox)],
            [0.0, s * original.fy, s * (cy - oy)],
            [0.0, 0.0, 1.0],
        ]
    )
    view = CameraView(
        view_id=new_view_id,
        intrinsics=k,
        extrinsic=original.extrinsic.copy(),
        width=int(out_w),
        height=int(out_h),
        derived=True,
    )
    return view, PixelMap(scale=s, ox=ox, oy=oy)


def extend_rig(
    rig: Sequence[CameraView], rules: Sequence[CropRule]
) -> list[CameraView]:
    """Append one derived view per rule; |rig'| = |rig| + |rules|.

    Derived views get fresh sequential ids above the existing maximum and
    are ordinary cameras afterwards (allocation forms new groups for them).
    Raises on rules referencing unknown views or two rules with the same
    source.
    """
    by_id = {v.view_id: v for v in rig}
    seen = set()
    for rule in rules:
        if rule.source_view_id not in by_id:
            raise ValueError(f"rule references unknown view {rule.source_view_id}")
        if rule.source_view_id in seen:
            raise ValueError(f"duplicate crop rule for view {rule.source_view_id}")
        seen.add(rule.source_view_id)
    out = list(rig)
    next_id = max(by_id) + 1 if by_id else 0
    for rule in rules:
        view, _ = derive_view(by_id[rule.source_view_id], rule, next_id)
        out.append(view)
        next_id += 1
    return out


def load_crop_rules(path: str | Path) -> list[CropRule]:
    """Read the derived_views rules of a rig JSON file (may be absent)."""
    with naming_file(path):
        return [CropRule.from_json_obj(r) for r in load_json(path).get("derived_views", [])]


def load_extended_rig(path: str | Path) -> list[CameraView]:
    """Read a rig JSON file and apply its derived_views rules."""
    return extend_rig(load_rig(path), load_crop_rules(path))
