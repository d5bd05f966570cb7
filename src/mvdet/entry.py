"""The `mvdet` command line: its parser and its entry point.

This module imports only the standard library, so `--version`, `--help`
and usage errors answer without loading NumPy or the compute modules.
`main` parses first and only then imports `mvdet.cli`, whose `cmd_*`
function of the same name runs the command.  A flag whose default lives in
a dataclass defaults to None here; the command fills it in from that
dataclass.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdet",
        description="Multi-camera 2D/3D detection core: simulation, "
                    "allocation, decoding and association metrics.",
    )
    parser.add_argument("--version", action="version", version=f"mvdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample synthetic scenes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rig", help="rig JSON (default: built-in 6-camera rig)")
    p.add_argument("--views", type=int, default=6, help="views for the built-in rig")
    p.add_argument("--scenes", type=int, default=1)
    p.add_argument("--boxes", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("allocate", help="build the 3D-to-2D mapping for anchors")
    p.add_argument("--rig", required=True)
    p.add_argument("--anchors", required=True, help='JSON: {"anchors": [[9 floats],...]}')
    p.add_argument("--out", help="output JSON (default stdout)")
    p.add_argument("--max-truncated", type=int)

    p = sub.add_parser("forward", help="run the hybrid decoder on a scene")
    p.add_argument("--config", required=True, help="decoder config JSON")
    p.add_argument("--scene", required=True)
    p.add_argument("--seed", type=int, help="override the decoder seed")
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("eval-aar", help="association accuracy / recall curves")
    p.add_argument("--gt", required=True, help="scene or scene-set JSON")
    p.add_argument("--pred", required=True, help="detections JSON")
    p.add_argument("--tau-dis", type=float)
    p.add_argument("--tau-iou-sweep")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = sub.add_parser("eval-ap", help="11-point interpolated 2D AP")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou-thresholds", default="0.5")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = sub.add_parser("crop-views", help="extend a rig with crop-and-scale views")
    p.add_argument("--rig", required=True)
    p.add_argument("--source-views", help="comma-separated view ids (default front+rear)")
    p.add_argument("--placement")
    p.add_argument("--scale-rate", type=float)
    p.add_argument("--out", help="output rig JSON (default stdout)")

    p = sub.add_parser("denoise-demo", help="propagating-denoising round trip")
    p.add_argument("--scene", required=True)
    p.add_argument("--groups", type=int)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output JSON (default stdout)")

    p = sub.add_parser("run", help="end-to-end pipeline")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="override the config base seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel scene workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import cli

    cli.setup_logging()
    command = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    try:
        return command(args)
    except Exception as exc:  # diagnostic + non-zero exit for any module error
        cli.log.debug("traceback", exc_info=True)
        print(f"mvdet {args.command}: error: {exc}", file=sys.stderr)
        return 1
