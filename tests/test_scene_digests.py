"""Byte lock of the scene side of a busier `mvdet run`.

The golden run (``test_golden_run``) covers two scenes of 15 boxes and one
crop view.  This run has the shape of the benchmark's many-scenes workload
at a twelfth of its length: preset F with 64 queries, 32 channels and 4
heads, two crop views, 20 boxes per scene and 12 scenes.  Every artifact
outside ``forward/`` (scene set, allocations, predictions, metrics) is compared
byte for byte against the SHA-256 digests in
``golden/many_scenes_digests.json``.  ``forward/`` is compared between runs
in one process, under execution plans (batch sizes, attention group by
group) that must keep its bytes.

After a deliberate change of those artifacts, regenerate the digests with
``PYTHONPATH=src python tests/test_scene_digests.py --update`` and say why
in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from mvdet import aggregation, decoder, pipeline
from mvdet.cli import main as cli_main
from conftest import per_group_attention
from test_golden_run import CONFIG as GOLDEN_CONFIG, GOLDEN, exact_digests

DIGESTS = GOLDEN / "many_scenes_digests.json"

CONFIG = {
    **GOLDEN_CONFIG,
    "decoder": {"n_queries": 64, "channels": 32, "heads": 4, "seed": 0},
    "crop_rules": [
        {"source_view_id": 0, "placement": "centered-on-focal", "scale_rate": 2.0},
        {"source_view_id": 3, "placement": "centered-on-focal", "scale_rate": 2.0},
    ],
    "seeds": {"base": 0, "scenes": 12},
    "boxes": 20,
}


def run_digests(out_dir: Path) -> dict[str, str]:
    config = out_dir.parent / "many_scenes_run.json"
    config.write_text(json.dumps(CONFIG))
    assert cli_main(["run", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 0
    return exact_digests(out_dir)


def file_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file of a run, forward/ included."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def default_plan_files(tmp_path_factory) -> dict[str, str]:
    """``file_digests`` of the run at the default ``BATCH_ROWS``."""
    out = tmp_path_factory.mktemp("default_plan") / "out"
    run_digests(out)
    return file_digests(out)


def test_many_scenes_shaped_run_matches_digests(tmp_path):
    assert run_digests(tmp_path / "out") == json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("batch_rows", [64, 256, 1024, 4096])
def test_batch_size_changes_no_file_outside_forward(tmp_path, monkeypatch, batch_rows,
                                                     default_plan_files):
    # one, four, sixteen and sixty-four scenes per decoder pass over the
    # 12 scenes: the scenes, allocations, predictions and metrics keep their
    # committed bytes under every execution plan, and forward/ the bytes of
    # the default plan (each scene's 2D head and gate run on its own columns)
    monkeypatch.setattr(pipeline, "BATCH_ROWS", batch_rows)
    assert run_digests(tmp_path / "out") == json.loads(DIGESTS.read_text())
    assert file_digests(tmp_path / "out") == default_plan_files


def test_forward_keeps_its_bytes_with_attention_group_by_group(tmp_path, monkeypatch):
    # the decoder's grouped attention (2D camera groups, 3D self-attention
    # and aggregate within each scene) stacks the groups of a size; one
    # dense call per group writes every file, forward/ included, with the
    # same bytes
    run_digests(tmp_path / "stacked")
    grouped = []

    def recording(x, params, *, groups=None):
        grouped.append(groups is not None)
        return per_group_attention(x, params, groups=groups)

    monkeypatch.setattr(decoder, "attention", recording)
    monkeypatch.setattr(aggregation, "attention", recording)
    run_digests(tmp_path / "per_group")
    stacked, per_group = (file_digests(tmp_path / name) for name in ("stacked", "per_group"))
    assert sum(name.startswith("forward/") for name in stacked) == CONFIG["seeds"]["scenes"]
    assert all(grouped) and len(grouped) > 0
    assert stacked == per_group


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_scene_digests.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp) / "out")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
