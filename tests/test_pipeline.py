"""`mvdet.pipeline` as a library: the same run as the CLI, and the README's config."""

import json
import re
from pathlib import Path

from mvdet.crop_scale import CropRule
from mvdet.decoder import DecoderConfig
from mvdet.pipeline import RunConfig, Seeds, run
from mvdet.simulator import OracleNoise

from test_cli import run_cli, run_config, run_files

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_run_writes_the_files_of_the_cli(tmp_path):
    noise = {"drop_prob": 0.2, "jitter_px": 3.0, "jitter_m": 0.3, "score_spread": 0.3}
    cfg = run_config(tmp_path, noise=noise, crop_rules=[{"source_view_id": 0}])
    assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "cli")) == 0
    config = RunConfig(
        preset="F",
        decoder=DecoderConfig.from_preset("F", n_queries=24, channels=16, heads=4,
                                          feature_channels=8, seed=1),
        crop_rules=(CropRule(source_view_id=0),), seeds=Seeds(base=5, scenes=2), boxes=6,
        noise=OracleNoise(**noise))
    summary = run(config, tmp_path / "lib", jobs=1)
    trees = {name: sorted(p.relative_to(tmp_path / name)
                          for p in (tmp_path / name).rglob("*") if p.is_file())
             for name in ("cli", "lib")}
    assert trees["cli"] == trees["lib"] == run_files(2)
    for rel in trees["cli"]:
        assert (tmp_path / "lib" / rel).read_bytes() == (tmp_path / "cli" / rel).read_bytes(), rel
    assert summary == json.loads((tmp_path / "lib" / "summary.json").read_text())


def test_readme_run_config_reads():
    # the JSON block under "### Run config": a key the reader rejects fails here
    text = README.read_text()
    block = re.search(r"### Run config\s+```json\n(.*?)```", text, re.S).group(1)
    config = RunConfig.from_json_obj(json.loads(block))
    assert config.preset == "F" and config.seeds == Seeds(base=0, scenes=10)
    assert len(config.cameras) == 7  # six cameras and one crop view
