"""Golden lock of one reduced `mvdet run`: refactors must keep its artifacts.

The run is preset F with 64 queries, two scenes and one crop rule on the
built-in six-camera rig.  Everything except the head outputs is compared
byte for byte against SHA-256 digests in ``golden/run_digests.json``.  The
head outputs (``forward/``) depend on BLAS summation order, so they are
compared numerically against ``golden/forward_NNNN.json.gz`` with the
tolerance below; their integer and boolean entries must still match exactly.

After a deliberate change of the artifacts, regenerate the golden files
with ``PYTHONPATH=src python tests/test_golden_run.py --update`` and say why
in CHANGES.md.

A second lock holds the head outputs near the float64 reference decoder:
the same run with the float64 attention oracle patched into the decoder
and the aggregation, computed at test time.  It has no stored file, so
``--update`` cannot move it, and float32 drift cannot build up across
changes that each regenerate the golden files.
"""

import gzip
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from mvdet import aggregation, decoder
from mvdet.cli import main as cli_main

from conftest import float64_attention

GOLDEN = Path(__file__).parent / "golden"

CONFIG = {
    "preset": "F",
    "decoder": {"n_queries": 64, "channels": 64, "heads": 8, "seed": 0},
    "views": 6,
    "crop_rules": [{"source_view_id": 0, "placement": "centered-on-focal", "scale_rate": 2.0}],
    "noise": {"drop_prob": 0.2, "jitter_px": 3.0, "jitter_m": 0.3},
    "seeds": {"base": 0, "scenes": 2},
    "boxes": 15,
    "tau_dis": 2.0,
    "tau_iou_sweep": "0.1:0.9:0.1",
}

# forward/ floats: |got - want| <= ABS_TOL + REL_TOL * |want|
ABS_TOL = 1e-9
REL_TOL = 1e-9

# forward/ floats against the float64 reference decoder, by head output
# (boxes2d in pixels, boxes3d in meters); integers and booleans stay exact
REFERENCE_BOUNDS = {"boxes2d": 2.5e-4, "logits": 1e-6, "alphas": 1e-6, "boxes3d": 1e-6}


def run_reduced(out_dir: Path) -> None:
    config = out_dir.parent / "golden_run.json"
    config.write_text(json.dumps(CONFIG))
    assert cli_main(["run", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 0


def exact_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every artifact outside forward/, keyed by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.relative_to(out_dir).parts[0] != "forward"
    }


def golden_tol(key, want):
    return ABS_TOL + REL_TOL * abs(want)


def reference_tol(key, want):
    return REFERENCE_BOUNDS[key]


def assert_close(got, want, tol=golden_tol, path="$", key=None):
    """Same JSON structure; floats within ``tol(key, want)``, where key is
    the float's nearest dict key; everything else equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for k in want:
            assert_close(got[k], want[k], tol, f"{path}.{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, tol, f"{path}[{i}]", key)
    elif isinstance(want, float) or isinstance(got, float):
        assert type(got) is type(want), path
        assert math.isfinite(got) == math.isfinite(want), path
        if math.isfinite(want):
            assert abs(got - want) <= tol(key, want), (path, got, want)
        else:
            assert got == want or (got != got and want != want), path
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def test_reduced_run_matches_golden(tmp_path):
    out = tmp_path / "out"
    run_reduced(out)
    want = json.loads((GOLDEN / "run_digests.json").read_text())
    assert exact_digests(out) == want
    forward = sorted((out / "forward").iterdir())
    assert [p.name for p in forward] == ["forward_0000.json", "forward_0001.json"]
    for p in forward:
        ref = json.loads(gzip.decompress((GOLDEN / (p.name + ".gz")).read_bytes()))
        assert_close(json.loads(p.read_text()), ref, path=p.name)


def test_reduced_run_stays_near_the_float64_reference_decoder(tmp_path, monkeypatch):
    out, ref = tmp_path / "out", tmp_path / "ref"
    run_reduced(out)
    monkeypatch.setattr(decoder, "attention", float64_attention)
    monkeypatch.setattr(aggregation, "attention", float64_attention)
    run_reduced(ref)
    forward = sorted((out / "forward").iterdir())
    assert [p.name for p in forward] == ["forward_0000.json", "forward_0001.json"]
    for p in forward:
        want = json.loads((ref / "forward" / p.name).read_text())
        assert_close(json.loads(p.read_text()), want, reference_tol, p.name)


def update() -> None:
    """Rewrite the golden files from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run_reduced(out)
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / "run_digests.json").write_text(
            json.dumps(exact_digests(out), indent=2, sort_keys=True) + "\n"
        )
        for p in sorted((out / "forward").iterdir()):
            # mtime=0 keeps the compressed bytes a function of the content
            (GOLDEN / (p.name + ".gz")).write_bytes(gzip.compress(p.read_bytes(), 9, mtime=0))


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_run.py --update")
    update()
