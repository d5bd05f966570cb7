#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `mvdet run`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref-F --seed 0 --seconds 10 --trace 0

`--trace 0` measures set-up time (median of several `python -m mvdet
--version`) and then runs `mvdet run --jobs 1` on the workload in fresh
processes until `--seconds` of run time is measured, reporting medians of
wall time, peak RSS and bytes written.  `--trace 1` runs pairs of one
untraced and one traced run (perfbench/traced_run.py) and reports per-layer
self times, counts and the tracing overhead.  Every run's artifacts are
checked against perfbench/oracles.py outside the timed region.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is the environment
record.  The same, with raw samples, is kept in
.perfbench_out/results/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
from workloads import WORKLOADS, scene_base

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
BLAS_THREADS = 1
DEADLINE_S = 165.0        # the whole invocation stays below this
MB = 1e6

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
]

# (metric, unit, source, key): source picks the summary table of the traced
# run -- "self_s" self time, "total_s" duration including children,
# "calls", or "counts".
PER_LAYER = [
    ("groupattn.masked_self_attention_s", "s", "self_s", "groupattn.masked_self_attention"),
    ("groupattn.build_mask_s", "s", "self_s", "groupattn.build_mask"),
    ("groupattn.mask_mb", "MB", "counts", "groupattn.mask_bytes"),
    ("groupattn.cross_attention_s", "s", "self_s", "groupattn.cross_attention"),
    ("groupattn.ref_point_cross_attention_s", "s", "self_s", "groupattn.ref_point_cross_attention"),
    ("groupattn.score_pairs", "count", "counts", "groupattn.score_pairs"),
    ("aggregation.aggregate_s", "s", "total_s", "aggregation.aggregate"),
    ("aggregation.gate_s", "s", "self_s", "aggregation.gate"),
    ("allocation.allocate_s", "s", "self_s", "allocation.allocate"),
    ("allocation.allocate_calls", "count", "calls", "allocation.allocate"),
    ("allocation.cols_2d", "count", "counts", "allocation.cols_2d"),
    ("allocation.kept_ratio", "ratio", "counts", None),
    ("allocation.gather_s", "s", "self_s", "allocation.gather"),
    ("allocation.scatter_mean_s", "s", "self_s", "allocation.scatter_mean"),
    ("decoder.forward_s", "s", "total_s", "decoder.forward"),
    ("decoder.forward_self_s", "s", "self_s", "decoder.forward"),
    ("decoder.heads_s", "s", "self_s", "decoder.heads"),
    ("decoder.init_s", "s", "self_s", "decoder.init"),
    ("decoder.to_json_s", "s", "self_s", "decoder.to_json"),
    ("simulator.sample_scene_s", "s", "self_s", "simulator.sample_scene"),
    ("simulator.render_features_s", "s", "self_s", "simulator.render_features"),
    ("simulator.perturb_s", "s", "self_s", "simulator.perturb"),
    ("simulator.gt2d", "count", "counts", "simulator.gt2d"),
    ("metrics.aar_s", "s", "self_s", "metrics.aar"),
    ("metrics.ap_s", "s", "self_s", "metrics.ap"),
    ("metrics.parse_s", "s", "self_s", "metrics.parse"),
    ("metrics.pred2d", "count", "counts", "metrics.pred2d"),
] + [
    (f"kernels.{k}_{suffix}", unit, source, f"kernels.{k}")
    for k in ("project_points", "box_points", "bilinear_sample", "iou_matrix")
    for suffix, unit, source in (("s", "s", "self_s"), ("calls", "count", "calls"))
] + [
    ("cli.serialize_s", "s", "self_s", "cli.serialize"),
    ("trace.wall_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
    ("trace.uncovered_share", "ratio", None, None),
]
# Counts must repeat exactly between traced runs of one seed.
COUNTED = [name for name, _, source, _ in PER_LAYER if source in ("counts", "calls")]

ENV_PROBE = """
import json, platform, numpy, scipy, mvdet
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError) as exc:  # NumPy < 1.25 has no mode="dicts"
    blas = f"unknown ({exc!r})"
print(json.dumps({"backend": mvdet.BACKEND, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


def child_env() -> dict:
    """Environment of every measured child: this checkout's sources, fixed
    BLAS threads, default log level."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("MVDET_LOG", None)
    env.pop("MVDET_BACKEND", None)
    return env


class Child:
    """One measured child process: wall time from spawn to exit, its own
    rusage, and its exit code.  It is killed if it outlives `timeout`."""

    def __init__(self, argv: list[str], timeout: float, log: Path):
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / MB   # ru_maxrss is in KiB
        self.cpu = usage.ru_utime + usage.ru_stime
        self.stderr = log.read_text(errors="replace")[-2000:]


def env_record(timeout: float) -> dict:
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=timeout, check=True)
    record = json.loads(probe.stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    record.update(blas_threads=BLAS_THREADS, nproc=os.cpu_count(),
                  machine=platform.machine(), commit=commit)
    return record


def initial_anchors(cfg: dict):
    """Anchors of the decoder's initial queries, the input of its first
    2D sub-layer (the decoder draws them from its own seed)."""
    sys.path.insert(0, str(SRC))
    from mvdet.decoder import DecoderConfig, HybridDecoder
    from mvdet.geometry import make_surround_rig

    config = DecoderConfig.from_json_obj({**cfg["decoder"], "preset": cfg["preset"]})
    return HybridDecoder(config, make_surround_rig(1)).initial_queries().anchors


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.work = OUT / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg = WORKLOADS[args.workload]
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.anchors = initial_anchors(self.cfg) if self.cfg["preset"] != "A" else None
        self.digest: str | None = None

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], label: str) -> Child | None:
        self.attempted += 1
        child = Child(argv, self.left(), self.work / f"{label}.stderr")
        if child.code != 0:
            self.failed += 1
            print(f"{label}: exit code {child.code}\n{child.stderr}", file=sys.stderr)
            return None
        return child

    def run_args(self, out: Path) -> list[str]:
        return ["--config", str(self.config_path), "--out", str(out),
                "--seed", str(scene_base(self.args.seed))]

    def untraced_run(self) -> tuple[Child, int] | None:
        out = self.work / "run"
        shutil.rmtree(out, ignore_errors=True)
        child = self.spawn([sys.executable, "-m", "mvdet", "run", "--jobs", "1",
                            *self.run_args(out)], "run")
        if child is None:
            return None
        return child, self.take_outputs(out)

    def take_outputs(self, out: Path) -> int:
        """Check a run's artifacts, delete them and return their size.

        The first run's artifacts go through the output checks; every later
        run of the invocation (same seed, traced or not) must write the same
        bytes.
        """
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
        if self.digest is None:
            self.digest = digest.hexdigest()
            errors = oracles.check_run(out, self.cfg, self.anchors)
        elif digest.hexdigest() != self.digest:
            errors = [f"artifacts of a repeated run of seed {self.args.seed} differ"]
        else:
            errors = []
        for e in errors:
            print(f"check failed: {e}", file=sys.stderr)
        self.errors += errors
        size = sum(p.stat().st_size for p in files)
        shutil.rmtree(out)
        return size

    def enough(self, measured: float, last: float) -> bool:
        """Stop after --seconds of measured run time, or when one more run
        would not fit before the deadline."""
        return measured >= self.args.seconds or self.left() < 1.5 * last + 10.0

    def untraced(self) -> dict:
        setup = [c.wall for c in (self.spawn([sys.executable, "-m", "mvdet", "--version"], "setup")
                                  for _ in range(SETUP_REPEATS)) if c is not None]
        runs = []
        while True:
            result = self.untraced_run()
            if result is None:
                break
            runs.append(result)
            if self.enough(sum(c.wall for c, _ in runs), runs[-1][0].wall):
                break
        samples = {
            "setup_s": setup,
            "run_s": [c.wall for c, _ in runs],
            "peak_rss_mb": [c.peak_rss_mb for c, _ in runs],
            "artifact_mb": [size / MB for _, size in runs],
            # recorded for diagnosis only: CPU time separates input-driven
            # changes from wall-clock noise of a shared machine
            "run_cpu_s": [c.cpu for c, _ in runs],
        }
        return samples

    def traced(self) -> dict:
        samples = {name: [] for name, *_ in PER_LAYER}
        counts_seen = None
        measured = 0.0
        while True:
            untraced = self.untraced_run()
            if untraced is None:
                break
            out = self.work / "traced"
            shutil.rmtree(out, ignore_errors=True)
            summary_path, trace_path = self.work / "layers.json", self.work / "trace.json"
            child = self.spawn([sys.executable, str(HERE / "traced_run.py"), "--src", str(SRC),
                                "--summary", str(summary_path),
                                "--trace", str(trace_path), *self.run_args(out)], "traced")
            if child is None:
                break
            self.take_outputs(out)
            summary = json.loads(summary_path.read_text())
            self.errors += summary["errors"]
            for note in summary["notes"]:
                print(f"trace note: {note}", file=sys.stderr)
            wall, covered = summary["wall_s"], sum(summary["self_s"].values())
            if abs(covered + summary["uncovered_s"] - wall) > 1e-6:
                self.errors.append("span self times and uncovered time do not add up to the wall")
            layer = layer_metrics(summary, wall - untraced[0].wall)
            counts = {k: layer[k] for k in COUNTED}
            if counts_seen is not None and counts != counts_seen:
                self.errors.append(f"counts differ between traced runs: {counts} vs {counts_seen}")
            counts_seen = counts
            for name, value in layer.items():
                samples[name].append(value)
            pair = child.wall + untraced[0].wall
            measured += pair
            if self.enough(measured, pair):
                break
        return samples


def unit_of(metric: str) -> str:
    return next(unit for name, unit, *_ in PER_LAYER + END_TO_END if name == metric)


def layer_metrics(summary: dict, overhead: float) -> dict:
    """Per-layer metric values of one traced run's summary."""
    values = {}
    for name, unit, source, key in PER_LAYER:
        if source is not None and key is not None:
            values[name] = summary[source].get(key, 0.0 if source.endswith("_s") else 0)
    values["groupattn.mask_mb"] /= MB
    counts = summary["counts"]
    candidates = counts.get("allocation.candidates", 0)
    values["allocation.kept_ratio"] = (
        counts.get("allocation.cols_2d", 0) / candidates if candidates else 0.0)
    wall = summary["wall_s"]
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = overhead
    values["trace.uncovered_share"] = summary["uncovered_s"] / wall
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mvdet" / "__init__.py").is_file():
        print(f"error: no mvdet sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args)
    env = env_record(timeout=60)
    samples = bench.traced() if args.trace else bench.untraced()
    names = [n for n, *_ in (PER_LAYER if args.trace else END_TO_END)]
    metrics = {n: {"value": median(samples[n]), "unit": unit_of(n)} for n in names}
    correct = not bench.errors and all(samples[n] for n in names)
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "samples": samples, **result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
