#!/usr/bin/env python3
"""Run one `mvdet run` in this process with spans around each module's calls.

Usage (the benchmark's trace mode starts it; it can also be run by hand):

    python3 perfbench/traced_run.py --src src --config cfg.json \
        --out outdir --seed 0 \
        --summary layers.json --trace trace.json

Before the run, every public function named in FUNCTIONS and METHODS is
replaced by a wrapper that records a span (name, start, end, parent) and,
for some, counts taken from the call's arguments and return value.  The
modules bind each other's functions by name (`decoder` calls its own
`allocate`, `cli` its own `sample_scene`), so a function is replaced in
every mvdet module that holds it.  Spans stay in memory; after the run the
process writes them once in the Chrome Trace Event format (open it in
Perfetto) plus a summary of self times, totals, calls and counts.  It also
checks the decoder's HeadOutputs as returned by each forward call.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402


class Tracer:
    """In-memory spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.notes = []
        self.captured = []   # (HeadOutputs, initial anchors) per forward call

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                    self.notes.append(f"{name}: count hook failed ({exc!r})")
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self, wall):
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
            calls[name] += 1
        covered = sum(self_time.values())
        return {"wall_s": wall, "self_s": self_time, "total_s": total, "calls": calls,
                "counts": self.counts, "uncovered_s": wall - covered,
                "n_spans": len(self.spans), "notes": self.notes}

    def chrome_trace(self):
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - T0) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": i, "parent": parent}}
            for i, (name, start, end, parent) in enumerate(self.spans)]}


# ------------------------------------------------------------ count hooks

def count_attention(tracer, a, result):
    m = a["x"].shape[0]
    mask = a["mask"]
    tracer.counts["groupattn.mask_bytes"] += m * m * 8
    allowed = int((mask == 0.0).sum()) if getattr(mask, "ndim", 0) == 2 else m * m
    tracer.counts["groupattn.score_pairs"] += a["params"].heads * allowed


def count_cross(tracer, a, result):
    tracer.counts["groupattn.score_pairs"] += (
        a["params"].heads * a["x_q"].shape[0] * a["x_kv"].shape[0])


def count_allocate(tracer, a, result):
    kept = int(result.mapping.n_2d)
    tracer.counts["allocation.cols_2d"] += kept
    tracer.counts["allocation.candidates"] += (
        kept + len(result.dropped) + sum(result.capped.values()))


def count_scene(tracer, a, result):
    tracer.counts["simulator.gt2d"] += len(result.gt2d)


def count_parse(tracer, a, result):
    tracer.counts["metrics.pred2d"] += sum(len(p2d) for _, _, p2d in result)


def capture_forward(tracer, a, result):
    tracer.captured.append((result[0], a["queries"].anchors))


# (span name, module, function, count hook)
FUNCTIONS = [
    ("groupattn.masked_self_attention", "mvdet.groupattn", "masked_self_attention", count_attention),
    ("groupattn.build_mask", "mvdet.groupattn", "build_mask", None),
    ("groupattn.cross_attention", "mvdet.groupattn", "cross_attention", count_cross),
    ("groupattn.ref_point_cross_attention", "mvdet.groupattn", "ref_point_cross_attention", None),
    ("aggregation.aggregate", "mvdet.aggregation", "aggregate", None),
    ("aggregation.gate", "mvdet.aggregation", "gate_truncation", None),
    ("allocation.allocate", "mvdet.allocation", "allocate", count_allocate),
    ("allocation.gather", "mvdet.allocation", "gather_2d", None),
    ("allocation.scatter_mean", "mvdet.allocation", "scatter_mean", None),
    ("simulator.sample_scene", "mvdet.simulator", "sample_scene", count_scene),
    ("simulator.render_features", "mvdet.simulator", "render_features", None),
    ("simulator.perturb", "mvdet.simulator", "perturb", None),
    ("metrics.aar", "mvdet.metrics", "aar", None),
    ("metrics.ap", "mvdet.metrics", "ap_2d", None),
    ("metrics.parse", "mvdet.metrics", "parse_detections", count_parse),
    ("kernels.project_points", "mvdet._kernels", "project_points", None),
    ("kernels.box_points", "mvdet._kernels", "box_points", None),
    ("kernels.bilinear_sample", "mvdet._kernels", "bilinear_sample", None),
    ("kernels.iou_matrix", "mvdet._kernels", "iou_matrix", None),
]

# (span name, module, class, method, count hook)
METHODS = [
    ("decoder.forward", "mvdet.decoder", "HybridDecoder", "forward", capture_forward),
    ("decoder.init", "mvdet.decoder", "HybridDecoder", "__init__", None),
    ("decoder.init", "mvdet.decoder", "HybridDecoder", "initial_queries", None),
    ("decoder.heads", "mvdet.decoder", "MlpParams", "apply", None),
    ("decoder.to_json", "mvdet.decoder", "HeadOutputs", "to_json_obj", None),
]

# Implementation modules behind mvdet._kernels keep their own names.
_SKIP_MODULES = ("mvdet._kernels._ref", "mvdet._kernels._core")


class _TracedJson:
    """Stands in for the json module inside mvdet, with a traced dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer):
    """Replace each traced function wherever an mvdet module binds it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "mvdet" or n.startswith("mvdet.")) and n not in _SKIP_MODULES and m]
    for span, module, attr, hook in FUNCTIONS:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            tracer.notes.append(f"{module}.{attr} not found; {span} not traced")
            continue
        wrapper = tracer.wrap(span, original, hook)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    for span, module, cls_name, attr, hook in METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None or attr not in vars(cls):
            tracer.notes.append(f"{module}.{cls_name}.{attr} not found; {span} not traced")
            continue
        setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], hook))
    traced_json = _TracedJson(tracer.wrap("cli.serialize", json.dumps))
    for mod in modules:
        if vars(mod).get("json") is json:
            mod.json = traced_json
    pathlib.Path.write_text = tracer.wrap("cli.serialize", pathlib.Path.write_text)


def head_arrays(heads):
    """HeadOutputs as the plain dict the output checks read."""
    return {
        "layers_2d": [{"rows": o.mapping.rows, "camera_of_col": o.mapping.camera_of_col,
                       "boxes2d": o.boxes2d, "logits": o.logits, "alphas": o.alphas}
                      for o in heads.layers_2d],
        "layers_3d": [{"boxes3d": o.boxes3d, "logits": o.logits} for o in heads.layers_3d],
        "agg_taps": [{"boxes3d": o.boxes3d, "logits": o.logits} for o in heads.agg_taps],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--src", "--config", "--out", "--summary", "--trace"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(args.src).resolve()))
    import mvdet.cli

    tracer = Tracer()
    install(tracer)
    write_text = pathlib.Path.write_text.__wrapped__
    status = mvdet.cli.main(["run", "--config", args.config, "--out", args.out,
                             "--jobs", "1", "--seed", str(args.seed)])
    wall = time.perf_counter() - T0
    pathlib.Path.write_text = write_text

    import oracles
    from workloads import expected_rig

    cfg = json.loads(pathlib.Path(args.config).read_text())
    rig = expected_rig(cfg)
    errors = []
    for n, (heads, anchors) in enumerate(tracer.captured):
        arrays = head_arrays(heads)
        errors += oracles.check_head_outputs(arrays, cfg["preset"], f"traced forward {n}")
        errors += oracles.check_first_mapping(arrays, anchors, rig, cfg["decoder"],
                                              f"traced forward {n}")
    summary = tracer.summary(wall)
    summary.update(status=status, forward_calls=len(tracer.captured), errors=errors[:20])
    pathlib.Path(args.summary).write_text(json.dumps(summary, indent=1) + "\n")
    pathlib.Path(args.trace).write_text(json.dumps(tracer.chrome_trace()) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
