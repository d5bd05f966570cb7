import copy
import dataclasses

import numpy as np
import orjson
import pytest

from mvdet import aggregation, decoder
from mvdet.allocation import AllocationLimits, MappingMatrix, allocate, clamp_anchors
from mvdet.crop_scale import CropRule, extend_rig
from mvdet.decoder import (
    PRESETS,
    DecoderConfig,
    HeadOutputs,
    HybridDecoder,
    Layer2DOutput,
    Layer3DOutput,
    wrap_yaw,
)
from mvdet.geometry import dump_json
from mvdet.simulator import blank_features, render_features, sample_scene

from conftest import (
    cross_attention_3d_per_view,
    float64_attention,
    ref_point_cross_attention_per_view,
    rig_features,
    same_bits,
)


def small_config(**over):
    over.setdefault("n_queries", 24)
    over.setdefault("channels", 16)
    over.setdefault("heads", 4)
    over.setdefault("feature_channels", 8)
    return DecoderConfig(**over)


@pytest.fixture
def setup(rig6):
    scene = sample_scene(2, rig6, n_boxes=8)
    feats = render_features(scene, rig6, scales=(8, 16))
    return rig6, feats


def test_wrap_yaw_range():
    vals = wrap_yaw(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi, 7.0]))
    assert np.all(vals > -np.pi) and np.all(vals <= np.pi)
    assert vals[1] == np.pi  # pi stays pi, -pi wraps to pi
    assert vals[2] == np.pi


def test_preset_table():
    assert PRESETS == {
        "A": (0, 1, 6), "B": (1, 0, 6), "C": (2, 1, 2),
        "D": (1, 2, 2), "E": (3, 3, 1), "F": (1, 1, 3),
    }
    for name in PRESETS:
        cfg = DecoderConfig.from_preset(name)
        assert (cfg.l_2d + cfg.l_3d) * cfg.l_hybrid == 6


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(channels=10, heads=4)
    with pytest.raises(ValueError):
        small_config(l_2d=0, l_3d=0)
    with pytest.raises(ValueError):
        DecoderConfig.from_preset("Z")


def test_every_decoder_config_field_changes_forward(setup):
    """Guard against dead options: changing any one DecoderConfig field
    changes a small preset-F forward."""
    rig, _ = setup
    scene = sample_scene(2, rig, n_boxes=8)
    base = small_config(n_queries=64, l_2d=1, l_3d=1, l_hybrid=3)

    def run(cfg):
        dec = HybridDecoder(cfg, rig)
        scales = tuple(8 * 2**s for s in range(cfg.n_scales))
        feats = render_features(scene, rig, scales=scales)
        out, updated = dec.forward(feats)
        heads = orjson.dumps(out.to_json_obj(), option=orjson.OPT_SERIALIZE_NUMPY)
        return heads, updated.features.tolist(), updated.anchors.tolist()

    # a cap of one truncated column per camera and a 1 m size clamp both bind
    # on the initial anchors
    cap, clamp = AllocationLimits(max_truncated_per_camera=1), AllocationLimits(size_clamp=(1, 1, 1))
    anchors = HybridDecoder(base, rig).initial_queries().anchors
    assert allocate(clamp_anchors(anchors, cap), rig, cap).capped
    assert not np.array_equal(clamp_anchors(anchors, clamp), clamp_anchors(anchors, base.limits))

    changed = {"n_queries": [65], "channels": [32], "l_2d": [2], "l_3d": [2], "l_hybrid": [2],
               "heads": [2], "seed": [1], "n_classes": [3], "feature_channels": [4],
               "n_scales": [1], "limits": [cap, clamp]}
    want = run(base)
    for field in dataclasses.fields(DecoderConfig):
        values = changed[field.name] if field.name in changed else [getattr(base, field.name) + 1]
        for value in values:
            assert run(dataclasses.replace(base, **{field.name: value})) != want, field.name


def test_config_json_roundtrip():
    cfg = DecoderConfig.from_preset("D", n_queries=64, channels=32, heads=4, seed=5)
    back = DecoderConfig.from_json_obj(cfg.to_json_obj())
    assert back == cfg
    preset = DecoderConfig.from_json_obj({"preset": "F", "n_queries": 32, "channels": 16, "heads": 4})
    assert (preset.l_2d, preset.l_3d, preset.l_hybrid) == (1, 1, 3)
    # layer counts that agree with the preset read back; others raise
    assert DecoderConfig.from_json_obj({**cfg.to_json_obj(), "preset": "D"}) == cfg
    with pytest.raises(ValueError, match="^preset 'F' has l_3d 1, not 2$"):
        DecoderConfig.from_json_obj({**cfg.to_json_obj(), "preset": "F"})


def tolist_form(out: HeadOutputs) -> dict:
    """The head outputs as nested Python lists, the form ``to_json_obj``
    returned before it returned arrays."""
    l3 = lambda o: {"source": o.source, "boxes3d": o.boxes3d.tolist(), "logits": o.logits.tolist()}
    return {
        "format": "mvdet-headoutputs/1",
        "layers_2d": [
            {"rows": o.mapping.rows.tolist(), "camera_of_col": o.mapping.camera_of_col.tolist(),
             "boxes2d": o.boxes2d.tolist(), "logits": o.logits.tolist(),
             "alphas": o.alphas.tolist(), "truncation": [bool(t) for t in o.truncation]}
            for o in out.layers_2d
        ],
        "layers_3d": [l3(o) for o in out.layers_3d],
        "agg_taps": [l3(o) for o in out.agg_taps],
    }


@pytest.mark.parametrize("indent", [False, True])
def test_head_outputs_encode_like_their_lists(tmp_path, indent):
    # NaN, -0.0, the smallest subnormal, infinities, a transposed (not
    # C-contiguous) array, an empty layer and bools
    special = np.array([np.nan, -0.0, 5e-324, np.inf, -np.inf, 1e16, 0.1, -2.5e-7, 3.0])
    rows = special.reshape(3, 3).T
    layer2d = Layer2DOutput(
        mapping=MappingMatrix(4, 3, rows=[0, 3, 3], camera_of_col=[0, 0, 5]),
        ref_points=np.zeros((3, 2)), truncation=np.array([True, False, True]),
        boxes2d=np.tile(special[:4], (3, 1)), logits=rows, alphas=rows[:, :2],
    )
    empty2d = Layer2DOutput(
        mapping=MappingMatrix(4, 0, rows=[], camera_of_col=[]), ref_points=np.zeros((0, 2)),
        truncation=np.zeros(0, dtype=bool), boxes2d=np.zeros((0, 4)),
        logits=np.zeros((0, 3)), alphas=np.zeros((0, 2)),
    )
    layer3d = Layer3DOutput(boxes3d=np.tile(special, (4, 1)), logits=np.zeros((4, 3)), source="3d")
    empty3d = Layer3DOutput(boxes3d=np.zeros((0, 9)), logits=np.zeros((0, 3)), source="agg")
    out = HeadOutputs([layer2d, empty2d], [layer3d, empty3d], [empty3d])
    dump_json(out.to_json_obj(), tmp_path / "arrays.json", indent=indent)
    dump_json(tolist_form(out), tmp_path / "lists.json", indent=indent)
    assert (tmp_path / "arrays.json").read_bytes() == (tmp_path / "lists.json").read_bytes()


def test_sublayer_counts_per_preset(setup):
    rig, feats = setup
    for name, (l2, l3, lh) in PRESETS.items():
        cfg = small_config(l_2d=l2, l_3d=l3, l_hybrid=lh)
        dec = HybridDecoder(cfg, rig)
        out, updated = dec.forward(feats)
        assert out.n_sublayers == 6, name
        assert len(out.layers_2d) == l2 * lh
        assert len(out.layers_3d) == l3 * lh
        assert len(out.agg_taps) == l2 * lh
        assert updated.n == cfg.n_queries


def test_preset_a_runs_no_allocation(setup):
    rig, feats = setup
    cfg = small_config(l_2d=0, l_3d=1, l_hybrid=6)
    dec = HybridDecoder(cfg, rig)
    out, _ = dec.forward(feats)
    assert out.layers_2d == [] and out.agg_taps == []
    assert len(out.layers_3d) == 6


def test_preset_f_taps_and_camera_groups(setup):
    rig, feats = setup
    cfg = small_config(l_2d=1, l_3d=1, l_hybrid=3)
    dec = HybridDecoder(cfg, rig)
    out, _ = dec.forward(feats)
    assert len(out.agg_taps) == 3
    for layer in out.layers_2d:
        cams = np.unique(layer.mapping.camera_of_col)
        assert cams.size  # per-camera 2D outputs exist
        for view_id in cams:
            cols = np.flatnonzero(layer.mapping.camera_of_col == view_id)
            assert layer.boxes2d[cols].shape[0] == len(cols)


def test_zero_heads_leave_anchors_unchanged(rig6):
    cfg = small_config()
    dec = HybridDecoder(cfg, rig6)
    heads = [mlp for layer in dec.layers_2d for p in layer for mlp in (p.head2d, p.agg_head3d)]
    heads += [p.head3d for layer in dec.layers_3d for p in layer]
    for mlp in heads:  # every refinement becomes a no-op
        for a in (mlp.w1, mlp.b1, mlp.w2, mlp.b2):
            a[...] = 0.0
    queries = dec.initial_queries()
    zero_feats = rig_features({
        v.view_id: (v.width, v.height,
                    [np.zeros((v.height // 8, v.width // 8, cfg.feature_channels)),
                     np.zeros((v.height // 16, v.width // 16, cfg.feature_channels))])
        for v in rig6
    })
    out, updated = dec.forward(zero_feats)
    assert np.array_equal(updated.anchors, queries.anchors)
    for layer in out.layers_3d + out.agg_taps:
        assert np.array_equal(layer.boxes3d, queries.anchors)


def test_forward_determinism(setup):
    rig, feats = setup
    cfg = small_config(seed=77)
    d1 = HybridDecoder(cfg, rig)
    d2 = HybridDecoder(cfg, rig)
    o1, u1 = d1.forward(feats)
    o2, u2 = d2.forward(feats)
    assert np.array_equal(u1.features, u2.features)
    assert np.array_equal(u1.anchors, u2.anchors)
    assert np.array_equal(u1.scores, u2.scores)
    for a, b in zip(o1.layers_2d, o2.layers_2d):
        assert np.array_equal(a.boxes2d, b.boxes2d)
        assert np.array_equal(a.logits, b.logits)
    for a, b in zip(o1.layers_3d + o1.agg_taps, o2.layers_3d + o2.agg_taps):
        assert np.array_equal(a.boxes3d, b.boxes3d)
        assert np.array_equal(a.logits, b.logits)


def test_float32_query_attention_drift(rig6, monkeypatch):
    # the README reference shape: preset F, 900 queries, six cameras plus a
    # crop view; the decoder with the float64 attention oracle (2D groups and
    # 3D queries) is the reference
    rig = extend_rig(rig6, [CropRule(source_view_id=0, scale_rate=2.0)])
    scene = sample_scene(0, rig, n_boxes=15)
    feats = render_features(scene, rig, scales=(8, 16))

    def run():
        dec = HybridDecoder(DecoderConfig.from_preset("F"), rig)
        return dec.forward(feats)[0]

    got = run()
    monkeypatch.setattr(decoder, "attention", float64_attention)
    monkeypatch.setattr(aggregation, "attention", float64_attention)
    want = run()
    for g, w in zip(got.layers_2d, want.layers_2d, strict=True):
        assert np.array_equal(g.mapping.rows, w.mapping.rows)
        assert np.array_equal(g.mapping.camera_of_col, w.mapping.camera_of_col)
        assert np.array_equal(g.truncation, w.truncation)
        assert np.abs(g.boxes2d - w.boxes2d).max() <= 2.5e-4  # px
        assert np.abs(g.logits - w.logits).max() <= 1e-6
    for g, w in zip(got.layers_3d + got.agg_taps, want.layers_3d + want.agg_taps, strict=True):
        assert np.abs(g.boxes3d - w.boxes3d).max() <= 1e-6  # m
        assert np.abs(g.logits - w.logits).max() <= 1e-6
    assert not np.array_equal(got.layers_3d[-1].boxes3d, want.layers_3d[-1].boxes3d)


def head_arrays(out: HeadOutputs) -> list[np.ndarray]:
    """Every array of the head outputs, in a fixed order."""
    arrays = []
    for o in out.layers_2d:
        arrays += [o.mapping.rows, o.mapping.camera_of_col, o.ref_points, o.truncation,
                   o.boxes2d, o.logits, o.alphas]
    for o in out.layers_3d + out.agg_taps:
        arrays += [o.boxes3d, o.logits]
    return arrays


@pytest.mark.parametrize("preset", ["A", "E", "F"])
def test_forward_from_prefix_equals_forward(setup, monkeypatch, preset):
    # the prefix is layer 0 up to its first feature read; forward from it
    # matches forward without it bit for bit, any number of times, and
    # leaves the prefix unchanged
    rig, feats = setup
    l2, l3, lh = PRESETS[preset]
    dec = HybridDecoder(small_config(n_queries=120, l_2d=l2, l_3d=l3, l_hybrid=lh), rig)
    out, updated = dec.forward(feats)
    prefix = dec.prefix()
    kept = copy.deepcopy(prefix)
    allocations = []
    monkeypatch.setattr(decoder, "allocate", lambda *a: allocations.append(1) or allocate(*a))
    for _ in range(2):
        got, got_updated = dec.forward(feats, prefix=prefix)
        assert all(map(np.array_equal, head_arrays(got), head_arrays(out)))
        assert np.array_equal(got_updated.features, updated.features)
        assert np.array_equal(got_updated.anchors, updated.anchors)
        assert np.array_equal(got_updated.scores, updated.scores)
    assert len(allocations) == 2 * (l2 * lh - min(1, l2))
    for name in ("q3", "anchors", "q2"):
        assert np.array_equal(getattr(prefix, name), getattr(kept, name))
    if l2:
        assert np.array_equal(prefix.alloc.mapping.rows, out.layers_2d[0].mapping.rows)
        assert np.array_equal(prefix.alloc.ref_points, out.layers_2d[0].ref_points)
        assert len(prefix.allocs) == 1
    else:
        assert prefix.alloc is None and prefix.q2 is None and prefix.allocs == ()


def scene_batch(rig6, n_scenes):
    """A many-scenes-shaped decoder (preset F, 64 queries, a crop view) and
    n_scenes scenes rendered into one RigFeatures."""
    rig = extend_rig(rig6, [CropRule(source_view_id=0, scale_rate=2.0)])
    dec = HybridDecoder(small_config(n_queries=64, channels=32, feature_channels=16), rig)
    scenes = [sample_scene(seed, rig, n_boxes=20) for seed in range(n_scenes)]
    feats = blank_features(rig, (8, 16), n_scenes)
    for slot, scene in enumerate(scenes):
        render_features(scene, rig, (8, 16), into=feats, slot=slot)
    return rig, dec, scenes, feats


def test_forward_scenes_equals_each_scene_alone(rig6):
    # each scene of a 12-scene batch against that scene decoded as a batch
    # of one: integers and booleans exact, floats within 1e-12 (BLAS may
    # round a product over more rows differently)
    rig, dec, scenes, feats = scene_batch(rig6, 12)
    prefix = dec.prefix()
    outs, updated = dec.forward_scenes(feats, len(scenes), prefix=prefix)
    outs_computed, updated_computed = dec.forward_scenes(feats, len(scenes))
    assert len(outs) == len(scenes) and updated.n == len(scenes) * 64
    # a given prefix gives the bits of the one the batch computes for itself
    for name in ("features", "anchors", "scores"):
        assert same_bits(getattr(updated, name), getattr(updated_computed, name))
    for j, scene in enumerate(scenes):
        alone, alone_updated = dec.forward(render_features(scene, rig, (8, 16)), prefix=prefix)
        for got, computed, want in zip(head_arrays(outs[j]), head_arrays(outs_computed[j]),
                                       head_arrays(alone), strict=True):
            assert same_bits(got, computed)
            assert got.dtype == want.dtype and got.shape == want.shape
            if want.dtype.kind == "f":
                assert np.abs(got - want).max(initial=0.0) <= 1e-12
            else:
                assert np.array_equal(got, want)
        rows = slice(64 * j, 64 * (j + 1))
        for name in ("features", "anchors", "scores"):
            got, want = getattr(updated, name)[rows], getattr(alone_updated, name)
            assert np.abs(got - want).max() <= 1e-12
    assert sum(o.layers_2d[-1].mapping.n_2d for o in outs) > 64  # the 2D path is busy


def test_forward_scenes_opens_layer_0_once(rig6, monkeypatch):
    # without a prefix, a batch opens layer 0 once, for one scene, and tiles
    # it: preset F over S scenes allocates 1 + (l_2d * l_hybrid - 1) * S
    # times.  The tiled opening has the bits of layer 0 opened over S tiled
    # copies of the initial queries.
    rig, dec, _, feats = scene_batch(rig6, 5)
    cfg, s = dec.config, 5
    allocations = []
    monkeypatch.setattr(decoder, "allocate", lambda *a: allocations.append(1) or allocate(*a))
    dec.forward_scenes(feats, s)
    assert len(allocations) == 1 + (cfg.l_2d * cfg.l_hybrid - 1) * s
    queries = dec.initial_queries()
    tiled = dec._tile(dec.prefix(), s)
    want = dec._open_2d(dec.layers_2d[0][0], np.tile(queries.features, (s, 1)),
                        np.tile(queries.anchors, (s, 1)), s)
    alloc_arrays = lambda a: [a.mapping.rows, a.mapping.camera_of_col, a.ref_points,
                              a.truncation, a.rects, np.array([a.mapping.n_3d, a.mapping.n_2d])]
    assert len(tiled.allocs) == len(want.allocs) == s
    for got, ref in zip([tiled.alloc, *tiled.allocs], [want.alloc, *want.allocs], strict=True):
        assert all(map(same_bits, alloc_arrays(got), alloc_arrays(ref)))
    for name in ("q3", "anchors", "q2"):
        assert same_bits(getattr(tiled, name), getattr(want, name)), name
    assert want.alloc.mapping.n_2d > s  # the 2D path is busy


def test_forward_scenes_keeps_scenes_apart_bitwise(rig6):
    # perturbing one scene's feature maps leaves every other scene of its
    # batch bit-identical, also where the perturbed scene's column count
    # changes and so moves the offset of every later scene's 2D columns
    rig, dec, scenes, feats = scene_batch(rig6, 6)
    target, n_views = 2, len(rig)
    outs, _ = dec.forward_scenes(feats, len(scenes))
    bumped = copy.deepcopy(feats)
    rng = np.random.default_rng(4)
    for s, atlas in enumerate(bumped.atlas):
        first, end = bumped.start[s, target * n_views], bumped.start[s, (target + 1) * n_views]
        atlas[first:end] += rng.uniform(0.0, 3.0, (end - first, 1))
    outs_bumped, _ = dec.forward_scenes(bumped, len(scenes))
    for j in range(len(scenes)):
        same = [same_bits(a, b) for a, b in zip(head_arrays(outs[j]),
                                                head_arrays(outs_bumped[j]), strict=True)]
        assert all(same) if j != target else not all(same), j
    assert any(a.mapping.n_2d != b.mapping.n_2d
               for a, b in zip(outs[target].layers_2d, outs_bumped[target].layers_2d))


def test_forward_scenes_ignores_view_id_labels(rig6):
    # the many-scenes rig (crops of views 0 and 3) with its view ids
    # relabelled to sparse, shuffled values: the composed (scene, camera)
    # group ids change order and spacing, and 16 scenes keep every head
    # output's bits
    rig = extend_rig(rig6, [CropRule(source_view_id=0, scale_rate=2.0),
                            CropRule(source_view_id=3, scale_rate=2.0)])
    new_id = dict(zip((v.view_id for v in rig), [40, 3, 17, 11, 90, 5, 63, 21], strict=True))
    relabelled = [dataclasses.replace(v, view_id=new_id[v.view_id]) for v in rig]
    scenes = [sample_scene(seed, rig, n_boxes=20) for seed in range(16)]
    outs = []
    for views in (rig, relabelled):
        dec = HybridDecoder(DecoderConfig(n_queries=64, channels=32, heads=4), views)
        feats = blank_features(views, (8, 16), len(scenes))
        for slot, scene in enumerate(scenes):
            render_features(scene, views, (8, 16), into=feats, slot=slot)
        outs.append(dec.forward_scenes(feats, len(scenes))[0])
    for want, got in zip(*outs, strict=True):
        for w, g in zip(want.layers_2d, got.layers_2d, strict=True):
            mapped = [new_id[v] for v in w.mapping.camera_of_col.tolist()]
            assert g.mapping.camera_of_col.tolist() == mapped
            assert all(same_bits(getattr(w, name), getattr(g, name))
                       for name in ("boxes2d", "logits", "alphas"))
        for w, g in zip(want.layers_3d + want.agg_taps, got.layers_3d + got.agg_taps, strict=True):
            assert same_bits(w.boxes3d, g.boxes3d) and same_bits(w.logits, g.logits)
    assert sum(o.layers_2d[-1].mapping.n_2d for o in outs[0]) > 64  # the 2D path is busy


def test_forward_scenes_errors(rig6):
    rig, dec, _, feats = scene_batch(rig6, 2)
    with pytest.raises(ValueError, match="^n_scenes must be positive, got 0$"):
        dec.forward_scenes(feats, 0)
    stride = max(v.view_id for v in rig) + 1
    with pytest.raises(ValueError, match=f"^missing feature maps for view {2 * stride}$"):
        dec.forward_scenes(feats, 3)


def test_2d_output_rows_match_allocation(setup):
    rig, feats = setup
    cfg = small_config(l_2d=2, l_3d=1, l_hybrid=2)
    dec = HybridDecoder(cfg, rig)
    out, _ = dec.forward(feats)
    for layer in out.layers_2d:
        m = layer.mapping.n_2d
        assert layer.boxes2d.shape == (m, 4)
        assert layer.logits.shape == (m, cfg.n_classes)
        assert layer.alphas.shape == (m, 2)
        assert layer.ref_points.shape == (m, 2)


def test_cross_attention_3d_samples_views_where_center_is_in_view(rig6, monkeypatch):
    import mvdet.decoder as decoder_mod
    from mvdet.crop_scale import CropRule, extend_rig
    from mvdet.geometry import project_rig

    rig = extend_rig(rig6, [CropRule(source_view_id=0, scale_rate=2.0)])
    scene = sample_scene(2, rig, n_boxes=8)
    feats = render_features(scene, rig, scales=(8, 16))
    dec = HybridDecoder(small_config(n_queries=200), rig)
    queries = dec.initial_queries()
    anchors = queries.anchors.copy()
    anchors[:10, 0:3] = (0.0, 0.0, 40.0)  # overhead: in no camera's image
    calls = []
    real = decoder_mod.sample_views

    def spy(features, view_ids, pts, params):
        calls.append((np.asarray(view_ids).copy(), pts.copy()))
        return real(features, view_ids, pts, params)

    monkeypatch.setattr(decoder_mod, "sample_views", spy)
    dec._cross_attention_3d(queries.features, anchors, feats, dec.layers_3d[0][0].cross)
    [(view_ids, pts)] = calls  # one sampler call for every (view, anchor) pair
    assert np.all(np.diff(np.searchsorted([v.view_id for v in rig], view_ids)) >= 0)
    sampled = {int(v): pts[view_ids == v] for v in np.unique(view_ids)}

    n_views = np.zeros(queries.n, dtype=int)
    proj = project_rig(rig, anchors)
    for view_id, center_in_view, uv in zip(proj.view_ids, proj.center_in_view, proj.uv):
        n_views += center_in_view
        if center_in_view.any():
            assert np.array_equal(sampled.pop(view_id), uv[center_in_view, 0])
    assert sampled == {}  # no view sampled beyond those
    assert n_views.max() > 1 and n_views.min() == 0


def test_multiview_sampling_matches_per_view_loops(rig6, monkeypatch):
    # a crop view whose image size differs from the base cameras'
    rig = extend_rig(rig6, [CropRule(source_view_id=0, scale_rate=2.0,
                                     out_width=352, out_height=128)])
    scene = sample_scene(3, rig, n_boxes=15)
    feats = render_features(scene, rig, scales=(8, 16))
    dec = HybridDecoder(small_config(n_queries=300, l_2d=1, l_3d=1, l_hybrid=3), rig)
    queries = dec.initial_queries()
    cross = dec.layers_3d[0][0].cross
    got = dec._cross_attention_3d(queries.features, queries.anchors, feats, cross)
    assert np.array_equal(got, cross_attention_3d_per_view(rig, queries.anchors, feats, cross))

    def run():
        return dec.forward(feats)

    out, updated = run()
    monkeypatch.setattr(decoder, "ref_point_cross_attention", ref_point_cross_attention_per_view)
    monkeypatch.setattr(HybridDecoder, "_cross_attention_3d",
                        lambda self, q3, anchors, features, params:
                        cross_attention_3d_per_view(self.rig, anchors, features, params))
    want_out, want = run()
    assert {int(v) for l in out.layers_2d for v in l.mapping.camera_of_col} >= {6}
    assert np.array_equal(updated.features, want.features)
    assert np.array_equal(updated.anchors, want.anchors)
    for g, w in zip(out.layers_2d, want_out.layers_2d, strict=True):
        assert np.array_equal(g.boxes2d, w.boxes2d) and np.array_equal(g.logits, w.logits)
    for g, w in zip(out.layers_3d + out.agg_taps, want_out.layers_3d + want_out.agg_taps,
                    strict=True):
        assert np.array_equal(g.boxes3d, w.boxes3d) and np.array_equal(g.logits, w.logits)


def test_view_drop_robustness(rig6):
    scene = sample_scene(2, rig6, n_boxes=8)
    feats = render_features(scene, rig6, scales=(8, 16))
    cfg = small_config()
    dec_full = HybridDecoder(cfg, rig6)
    out_full, _ = dec_full.forward(feats)
    rig5 = rig6[:-1]
    dec_small = HybridDecoder(cfg, rig5)
    out_small, upd = dec_small.forward(feats)
    dropped = rig6[-1].view_id
    cams_full = {int(v) for l in out_full.layers_2d for v in np.unique(l.mapping.camera_of_col)}
    cams_small = {int(v) for l in out_small.layers_2d for v in np.unique(l.mapping.camera_of_col)}
    assert dropped in cams_full
    assert dropped not in cams_small
    assert cams_small <= cams_full - {dropped}
    assert upd.n == cfg.n_queries


def test_forward_errors(setup):
    rig, feats = setup
    cfg = small_config()
    dec = HybridDecoder(cfg, rig)
    scene = sample_scene(2, rig, n_boxes=8)
    with pytest.raises(ValueError, match=f"missing feature maps for view {rig[-1].view_id}"):
        dec.forward(render_features(scene, rig[:-1]))
    with pytest.raises(ValueError, match=f"view {rig[0].view_id}: expected 2 scales, got 1"):
        dec.forward(render_features(scene, rig, scales=(8,)))

