import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvdet._kernels import box_points
from mvdet.crop_scale import CropRule, extend_rig
from mvdet.geometry import Boxes2D, make_surround_rig, project_rig
from mvdet.decoder import DecoderConfig, HybridDecoder
from mvdet.groupattn import CrossAttentionParams, RigFeatures, sample_views
from mvdet.metrics import Detections, MatchParams, aar
import mvdet.simulator as simulator
from mvdet.simulator import (
    CLASS_PRIORS,
    OracleNoise,
    Scene,
    SceneRanges,
    _bev_rects,
    _extents,
    blank_features,
    derive_gt2d,
    perturb,
    render_depths,
    render_features,
    sample_scene,
)

from conftest import (
    box9, project_one_view, random_rig_with_crop, rig_features, same_bits, scored, take,
    view_maps,
)


# ------------------------------------------------------------------------------
# The per-pair overlap test and the per-candidate sampler and perturbation
# loops that the array forms replaced, kept as references.

def bev_corners(anchor: np.ndarray) -> np.ndarray:
    """(4, 2) bottom-face corners of one (9,) anchor in the BEV plane."""
    return box_points(anchor[None, :])[0][1:5, :2]


def bev_overlap(ca: np.ndarray, cb: np.ndarray) -> bool:
    """Separating-axis test of two yaw-rotated rectangles given by corners."""
    for rect in (ca, cb):
        for k in range(2):
            edge = rect[k + 1] - rect[k]
            axis = np.array([-edge[1], edge[0]])
            pa = ca @ axis
            pb = cb @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def sample_anchors_per_candidate(seed, n_boxes, ranges=None, max_attempts_per_box=200):
    """Anchors and classes of the rejection sampler, one candidate at a time,
    each tested against every placed box with ``bev_overlap``."""
    ranges = ranges or SceneRanges()
    rng = np.random.default_rng(seed)
    placed, placed_corners, classes = [], [], []
    attempts = 0
    budget = max_attempts_per_box * max(n_boxes, 1)
    while len(placed) < n_boxes:
        if attempts >= budget:
            raise RuntimeError(
                f"could not place {n_boxes} boxes in {budget} attempts; "
                "scene too dense for the sampling ranges"
            )
        attempts += 1
        cls = int(rng.integers(len(CLASS_PRIORS)))
        _, mean_size, jitter, vmax = CLASS_PRIORS[cls]
        size = np.asarray(mean_size) * np.exp(jitter * rng.uniform(-1.0, 1.0, 3))
        x = rng.uniform(*ranges.x)
        y = rng.uniform(*ranges.y)
        yaw = rng.uniform(-np.pi, np.pi)
        vel = vmax * rng.uniform(-1.0, 1.0, 2)
        cand = np.array(
            [x, y, size[2] / 2.0, size[0], size[1], size[2], yaw, vel[0], vel[1]]
        )
        corners = bev_corners(cand)
        if any(bev_overlap(corners, p) for p in placed_corners):
            continue
        placed.append(cand)
        placed_corners.append(corners)
        classes.append(cls)
    return (np.stack(placed) if placed else np.zeros((0, 9))), np.array(classes, dtype=np.intp)


# box_points' bottom-face corner signs as (length, width) pairs,
# counter-clockwise from (+x, +y)
_BEV_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
_MEAN_SIZES = np.array([prior[1] for prior in CLASS_PRIORS])


def _bev_rect(x: float, y: float, w: float, l: float, yaw: float):
    """(4, 2) bottom-face BEV corners of one box and (2, 2) normals of its
    edges 0-1 and 1-2, on Python floats, with the bits of ``box_points``."""
    c, s = float(np.cos(yaw)), float(np.sin(yaw))
    hw, hl = 0.5 * w, 0.5 * l
    pts = [(x + (hl * sx * c - hw * sy * s), y + (hl * sx * s + hw * sy * c))
           for sx, sy in _BEV_SIGNS]
    (x0, y0), (x1, y1), (x2, y2), _ = pts
    return np.array(pts), np.array([(-(y1 - y0), x1 - x0), (-(y2 - y1), x2 - x1)])


def _separated(pairs: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Separating-axis test of rectangle pairs: ``pairs`` holds the (n, 2,
    4, 2) corners of each pair's two rectangles, ``axes`` its (n, 4, 2)
    edge normals.  Returns (n,) True where some axis separates the pair."""
    proj = pairs[:, :, None] @ axes[:, None, :, :, None]  # (n, 2, 4 axes, 4 corners, 1)
    c = proj.transpose(3, 0, 1, 2, 4)
    hi = np.maximum(np.maximum(c[0], c[1]), np.maximum(c[2], c[3]))
    lo = np.minimum(np.minimum(c[0], c[1]), np.minimum(c[2], c[3]))
    return ((hi[:, 0] < lo[:, 1]) | (hi[:, 1] < lo[:, 0])).any(axis=(1, 2))


def sample_scene_reference(seed, rig, ranges=None, n_boxes=20, frame_id=0,
                           max_attempts_per_box=200):
    """``sample_scene`` one candidate at a time: each candidate draws its
    class and its eight doubles, and is tested against every placed box at
    once by ``_separated``."""
    ranges = ranges or SceneRanges()
    x_lo, x_hi = map(float, ranges.x)
    y_lo, y_hi = map(float, ranges.y)
    rng = np.random.default_rng(seed)
    anchors = np.empty((n_boxes, 9))
    classes = np.empty(n_boxes, dtype=np.intp)
    # pair i: (candidate, placed box i) corners and their four edge normals
    pairs = np.empty((n_boxes, 2, 4, 2))
    pair_axes = np.empty((n_boxes, 4, 2))
    n = attempts = 0
    budget = max_attempts_per_box * max(n_boxes, 1)
    while n < n_boxes:
        if attempts >= budget:
            raise RuntimeError(
                f"could not place {n_boxes} boxes in {budget} attempts; "
                "scene too dense for the sampling ranges"
            )
        attempts += 1
        cls = int(rng.integers(len(CLASS_PRIORS)))
        _, _, jitter, vmax = CLASS_PRIORS[cls]
        u = rng.random(8)
        w, l, h = (_MEAN_SIZES[cls] * np.exp(jitter * (-1.0 + 2.0 * u[0:3]))).tolist()
        ux, uy, uyaw, uvx, uvy = u[3:].tolist()
        x = x_lo + (x_hi - x_lo) * ux
        y = y_lo + (y_hi - y_lo) * uy
        yaw = -np.pi + 2.0 * np.pi * uyaw
        # the candidate goes into every pair, and into slot n for when it is kept
        pairs[: n + 1, 0], pair_axes[: n + 1, 0:2] = _bev_rect(x, y, w, l, yaw)
        if not _separated(pairs[:n], pair_axes[:n]).all():
            continue
        anchors[n] = (x, y, h / 2.0, w, l, h, yaw,
                      vmax * (-1.0 + 2.0 * uvx), vmax * (-1.0 + 2.0 * uvy))
        classes[n], pairs[n, 1], pair_axes[n, 2:4] = cls, pairs[n, 0], pair_axes[n, 0:2]
        n += 1
    proj = project_rig(rig, anchors)
    gt2d, link = derive_gt2d(proj, classes)
    return Scene(seed=seed, frame_id=frame_id, anchors=anchors, classes=classes,
                 gt2d=gt2d, gt2d_link=link, rig=list(rig), projection=proj)


def perturb_per_box(scene, noise, seed):
    """Detections of ``perturb``, drawn box by box from the generator."""
    rng = np.random.default_rng(seed)

    def score() -> float:
        return float(1.0 - noise.score_spread * rng.uniform())

    keep3, centers, scores3 = [], [], []
    for i, box in enumerate(scene.anchors):
        if noise.drop_prob_3d > 0.0 and rng.uniform() < noise.drop_prob_3d:
            continue
        keep3.append(i)
        centers.append(box[0:3] + noise.jitter_m * rng.uniform(-1.0, 1.0, 3))
        scores3.append(score())
    boxes3d = scene.anchors[keep3]
    boxes3d[:, 0:3] = np.reshape(centers, (-1, 3))
    gt = scene.gt2d
    keep2, rect, scores2 = [], [], []
    for j, ((cx, cy, w, h), view_id) in enumerate(zip(gt.rect.tolist(), gt.view_id.tolist())):
        drop = noise.drop_for(view_id)
        if drop > 0.0 and rng.uniform() < drop:
            continue
        keep2.append(j)
        cx = cx + noise.jitter_px * rng.uniform(-1.0, 1.0)
        cy = cy + noise.jitter_px * rng.uniform(-1.0, 1.0)
        rect.append((cx, cy, w, h))
        scores2.append(score())
    return Detections(
        boxes3d=boxes3d, classes3d=scene.classes[keep3], scores3d=scores3,
        boxes2d=Boxes2D(np.reshape(rect, (-1, 4)), gt.view_id[keep2], gt.class_id[keep2]),
        scores2d=scores2,
    )


def two_crop_rig():
    """The six-camera rig with crops of views 0 and 3, the second at its own
    output size."""
    return extend_rig(make_surround_rig(6), [
        CropRule(source_view_id=0, scale_rate=2.0),
        CropRule(source_view_id=3, scale_rate=2.5, out_width=640, out_height=360),
    ])


def test_empty_scene(rig6):
    scene = sample_scene(0, rig6, n_boxes=0)
    assert scene.anchors.shape == (0, 9) and len(scene.classes) == 0
    assert len(scene.gt2d) == 0 and len(scene.gt2d_link) == 0


def test_seed_determinism(rig6):
    a = sample_scene(42, rig6, n_boxes=12)
    b = sample_scene(42, rig6, n_boxes=12)
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    c = sample_scene(43, rig6, n_boxes=12)
    assert json.dumps(a.to_json_obj()) != json.dumps(c.to_json_obj())


def test_gt2d_matches_projection_oracle(rig6):
    scene = sample_scene(3, rig6, n_boxes=15)
    views = {v.view_id: v for v in rig6}
    expected = set()
    for i, anchor in enumerate(scene.anchors):
        for view in rig6:
            pa = project_one_view(view, anchor[None])
            if pa.valid[0] and pa.rect_area[0] > 0:
                cx, cy = pa.rect[0, 0:2].tolist()
                expected.add((i, view.view_id, round(cx, 9), round(cy, 9)))
    gt = scene.gt2d
    got = {
        (link, view_id, round(cx, 9), round(cy, 9))
        for link, view_id, (cx, cy) in zip(scene.gt2d_link.tolist(), gt.view_id.tolist(),
                                           gt.rect[:, 0:2].tolist())
    }
    assert got == expected
    assert gt.class_id.tolist() == scene.classes[scene.gt2d_link].tolist()
    # and every entry satisfies the validity rule in its own view (no
    # hallucinated ground truth)
    for link, view_id in zip(scene.gt2d_link.tolist(), gt.view_id.tolist()):
        pa = project_one_view(views[view_id], scene.anchors[link][None])
        assert pa.valid[0]


def test_boxes_do_not_overlap(rig6):
    scene = sample_scene(7, rig6, n_boxes=25)
    arr = scene.anchors
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            assert not bev_overlap(bev_corners(arr[i]), bev_corners(arr[j]))


def bev_rects_of(*boxes):
    """``_bev_rects`` of (9,) boxes."""
    x, y, _, w, l, _, yaw, _, _ = np.stack(boxes).T
    return _bev_rects(x, y, w, l, yaw)


def separated_pair(a, b) -> bool:
    """Whether the sampler's separation table keeps the (9,) boxes a
    (candidate) and b apart, both with b placed in an earlier block and
    with a and b in one block, and with the decision of ``_separated``."""
    (ra, xa), (rb, xb) = bev_rects_of(a), bev_rects_of(b)
    own_lo, own_hi = _extents(rb, xb)
    to_placed = simulator._separation(rb, xb, own_lo, own_hi, ra, xa)[0]
    rects, axes = bev_rects_of(a, b)
    none = np.empty((0, 2))
    to_block = simulator._separation(rects[:0], axes[:0], none, none, rects, axes)[1]
    assert to_placed.shape == (1, 1) and to_block.shape == (2, 2)
    (ca, xa1), (cb, xb1) = (_bev_rect(*box[[0, 1, 3, 4, 6]].tolist()) for box in (a, b))
    want = bool(_separated(np.stack([ca, cb])[None], np.concatenate([xa1, xb1])[None])[0])
    assert to_placed[0, 0] == to_block[0, 1] == to_block[1, 0] == want
    return want


def flat_box(x, y, w, l, yaw):
    return box9((x, y, 0.5), (w, l, 1.0), yaw)


# edge cases: shared edges, corner contact, identical boxes, containment
# and 90-degree-rotated squares, in both orders
EDGE_CASES = {
    "shared_edge_x": (flat_box(0, 0, 2, 4, 0), flat_box(4, 0, 2, 4, 0)),
    "shared_edge_y": (flat_box(0, 0, 2, 4, 0), flat_box(0, 2, 2, 4, 0)),
    "shared_edge_rotated": (flat_box(1.5, -2.25, 1.9, 4.5, 0.7),
                            flat_box(1.5 + 4.5 * np.cos(0.7), -2.25 + 4.5 * np.sin(0.7),
                                     1.9, 4.5, 0.7)),
    "shared_edge_offset": (flat_box(0, 0, 2, 4, 0), flat_box(4, 0.5, 2, 4, 0)),
    "corner_contact": (flat_box(0, 0, 2, 4, 0), flat_box(4, 2, 2, 4, 0)),
    "corner_contact_diamond": (flat_box(0, 0, 2, 2, 0),
                               flat_box(1 + np.sqrt(2), 0, 2, 2, np.pi / 4)),
    "identical": (flat_box(3, -7, 1.9, 4.5, 0.3), flat_box(3, -7, 1.9, 4.5, 0.3)),
    "contained": (flat_box(0, 0, 4, 8, 0.4), flat_box(0.5, 0.2, 0.6, 0.6, 1.1)),
    "square_rot90_same": (flat_box(2, 2, 2, 2, 0), flat_box(2, 2, 2, 2, np.pi / 2)),
    "square_rot90_touching": (flat_box(0, 0, 2, 2, 0), flat_box(2, 0, 2, 2, np.pi / 2)),
    "square_rot90_apart": (flat_box(0, 0, 2, 2, 0), flat_box(2 + 1e-12, 0, 2, 2, -np.pi / 2)),
    "square_rot90_overlapping": (flat_box(0, 0, 2, 2, 0), flat_box(2 - 1e-12, 0, 2, 2, np.pi / 2)),
    "square_rot180_touching": (flat_box(0, 0, 2, 2, np.pi / 2), flat_box(0, 2, 2, 2, -np.pi)),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_separated_decides_edge_cases_like_the_pair_test(name):
    a, b = EDGE_CASES[name]
    for first, second in ((a, b), (b, a)):
        assert separated_pair(first, second) == (not bev_overlap(bev_corners(first),
                                                                 bev_corners(second)))


coord = st.floats(-60.0, 60.0, allow_nan=False)
side = st.floats(0.05, 12.0, allow_nan=False)
angle = st.floats(-np.pi, np.pi, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(coord, coord, side, side, angle, coord, coord, side, side, angle)
@example(0.0, 0.0, 2.0, 4.0, 0.0, 4.0, 0.0, 2.0, 4.0, 0.0)
def test_separated_decides_random_pairs_like_the_pair_test(x1, y1, w1, l1, yaw1,
                                                           x2, y2, w2, l2, yaw2):
    a, b = flat_box(x1, y1, w1, l1, yaw1), flat_box(x2, y2, w2, l2, yaw2)
    assert separated_pair(a, b) == (not bev_overlap(bev_corners(a), bev_corners(b)))


@settings(max_examples=300, deadline=None)
@given(coord, coord, side, side, angle, side, side, st.integers(0, 3),
       st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi / 2]), st.floats(-1.0, 1.0))
# a pair that a plain multiply-add projection decides unlike ``rect @ axis``
@example(0.0, 0.0, 0.5, 0.6191855344191509, 0.0, 3.0, 2.0, 0, np.pi, 0.0)
def test_separated_decides_touching_pairs_like_the_pair_test(x, y, w, l, yaw, w2, l2, face,
                                                             turn, slide):
    """Box b set against face ``face`` of box a at exactly the touching
    distance in real arithmetic, turned by a multiple of 90 degrees and
    slid along the face: the decision rests on the last bits."""
    c, s = np.cos(yaw), np.sin(yaw)
    ext_b = (l2, w2) if turn in (0.0, np.pi) else (w2, l2)  # b's extent along a's (x, y)
    along = (l, w)[face % 2] / 2.0 + ext_b[face % 2] / 2.0
    sign = 1.0 if face < 2 else -1.0
    dx, dy = (sign * along, slide * w) if face % 2 == 0 else (slide * l, sign * along)
    a = flat_box(x, y, w, l, yaw)
    b = flat_box(x + dx * c - dy * s, y + dx * s + dy * c, w2, l2, yaw + turn)
    for first, second in ((a, b), (b, a)):
        assert separated_pair(first, second) == (not bev_overlap(bev_corners(first),
                                                                 bev_corners(second)))


@settings(max_examples=200, deadline=None)
@given(coord, coord, side, side, angle, st.integers(0, 8))
def test_bev_rect_corners_are_box_points_bits(x, y, w, l, yaw, at):
    """The box's corners and edge normals, alone and at place ``at`` of a
    batch of nine, carry the bits of ``box_points`` and of ``_bev_rect``."""
    box = flat_box(x, y, w, l, yaw)
    batch = [flat_box(*row) for row in np.random.default_rng(at).uniform(
        (-60.0, -60.0, 0.05, 0.05, -np.pi), (60.0, 60.0, 12.0, 12.0, np.pi), (9, 5))]
    batch[at] = box
    want = bev_corners(box)
    edges = want[1:3] - want[0:2]
    for (corners, axes), k in ((bev_rects_of(box), 0), (bev_rects_of(*batch), at)):
        assert same_bits(corners[k], want)
        assert same_bits(axes[k], np.stack([-edges[:, 1], edges[:, 0]], axis=1))
        assert all(map(same_bits, (corners[k], axes[k]), _bev_rect(x, y, w, l, yaw)))


def same_scenes(got, want) -> bool:
    """Bit-equal anchors, classes, 2D ground truth and links."""
    return (same_bits(got.anchors, want.anchors) and np.array_equal(got.classes, want.classes)
            and same_bits(got.gt2d.rect, want.gt2d.rect)
            and np.array_equal(got.gt2d.view_id, want.gt2d.view_id)
            and np.array_equal(got.gt2d.class_id, want.gt2d.class_id)
            and np.array_equal(got.gt2d_link, want.gt2d_link))


def sampled(sampler, *args, **kwargs):
    """The scene the sampler draws, or the message of the error it raises."""
    try:
        return sampler(*args, **kwargs)
    except RuntimeError as exc:
        return str(exc)


# (half-width of the square ranges, boxes, attempts per box): a wide scene
# of one block, one of two blocks with a rejection, dense scenes that
# refill their blocks and one that runs out of attempts
SAMPLER_CASES = [(50.0, 20, 200), (50.0, 40, 200), (6.0, 20, 200), (9.0, 40, 200),
                 (3.0, 20, 4)]


def test_sampler_cases_cover_rejections_refills_and_the_budget(monkeypatch):
    """The sampler cases reach what they are named for."""
    blocks = []
    bev_rects = simulator._bev_rects
    monkeypatch.setattr(simulator, "_bev_rects", lambda *a: blocks.append(1) or bev_rects(*a))
    rig, seen = make_surround_rig(1), set()
    for half, n_boxes, m in SAMPLER_CASES:
        ranges = SceneRanges(x=(-half, half), y=(-half, half))
        blocks.clear()
        got = sampled(sample_scene, 1, rig, ranges, n_boxes, max_attempts_per_box=m)
        # one attempt per box fails exactly when some candidate is rejected
        rejects = isinstance(sampled(sample_scene_reference, 1, rig, ranges, n_boxes,
                                     max_attempts_per_box=1), str)
        seen |= {("reject", rejects), ("blocks", len(blocks) > 1),
                 ("refill", len(blocks) > 1 and n_boxes <= simulator._BLOCK),
                 ("budget", isinstance(got, str))}
    assert {("reject", True), ("blocks", True), ("refill", True), ("budget", True),
            ("budget", False)} <= seen


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40),
       st.sampled_from([50.0, 20.0, 12.0, 8.0, 5.0, 3.0]), st.integers(1, 30))
@example(1, 20, 3.0, 4)
@example(1, 40, 9.0, 200)
def test_sampler_places_the_boxes_of_the_per_candidate_loop(seed, n_boxes, half, m):
    """Ranges from wide to dense: the block sampler places the boxes of the
    one-candidate-at-a-time loop, bit for bit, and derives the same 2D
    ground truth, or raises its error."""
    rig = make_surround_rig(2)
    ranges = SceneRanges(x=(-half, half), y=(-half, half))
    got = sampled(sample_scene, seed, rig, ranges, n_boxes, max_attempts_per_box=m)
    want = sampled(sample_scene_reference, seed, rig, ranges, n_boxes, max_attempts_per_box=m)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_scenes(got, want)


def test_dense_sampler_holds_no_table_of_all_candidate_pairs():
    """300 boxes in a 60 m square: each block of candidates meets the placed
    boxes in a table of block x placed extents, so the peak stays well
    under one float64 per (candidate, candidate, normal, corner)."""
    rig, ranges = make_surround_rig(1), SceneRanges(x=(-30.0, 30.0), y=(-30.0, 30.0))
    drawn = []
    bev_rects = simulator._bev_rects
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_bev_rects", lambda *a: drawn.append(len(a[0])) or bev_rects(*a))
        scene = sample_scene(0, rig, ranges, n_boxes=300)
    candidates = sum(drawn)
    assert len(scene.anchors) == 300 and candidates > 400
    tracemalloc.start()
    try:
        sample_scene(0, rig, ranges, n_boxes=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < candidates ** 2 * 2 * 4 * 8 / 4


@pytest.mark.parametrize("n_boxes", [20, 25])
def test_sampler_draws_the_per_candidate_scenes(rig6, n_boxes):
    """200 seeds: the array sampler places the anchors and classes of the
    per-candidate loop, bit for bit, and derives the same 2D ground truth,
    on the six-camera rig and on it with two crop views."""
    rigs = [rig6, two_crop_rig()]
    for seed in range(200):
        anchors, classes = sample_anchors_per_candidate(seed, n_boxes)
        for rig in rigs:
            scene = sample_scene(seed, rig, n_boxes=n_boxes)
            assert same_bits(scene.anchors, anchors), (seed, n_boxes)
            assert np.array_equal(scene.classes, classes)
            proj = project_rig(rig, anchors)
            assert all(same_bits(getattr(scene.projection, f), getattr(proj, f))
                       for f in ("view_ids", "uv", "valid", "rect", "rect_area", "ref_point"))
            vi, ai = np.nonzero(proj.valid & (proj.rect_area > 0.0))
            assert same_bits(scene.gt2d.rect, proj.rect[vi, ai])
            assert np.array_equal(scene.gt2d.view_id, proj.view_ids[vi])
            assert np.array_equal(scene.gt2d.class_id, classes[ai])
            assert np.array_equal(scene.gt2d_link, ai)


def _places(ranges, n_boxes, m) -> bool:
    """Whether the per-candidate loop places the boxes of seed 0 with m attempts per box."""
    try:
        sample_anchors_per_candidate(0, n_boxes, ranges, m)
    except RuntimeError:
        return False
    return True


def test_sampler_gives_up_at_the_per_candidate_budget(rig6):
    """A dense scene the per-candidate loop places only with m attempts per
    box: the array sampler places the same boxes with m and raises the same
    error with m - 1."""
    ranges, n_boxes = SceneRanges(x=(-3, 3), y=(-3, 3)), 20
    m = next(m for m in range(1, 200) if _places(ranges, n_boxes, m))
    assert m > 2
    anchors, _ = sample_anchors_per_candidate(0, n_boxes, ranges, m)
    assert same_bits(sample_scene(0, rig6, ranges, n_boxes, max_attempts_per_box=m).anchors,
                     anchors)
    with pytest.raises(RuntimeError) as want:
        sample_anchors_per_candidate(0, n_boxes, ranges, m - 1)
    with pytest.raises(RuntimeError) as got:
        sample_scene(0, rig6, ranges, n_boxes, max_attempts_per_box=m - 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_boxes": -1}, "n_boxes must be non-negative, got -1"),
    ({"max_attempts_per_box": 0}, "max_attempts_per_box must be positive, got 0"),
    ({"n_boxes": 0, "max_attempts_per_box": -3}, "max_attempts_per_box must be positive, got -3"),
])
def test_sampler_rejects_bad_counts_by_name(rig6, kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_scene(0, rig6, **kwargs)


NOISES = {
    "zero": OracleNoise(),
    "run": OracleNoise(drop_prob=0.2, jitter_px=3.0, jitter_m=0.3),
    "per_view": OracleNoise(drop_prob={0: 0.5, 2: 1.0, 4: 0.1}, jitter_px=1.5,
                            drop_prob_3d=0.3, score_spread=0.4),
    "all": OracleNoise(drop_prob=0.35, jitter_px=7.0, jitter_m=1.1, drop_prob_3d=0.25,
                       score_spread=0.9),
    "full_drop": OracleNoise(drop_prob=1.0, drop_prob_3d=1.0, score_spread=0.5),
}


@pytest.mark.parametrize("name", sorted(NOISES))
def test_perturb_draws_the_per_box_detections(rig6, name):
    noise = NOISES[name]
    for seed in range(25):
        scene = sample_scene(seed, rig6, n_boxes=seed % 21)
        got, want = perturb(scene, noise, seed=seed + 1), perturb_per_box(scene, noise, seed + 1)
        for field in ("boxes3d", "classes3d", "scores3d", "scores2d"):
            assert same_bits(getattr(got, field), getattr(want, field)), (seed, field)
        for field in ("rect", "view_id", "class_id"):
            assert same_bits(getattr(got.boxes2d, field), getattr(want.boxes2d, field))


def test_infeasible_density_raises(rig6):
    with pytest.raises(RuntimeError):
        sample_scene(
            0, rig6, ranges=SceneRanges(x=(-3, 3), y=(-3, 3)), n_boxes=200,
            max_attempts_per_box=5,
        )


def test_scene_json_roundtrip(rig6):
    scene = sample_scene(11, rig6, n_boxes=10)
    back = Scene.from_json_obj(json.loads(json.dumps(scene.to_json_obj())))
    assert back.to_json_obj() == scene.to_json_obj()
    assert np.array_equal(back.anchors, scene.anchors)
    assert np.array_equal(back.classes, scene.classes)
    assert np.array_equal(back.gt2d.rect, scene.gt2d.rect)
    assert np.array_equal(back.gt2d.view_id, scene.gt2d.view_id)
    assert np.array_equal(back.gt2d.class_id, scene.gt2d.class_id)
    assert np.array_equal(back.gt2d_link, scene.gt2d_link)


def test_zero_noise_perturb_reproduces_gt(rig6):
    scene = sample_scene(5, rig6, n_boxes=10)
    det = perturb(scene, OracleNoise(), seed=1)
    assert np.array_equal(det.boxes3d, scene.anchors)
    assert np.array_equal(det.classes3d, scene.classes) and np.all(det.scores3d == 1.0)
    assert np.array_equal(det.boxes2d.rect, scene.gt2d.rect)
    assert np.array_equal(det.boxes2d.view_id, scene.gt2d.view_id)
    assert np.array_equal(det.boxes2d.class_id, scene.gt2d.class_id)
    assert np.all(det.scores2d == 1.0)
    res = aar(det, scene, MatchParams())
    assert res.aar == 100.0 and res.recall == 100.0


def test_full_drop_empties_predictions(rig6):
    scene = sample_scene(5, rig6, n_boxes=10)
    noise = OracleNoise(drop_prob=1.0, drop_prob_3d=1.0)
    det = perturb(scene, noise, seed=1)
    assert det.boxes3d.shape == (0, 9) and len(det.classes3d) == len(det.scores3d) == 0
    assert len(det.boxes2d) == len(det.scores2d) == 0


def test_fixed_drop_pattern_hand_aar(rig6):
    # craft a scene-like truth with one straddling box, drop one view's 2D
    from test_metrics import straddling_truth

    truth, a = straddling_truth(rig6)
    view_to_drop = truth.gt2d.view_id[1]
    kept = take(truth.gt2d, truth.gt2d.view_id != view_to_drop)
    res = aar(scored([a], [0], kept), truth, MatchParams())
    assert (res.n_candidate, res.n_valid) == (2, 1)
    assert res.aar == 50.0


def test_perturb_per_view_drop(rig6):
    scene = sample_scene(9, rig6, n_boxes=12)
    views_present = set(scene.gt2d.view_id.tolist())
    target = sorted(views_present)[0]
    noise = OracleNoise(drop_prob={target: 1.0})
    p2d = perturb(scene, noise, seed=3).boxes2d
    assert all(view_id != target for view_id in p2d.view_id.tolist())
    assert set(p2d.view_id.tolist()) == views_present - {target}


def test_scene_rejects_repeated_view_ids(rig6):
    obj = sample_scene(4, rig6, n_boxes=3, frame_id=9).to_json_obj()
    obj["rig"][3]["view_id"] = 0
    with pytest.raises(ValueError, match="^scene frame 9: view id 0 appears"):
        Scene.from_json_obj(obj)


def test_simulated_scenes_link_gt2d_to_boxes_of_their_class(rig6):
    # every 2D box of a sampled scene carries its 3D box's class, so the
    # constructor's class check accepts them all, through the JSON form too
    for seed in range(6):
        scene = sample_scene(seed, rig6, n_boxes=20)
        assert len(scene.gt2d) > 0
        assert np.array_equal(scene.gt2d.class_id, scene.classes[scene.gt2d_link])
        back = Scene.from_json_obj(json.loads(json.dumps(scene.to_json_obj())))
        assert np.array_equal(back.gt2d.class_id, scene.gt2d.class_id)


def test_scene_rejects_gt2d_class_other_than_its_box(rig6):
    obj = sample_scene(4, rig6, n_boxes=6).to_json_obj()
    j = len(obj["gt2d"]) - 1
    entry = obj["gt2d"][j]
    own = obj["boxes"][entry["box3d_index"]]["class_id"]
    entry["class_id"] = (own + 1) % 5
    with pytest.raises(ValueError, match=(
            rf"^gt2d box {j} has class_id {(own + 1) % 5}, but its 3D box "
            rf"{entry['box3d_index']} has class_id {own}$")):
        Scene.from_json_obj(obj)


def test_render_features_empty_scene(rig6):
    scene = sample_scene(0, rig6, n_boxes=0)
    feats = render_features(scene, rig6)
    depths = render_depths(scene, rig6, 8)
    for v in rig6:
        for fmap in view_maps(feats, v.view_id)[2]:
            assert np.all(fmap == 0.0)
        assert np.all(np.isinf(depths[v.view_id]))


def render_features_per_channel(scene, rig, scales=(8, 16), channels=16):
    """Reference: every bump added to all channels of a (H, W, C) map."""
    proj = project_rig(rig, scene.anchors)
    features = {}
    for view, valid, ref_point, rect in zip(rig, proj.valid, proj.ref_point, proj.rect):
        maps = []
        for s in scales:
            hm = max(view.height // s, 1)
            wm = max(view.width // s, 1)
            fmap = np.zeros((hm, wm, channels))
            gy, gx = np.mgrid[0:hm, 0:wm]
            for i in np.flatnonzero(valid):
                u, v = ref_point[i]
                mx = u * (wm / view.width) - 0.5
                my = v * (hm / view.height) - 0.5
                sigma = max(float(rect[i, 2]) * (wm / view.width) / 4.0, 0.75)
                amp = float(scene.classes[i] + 1)
                bump = amp * np.exp(
                    -((gx - mx) ** 2 + (gy - my) ** 2) / (2.0 * sigma * sigma)
                )
                fmap += bump[:, :, None]
            maps.append(fmap)
        features[view.view_id] = maps
    return features


def render_features_per_view(scene, rig, scales=(8, 16), into=None, slot=0):
    """``render_features`` one view and scale at a time: each plane is its
    own (H, B) @ (B, W) product of the B bumps its view sees."""
    proj = project_rig(rig, scene.anchors)
    features = blank_features(rig, scales) if into is None else into
    first_view = slot * len(rig)
    vi, ai = np.nonzero(proj.valid)
    first = np.searchsorted(vi, np.arange(len(rig) + 1)).tolist()
    (u, v), width = proj.ref_point[vi, ai].T, proj.rect[vi, ai, 2]
    amp = (scene.classes[ai] + 1.0)[:, None]
    for si in range(len(scales)):
        wm, hm = features.map_size[si, first_view + vi].T
        img_w, img_h = features.image_size[first_view + vi].T
        fx, fy = wm / img_w, hm / img_h
        mx, my = (u * fx - 0.5)[:, None], (v * fy - 0.5)[:, None]
        sigma = np.maximum(width * fx / 4.0, 0.75)
        divisor = -(2.0 * sigma * sigma)[:, None]
        for k in range(len(rig)):
            fmap = features.view_map(si, first_view + k)
            box = slice(first[k], first[k + 1])
            gx = np.exp(np.square(np.arange(fmap.shape[1]) - mx[box]) / divisor[box])
            gy = np.exp(np.square(np.arange(fmap.shape[0]) - my[box]) / divisor[box])
            fmap[:, :, 0] = (gy * amp[box]).T @ gx
    return features


def scene_of(rig, boxes, classes):
    """Scene of (9,) boxes with given class ids and no 2D ground truth."""
    return Scene(seed=0, frame_id=0, anchors=boxes, classes=classes,
                 gt2d=Boxes2D(np.zeros((0, 4)), [], []), gt2d_link=[], rig=list(rig))


def render_case(name):
    """(rig, scene, scales, channels) of one render case."""
    rig6 = make_surround_rig(6)
    if name == "two_crops":
        rig = two_crop_rig()
        return rig, sample_scene(11, rig, n_boxes=20), (8, 16), 4
    if name == "distant_small":  # narrow far boxes: the 0.75 sigma floor
        boxes = [box9((r * np.cos(a), r * np.sin(a), 0.4), (0.4, 0.4, 0.8), a)
                 for r, a in ((48.0, 0.1), (45.0, 1.0), (40.0, -2.2), (49.0, 3.0))]
        return rig6, scene_of(rig6, boxes, [4, 2, 4, 3]), (8, 16), 2
    if name == "large_at_border":  # wide near boxes cut by the image edges, among far ones
        boxes = [box9((6.0, 4.2, 1.5), (6.0, 14.0, 3.0), 0.3),
                 box9((30.0, -3.0, 0.4), (0.5, 0.5, 0.8), 0.0),
                 box9((3.0, -2.0, 2.0), (4.0, 9.0, 4.0), -1.2),
                 box9((-8.0, 0.5, 1.0), (2.5, 20.0, 2.0), 1.5),
                 box9((-35.0, 2.0, 0.4), (0.6, 0.6, 0.8), 0.0)]
        return rig6, scene_of(rig6, boxes, [1, 2, 1, 0, 4]), (4, 8, 16), 2
    if name == "truncated":  # centers outside a view, reference point from its rectangle
        boxes = [box9((r * np.cos(a), r * np.sin(a), 0.8), (w, l, 1.6), a + 0.4)
                 for r, a, w, l in ((8.0, np.radians(38.0), 2.0, 7.0),
                                    (8.0, np.radians(-39.0), 2.0, 7.0),
                                    (8.0, np.radians(98.0), 2.0, 7.0),
                                    (40.0, np.radians(-30.2), 0.5, 3.0))]
        return rig6, scene_of(rig6, boxes, [0, 1, 3, 2]), (8, 16, 32), 2
    raise KeyError(name)


RENDER_CASES = ["two_crops", "distant_small", "large_at_border", "truncated"]


@pytest.mark.parametrize("rig_seed, scales, channels", [
    (0, (8, 16), 16), (7, (8,), 3), (None, (4, 16, 32), 1),
    *(pytest.param(name, None, None, id=name) for name in RENDER_CASES),
])
def test_render_features_matches_per_channel_loop(rig6, rig_seed, scales, channels):
    if isinstance(rig_seed, str):
        rig, scene, scales, channels = render_case(rig_seed)
    else:  # random four-camera rigs with a crop view, and the six-camera rig
        rig = rig6 if rig_seed is None else random_rig_with_crop(np.random.default_rng(rig_seed))
        scene = sample_scene(11, rig, n_boxes=15)
    got = render_features(scene, rig, scales=scales)
    want = render_features_per_channel(scene, rig, scales=scales, channels=channels)
    assert got.view_ids.tolist() == [v.view_id for v in rig]
    assert [len(a) for a in got.atlas] == [  # the atlas holds the maps and nothing else
        sum(m[s].shape[0] * m[s].shape[1] for m in want.values()) for s in range(len(scales))
    ]
    for view_id, maps in want.items():
        width, height, got_maps = view_maps(got, view_id)
        assert (width, height) == next((v.width, v.height) for v in rig if v.view_id == view_id)
        assert len(got_maps) == len(maps)
        for g, w in zip(got_maps, maps):  # one plane, within rounding of every reference channel
            assert g.shape == w.shape[:2] + (1,)
            # two 1-D exps and a product round otherwise than one exp of the 2-D argument
            bound = 8 * np.spacing(max(w.max(initial=0.0), 1.0))
            assert np.abs(np.broadcast_to(g, w.shape) - w).max(initial=0.0) <= bound
    # the same maps from a projection the caller passes in
    passed = render_features(scene, rig, scales=scales, projection=project_rig(rig, scene.anchors))
    assert all(same_bits(a, b) for a, b in zip(passed.atlas, got.atlas))


def per_view_case(name):
    """(rig, scene, scales) of one case of the per-view render oracle."""
    if name in RENDER_CASES:
        return render_case(name)[:3]
    if name.startswith("random_crop_"):
        rig = random_rig_with_crop(np.random.default_rng(int(name[-1])))
        return rig, sample_scene(11, rig, n_boxes=15), (8, 16)
    rig = two_crop_rig()
    if name == "no_boxes":
        return rig, sample_scene(0, rig, n_boxes=0), (8, 16)
    if name == "thin_maps":  # maps one cell high, or one cell at all
        return rig, sample_scene(0, rig, n_boxes=20), (64, 256, 704)
    raise KeyError(name)


PER_VIEW_CASES = [*RENDER_CASES, "random_crop_0", "random_crop_1", "random_crop_2", "no_boxes",
                  "thin_maps"]


@pytest.mark.parametrize("name", PER_VIEW_CASES)
def test_render_features_matches_the_per_view_loop(name):
    """Every run of views of one map size rendered by one padded product
    gives the bits of one product per view, alone and into scene slot 1 of
    a batch of three, whose other rows it leaves alone."""
    rig, scene, scales = per_view_case(name)
    got, want = render_features(scene, rig, scales), render_features_per_view(scene, rig, scales)
    assert all(map(same_bits, got.atlas, want.atlas))
    batches = [blank_features(rig, scales, n_scenes=3) for _ in range(2)]
    for atlas in (a for batch in batches for a in batch.atlas):
        atlas.fill(np.nan)
    render_features(scene, rig, scales, into=batches[0], slot=1)
    render_features_per_view(scene, rig, scales, into=batches[1], slot=1)
    assert all(map(same_bits, *(batch.atlas for batch in batches)))
    seen = project_rig(rig, scene.anchors).valid.sum(axis=1)
    if name == "two_crops":  # mixed map sizes, and a view without bumps
        assert len({tuple(m) for m in got.map_size[0]}) > 1 and (seen == 0).any()
    if name == "thin_maps":  # a run of one-cell-high maps whose views see unlike counts
        assert (got.map_size[1, :, 1] == 1).all() and got.map_size[1, 0, 0] > 1
        assert len(set(seen[:7].tolist())) > 1


def test_render_features_rejects_a_slot_of_other_view_ids():
    """A batch built over the rig's views in another order holds maps of
    the same sizes under other ids: rendering into it fails, naming the slot."""
    rig = make_surround_rig(6)
    permuted = [rig[k] for k in (3, 1, 2, 0, 4, 5)]
    scene = sample_scene(11, rig, n_boxes=20)
    batch = blank_features(permuted, (8, 16), n_scenes=2)
    with pytest.raises(ValueError, match=r"^scene slot 1 of the features does not hold this "
                                         r"rig's maps of views \[0, 1, 2, 3, 4, 5\], in that order$"):
        render_features(scene, rig, (8, 16), into=batch, slot=1)
    assert render_features(scene, permuted, (8, 16), into=batch, slot=1) is batch


@pytest.mark.parametrize("channels", [16, 3])
def test_one_plane_samples_like_identical_channels(channels):
    """``sample_views`` and the decoder over the one-plane maps give the bits
    of the same maps copied into every channel."""
    rig = two_crop_rig()
    scene = sample_scene(11, rig, n_boxes=20)
    plane = render_features(scene, rig, scales=(8, 16))
    copies = {}
    for v in rig:
        width, height, maps = view_maps(plane, v.view_id)
        copies[v.view_id] = (width, height,
                             [np.broadcast_to(m, m.shape[:2] + (channels,)) for m in maps])
    wide = rig_features(copies)
    rng = np.random.default_rng(5)
    params = CrossAttentionParams.seeded(channels, 32, 2, rng)
    ids = rng.choice([v.view_id for v in rig], 600)
    size = np.array([(v.width, v.height) for v in rig], dtype=np.float64)
    pts = rng.uniform(-0.05, 1.05, (600, 2)) * size[np.searchsorted([v.view_id for v in rig], ids)]
    got = sample_views(plane, ids, pts, params)
    assert got.shape == (600, channels) and (got > 0.0).any()
    assert same_bits(got, sample_views(wide, ids, pts, params))
    dec = HybridDecoder(DecoderConfig(n_queries=200, channels=32, heads=4,
                                      feature_channels=channels), rig)
    out, updated = dec.forward(plane)
    want, want_updated = dec.forward(wide)
    assert same_bits(updated.features, want_updated.features)
    for g, w in zip(out.layers_2d, want.layers_2d, strict=True):
        assert same_bits(g.boxes2d, w.boxes2d) and same_bits(g.logits, w.logits)
    for g, w in zip(out.layers_3d + out.agg_taps, want.layers_3d + want.agg_taps, strict=True):
        assert same_bits(g.boxes3d, w.boxes3d) and same_bits(g.logits, w.logits)


def test_render_features_peak_memory_stays_near_one_plane():
    """A view-scale plane is one product of 1-D Gaussians: rendering a view
    that sees several boxes holds no per-box (H, W) temporaries."""
    rig = make_surround_rig(1)
    busy = sample_scene(3, make_surround_rig(6), n_boxes=60)
    scene = scene_of(rig, busy.anchors, busy.classes)
    assert project_rig(rig, scene.anchors).valid.sum() >= 6
    tracemalloc.start()
    try:
        features = render_features(scene, rig, scales=(4,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * features.atlas[0].nbytes


@pytest.mark.parametrize("slot", [0, 2])
def test_render_features_into_a_scene_slot(slot):
    """A scene rendered into slot j of a three-scene RigFeatures fills its
    own views with the bits of its one-scene render and no other rows."""
    rig = two_crop_rig()
    scene = sample_scene(11, rig, n_boxes=20)
    alone = render_features(scene, rig, scales=(8, 16))
    batch = RigFeatures(rig, alone.map_size, 1, n_scenes=3)
    for atlas in batch.atlas:
        atlas.fill(np.nan)
    assert render_features(scene, rig, scales=(8, 16), into=batch, slot=slot) is batch
    stride = max(v.view_id for v in rig) + 1
    assert batch.view_ids.tolist() == [j * stride + v.view_id for j in range(3) for v in rig]
    for s, atlas in enumerate(alone.atlas):
        first = batch.start[s, slot * len(rig)]
        assert same_bits(batch.atlas[s][first:first + len(atlas)], atlas)
        assert np.isnan(batch.atlas[s]).sum() == 2 * atlas.size
    with pytest.raises(ValueError, match="^scene slot 3 of the features does not hold"):
        render_features(scene, rig, scales=(8, 16), into=batch, slot=3)
    with pytest.raises(ValueError, match="^scene slot 0 of the features does not hold"):
        render_features(scene, rig, scales=(8,), into=batch)


@pytest.mark.parametrize("name", RENDER_CASES)
def test_render_cases_cover_floor_truncation_border_and_crops(name):
    """Each render case reaches what it is named for."""
    rig, scene, scales, _ = render_case(name)
    proj = project_rig(rig, scene.anchors)
    if name == "two_crops":  # a crop view with bumps, and a view with none
        sees = proj.valid.any(axis=1)
        assert (sees & [v.derived for v in rig]).any() and not sees.all()
    if name == "distant_small":
        floor = False
        for k, view in enumerate(rig):
            for s in scales:
                wm = max(view.width // s, 1)
                raw = proj.rect[k, proj.valid[k], 2] * (wm / view.width) / 4.0
                floor |= bool((raw < 0.75).any())
        assert floor
    if name == "truncated":
        assert (proj.valid & ~proj.center_in_view).sum() >= 3
    if name == "large_at_border":
        rect = proj.rect[proj.valid]
        assert ((rect[:, 0] - rect[:, 2] / 2 == 0.0) | (rect[:, 0] + rect[:, 2] / 2 == 704.0)).any()


def test_feature_bump_peaks_at_projected_center(rig6):
    scene = sample_scene(21, rig6, n_boxes=6)
    feats = render_features(scene, rig6, scales=(8,))
    views = {v.view_id: v for v in rig6}
    # single-box view regions: the brightest cell must contain the
    # projected center of some box
    for view_id in feats.view_ids.tolist():
        fmap = view_maps(feats, view_id)[2][0][:, :, 0]
        if fmap.max() <= 0:
            continue
        iy, ix = np.unravel_index(np.argmax(fmap), fmap.shape)
        view = views[view_id]
        centers = []
        for anchor in scene.anchors:
            pa = project_one_view(view, anchor[None])
            if pa.valid[0]:
                u, v = pa.uv[0, 0] if pa.center_in_view[0] else pa.rect[0, 0:2]
                centers.append((u * fmap.shape[1] / view.width - 0.5,
                                v * fmap.shape[0] / view.height - 0.5))
        d = min(
            max(abs(mx - ix), abs(my - iy)) for mx, my in centers
        )
        assert d <= 1.0  # peak within one cell of a projected center


def test_depth_map_matches_camera_depth(rig6):
    scene = sample_scene(13, rig6, n_boxes=8)
    depths = render_depths(scene, rig6, 8)
    views = {v.view_id: v for v in rig6}
    checked = 0
    for link, view_id in zip(scene.gt2d_link.tolist(), scene.gt2d.view_id.tolist()):
        view = views[view_id]
        anchor = scene.anchors[link]
        pa = project_one_view(view, anchor[None])
        if not pa.center_in_view[0]:
            continue
        u, v = pa.uv[0, 0]
        dm = depths[view_id]
        j = int(np.clip(u * dm.shape[1] / view.width, 0, dm.shape[1] - 1))
        i = int(np.clip(v * dm.shape[0] / view.height, 0, dm.shape[0] - 1))
        c = anchor[0:3]
        zc = float(view.rotation[2] @ c + view.translation[2])
        assert dm[i, j] <= zc + 1e-9  # nearest covering box wins
        checked += 1
    assert checked > 0


def test_noise_validation():
    with pytest.raises(ValueError):
        OracleNoise(drop_prob=1.5)
    with pytest.raises(ValueError):
        OracleNoise(jitter_px=-1.0)
