"""Benchmark generator, toy detector and inner training loop."""

import json
import tracemalloc

import numpy as np
import pytest

import paramloss.toybench
from paramloss.apmetric import (
    COCO_THRESHOLDS,
    DetectionBatch,
    _pr_area_by_threshold,
    ap_pr_area,
    assign,
    loc_scores,
)
from paramloss.errors import (
    ConfigError,
    InvalidInputError,
    TrainingDivergedError,
)
from paramloss.geometry import pairwise_iou
from paramloss.paploss import (
    LossParams,
    expit,
    loss_backward,
    loss_forward,
    resolve_functions,
)
from paramloss.toybench import (
    DatasetConfig,
    Scene,
    ToyModel,
    _merge_scenes,
    _model_apply,
    _reward_from,
    _scene_threshold_ap,
    _weight_grads,
    dataset_to_json_dict,
    generate,
    load_dataset,
    model_forward,
    reward,
    save_dataset,
    train_inner,
)

from loss_helpers import dataset_loss

SMALL = DatasetConfig(scenes=30, g_max=2, anchors=10, features=6, noise=0.05, seed=3)


def _whole_tree_load(path):
    """The dataset reader load_dataset replaced, kept as its oracle: the
    whole file's text and JSON tree at once, then every scene converted."""
    with open(path) as fh:
        data = json.load(fh)
    return (DatasetConfig.from_json_dict(data["config"]),
            tuple(Scene.from_json_dict(s) for s in data["train"]),
            tuple(Scene.from_json_dict(s) for s in data["eval"]))


def _assert_same_dataset(got, want):
    """Equal configs, and scenes whose arrays are equal bit for bit."""
    assert got[0].to_json_dict() == want[0].to_json_dict()
    assert [len(got[1]), len(got[2])] == [len(want[1]), len(want[2])]
    for a, b in zip(got[1] + got[2], want[1] + want[2]):
        for name in ("gt_boxes", "anchors", "features", "assignment", "source"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


# the same dataset laid out in several valid JSON texts
DATASET_LAYOUTS = {
    "generated": lambda data: json.dumps(data),
    # as generate wrote dataset.json before it used write_dataset
    "indented": lambda data: json.dumps(data, indent=2, sort_keys=True) + "\n",
    "reordered": lambda data: json.dumps(
        {key: [dict(reversed(s.items())) for s in data[key]] if key != "config" else data[key]
         for key in ("eval", "config", "train")}, separators=(",", ":")),
    "extra-keys": lambda data: json.dumps(
        {"version": 12345, "scale": -1.25e+3, **data, "note": {"by": [1.5e-3, -7, True, None, "x\"y"]}}),
    # a decoder keeps the last of a repeated key: a first config of 1 scene
    # and an empty first train list would each fail the load
    "duplicate-keys": lambda data: (
        '{"config": {"scenes": 1}, "train": [], ' + json.dumps(data)[1:]),
}


def _mixed_width_sets():
    """(train, eval): 20 train and 12 eval scenes, half of each of F = 8 and
    half of F = 9."""
    eight = generate(DatasetConfig(scenes=20, features=8, seed=1))
    nine = generate(DatasetConfig(scenes=20, features=9, seed=2))
    return (eight[0][:10] + nine[0][:10],
            eight[1] + nine[1] + eight[0][10:12] + nine[0][10:12])


class TestDatasetConfig:
    def test_defaults_round_trip(self):
        config = DatasetConfig()
        again = DatasetConfig.from_json_dict(config.to_json_dict())
        assert again.to_json_dict() == config.to_json_dict()

    def test_json_keys(self):
        assert set(DatasetConfig().to_json_dict()) == {"scenes", "G_max", "A", "F", "noise", "seed"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig.from_json_dict({"scenes": 10, "bogus": 1})

    @pytest.mark.parametrize("kwargs", [
        {"scenes": 1},
        {"g_max": 0},
        {"anchors": 5, "g_max": 3},
        {"features": 4},
        {"noise": -0.1},
        {"noise": float("nan")},
        {"seed": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetConfig(**kwargs)

    @pytest.mark.parametrize("data", [
        {"scenes": 12.7}, {"seed": True}, {"G_max": 2.0}, {"A": "16"}, {"F": None},
        {"noise": "0.05"}, {"noise": True},
    ])
    def test_mistyped_json_rejected(self, data):
        with pytest.raises(ConfigError):
            DatasetConfig.from_json_dict(data)

    def test_integral_noise_stays_float(self):
        config = DatasetConfig.from_json_dict({"noise": 0})
        assert type(config.noise) is float
        assert config.to_json_dict()["noise"] == 0.0

    def test_partial_json_uses_defaults(self):
        config = DatasetConfig.from_json_dict({"scenes": 12})
        assert config.scenes == 12
        assert config.anchors == DatasetConfig().anchors


class TestGenerate:
    def test_bitwise_deterministic(self):
        train_a, eval_a = generate(SMALL)
        train_b, eval_b = generate(SMALL)
        for sa, sb in zip(train_a + eval_a, train_b + eval_b):
            assert np.array_equal(sa.gt_boxes, sb.gt_boxes)
            assert np.array_equal(sa.anchors, sb.anchors)
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.assignment, sb.assignment)
            assert np.array_equal(sa.source, sb.source)

    def test_split_sizes(self):
        train, eval_scenes = generate(DatasetConfig(scenes=200, seed=1))
        assert len(train) == 160 and len(eval_scenes) == 40
        train, eval_scenes = generate(DatasetConfig(scenes=7, seed=1))
        assert len(train) == 6 and len(eval_scenes) == 1

    def test_seed_changes_data(self):
        a = generate(SMALL)[0][0]
        b = generate(DatasetConfig(scenes=30, g_max=2, anchors=10, features=6,
                                   noise=0.05, seed=4))[0][0]
        assert not np.array_equal(a.features, b.features)

    def test_noise_zero_candidates_copy_ground_truths(self):
        train, eval_scenes = generate(DatasetConfig(scenes=20, g_max=3, anchors=12,
                                                    features=7, noise=0.0, seed=11))
        for scene in train + eval_scenes:
            jittered = scene.source >= 0
            assert jittered.any()
            assert np.array_equal(scene.anchors[jittered],
                                  scene.gt_boxes[scene.source[jittered]])
            # with no noise the ranking feature equals the best IoU exactly
            best = pairwise_iou(scene.anchors, scene.gt_boxes).max(axis=1)
            assert np.array_equal(scene.features[:, 4], best)

    def test_every_ground_truth_covered(self):
        train, eval_scenes = generate(SMALL)
        for scene in train + eval_scenes:
            cover = pairwise_iou(scene.anchors, scene.gt_boxes).max(axis=0)
            assert np.all(cover >= 0.5)
            assert (scene.assignment >= 0).any()

    def test_boxes_inside_unit_square(self):
        train, eval_scenes = generate(DatasetConfig(scenes=40, g_max=3, anchors=14,
                                                    features=6, noise=0.3, seed=5))
        for scene in train + eval_scenes:
            for arr in (scene.gt_boxes, scene.anchors):
                assert np.all(arr >= -1e-12) and np.all(arr <= 1.0 + 1e-12)
                assert np.all(arr[:, 2] - arr[:, 0] >= 0.02 - 1e-12)
                assert np.all(arr[:, 3] - arr[:, 1] >= 0.02 - 1e-12)

    def test_feature_width(self):
        train, _ = generate(DatasetConfig(scenes=10, g_max=2, anchors=8,
                                          features=9, noise=0.05, seed=2))
        assert train[0].features.shape == (8, 9)


class TestSceneValidation:
    def _valid_scene(self):
        return generate(SMALL)[0][0]

    def test_uncovered_ground_truth_rejected(self):
        s = self._valid_scene()
        far_gt = np.vstack([s.gt_boxes, [[0.0, 0.0, 0.021, 0.021]]])
        with pytest.raises(InvalidInputError):
            Scene(far_gt, s.anchors, s.features,
                  assign(s.anchors, far_gt), s.source)

    def test_wrong_assignment_rejected(self):
        s = self._valid_scene()
        bad = s.assignment.copy()
        bad[0] = -1 if bad[0] >= 0 else 0
        with pytest.raises(InvalidInputError):
            Scene(s.gt_boxes, s.anchors, s.features, bad, s.source)

    def test_zero_anchors_rejected(self):
        s = self._valid_scene()
        with pytest.raises(InvalidInputError, match="at least one anchor"):
            Scene(s.gt_boxes, np.zeros((0, 4)), np.zeros((0, 6)), [], [])

    @pytest.mark.parametrize("entry", [-2, "G"], ids=["below-minus-one", "G"])
    def test_source_out_of_range_rejected(self, entry):
        s = self._valid_scene()
        source = s.source.copy()
        source[0] = s.gt_boxes.shape[0] if entry == "G" else entry
        with pytest.raises(InvalidInputError, match="source entries"):
            Scene(s.gt_boxes, s.anchors, s.features, s.assignment, source)

    def test_length_mismatch_rejected(self):
        s = self._valid_scene()
        with pytest.raises(InvalidInputError):
            Scene(s.gt_boxes, s.anchors, s.features[:-1], s.assignment, s.source)

    def test_json_round_trip_exact(self):
        s = self._valid_scene()
        t = Scene.from_json_dict(s.to_json_dict())
        assert np.array_equal(s.gt_boxes, t.gt_boxes)
        assert np.array_equal(s.anchors, t.anchors)
        assert np.array_equal(s.features, t.features)
        assert np.array_equal(s.assignment, t.assignment)
        assert np.array_equal(s.source, t.source)


class TestDatasetIO:
    def test_file_round_trip_bitwise(self, tmp_path):
        train, eval_scenes = generate(SMALL)
        path = tmp_path / "data.json"
        save_dataset(path, SMALL, train, eval_scenes)
        config, train2, eval2 = load_dataset(path)
        assert config.to_json_dict() == SMALL.to_json_dict()
        assert len(train2) == len(train) and len(eval2) == len(eval_scenes)
        for a, b in zip(train + eval_scenes, train2 + eval2):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.anchors, b.anchors)
            assert np.array_equal(a.gt_boxes, b.gt_boxes)
            assert np.array_equal(a.assignment, b.assignment)
            assert np.array_equal(a.source, b.source)

    @pytest.mark.parametrize("sets", [
        lambda: generate(SMALL),
        # eval scenes of 10 and of 16 anchors
        lambda: (generate(SMALL)[0], generate(SMALL)[1] + generate(DatasetConfig(scenes=10))[1]),
        lambda: ((), ()),
    ], ids=["generated", "mixed-anchor-counts", "empty"])
    def test_file_is_json_dumps_of_the_dict(self, tmp_path, sets):
        # save_dataset streams one scene at a time; the bytes are those of
        # the whole dict encoded at once
        train, eval_scenes = sets()
        path = tmp_path / "data.json"
        save_dataset(path, SMALL, train, eval_scenes)
        want = json.dumps(dataset_to_json_dict(SMALL, train, eval_scenes))
        assert path.read_bytes() == want.encode()

    def test_mixed_feature_widths_rejected(self, tmp_path):
        # scenes of F = 8 and of F = 9 in one file
        path = tmp_path / "mixed.json"
        save_dataset(path, SMALL, *_mixed_width_sets())
        with pytest.raises(ConfigError, match="feature widths"):
            load_dataset(path)

    def test_config_of_other_scenes_rejected(self, tmp_path):
        # a config of 200 scenes of F = 6 over 20 scenes of F = 8
        path = tmp_path / "other.json"
        save_dataset(path, DatasetConfig(features=6), *generate(DatasetConfig(scenes=20)))
        with pytest.raises(ConfigError, match="config F = 6"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["F", "A", "scenes"])
    def test_config_key_disagreeing_with_scenes_rejected(self, tmp_path, key):
        data = dataset_to_json_dict(SMALL, *generate(SMALL))
        data["config"][key] += 1
        path = tmp_path / "off_by_one.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"config {key} = "):
            load_dataset(path)

    @pytest.mark.parametrize("layout", DATASET_LAYOUTS)
    def test_reader_matches_whole_tree_decode(self, tmp_path, layout):
        # SMALL's file is 2 chunks long
        path = tmp_path / "data.json"
        path.write_text(DATASET_LAYOUTS[layout](dataset_to_json_dict(SMALL, *generate(SMALL))))
        _assert_same_dataset(load_dataset(path), _whole_tree_load(path))

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 64])
    @pytest.mark.parametrize("layout", DATASET_LAYOUTS)
    def test_any_chunk_boundary_reads_the_same(self, tmp_path, monkeypatch, layout, chars):
        # chunks this short end inside every kind of token, the top-level
        # numbers of "extra-keys" among them
        config = DatasetConfig(scenes=5, g_max=2, anchors=4, features=5, seed=11)
        path = tmp_path / "data.json"
        path.write_text(DATASET_LAYOUTS[layout](dataset_to_json_dict(config, *generate(config))))
        monkeypatch.setattr(paramloss.toybench, "READ_CHARS", chars)
        _assert_same_dataset(load_dataset(path), _whole_tree_load(path))

    @pytest.mark.parametrize("share", [0.0, 0.001, 0.01, 0.3, 0.5, 0.99, 0.9999])
    def test_truncated_file_rejected(self, tmp_path, share):
        path = tmp_path / "data.json"
        save_dataset(path, SMALL, *generate(SMALL))
        text = path.read_text()
        path.write_text(text[:int(share * len(text))])
        with pytest.raises(ConfigError, match=f"^{path} is not a"):
            load_dataset(path)

    @pytest.mark.parametrize("tail", [" {}", "]", "\n0", "x"])
    def test_trailing_data_rejected(self, tmp_path, tail):
        path = tmp_path / "data.json"
        save_dataset(path, SMALL, *generate(SMALL))
        with path.open("a") as fh:
            fh.write(tail)
        with pytest.raises(ConfigError, match=f"^{path} is not a JSON file: Extra data"):
            load_dataset(path)

    def test_reader_peak_below_file_size(self, tmp_path):
        # a desk-shape file of 400 scenes: reading one chunk and one scene at
        # a time peaks at about 0.7 times the file's size, most of it the
        # returned arrays; the whole text and JSON tree at once took 2.9 times
        config = DatasetConfig(scenes=400, g_max=3, anchors=16, features=16, seed=1)
        path = tmp_path / "desk.json"
        save_dataset(path, config, *generate(config))
        tracemalloc.start()
        try:
            load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


class TestToyModel:
    def test_zero_model_reproduces_anchors(self):
        scene = generate(SMALL)[0][0]
        f = scene.features.shape[1]
        model = ToyModel(np.zeros((f, 4)), np.zeros(4), np.zeros((4, 5)), np.zeros(5))
        batch = model_forward(model, scene)
        assert np.array_equal(batch.boxes, scene.anchors)
        assert np.all(batch.scores == 0.5)

    def test_seeded_init_keeps_anchor_property(self):
        # output heads start at zero, so the random trunk cannot move boxes yet
        scene = generate(SMALL)[0][0]
        model = ToyModel.init(scene.features.shape[1], hidden=16, seed=9)
        batch = model_forward(model, scene)
        assert np.array_equal(batch.boxes, scene.anchors)
        assert np.all(batch.scores == 0.5)
        again = ToyModel.init(scene.features.shape[1], hidden=16, seed=9)
        assert np.array_equal(model.w1, again.w1)

    def test_vector_round_trip(self):
        model = ToyModel.init(6, hidden=5, seed=1)
        vec = model.to_vector()
        assert vec.shape == (6 * 5 + 5 + 5 * 5 + 5,)
        back = model.with_vector(vec)
        assert np.array_equal(back.w1, model.w1)
        assert np.array_equal(back.w2, model.w2)
        with pytest.raises(InvalidInputError):
            model.with_vector(vec[:-1])

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            ToyModel(np.zeros((6, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))
        with pytest.raises(InvalidInputError):
            ToyModel(np.full((6, 4), np.nan), np.zeros(4), np.zeros((4, 5)), np.zeros(5))

    def test_feature_dim_mismatch(self):
        scene = generate(SMALL)[0][0]
        model = ToyModel.init(scene.features.shape[1] + 1, hidden=4, seed=0)
        with pytest.raises(InvalidInputError):
            model_forward(model, scene)

    def test_scores_in_unit_interval(self):
        scene = generate(SMALL)[0][0]
        rng = np.random.default_rng(0)
        model = ToyModel.init(scene.features.shape[1], hidden=8, seed=2)
        model = model.with_vector(model.to_vector() + rng.normal(0, 0.5, model.to_vector().size))
        batch = model_forward(model, scene)
        assert np.all(batch.scores > 0) and np.all(batch.scores < 1)
        assert np.all(batch.boxes >= 0) and np.all(batch.boxes <= 1)


def _reference_decode(weights_model, features, anchors):
    """Independent decode path used as the finite-difference reference."""
    u = np.tanh(features @ weights_model.w1 + weights_model.b1)
    out = u @ weights_model.w2 + weights_model.b2
    scores = expit(out[:, 0])
    aw = anchors[:, 2] - anchors[:, 0]
    ah = anchors[:, 3] - anchors[:, 1]
    cx = (anchors[:, 0] + anchors[:, 2]) / 2.0 + out[:, 1] * aw
    cy = (anchors[:, 1] + anchors[:, 3]) / 2.0 + out[:, 2] * ah
    w = np.clip(aw * np.exp(np.clip(out[:, 3], -4.0, 4.0)), 0.02, 1.0)
    h = np.clip(ah * np.exp(np.clip(out[:, 4], -4.0, 4.0)), 0.02, 1.0)
    boxes = np.empty((len(anchors), 4))
    for k, (lo, hi, half) in enumerate(((0, 2, w), (1, 3, h))):
        low = (cx if k == 0 else cy) - half / 2.0
        high = (cx if k == 0 else cy) + half / 2.0
        shift = np.maximum(0.0, -low) - np.maximum(0.0, high - 1.0)
        boxes[:, lo] = low + shift
        boxes[:, hi] = high + shift
    raw = {"w": aw * np.exp(np.clip(out[:, 3], -4.0, 4.0)),
           "h": ah * np.exp(np.clip(out[:, 4], -4.0, 4.0)),
           "x_lo": cx - w / 2.0, "x_hi": cx + w / 2.0,
           "y_lo": cy - h / 2.0, "y_hi": cy + h / 2.0,
           "dw": out[:, 3], "dh": out[:, 4]}
    return boxes, scores, raw


def _kink_margins_ok(raw, batch, params, margin=1e-3):
    """True when no decode or loss nonsmoothness sits within `margin`."""
    for key in ("w", "h"):
        r = raw[key]
        if np.min(np.abs(r - 0.02)) < margin or np.min(np.abs(r - 1.0)) < margin:
            return False
    for key in ("x_lo", "y_lo"):
        if np.min(np.abs(raw[key])) < margin:
            return False
    for key in ("x_hi", "y_hi"):
        if np.min(np.abs(raw[key] - 1.0)) < margin:
            return False
    for key in ("dw", "dh"):
        if np.min(np.abs(np.abs(raw[key]) - 4.0)) < margin:
            return False
    # clip saturation of normalized score differences, d[i, j] = d_ji as
    # loss_forward computes it
    s = batch.scores
    d = (np.clip(s[None, :] - s[:, None], -1.0, 1.0) + 1.0) / 2.0
    d_off = d[~np.eye(len(d), dtype=bool)]
    if np.min(np.abs(d_off)) < margin or np.min(np.abs(d_off - 1.0)) < margin:
        return False
    fns = resolve_functions(params)
    knots = np.unique(np.concatenate([f.control_points[1:-1, 0] for f in fns]))
    pos = batch.positive_mask
    values = np.concatenate([d_off, loc_scores(batch, params.measurement)[pos]])
    if knots.size and np.min(np.abs(values[:, None] - knots[None, :])) < margin:
        return False
    # measure kinks: coordinate ties and grazing overlaps with the target
    pred = batch.boxes[pos]
    tgt = batch.gt_boxes[batch.assignment[pos]]
    if np.min(np.abs(pred - tgt)) < margin:
        return False
    iw = np.minimum(pred[:, 2], tgt[:, 2]) - np.maximum(pred[:, 0], tgt[:, 0])
    ih = np.minimum(pred[:, 3], tgt[:, 3]) - np.maximum(pred[:, 1], tgt[:, 1])
    if np.min(np.abs(iw)) < margin or np.min(np.abs(ih)) < margin:
        return False
    return True


class TestWeightGradients:
    def test_matches_finite_differences(self):
        # unblocked loss so the analytic gradients are those of the true
        # composite; the blocked variant is checked at the loss level
        params = LossParams.identity(block_denominator=False)
        train, _ = generate(SMALL)
        scenes = train[:3]
        _, (feats, anchors, gts, assignment) = _merge_scenes(scenes)

        checked = 0
        for seed in range(40):
            rng = np.random.default_rng([seed, 17])
            base = ToyModel.init(feats.shape[1], hidden=6, seed=seed)
            vec0 = base.to_vector() + rng.normal(0.0, 0.15, base.to_vector().size)
            model = base.with_vector(vec0)

            boxes, scores, cache = _model_apply(model, feats, anchors)
            ref_boxes, ref_scores, raw = _reference_decode(model, feats, anchors)
            assert np.allclose(boxes, ref_boxes, atol=1e-12)
            assert np.allclose(scores, ref_scores, atol=1e-12)

            batch = DetectionBatch(boxes, scores, gts, assignment)
            value, loss_cache = loss_forward(batch, params)
            if not _kink_margins_ok(raw, batch, params):
                continue

            score_grads, box_grads = loss_backward(loss_cache)
            analytic = _weight_grads(model, cache, score_grads, box_grads)

            def composite(vec):
                m = base.with_vector(vec)
                b, s, _ = _reference_decode(m, feats, anchors)
                return loss_forward(DetectionBatch(b, s, gts, assignment), params)[0]

            h = 1e-5
            fd = np.empty_like(analytic)
            for i in range(vec0.size):
                bump = np.zeros_like(vec0)
                bump[i] = h
                fd[i] = (composite(vec0 + bump) - composite(vec0 - bump)) / (2 * h)
            scale = np.maximum(np.abs(analytic), 1e-3)
            assert np.max(np.abs(fd - analytic) / scale) < 1e-3
            checked += 1
            if checked == 3:
                break
        assert checked == 3


class TestTrainInner:
    def test_zero_steps_returns_init(self):
        train, _ = generate(SMALL)
        model = train_inner(LossParams.identity(), train, steps=0, seed=5)
        ref = ToyModel.init(train[0].features.shape[1], hidden=16, seed=5)
        assert np.array_equal(model.to_vector(), ref.to_vector())

    def test_negative_steps_rejected(self):
        train, _ = generate(SMALL)
        with pytest.raises(InvalidInputError):
            train_inner(LossParams.identity(), train, steps=-1, seed=0)

    def test_empty_train_set_rejected(self):
        with pytest.raises(InvalidInputError):
            train_inner(LossParams.identity(), (), steps=1, seed=0)

    @pytest.mark.parametrize("batch_scenes", [0, -1])
    def test_batch_scenes_below_one_rejected(self, batch_scenes):
        train, _ = generate(SMALL)
        with pytest.raises(InvalidInputError, match="batch_scenes"):
            train_inner(LossParams.identity(), train, steps=1, seed=0,
                        batch_scenes=batch_scenes)

    @pytest.mark.parametrize("kwargs", [
        {"steps": 2.5}, {"steps": True}, {"batch_scenes": 2.5}, {"batch_scenes": True},
        {"seed": 1.0}, {"seed": True}, {"seed": -1},
    ])
    def test_malformed_argument_rejected(self, kwargs):
        # an input error, not a TypeError or a divergence at step 0
        train, _ = generate(SMALL)
        with pytest.raises(InvalidInputError):
            train_inner(LossParams.identity(), train, **{"steps": 3, "seed": 0, **kwargs})

    def test_deterministic(self):
        train, _ = generate(SMALL)
        a = train_inner(LossParams.identity(), train, steps=25, seed=3)
        b = train_inner(LossParams.identity(), train, steps=25, seed=3)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_seed_matters(self):
        train, _ = generate(SMALL)
        a = train_inner(LossParams.identity(), train, steps=25, seed=3)
        b = train_inner(LossParams.identity(), train, steps=25, seed=4)
        assert not np.array_equal(a.to_vector(), b.to_vector())

    def test_training_reduces_loss_and_lifts_reward(self):
        config = DatasetConfig(scenes=120, g_max=3, anchors=16, features=8,
                               noise=0.05, seed=7)
        train, eval_scenes = generate(config)
        params = LossParams.identity()
        gains = []
        for seed in range(3):
            init = train_inner(params, train, steps=0, seed=seed)
            trained = train_inner(params, train, steps=200, seed=seed)
            assert dataset_loss(trained, params, train) < dataset_loss(init, params, train)
            gains.append(reward(trained, eval_scenes) - reward(init, eval_scenes))
        assert np.mean(gains) > 0.05

    def test_mixed_feature_widths_rejected(self):
        train, _ = _mixed_width_sets()
        with pytest.raises(InvalidInputError, match="feature widths"):
            train_inner(LossParams.identity(), train, steps=1, seed=0)

    def test_divergence_raises(self, monkeypatch):
        monkeypatch.setattr(paramloss.toybench, "LR", 1e300)
        train, _ = generate(SMALL)
        with pytest.raises(TrainingDivergedError):
            train_inner(LossParams.identity(), train, steps=50, seed=0)


class TestReward:
    def test_range_and_empty(self):
        train, eval_scenes = generate(SMALL)
        model = ToyModel.init(train[0].features.shape[1], hidden=16, seed=0)
        value = reward(model, eval_scenes)
        assert 0.0 <= value <= 1.0
        with pytest.raises(InvalidInputError):
            reward(model, ())

    def test_mixed_feature_widths_rejected(self):
        _, eval_scenes = _mixed_width_sets()
        model = ToyModel.init(8, hidden=16, seed=0)
        with pytest.raises(InvalidInputError, match="feature widths"):
            reward(model, eval_scenes)

    def test_noise_free_zero_model_reward_is_one(self):
        # with no jitter the first candidates are exact ground-truth copies;
        # the zero model scores everything 0.5 and the stable sort keeps
        # candidate order, so every ground truth is matched at IoU 1 before
        # any duplicate or background box arrives
        train, eval_scenes = generate(DatasetConfig(scenes=10, g_max=2, anchors=8,
                                                    features=6, noise=0.0, seed=13))
        model = ToyModel.init(6, hidden=4, seed=0)
        assert reward(model, train + eval_scenes) == 1.0

    @pytest.mark.parametrize("steps", [0, 20], ids=["untrained", "trained"])
    def test_equals_in_order_sum_of_scene_ap(self, steps):
        # one matching pass over all scenes gives the per-scene ap_pr_area
        # of each, added in scene order, to the last bit
        train, eval_scenes = generate(DatasetConfig(scenes=200, g_max=4, anchors=16,
                                                    features=6, noise=0.1, seed=17))
        model = train_inner(LossParams.identity(), train, steps=steps, seed=2)
        total = 0.0
        for scene in eval_scenes:
            batch = model_forward(model, scene)
            total += ap_pr_area(batch.boxes, batch.scores, batch.gt_boxes, COCO_THRESHOLDS)
        assert reward(model, eval_scenes) == total / len(eval_scenes)

    def test_reward_from_sums_in_order(self):
        # thresholds left to right within a scene, then scenes in order,
        # as per-scene ap_pr_area and the reward loop over scenes add them;
        # one scene at a time first, where the sum of all scenes would round
        # a one-ulp difference in a scene mean away
        by_scene = np.random.default_rng(19).uniform(size=(40, 10))
        total = 0.0
        for row in by_scene:
            scene_total = 0.0
            for value in row.tolist():
                scene_total += value
            assert _reward_from(row[None, :]) == scene_total / len(row)
            total += scene_total / len(row)
        assert _reward_from(by_scene) == total / len(by_scene)

    def test_scene_threshold_ap_rows(self):
        # the one detector pass and the padded ranking against each scene on
        # its own: the generated eval set under a trained model, then
        # hand-mixed scenes of 16 and 10 anchors and 1-4 ground truths, under
        # the trained model and under a zero-head model, whose scores all tie
        # at 0.5 within and across scenes
        train, eval_scenes = generate(SMALL)
        trained = train_inner(LossParams.identity(), train, steps=20, seed=1)
        sixteen = generate(DatasetConfig(scenes=12, g_max=4, anchors=16, features=6, seed=5))[0]
        ten = generate(DatasetConfig(scenes=12, g_max=4, anchors=10, features=6, seed=6))[0]
        mixed = (ten[0],) + sixteen[:3] + ten[1:4] + sixteen[3:5] + ten[4:6]
        assert {len(s.gt_boxes) for s in mixed} == {1, 2, 3, 4}
        zero_heads = ToyModel.init(6, hidden=16, seed=0)
        for model, scenes in [(trained, eval_scenes), (trained, mixed), (zero_heads, mixed)]:
            by_scene = _scene_threshold_ap(model, scenes)
            assert by_scene.shape == (len(scenes), len(COCO_THRESHOLDS))
            for row, scene in zip(by_scene, scenes):
                batch = model_forward(model, scene)
                assert row.tolist() == _pr_area_by_threshold(
                    batch.boxes, batch.scores, batch.gt_boxes, COCO_THRESHOLDS).tolist()


class TestMergeScenes:
    def test_offsets(self):
        train, _ = generate(SMALL)
        a, b = train[0], train[1]
        sizes, (feats, anchors, gts, assignment) = _merge_scenes([a, b])
        assert [x.tolist() for x in sizes] == [[len(a.anchors), len(b.anchors)],
                                               [len(a.gt_boxes), len(b.gt_boxes)]]
        n = len(a.anchors)
        assert feats.shape[0] == n + len(b.anchors)
        assert np.array_equal(assignment[:n], a.assignment)
        shifted = b.assignment.copy()
        shifted[shifted >= 0] += len(a.gt_boxes)
        assert np.array_equal(assignment[n:], shifted)
        assert gts.shape[0] == len(a.gt_boxes) + len(b.gt_boxes)

    def test_merged_batch_valid(self):
        train, _ = generate(SMALL)
        model = ToyModel.init(train[0].features.shape[1], hidden=16, seed=1)
        _, (feats, anchors, gts, assignment) = _merge_scenes(train[:4])
        boxes, scores, _ = _model_apply(model, feats, anchors)
        batch = DetectionBatch(boxes, scores, gts, assignment)
        assert batch.n_positive > 0
