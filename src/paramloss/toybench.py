"""Desk-scale synthetic detection benchmark.

A dataset of small scenes stands in for detector training data: each scene
holds a handful of ground-truth boxes, a fixed set of candidate (anchor)
boxes derived from them, and per-candidate features. A one-hidden-layer
model maps features to a classification score and a box refinement, and an
inner training loop drives it with the parameterized loss. The reward of a
trained model is its mean precision-recall AP over held-out scenes, which is
the quantity the outer parameter search maximizes.

The detector is deliberately tiny. The loss only ever sees scores, boxes
and an assignment, so a feature-to-(score, delta) map over precomputed
anchors preserves everything the loss can influence while keeping one inner
training run in the sub-second range.

Feature layout per candidate: the four box coordinates, a noisy copy of the
candidate's best IoU against the scene's ground truths (the learnable
ranking signal), and standard-normal distractor dimensions up to F.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import paploss
from .apmetric import (
    COCO_THRESHOLDS,
    DetectionBatch,
    _mean_in_order,
    _pr_area_stack,
    _ranked_iou,
    assign,
)

# ap_pr_area stays importable from here, unused: the benchmark wraps this
# binding
from .apmetric import ap_pr_area  # noqa: F401
from .errors import (
    ConfigError,
    EmptyPositiveError,
    InvalidInputError,
    TrainingDivergedError,
    check_field_types,
)
from .geometry import pairwise_iou, validate_boxes
from .optim import Adam
from .paploss import LossParams, loss_backward, loss_forward

ASSIGN_THRESHOLD = 0.5
MIN_BOX_SIZE = 0.02
DELTA_CAP = 4.0  # box-size deltas are clipped to keep exp() tame
HIDDEN = 16  # hidden units of the detector that train_inner trains


@dataclass(frozen=True, eq=False)
class DatasetConfig:
    """Generator settings: scene count, boxes per scene, feature noise."""

    scenes: int = 200
    g_max: int = 3
    anchors: int = 16
    features: int = 8
    noise: float = 0.05
    seed: int = 7

    def __post_init__(self):
        check_field_types(self, ConfigError)
        # stored as a float, so an integral noise such as 0 is written back as 0.0
        object.__setattr__(self, "noise", float(self.noise))
        if self.scenes < 2:
            raise ConfigError("need at least 2 scenes to split train/eval")
        if self.g_max < 1:
            raise ConfigError("G_max must be at least 1")
        if self.anchors < 2 * self.g_max:
            raise ConfigError("anchor count must be at least twice G_max")
        if self.features < 5:
            raise ConfigError("feature dimension must be at least 5 (4 coords + ranking signal)")
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise ConfigError("noise must be a finite non-negative real")

    def to_json_dict(self) -> dict:
        return {"scenes": self.scenes, "G_max": self.g_max, "A": self.anchors,
                "F": self.features, "noise": self.noise, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DatasetConfig":
        merged = cls().to_json_dict()
        unknown = set(data) - set(merged)
        if unknown:
            raise ConfigError(f"unknown dataset config keys: {sorted(unknown)}")
        merged.update(data)
        return cls(scenes=merged["scenes"], g_max=merged["G_max"], anchors=merged["A"],
                   features=merged["F"], noise=merged["noise"], seed=merged["seed"])


@dataclass(frozen=True, eq=False)
class Scene:
    """One synthetic image: ground truths, candidate boxes, features.

    source[k] is the index of the ground truth candidate k was jittered
    from, -1 for background candidates. assignment is precomputed with the
    standard rule so that training and evaluation share identical labels.
    Every ground truth is covered by at least one candidate at the
    assignment threshold; the generator enforces this and the constructor
    re-checks it.
    """

    gt_boxes: np.ndarray
    anchors: np.ndarray
    features: np.ndarray
    assignment: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        gt = validate_boxes(np.asarray(self.gt_boxes, dtype=float).reshape(-1, 4))
        anchors = validate_boxes(np.asarray(self.anchors, dtype=float).reshape(-1, 4))
        feats = np.asarray(self.features, dtype=float)
        asg = np.asarray(self.assignment, dtype=np.int64).reshape(-1)
        src = np.asarray(self.source, dtype=np.int64).reshape(-1)
        if gt.shape[0] < 1:
            raise InvalidInputError("scene needs at least one ground truth")
        a = anchors.shape[0]
        if feats.ndim != 2 or feats.shape[0] != a or asg.shape[0] != a or src.shape[0] != a:
            raise InvalidInputError("anchors, features, assignment and source lengths differ")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features must be finite")
        cover = pairwise_iou(anchors, gt).max(axis=0)
        if np.any(cover < ASSIGN_THRESHOLD):
            raise InvalidInputError("a ground truth has no candidate at the assignment threshold")
        expected = assign(anchors, gt, ASSIGN_THRESHOLD)
        if not np.array_equal(expected, asg):
            raise InvalidInputError("stored assignment disagrees with the assignment rule")
        object.__setattr__(self, "gt_boxes", gt)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "assignment", asg)
        object.__setattr__(self, "source", src)

    def to_json_dict(self) -> dict:
        return {"gt_boxes": self.gt_boxes.tolist(), "anchors": self.anchors.tolist(),
                "features": self.features.tolist(), "assignment": self.assignment.tolist(),
                "source": self.source.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scene":
        return cls(np.asarray(data["gt_boxes"], dtype=float),
                   np.asarray(data["anchors"], dtype=float),
                   np.asarray(data["features"], dtype=float),
                   np.asarray(data["assignment"], dtype=np.int64),
                   np.asarray(data["source"], dtype=np.int64))


def _shift_into_unit(lo: np.ndarray, hi: np.ndarray):
    """Shift each span [lo, hi] (width-preserving) back into [0, 1]."""
    shift = np.maximum(0.0, -lo) - np.maximum(0.0, hi - 1.0)
    return lo + shift, hi + shift


def _fit_boxes_into_unit_square(boxes: np.ndarray) -> np.ndarray:
    """Enforce minimum extent, then shift (width-preserving) into [0,1]^2."""
    lo = boxes[:, :2]
    hi = np.maximum(boxes[:, 2:], lo + MIN_BOX_SIZE)
    hi = lo + np.minimum(hi - lo, 1.0)
    return np.concatenate(_shift_into_unit(lo, hi), axis=1)


def _random_boxes(rng, count: int) -> np.ndarray:
    w = rng.uniform(0.1, 0.4, size=count)
    h = rng.uniform(0.1, 0.4, size=count)
    x1 = rng.uniform(0.0, 1.0 - w)
    y1 = rng.uniform(0.0, 1.0 - h)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


def _generate_scene(rng, config: DatasetConfig) -> Scene:
    n_gt = int(rng.integers(1, config.g_max + 1))
    gts = _random_boxes(rng, n_gt)

    n_jit = config.anchors // 2
    source = np.concatenate([
        np.arange(n_jit, dtype=np.int64) % n_gt,
        np.full(config.anchors - n_jit, -1, dtype=np.int64),
    ])
    jitter = rng.normal(0.0, 1.0, size=(n_jit, 4)) * config.noise
    jittered = _fit_boxes_into_unit_square(gts[source[:n_jit]] + jitter)
    background = _random_boxes(rng, config.anchors - n_jit)
    candidates = np.vstack([jittered, background])

    # learnability pass: any uncovered ground truth gets one exact copy.
    # Overwriting a slot can uncover an overlapping neighbour, so repeat
    # until stable; exact copies are never uncovered again, which bounds
    # the loop at n_gt rounds.
    while True:
        iou = pairwise_iou(candidates, gts)
        uncovered = np.flatnonzero(iou.max(axis=0) < ASSIGN_THRESHOLD)
        if uncovered.size == 0:
            break
        g = int(uncovered[0])
        slots = np.flatnonzero(source == g)
        slot = int(slots[0]) if slots.size else int(np.flatnonzero(source == -1)[0])
        candidates[slot] = gts[g]
        source[slot] = g

    best_iou = iou.max(axis=1)
    iou_feature = best_iou + config.noise * rng.normal(0.0, 1.0, size=config.anchors)
    distractors = rng.normal(0.0, 1.0, size=(config.anchors, config.features - 5))
    features = np.hstack([candidates, iou_feature[:, None], distractors])

    return Scene(gts, candidates, features,
                 assign(candidates, gts, ASSIGN_THRESHOLD), source)


def generate(config: DatasetConfig):
    """Deterministically build (train_scenes, eval_scenes) from the config.

    The newest fifth of the scenes (at least one) forms the eval split;
    the two splits are disjoint by construction.
    """
    rng = np.random.default_rng([config.seed, 977])
    scenes = [_generate_scene(rng, config) for _ in range(config.scenes)]
    n_eval = max(1, config.scenes // 5)
    return tuple(scenes[:-n_eval]), tuple(scenes[-n_eval:])


def dataset_to_json_dict(config: DatasetConfig, train, eval_scenes) -> dict:
    return {"config": config.to_json_dict(),
            "train": [s.to_json_dict() for s in train],
            "eval": [s.to_json_dict() for s in eval_scenes]}


def dataset_from_json_dict(data: dict):
    config = DatasetConfig.from_json_dict(data["config"])
    train = tuple(Scene.from_json_dict(s) for s in data["train"])
    eval_scenes = tuple(Scene.from_json_dict(s) for s in data["eval"])
    return config, train, eval_scenes


def save_dataset(path, config: DatasetConfig, train, eval_scenes):
    with open(path, "w") as fh:
        json.dump(dataset_to_json_dict(config, train, eval_scenes), fh)


def load_dataset(path):
    with open(path) as fh:
        return dataset_from_json_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class ToyModel:
    """One-hidden-layer map from features to (score logit, 4 box deltas).

    The refined box applies center offsets scaled by anchor extent and
    exponential size multipliers, then is shifted back into the unit square
    if it pokes out. A zero model therefore reproduces the anchors exactly
    and scores everything 0.5.
    """

    w1: np.ndarray  # (F, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, 5)
    b2: np.ndarray  # (5,)

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"model weights {name} must be finite")
            object.__setattr__(self, name, arr)
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise InvalidInputError("hidden layer shapes are inconsistent")
        if self.w2.shape != (self.w1.shape[1], 5) or self.b2.shape != (5,):
            raise InvalidInputError("output layer must map hidden -> 5")

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def init(cls, n_features: int, hidden: int, seed: int) -> "ToyModel":
        """Seeded start: random trunk, zero output heads."""
        rng = np.random.default_rng([seed, 331])
        w1 = rng.normal(0.0, 1.0 / np.sqrt(n_features), size=(n_features, hidden))
        return cls(w1, np.zeros(hidden), np.zeros((hidden, 5)), np.zeros(5))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), self.b2])

    def with_vector(self, vec: np.ndarray) -> "ToyModel":
        v = np.asarray(vec, dtype=float)
        f, h = self.w1.shape
        sizes = [f * h, h, h * 5, 5]
        if v.shape != (sum(sizes),):
            raise InvalidInputError("weight vector has the wrong length")
        parts = np.split(v, np.cumsum(sizes)[:-1])
        return ToyModel(parts[0].reshape(f, h), parts[1], parts[2].reshape(h, 5), parts[3])


@dataclass(eq=False)
class _ForwardCache:
    """Forward intermediates; each (N, 2) array holds an (x, y) pair."""

    features: np.ndarray
    hidden: np.ndarray
    scores: np.ndarray
    extent: np.ndarray  # anchor width and height
    exp_size: np.ndarray
    size_act: np.ndarray  # the size clip to [MIN_BOX_SIZE, 1] is inactive
    cap_act: np.ndarray  # the size delta is inside +-DELTA_CAP
    out_lo: np.ndarray  # the decoded lo corner lay below 0 before the shift
    out_hi: np.ndarray  # the decoded hi corner lay above 1 before the shift


def _model_apply(model: ToyModel, features: np.ndarray, anchors: np.ndarray):
    """Shared forward: returns (boxes, scores, cache)."""
    x = np.asarray(features, dtype=float)
    if x.shape[1] != model.n_features:
        raise InvalidInputError(
            f"feature dimension {x.shape[1]} does not match model ({model.n_features})"
        )
    u = np.tanh(x @ model.w1 + model.b1)
    out = u @ model.w2 + model.b2
    scores = expit(out[:, 0])
    # columns 1:3 move the center, 3:5 scale the extent, each as an (x, y) pair
    move, size = out[:, 1:3], out[:, 3:5]

    extent = anchors[:, 2:] - anchors[:, :2]
    cap_act = np.abs(size) < DELTA_CAP
    exp_size = np.exp(np.clip(size, -DELTA_CAP, DELTA_CAP))
    raw = extent * exp_size
    size_act = (raw > MIN_BOX_SIZE) & (raw < 1.0)

    # corner-offset form: bitwise identity when both deltas are zero
    center_move = move * extent
    grow_half = (np.clip(raw, MIN_BOX_SIZE, 1.0) - extent) / 2.0
    lo = anchors[:, :2] + center_move - grow_half
    hi = anchors[:, 2:] + center_move + grow_half
    boxes = np.concatenate(_shift_into_unit(lo, hi), axis=1)

    cache = _ForwardCache(x, u, scores, extent, exp_size, size_act, cap_act,
                          lo < 0.0, hi > 1.0)
    return boxes, scores, cache


def _weight_grads(model: ToyModel, cache: _ForwardCache,
                  score_grads: np.ndarray, box_grads: np.ndarray) -> np.ndarray:
    """Chain loss gradients on (scores, boxes) back to a flat weight gradient."""
    g_lo, g_hi = box_grads[:, :2], box_grads[:, 2:]
    lo_out = cache.out_lo.astype(float)
    hi_out = cache.out_hi.astype(float)
    # a shift pins the corner that poked out to the edge and moves the other
    # corner by as much
    d_lo_raw = g_lo * (1.0 - lo_out) - g_hi * lo_out
    d_hi_raw = g_hi * (1.0 - hi_out) - g_lo * hi_out
    d_center = d_lo_raw + d_hi_raw
    d_extent = (d_hi_raw - d_lo_raw) / 2.0
    d_move = d_center * cache.extent
    d_size = d_extent * cache.extent * cache.exp_size * cache.size_act * cache.cap_act
    g_logit = score_grads * cache.scores * (1.0 - cache.scores)

    out_grad = np.column_stack([g_logit, d_move, d_size])
    g_w2 = cache.hidden.T @ out_grad
    g_b2 = out_grad.sum(axis=0)
    g_hidden = (out_grad @ model.w2.T) * (1.0 - cache.hidden**2)
    g_w1 = cache.features.T @ g_hidden
    g_b1 = g_hidden.sum(axis=0)
    return np.concatenate([g_w1.ravel(), g_b1, g_w2.ravel(), g_b2])


def _merge_scenes(scenes):
    """Stack scene arrays into one joint batch with offset gt indices."""
    feats = np.vstack([s.features for s in scenes])
    anchors = np.vstack([s.anchors for s in scenes])
    gts = np.vstack([s.gt_boxes for s in scenes])
    assignment = []
    offset = 0
    for s in scenes:
        asg = s.assignment.copy()
        asg[asg >= 0] += offset
        assignment.append(asg)
        offset += s.gt_boxes.shape[0]
    return feats, anchors, gts, np.concatenate(assignment)


def model_forward(model: ToyModel, scene: Scene) -> DetectionBatch:
    """Run the detector on one scene; assignment is the scene's labels."""
    boxes, scores, _ = _model_apply(model, scene.features, scene.anchors)
    return DetectionBatch(boxes, scores, scene.gt_boxes, scene.assignment)


def train_inner(params: LossParams, train_set, steps: int, seed: int, *,
                batch_scenes: int = 8, lr: float = 0.02, functions=None) -> ToyModel:
    """Seeded inner training of the detector under the given loss parameters.

    Starts from ToyModel.init with HIDDEN hidden units and runs `steps` Adam
    updates over shuffled mini-batches of scenes; all predictions of a
    mini-batch form one joint ranking. A mini-batch without positives is
    skipped (the step is consumed without an update). Raises
    TrainingDivergedError on the first non-finite loss, gradient or weight.
    `functions` overrides the piecewise substitutions with explicit callables
    (used by the handcrafted-substitution comparisons); by default they are
    built from params once per training.
    """
    if steps < 0:
        raise InvalidInputError("steps must be non-negative")
    if not train_set:
        raise InvalidInputError("training needs at least one scene")
    if batch_scenes < 1:
        raise InvalidInputError("batch_scenes must be at least 1")
    n_features = train_set[0].features.shape[1]
    model = ToyModel.init(n_features, HIDDEN, seed)
    if steps == 0:
        return model
    if functions is None:
        # built once, so an unbuildable theta raises ConstraintViolationError
        # before the first step; called through the module so that a tracer
        # wrapping paploss.resolve_functions sees it
        functions = paploss.resolve_functions(params)

    shuffle_rng = np.random.default_rng([seed, 733])
    batch_scenes = min(batch_scenes, len(train_set))
    order = []
    weights = model.to_vector()
    opt = Adam(weights.size, lr=lr)
    # the model's arrays are views of this one buffer, which each step updates
    # in place, so the weights are checked once here and then per step below
    model = model.with_vector(weights)

    for step in range(steps):
        if len(order) < batch_scenes:
            order = list(shuffle_rng.permutation(len(train_set)))
        picked = [train_set[i] for i in order[:batch_scenes]]
        order = order[batch_scenes:]

        feats, anchors, gts, assignment = _merge_scenes(picked)
        boxes, scores, cache = _model_apply(model, feats, anchors)
        degenerate = np.any(boxes[:, 2:] - boxes[:, :2] <= 0.0)
        if degenerate or not (np.all(np.isfinite(boxes)) and np.all(np.isfinite(scores))):
            raise TrainingDivergedError(step)
        # every DetectionBatch check already holds: the boxes are finite and
        # non-degenerate and the scores finite (checked just above), and the
        # ground truths and the int64 assignment into them come from validated
        # Scenes, offset per scene by _merge_scenes
        batch = DetectionBatch._trusted(boxes, scores, gts, assignment)
        try:
            value, loss_cache = loss_forward(batch, params, functions)
        except EmptyPositiveError:
            continue
        score_grads, box_grads = loss_backward(loss_cache)
        if not (np.isfinite(value) and np.all(np.isfinite(score_grads))
                and np.all(np.isfinite(box_grads))):
            raise TrainingDivergedError(step)
        grad = _weight_grads(model, cache, score_grads, box_grads)
        if not np.all(np.isfinite(grad)):
            raise TrainingDivergedError(step)
        # linear step-size decay: collapses the seed-to-seed spread of the
        # final weights by an order of magnitude versus a constant rate
        weights[:] = opt.step(weights, grad, lr=lr * (1.0 - step / steps))
        if not np.all(np.isfinite(weights)):
            raise TrainingDivergedError(step)

    return model


def reward(model: ToyModel, eval_scenes) -> float:
    """Mean precision-recall AP of the model over the evaluation scenes.

    Each scene's AP is averaged over COCO_THRESHOLDS (IoU 0.50:0.05:0.95).
    """
    return _reward_from(_scene_threshold_ap(model, eval_scenes))


def _reward_from(by_scene: np.ndarray) -> float:
    """reward from the (S, T) per-scene, per-threshold AP: the threshold
    mean of each scene, then the scene mean, each summed in order as
    ap_pr_area sums, so the result equals the mean of per-scene ap_pr_area."""
    return _mean_in_order([_mean_in_order(row) for row in by_scene.tolist()])


def _scene_threshold_ap(model: ToyModel, eval_scenes) -> np.ndarray:
    """(S, T) PR-area AP of the model per evaluation scene and COCO threshold,
    from one greedy-matching pass over all scenes."""
    if not eval_scenes:
        raise InvalidInputError("reward needs a non-empty evaluation set")
    ranked = []
    for scene in eval_scenes:
        batch = model_forward(model, scene)
        ranked.append(_ranked_iou(batch.boxes, batch.scores, batch.gt_boxes))
    return _pr_area_stack(ranked, COCO_THRESHOLDS)


def dataset_loss(model: ToyModel, params: LossParams, scenes) -> float:
    """Mean per-scene loss value; diagnostic helper for tests and tuning."""
    if not scenes:
        raise InvalidInputError("dataset_loss needs at least one scene")
    values = []
    for scene in scenes:
        batch = model_forward(model, scene)
        values.append(loss_forward(batch, params)[0])
    return float(np.mean(values))
