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
import re
from dataclasses import dataclass

import numpy as np

from . import paploss
from .apmetric import (
    COCO_THRESHOLDS,
    NEGATIVE,
    DetectionBatch,
    _mean_in_order,
    _pr_area_stack,
    _ranked_iou,
    assignment_from_iou,
)

# ap_pr_area stays importable from here, unused: the benchmark wraps this
# binding
from .apmetric import ap_pr_area  # noqa: F401
from .errors import (
    ConfigError,
    InvalidInputError,
    TrainingDivergedError,
    check_field_types,
    check_value_type,
)
from .geometry import pairwise_iou, validate_boxes
from .optim import Adam
from .paploss import LossParams

# loss_forward and loss_backward stay importable from here, unused: the
# benchmark wraps these bindings
from .paploss import loss_backward, loss_forward  # noqa: F401

ASSIGN_THRESHOLD = 0.5
MIN_BOX_SIZE = 0.02
DELTA_CAP = 4.0  # box-size deltas are clipped to keep exp() tame
HIDDEN = 16  # hidden units of the detector that train_inner trains
LR = 0.02  # train_inner's Adam step size at step 0, decaying linearly to 0
READ_CHARS = 1 << 16  # load_dataset reads the file this many characters at a time
_WHITESPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace
_NUMBER_TAIL = re.compile(r"[-+.eE0-9]*")


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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

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
    from, -1 for background candidates; the constructor checks that it
    lies in [-1, G - 1]. assignment is precomputed with the
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
        if a < 1:
            raise InvalidInputError("scene needs at least one anchor")
        if feats.ndim != 2 or feats.shape[0] != a or asg.shape[0] != a or src.shape[0] != a:
            raise InvalidInputError("anchors, features, assignment and source lengths differ")
        if np.any((src < -1) | (src >= gt.shape[0])):
            raise InvalidInputError(f"source entries must lie in [-1, {gt.shape[0] - 1}]")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features must be finite")
        iou = pairwise_iou(anchors, gt)
        if np.any(iou.max(axis=0) < ASSIGN_THRESHOLD):
            raise InvalidInputError("a ground truth has no candidate at the assignment threshold")
        if not np.array_equal(assignment_from_iou(iou, ASSIGN_THRESHOLD), asg):
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

    # iou is of the final candidates: the loop breaks right after computing it
    return Scene(gts, candidates, features, assignment_from_iou(iou, ASSIGN_THRESHOLD), source)


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


def save_dataset(path, config: DatasetConfig, train, eval_scenes):
    """Write the dataset file at path with write_dataset."""
    with open(path, "w") as fh:
        write_dataset(fh, config, train, eval_scenes)


def write_dataset(fh, config: DatasetConfig, train, eval_scenes):
    """Write json.dumps(dataset_to_json_dict(config, train, eval_scenes))
    to the text file fh, one scene at a time: the bytes are the same, but
    only one scene's text is held at once, and each piece goes through
    json's C encoder, which json.dump does not use."""
    fh.write(f'{{"config": {json.dumps(config.to_json_dict())}')
    for key, scenes in (("train", train), ("eval", eval_scenes)):
        fh.write(f', "{key}": [')
        for k, scene in enumerate(scenes):
            fh.write((", " if k else "") + json.dumps(scene.to_json_dict()))
        fh.write("]")
    fh.write("}")


def read_json(path):
    """The JSON value in the file at path; ConfigError for a directory or a
    file that is not JSON text (a missing file raises FileNotFoundError)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (IsADirectoryError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not a JSON file: {exc}") from exc


class _JsonStream:
    """The JSON text of a file, decoded one value at a time from chunks of
    READ_CHARS characters: it holds one chunk and the value being decoded,
    never the whole text. Raises ConfigError, naming the file, where the
    text is not JSON."""

    def __init__(self, fh, path):
        self._fh, self._path = fh, path
        self._buf = ""
        self._pos = 0  # the next character of _buf to decode
        self._offset = 0  # characters of the file before _buf
        self._decode = json.JSONDecoder().raw_decode

    def _more(self) -> bool:
        """Drop the decoded text and append the next chunk; False at the end
        of the file."""
        chunk = self._fh.read(READ_CHARS)
        if chunk:
            self._offset += self._pos
            self._buf = self._buf[self._pos:] + chunk
            self._pos = 0
        return bool(chunk)

    def error(self, message: str, pos=None) -> ConfigError:
        at = self._offset + (self._pos if pos is None else pos)
        return ConfigError(f"{self._path} is not a JSON file: {message} at character {at}")

    def peek(self) -> str:
        """The next character that is not whitespace, or "" at the end of the file."""
        while True:
            self._pos = _WHITESPACE.match(self._buf, self._pos).end()
            if self._pos < len(self._buf) or not self._more():
                return self._buf[self._pos:self._pos + 1]

    def take(self, char: str):
        if self.peek() != char:
            raise self.error(f"Expecting {char!r}")
        self._pos += 1

    def value(self):
        """The next JSON value, decoded whole."""
        self.peek()
        while True:
            try:
                value, end = self._decode(self._buf, self._pos)
            except json.JSONDecodeError as exc:
                # the value may go on in the next chunk
                if self._more():
                    continue
                raise self.error(exc.msg, exc.pos) from None
            # a number that only number characters follow may go on in the
            # next chunk too: a chunk that ends in "1" may go on with "e5"
            if not (isinstance(value, (int, float)) and _NUMBER_TAIL.fullmatch(self._buf, end)
                    and self._more()):
                self._pos = end
                return value

    def items(self, opening: str, closing: str):
        """Walks the JSON object ("{", "}") or array ("[", "]") that comes
        next: yields the key of each member, or None before each element,
        and the caller reads the member's value or the element with value()
        before it asks for the next."""
        self.take(opening)
        if self.peek() == closing:
            self._pos += 1
            return
        while True:
            if opening == "{":
                if self.peek() != '"':
                    raise self.error("Expecting property name enclosed in double quotes")
                key = self.value()
                self.take(":")
                yield key
            else:
                yield None
            if self.peek() != ",":
                break
            self._pos += 1
        self.take(closing)


def _scene_from(data, path, split: str, k: int) -> Scene:
    """Scene.from_json_dict, with any error of the scene's data a ConfigError
    that names the file, the split and the scene's index."""
    try:
        return Scene.from_json_dict(data)
    except (KeyError, TypeError, ValueError, InvalidInputError) as exc:
        reason = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}: {split} scene {k}: {reason}") from exc


def load_dataset(path):
    """(config, train, eval) from a dataset file.

    Decodes the file a chunk of READ_CHARS characters at a time, and each
    train and eval scene into a Scene before the next one, so it holds one
    chunk and one scene's JSON besides the scenes read so far. Any JSON
    layout loads: whitespace, key order and extra top-level keys do not
    matter, and of a repeated key the last one counts, as with json.load.

    Raises ConfigError, naming the file, for a file that is not JSON, lacks
    a key or holds an empty split; naming the split and the scene's index
    too, for a scene that is not a valid Scene (a non-numeric or ragged
    array, a missing key, a failed check); and for scenes of different
    feature widths, or whose config's F, A or scenes does not describe them.
    """
    parts = {}
    try:
        with open(path) as fh:
            stream = _JsonStream(fh, path)
            if stream.peek() != "{":
                raise ConfigError(f"{path} is not a dataset file: it holds no JSON object")
            for key in stream.items("{", "}"):
                if key in ("train", "eval") and stream.peek() == "[":
                    parts[key] = tuple(_scene_from(stream.value(), path, key, k)
                                       for k, _ in enumerate(stream.items("[", "]")))
                else:
                    parts[key] = stream.value()
            if stream.peek():
                raise stream.error("Extra data")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not a JSON file: {exc}") from exc
    for key in ("config", "train", "eval"):
        if key not in parts:
            raise ConfigError(f"{path} is not a dataset file: it has no {key!r} key")
    for split in ("train", "eval"):
        # a JSON list read as a split is a tuple of Scenes; any other value is not
        if not isinstance(parts[split], tuple):
            raise ConfigError(f"{path}: {split} must be a list of scenes")
        if not parts[split]:
            # a search would train a whole round before reward found no eval scene
            raise ConfigError(f"{path}: the {split} split holds no scenes")
    try:
        config = DatasetConfig.from_json_dict(parts["config"])
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: config: {exc}") from exc
    train, eval_scenes = parts["train"], parts["eval"]
    scenes = train + eval_scenes
    # the model trained on the train scenes runs on the eval scenes too
    n_anchor, _ = _scene_sizes(scenes, lambda message: ConfigError(f"{path}: {message}"))
    # a run records this config as the data it trained and scored on
    stated = config.to_json_dict()
    held = {"F": {s.features.shape[1] for s in scenes}, "A": set(n_anchor.tolist()),
            "scenes": {len(scenes)}}
    for key, values in held.items():
        if values != {stated[key]}:
            raise ConfigError(f"{path}: config {key} = {stated[key]}, "
                              f"but the scenes hold {sorted(values)}")
    return config, train, eval_scenes


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
        if v.shape != (f * h + h + h * 5 + 5,):
            raise InvalidInputError("weight vector has the wrong length")
        return ToyModel(*_weight_views(v, f, h))


def _weight_views(weights: np.ndarray, n_features: int, hidden: int):
    """(w1, b1, w2, b2) as views of a (..., D) buffer laid out as
    ToyModel.to_vector: (..., F, H), (..., H), (..., H, 5) and (..., 5)."""
    lead = weights.shape[:-1]
    ends = np.cumsum([n_features * hidden, hidden, hidden * 5]).tolist()
    return (weights[..., :ends[0]].reshape(lead + (n_features, hidden)),
            weights[..., ends[0]:ends[1]],
            weights[..., ends[1]:ends[2]].reshape(lead + (hidden, 5)),
            weights[..., ends[2]:])


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


def _model_apply(model, features: np.ndarray, anchors: np.ndarray):
    """Shared forward: returns (boxes, scores, cache).

    model is one ToyModel on (N, F) features and (N, 4) anchors, or a
    _WeightStack of S detectors on (S, N, F) and (S, N, 4) arrays; each
    slice of a stack's results equals its detector's alone bit for bit.
    """
    x = np.asarray(features, dtype=float)
    if x.shape[-1] != model.w1.shape[-2]:
        raise InvalidInputError(
            f"feature dimension {x.shape[-1]} does not match model ({model.w1.shape[-2]})"
        )
    u = np.tanh(x @ model.w1 + model.b1)
    out = u @ model.w2 + model.b2
    scores = paploss.expit(out[..., 0])
    # columns 1:3 move the center, 3:5 scale the extent, each as an (x, y) pair
    move, size = out[..., 1:3], out[..., 3:5]

    extent = anchors[..., 2:] - anchors[..., :2]
    cap_act = np.abs(size) < DELTA_CAP
    exp_size = np.exp(np.clip(size, -DELTA_CAP, DELTA_CAP))
    raw = extent * exp_size
    size_act = (raw > MIN_BOX_SIZE) & (raw < 1.0)

    # corner-offset form: bitwise identity when both deltas are zero
    center_move = move * extent
    grow_half = (np.clip(raw, MIN_BOX_SIZE, 1.0) - extent) / 2.0
    lo = anchors[..., :2] + center_move - grow_half
    hi = anchors[..., 2:] + center_move + grow_half
    boxes = np.concatenate(_shift_into_unit(lo, hi), axis=-1)

    cache = _ForwardCache(x, u, scores, extent, exp_size, size_act, cap_act,
                          lo < 0.0, hi > 1.0)
    return boxes, scores, cache


def _weight_grads(model, cache: _ForwardCache,
                  score_grads: np.ndarray, box_grads: np.ndarray) -> np.ndarray:
    """Chain loss gradients on (scores, boxes) back to a flat weight gradient,
    or to an (S, D) stack of them for a _WeightStack."""
    g_lo, g_hi = box_grads[..., :2], box_grads[..., 2:]
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

    out_grad = np.concatenate([g_logit[..., None], d_move, d_size], axis=-1)
    g_w2 = cache.hidden.swapaxes(-1, -2) @ out_grad
    g_b2 = out_grad.sum(axis=-2)
    g_hidden = (out_grad @ model.w2.swapaxes(-1, -2)) * (1.0 - cache.hidden**2)
    g_w1 = cache.features.swapaxes(-1, -2) @ g_hidden
    g_b1 = g_hidden.sum(axis=-2)
    lead = out_grad.shape[:-2]
    return np.concatenate([g.reshape(lead + (-1,)) for g in (g_w1, g_b1, g_w2, g_b2)],
                          axis=-1)


class _WeightStack:
    """S detectors of HIDDEN units as views of the rows of one (S, D) weight
    buffer: w1 (S, F, H), w2 (S, H, 5), and b1 (S, 1, H) and b2 (S, 1, 5),
    which broadcast over each detector's N predictions."""

    def __init__(self, weights: np.ndarray, n_features: int):
        self.w1, b1, self.w2, b2 = _weight_views(weights, n_features, HIDDEN)
        self.b1, self.b2 = b1[:, None], b2[:, None]


def _scene_sizes(scenes, error=InvalidInputError):
    """(anchors, ground truths) per scene, as int arrays.

    Raises `error` if the scenes' feature widths differ: one detector runs
    on all of them, and their features cannot be stacked.
    """
    widths = {s.features.shape[1] for s in scenes}
    if len(widths) > 1:
        raise error(f"scenes have different feature widths {sorted(widths)}")
    return (np.array([s.anchors.shape[0] for s in scenes]),
            np.array([s.gt_boxes.shape[0] for s in scenes]))


def _merge_scenes(scenes):
    """(_scene_sizes, (features, anchors, gt boxes, assignment)) of the
    scenes stacked into one joint batch, each scene's gt indices offset by
    the ground truths stacked before it."""
    n_anchor, n_gt = _scene_sizes(scenes)
    assignment = np.concatenate([s.assignment for s in scenes])
    offsets = np.repeat(np.cumsum(n_gt) - n_gt, n_anchor)
    return (n_anchor, n_gt), (np.concatenate([s.features for s in scenes]),
                              np.concatenate([s.anchors for s in scenes]),
                              np.concatenate([s.gt_boxes for s in scenes]),
                              np.where(assignment >= 0, assignment + offsets, NEGATIVE))


def model_forward(model: ToyModel, scene: Scene) -> DetectionBatch:
    """Run the detector on one scene; assignment is the scene's labels."""
    boxes, scores, _ = _model_apply(model, scene.features, scene.anchors)
    return DetectionBatch(boxes, scores, scene.gt_boxes, scene.assignment)


def train_inner(params: LossParams, train_set, steps: int, seed: int, *,
                batch_scenes: int = 8, functions=None) -> ToyModel:
    """Seeded inner training of the detector under the given loss parameters.

    Starts from ToyModel.init with HIDDEN hidden units and runs `steps` Adam
    updates, at a step size decaying linearly from LR, over shuffled
    mini-batches of scenes; all predictions of a mini-batch form one joint
    ranking. A mini-batch without positives is
    skipped (the step is consumed without an update). Raises
    TrainingDivergedError on the first non-finite loss, gradient or weight,
    and InvalidInputError for steps, batch_scenes or a seed that is not an
    integer in range, or train scenes of different anchor counts.
    `functions` overrides the piecewise substitutions with explicit callables
    (used by the handcrafted-substitution comparisons); by default they are
    params.functions, built when params was made, so parameters whose knots
    collapse never get here (LossParams raised ConstraintViolationError).
    This is the one-sample call of _train_lockstep.
    """
    outcome, = _train_lockstep([params], train_set, steps, [seed], batch_scenes=batch_scenes,
                               functions=functions)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _train_lockstep(params, train_set, steps: int, seeds, *, batch_scenes: int = 8,
                    functions=None) -> list:
    """train_inner of several samples at once, as one stacked computation
    per step.

    Sample k trains under params[k] (all of one measurement) from seed
    seeds[k], with its own shuffle; the samples share the train set,
    steps, batch_scenes and the `functions` override. Returns one
    outcome per sample, in order: its trained ToyModel, or the
    TrainingDivergedError that train_inner raises for it alone. Each
    outcome equals that train_inner call's bit for bit: the detector's
    forward and backward pass, the positives' localization scores, f1, f3
    and f5, the finiteness checks and Adam run on stacks, while each
    sample's pair sums (the (P, N) or sorted kernel) run on their own,
    because a stack of them is slower than its parts.

    Raises InvalidInputError unless there is one seed per sample and the
    train scenes share one anchor count, so that a step's scenes are one
    gather from the train set stacked once. Every sample joins the stack,
    which keeps its size for the whole training, since a LossParams always
    builds (a search decides unbuildable samples in search._evaluate_chunk).
    A diverged sample's row stays in it with zero weights and no positives,
    so it neither updates nor fails again while the others go on, and the
    training ends once every row has diverged. A sample whose mini-batch has
    no positives skips only its own update, so its Adam step count does not
    advance.
    """
    if len(seeds) != len(params):
        raise InvalidInputError(f"{len(params)} samples need as many seeds, got {len(seeds)}")
    for name, value, least in [("steps", steps, 0), ("batch_scenes", batch_scenes, 1),
                               *(("seed", seed, 0) for seed in seeds)]:
        check_value_type(name, int, value, InvalidInputError)
        if value < least:
            raise InvalidInputError(f"{name} must be at least {least}, got {value}")
    if not train_set:
        raise InvalidInputError("training needs at least one scene")
    if functions is not None and len(functions) != 5:
        raise InvalidInputError("functions override must supply exactly 5 functions")
    if len({p.measurement for p in params}) > 1:
        raise InvalidInputError("samples trained in lockstep share one measurement")
    # stacked once: each step gathers its scenes' rows from these arrays
    (n_anchor, _), (all_feats, all_anchors, gts, all_assignment) = _merge_scenes(train_set)
    if np.any(n_anchor != n_anchor[0]):
        raise InvalidInputError(f"train scenes have different anchor counts {np.unique(n_anchor)}")
    # scene i holds rows i * A to i * A + A - 1 of the stack
    a = int(n_anchor[0])
    n_features = all_feats.shape[1]
    outcomes = [ToyModel.init(n_features, HIDDEN, seed) for seed in seeds]
    if steps == 0 or not params:
        return outcomes
    fns = [p.functions if functions is None else functions for p in params]
    # row k of the buffer is sample k; every step updates it in place, so
    # the weights are checked once here and then per step below
    weights = np.stack([m.to_vector() for m in outcomes])
    opt = Adam(weights.shape[1], rows=len(params))
    model = _WeightStack(weights, n_features)
    shapes = paploss._ShapeRows(fns)
    done = np.zeros(len(params), dtype=bool)

    schedule = _batch_schedule(len(train_set), batch_scenes, steps, seeds)
    for step, picked in enumerate(schedule):
        rows = (picked[:, None] * a + np.arange(a)).reshape(len(params), -1)
        boxes, scores, cache = _model_apply(model, all_feats[rows], all_anchors[rows])
        # a frozen row's zero weights give its anchors' boxes, which may
        # collapse; it must not fail a second time
        failed = ~done & ((boxes[..., 2:] - boxes[..., :2] <= 0.0).any(axis=(1, 2))
                          | ~np.isfinite(boxes).all(axis=(1, 2))
                          | ~np.isfinite(scores).all(axis=1))
        assignment = all_assignment[rows]
        positive = (assignment >= 0) & ~(failed | done)[:, None]
        ranked = positive.any(axis=1)
        if ranked.any():
            values, score_grads, box_grads, _ = paploss._stack_grads(
                boxes, scores, gts, assignment, positive, params, fns, shapes)
            finite = ~ranked | (np.isfinite(values) & np.isfinite(score_grads).all(axis=1)
                                & np.isfinite(box_grads).all(axis=(1, 2)))
            if not finite.all():
                # zeroed so that the backprop of the other rows raises no warning
                score_grads[~finite] = 0.0
                box_grads[~finite] = 0.0
            grad = _weight_grads(model, cache, score_grads, box_grads)
            failed |= ~finite | (ranked & ~np.isfinite(grad).all(axis=1))
        update = np.flatnonzero(ranked & ~failed)
        if update.size:
            # linear step-size decay: collapses the seed-to-seed spread of
            # the final weights by an order of magnitude versus a constant rate
            opt.step_rows(weights, grad, update, lr=LR * (1.0 - step / steps))
            # the rows left out kept their finite weights
            failed |= ~np.isfinite(weights).all(axis=1)
        if failed.any():
            for k in np.flatnonzero(failed).tolist():
                outcomes[k] = TrainingDivergedError(step)
            done |= failed
            if done.all():
                return outcomes
            # finite, so the frozen row's forward pass raises no warning
            weights[failed] = 0.0

    for k in np.flatnonzero(~done).tolist():
        outcomes[k] = outcomes[k].with_vector(weights[k])
    return outcomes


def _batch_schedule(n_scenes: int, batch_scenes: int, steps: int, seeds):
    """Yields the scenes of each step's mini-batches, one int array of S * b
    scene indices per step, sample by sample, with b = min(batch_scenes,
    n_scenes). Each epoch is one permutation of the scenes from each seed's
    shuffle stream, dealt into batches of b, and a remainder smaller than a
    batch is dropped; the epochs are drawn one at a time."""
    batch_scenes = min(batch_scenes, n_scenes)
    per_epoch = n_scenes // batch_scenes
    shuffles = [np.random.default_rng([seed, 733]) for seed in seeds]
    for step in range(steps):
        if step % per_epoch == 0:
            deal = np.stack([s.permutation(n_scenes)[:per_epoch * batch_scenes]
                             for s in shuffles]).reshape(len(seeds), per_epoch, -1)
            deal = deal.swapaxes(0, 1).reshape(per_epoch, -1)
        yield deal[step % per_epoch]


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
    from one detector pass and one greedy-matching pass over all scenes."""
    if not eval_scenes:
        raise InvalidInputError("reward needs a non-empty evaluation set")
    (n_anchor, n_gt), (feats, anchors, gts, _) = _merge_scenes(eval_scenes)
    boxes, scores, _ = _model_apply(model, feats, anchors)
    validate_boxes(boxes)
    if not np.all(np.isfinite(scores)):
        raise InvalidInputError("scores must be finite")
    return _pr_area_stack(_ranked_iou(boxes, scores, gts, n_anchor, n_gt), n_gt,
                          COCO_THRESHOLDS)
