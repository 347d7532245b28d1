"""A lockstep chunk trains each of its samples exactly as train_inner alone.

_train_lockstep stacks the small per-row work of several samples' steps
(the detector's forward and backward pass, the positives' localization
scores, f1, f3 and f5, the finiteness checks and Adam) and keeps each
sample's pair sums on their own. Every test compares a chunk with separate
train_inner calls by exact equality of the weights and of the reward, for
chunks of 1 to 4 samples, including samples that diverge, do not build, or
meet a mini-batch without positives while the others train on.
"""

import json

import numpy as np
import pytest

from paramloss.errors import ConstraintViolationError, TrainingDivergedError
from paramloss.optim import Adam
from paramloss.paploss import N_SORTED, LossParams
from paramloss.piecewise import RatioParams
from paramloss.search import SearchConfig, random_search, run_search, sample_truncnorm
from paramloss.toybench import (
    DatasetConfig,
    Scene,
    _train_lockstep,
    generate,
    reward,
    train_inner,
)

SMALL = DatasetConfig(scenes=30, g_max=2, anchors=10, features=6, noise=0.05, seed=3)
STEPS = 40
CHUNK_SIZES = (1, 2, 3, 4)


def _sampled(count, seed=7, **kwargs):
    mu = LossParams.identity().to_flat()
    return [LossParams.from_flat(sample_truncnorm(mu, 0.2, np.random.default_rng([seed, i])),
                                 **kwargs) for i in range(count)]


def _unbuildable():
    # ratios this close to 1 collapse the knots onto x = 1
    theta = RatioParams(np.full((4, 2), np.nextafter(1.0, 0.0)))
    return LossParams(theta, theta, theta, theta, theta, theta_lambda=0.5)


def _outcome(params, train_set, steps, seed, **kwargs):
    """train_inner's model, or the error it raises."""
    try:
        return train_inner(params, train_set, steps, seed, **kwargs)
    except (TrainingDivergedError, ConstraintViolationError) as exc:
        return exc


def _assert_chunk_matches_separate(params, train_set, seeds, eval_set, steps=STEPS, **kwargs):
    chunk = _train_lockstep(params, train_set, steps, seeds, **kwargs)
    assert len(chunk) == len(params)
    for p, seed, got in zip(params, seeds, chunk):
        want = _outcome(p, train_set, steps, seed, **kwargs)
        assert type(got) is type(want)
        if isinstance(want, TrainingDivergedError):
            assert got.step == want.step
        elif not isinstance(want, Exception):
            assert np.array_equal(got.to_vector(), want.to_vector())
            assert reward(got, eval_set) == reward(want, eval_set)
    return chunk


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunk_equals_separate_trainings(size):
    train, eval_set = generate(SMALL)
    chunk = _assert_chunk_matches_separate(_sampled(size), train, list(range(11, 11 + size)),
                                           eval_set)
    assert all(not isinstance(o, Exception) for o in chunk)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_unblocked_iou_chunk_equals_separate_trainings(size):
    train, eval_set = generate(SMALL)
    params = _sampled(size, seed=8, measurement="iou", block_denominator=False)
    _assert_chunk_matches_separate(params, train, list(range(size)), eval_set)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_diverged_sample_freezes_at_its_step(size):
    # at this rate the first four samples of _sampled diverge at steps 5, 8,
    # 5 and 7 of 40
    train, eval_set = generate(SMALL)
    params = _sampled(4)[-size:]
    chunk = _assert_chunk_matches_separate(params, train, list(range(4 - size, 4)), eval_set,
                                           lr=1e13)
    steps = [o.step for o in chunk if isinstance(o, TrainingDivergedError)]
    assert steps == [5, 8, 5, 7][-size:]


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_unbuildable_sample_never_joins(size):
    train, eval_set = generate(SMALL)
    params = _sampled(size)
    params[size // 2] = _unbuildable()
    chunk = _assert_chunk_matches_separate(params, train, list(range(size)), eval_set)
    assert isinstance(chunk[size // 2], ConstraintViolationError)
    assert sum(isinstance(o, Exception) for o in chunk) == 1


def _without_positives(scene):
    """The scene with its ground truths moved off every candidate, so that
    no prediction is positive; built past Scene's coverage check."""
    bare = object.__new__(Scene)
    vars(bare).update(vars(scene))
    vars(bare).update(gt_boxes=np.array([[0.0, 0.0, 1e-3, 1e-3]]),
                      assignment=np.full(scene.assignment.shape, -1, dtype=np.int64))
    return bare


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_sample_without_positives_skips_only_its_own_update(size):
    train, eval_set = generate(SMALL)
    train = tuple(_without_positives(s) if k % 3 == 0 else s for k, s in enumerate(train[:12]))
    seeds = list(range(size))
    chunk = _assert_chunk_matches_separate(_sampled(size), train, seeds, eval_set,
                                           batch_scenes=1)
    # the shuffles put the scenes without positives at different steps, so
    # some step skips one sample's update while another sample updates
    empty = {k for k, s in enumerate(train) if np.all(s.assignment < 0)}
    skipped = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 733])
        order = []
        steps = set()
        for step in range(STEPS):
            if not order:
                order = list(rng.permutation(len(train)))
            if order.pop(0) in empty:
                steps.add(step)
        skipped.append(steps)
    if size >= 2:
        assert any(a != b for a in skipped for b in skipped)
    assert all(not isinstance(o, Exception) for o in chunk)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_ragged_tail_batch_equals_separate_trainings(size):
    # 3 scenes of 7 anchors: N = 21 predictions, not a multiple of the SIMD
    # width, so every sample's rows start at another offset in the stack
    odd = DatasetConfig(scenes=30, g_max=3, anchors=7, features=6, noise=0.05, seed=4)
    train, eval_set = generate(odd)
    _assert_chunk_matches_separate(_sampled(size, seed=9), train, list(range(size)), eval_set,
                                   batch_scenes=3)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_sorted_path_unblocked_equals_separate_trainings(size):
    wide = DatasetConfig(scenes=30, g_max=3, anchors=16, features=6, noise=0.05, seed=5)
    train, eval_set = generate(wide)
    batch_scenes = N_SORTED // 16
    params = _sampled(size, seed=10, block_denominator=False)
    _assert_chunk_matches_separate(params, train, list(range(size)), eval_set, steps=12,
                                   batch_scenes=batch_scenes)


def test_ragged_anchor_counts_train_one_sample_at_a_time():
    sixteen = generate(DatasetConfig(scenes=10, g_max=4, anchors=16, features=6, seed=8))[0]
    ten = generate(DatasetConfig(scenes=10, g_max=4, anchors=10, features=6, seed=9))
    train = tuple(s for pair in zip(sixteen, ten[0]) for s in pair)
    _assert_chunk_matches_separate(_sampled(3), train, [1, 2, 3], ten[1], batch_scenes=5)


def test_shared_override_functions_equal_separate_trainings():
    from paramloss.paploss import handcrafted_substitution
    train, eval_set = generate(SMALL)
    functions = tuple(handcrafted_substitution("sqrt") for _ in range(5))
    _assert_chunk_matches_separate(_sampled(3), train, [4, 5, 6], eval_set,
                                   functions=functions)


def test_stacked_adam_equals_per_row_steps():
    # the rows advance at different step counts, t = 1 ... 300, and some
    # rows sit out some steps
    rng = np.random.default_rng(0)
    rows, dim, steps = 4, 7, 300
    x = rng.normal(size=(rows, dim))
    stacked = Adam(dim, lr=0.02, rows=rows)
    single = [Adam(dim, lr=0.02) for _ in range(rows)]
    expected = [x[r].copy() for r in range(rows)]
    for step in range(steps):
        grad = rng.normal(size=(rows, dim))
        update = [r for r in range(rows) if r == 0 or (step + r) % (r + 1) != 0]
        lr = 0.02 * (1.0 - step / steps)
        stacked.step_rows(x, grad, update, lr=lr)
        for r in update:
            expected[r] = single[r].step(expected[r], grad[r], lr=lr)
        for r in range(rows):
            assert np.array_equal(x[r], expected[r])
    assert stacked.t == [opt.t for opt in single]
    assert stacked.t[0] == steps and len(set(stacked.t)) == rows


def _strip_wall(history):
    return json.dumps([{k: v for k, v in r.items() if k != "wall_ms"} for r in history])


@pytest.fixture(scope="module")
def data():
    return generate(DatasetConfig(scenes=20, g_max=2, anchors=8, features=6, seed=5))


def test_search_rounds_are_identical_at_jobs_1_2_3(data):
    config = SearchConfig(T=2, S=4, steps=3, M=3, seed=3)
    runs = [run_search(config, dataset=data, jobs=jobs) for jobs in (1, 2, 3)]
    for best, history in runs[1:]:
        assert np.array_equal(best.to_flat(), runs[0][0].to_flat())
        assert _strip_wall(history) == _strip_wall(runs[0][1])


def test_random_search_partial_round_is_identical_at_jobs_1_2_3(data):
    config = SearchConfig(T=3, S=4, steps=3, M=3, seed=4)
    runs = [random_search(config, dataset=data, jobs=jobs, budget=10) for jobs in (1, 2, 3)]
    samples = [r for r in runs[0][1] if "reward" in r]
    assert [(r["round"], r["sample_index"]) for r in samples][-2:] == [(3, 0), (3, 1)]
    for best, history in runs[1:]:
        assert np.array_equal(best.to_flat(), runs[0][0].to_flat())
        assert _strip_wall(history) == _strip_wall(runs[0][1])


def test_search_records_equal_separate_trainings(data):
    from paramloss.search import _train_seed
    config = SearchConfig(T=1, S=3, steps=4, M=3, seed=6)
    _, history = run_search(config, dataset=data)
    for r in history:
        if "reward" in r:
            params = LossParams.from_flat(r["theta"], M=config.M)
            model = train_inner(params, data[0], config.steps,
                                _train_seed(config.seed, r["round"], r["sample_index"]))
            assert reward(model, data[1]) == r["reward"]


@pytest.mark.parametrize("jobs, chunks", [(1, [3]), (2, [2, 1]), (3, [1, 1, 1])])
def test_chunk_wall_time_is_split_evenly(data, jobs, chunks):
    # a round of S samples runs as chunks of ceil(S / jobs), and each
    # sample's wall_ms is its chunk's time over the chunk's size
    config = SearchConfig(T=1, S=3, steps=2, M=3, seed=6)
    _, history = random_search(config, dataset=data, jobs=jobs)
    walls = [r["wall_ms"] for r in history]
    assert all(wall > 0.0 for wall in walls)
    start = 0
    for size in chunks:
        assert len(set(walls[start:start + size])) == 1
        start += size
    assert len(set(walls)) == len(chunks)
