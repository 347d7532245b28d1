"""A lockstep chunk trains each of its samples exactly as train_inner alone.

_train_lockstep stacks the small per-row work of several samples' steps
(the detector's forward and backward pass, the positives' localization
scores, f1, f3 and f5, the finiteness checks and Adam) and keeps each
sample's pair sums on their own. The chunk tests compare a chunk with
separate train_inner calls by exact equality of the weights and of the
reward, for chunks of 1 to 4 samples, including samples that diverge or
meet a mini-batch without positives while the others train on. Adam and
the mini-batch schedule, dealt one epoch at a time, are checked against
independent test-side references: a textbook Adam and the rule of one
shuffled list per sample.
"""

import json

import numpy as np
import pytest

from paramloss.apmetric import assign
from paramloss.errors import InvalidInputError, TrainingDivergedError
from paramloss.optim import Adam
from paramloss.paploss import N_SORTED, LossParams
from paramloss.search import SearchConfig, random_search, run_search, sample_truncnorm
from paramloss.toybench import (
    ASSIGN_THRESHOLD,
    DatasetConfig,
    Scene,
    ToyModel,
    _batch_schedule,
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


def _outcome(params, train_set, steps, seed, **kwargs):
    """train_inner's model, or the error it raises."""
    try:
        return train_inner(params, train_set, steps, seed, **kwargs)
    except TrainingDivergedError as exc:
        return exc


def _assert_chunk_matches_separate(params, train_set, seeds, eval_set, steps=STEPS, **kwargs):
    chunk = _train_lockstep(params, train_set, steps, seeds, **kwargs)
    assert len(chunk) == len(params)
    # a LossParams always builds, so every sample trains to a model or diverges
    assert all(isinstance(o, (ToyModel, TrainingDivergedError)) for o in chunk)
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


def _with_huge_box(scene):
    """The scene with one more ground truth, [0, 0, 1e20, 1e20], and its
    first candidate moved onto it. A frozen row's zero weights keep that
    candidate's box, which collapses in the shift into the unit square."""
    huge = np.array([0.0, 0.0, 1e20, 1e20])
    anchors = scene.anchors.copy()
    anchors[0] = huge
    gts = np.vstack([huge, scene.gt_boxes])
    return Scene(gts, anchors, scene.features, assign(anchors, gts, ASSIGN_THRESHOLD),
                 scene.source)


def test_frozen_row_does_not_fail_again():
    train, eval_set = generate(SMALL)
    train = (_with_huge_box(train[0]),) + train[5:12]
    seeds = [34, 35, 36, 37]
    chunk = _assert_chunk_matches_separate(_sampled(4), train, seeds, eval_set, lr=1e13,
                                           batch_scenes=2)
    ended = [o.step if isinstance(o, TrainingDivergedError) else STEPS for o in chunk]
    assert ended == [3, 4, STEPS, 1]
    # some diverged sample's mini-batch takes the scene again while another
    # sample still trains
    assert any(0 in batch and ended[k] < step < max(ended)
               for k, seed in enumerate(seeds)
               for step, batch in enumerate(_list_rule_batches(len(train), 2, STEPS, seed)))


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
        batches = _list_rule_batches(len(train), 1, STEPS, seed)
        skipped.append({step for step, batch in enumerate(batches) if batch[0] in empty})
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
    # a chunk trained on one anchor count and scored on an eval set of 16-
    # and 10-anchor scenes equals its samples trained one at a time
    sixteen = generate(DatasetConfig(scenes=20, g_max=4, anchors=16, features=6, seed=8))
    ten = generate(DatasetConfig(scenes=10, g_max=4, anchors=10, features=6, seed=9))
    eval_set = tuple(s for pair in zip(sixteen[1], ten[1]) for s in pair)
    assert {len(s.anchors) for s in eval_set} == {10, 16}
    _assert_chunk_matches_separate(_sampled(3), sixteen[0], [1, 2, 3], eval_set,
                                   batch_scenes=5)


def test_mixed_anchor_train_set_is_rejected():
    # scenes of 16 and 10 anchors; an eval set of mixed counts still scores
    sixteen = generate(DatasetConfig(scenes=10, g_max=4, anchors=16, features=6, seed=8))
    ten = generate(DatasetConfig(scenes=10, g_max=4, anchors=10, features=6, seed=9))
    train = tuple(s for pair in zip(sixteen[0], ten[0]) for s in pair)
    eval_set = sixteen[1] + ten[1]
    with pytest.raises(InvalidInputError, match="anchor counts"):
        train_inner(_sampled(1)[0], train, 2, 1)
    with pytest.raises(InvalidInputError, match="anchor counts"):
        _train_lockstep(_sampled(3), train, 2, [1, 2, 3])
    with pytest.raises(InvalidInputError, match="anchor counts"):
        run_search(SearchConfig(T=1, S=3, steps=2, M=5, seed=1), dataset=(train, eval_set))
    model = train_inner(_sampled(1)[0], sixteen[0], 2, 1)
    assert 0.0 <= reward(model, eval_set) <= 1.0


@pytest.mark.parametrize("samples, seeds", [(2, [0]), (1, [0, 1])])
def test_each_sample_needs_its_own_seed(samples, seeds):
    train, _ = generate(SMALL)
    with pytest.raises(InvalidInputError, match="seeds"):
        _train_lockstep(_sampled(samples), train, 2, seeds)


def test_shared_override_functions_equal_separate_trainings():
    from paramloss.paploss import handcrafted_substitution
    train, eval_set = generate(SMALL)
    functions = tuple(handcrafted_substitution("sqrt") for _ in range(5))
    _assert_chunk_matches_separate(_sampled(3), train, [4, 5, 6], eval_set,
                                   functions=functions)


def _textbook_adam(x, grad, state, lr):
    """One Adam step as the textbook writes it, from state (m, v, t): the
    bias corrections are Python floats, and m and v update in the same
    operation order as optim.Adam's, so the result agrees bit for bit."""
    m, v, t = state
    t += 1
    m = 0.9 * m + (1.0 - 0.9) * grad
    v = 0.999 * v + (1.0 - 0.999) * grad * grad
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return x - lr * m_hat / (np.sqrt(v_hat) + 1e-8), (m, v, t)


def test_adam_step_equals_textbook_adam():
    rng = np.random.default_rng(1)
    dim, steps = 7, 300
    x = rng.normal(size=dim)
    opt = Adam(dim, lr=0.02)
    expected, state = x.copy(), (np.zeros(dim), np.zeros(dim), 0)
    for step in range(steps):
        grad = rng.normal(size=dim)
        lr = 0.02 * (1.0 - step / steps)
        before = x.copy()
        moved = opt.step(x, grad, lr=lr)
        assert np.array_equal(x, before)
        expected, state = _textbook_adam(expected, grad, state, lr)
        assert np.array_equal(moved, expected) and not np.array_equal(moved, x)
        x = moved
    assert opt.t == [steps]


def test_stacked_adam_equals_per_row_steps():
    # the rows advance at different step counts, t = 1 ... 300, and some
    # rows sit out some steps
    rng = np.random.default_rng(0)
    rows, dim, steps = 4, 7, 300
    x = rng.normal(size=(rows, dim))
    stacked = Adam(dim, lr=0.02, rows=rows)
    expected = [x[r].copy() for r in range(rows)]
    states = [(np.zeros(dim), np.zeros(dim), 0) for _ in range(rows)]
    for step in range(steps):
        grad = rng.normal(size=(rows, dim))
        update = [r for r in range(rows) if r == 0 or (step + r) % (r + 1) != 0]
        lr = 0.02 * (1.0 - step / steps)
        stacked.step_rows(x, grad, update, lr=lr)
        for r in update:
            expected[r], states[r] = _textbook_adam(expected[r], grad[r], states[r], lr)
        for r in range(rows):
            assert np.array_equal(x[r], expected[r])
    assert stacked.t == [t for _, _, t in states]
    assert stacked.t[0] == steps and len(set(stacked.t)) == rows


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0])
def test_adam_rejects_a_non_finite_or_non_positive_lr(lr):
    with pytest.raises(InvalidInputError):
        Adam(3, lr=lr)


def _list_rule_batches(n_scenes, batch_scenes, steps, seed):
    """train_inner's mini-batches by the rule of one shuffled list per
    sample: a new permutation whenever fewer than a batch of scenes are left."""
    rng = np.random.default_rng([seed, 733])
    batch_scenes = min(batch_scenes, n_scenes)
    order, batches = [], []
    for _ in range(steps):
        if len(order) < batch_scenes:
            order = list(rng.permutation(n_scenes))
        batches.append(order[:batch_scenes])
        order = order[batch_scenes:]
    return batches


@pytest.mark.parametrize("n_scenes, batch_scenes, steps", [
    (5, 8, 7),       # a batch larger than the scene count
    (10, 3, 12),     # 10 scenes in batches of 3: one scene dropped per epoch
    (10, 4, 1),      # one step
    (12, 4, 40),     # many epochs of whole batches
    (160, 8, 300),   # the desk preset's training
])
def test_batch_schedule_equals_list_rule(n_scenes, batch_scenes, steps):
    seeds = [0, 7, 2**40]
    for k in range(len(seeds)):
        # every step lists the chunk's samples' batches one after another
        chunk = seeds[k:]
        want = [sum(batches, []) for batches in
                zip(*(_list_rule_batches(n_scenes, batch_scenes, steps, s) for s in chunk))]
        got = [batch.tolist() for batch in _batch_schedule(n_scenes, batch_scenes, steps, chunk)]
        assert got == want


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
