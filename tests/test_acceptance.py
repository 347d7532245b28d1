"""Acceptance gate: one test per acceptance criterion, in order.

Criteria 7 through 10 lean on four desk-preset search runs that take a few
minutes combined, so those runs are shared through module-scoped fixtures.
Each test ends by printing a single `criterion NN <tag>: PASS` line with the
headline numbers; a failed assertion leaves that line unprinted and the
pytest report carries the failure instead.
"""

import csv
import json
import time

import numpy as np
import pytest

from paramloss.apmetric import (
    DetectionBatch,
    ap_pr_area,
    ap_ranked,
    ap_reformulated,
    loc_scores,
)
from paramloss.cli import EXIT_OK, main
from paramloss.errors import ConstraintViolationError, TrainingDivergedError
from paramloss.geometry import Box, giou, giou_grad
from paramloss.paploss import (
    LossParams,
    StepFn,
    handcrafted_substitution,
    lambda_from_theta,
    loss_forward,
    loss_with_grads,
    resolve_functions,
)
from paramloss.piecewise import RatioParams, build, identity_params
from paramloss.search import SearchConfig, _train_seed, random_search, run_search
from paramloss.toybench import (
    DatasetConfig,
    dataset_loss,
    generate,
    reward,
    train_inner,
)

MASTER_SEEDS = (1, 2, 3, 4)

# Benchmark used by the desk-scale criteria. The extra distractor feature
# columns (beyond the spec-example 8) make randomly shaped losses train
# noticeably worse than well-shaped ones, which is what gives the outer
# search something to find within its 60-sample budget.
DESK_DATASET = DatasetConfig(scenes=200, g_max=3, anchors=16, features=16,
                             noise=0.05, seed=7)
DESK_STEPS = 300

# exact Heaviside hooks: step at 0 for localization inputs, at 1/2 for
# normalized score differences
HEAVISIDE = (StepFn(0.0), StepFn(0.5), StepFn(0.0), StepFn(0.5), StepFn(0.0))


def _report(num, tag, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {tag}: PASS{suffix}")


def _grad_close(numeric, analytic):
    """Stated tolerance rule: relative 1e-4, absolute 1e-6 for tiny values."""
    if abs(analytic) < 1e-6:
        return abs(numeric - analytic) <= 1e-6
    return abs(numeric - analytic) <= 1e-4 * abs(analytic)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def desk_data():
    return generate(DESK_DATASET)


@pytest.fixture(scope="module")
def desk_runs(desk_data):
    """PPO2 search, random search, and identity baseline per master seed."""
    start = time.perf_counter()
    runs = []
    for seed in MASTER_SEEDS:
        config = SearchConfig(T=15, S=4, steps=DESK_STEPS, seed=seed)
        best_params, history = run_search(config, dataset=desk_data)
        samples = [r for r in history if "reward" in r]
        top = max(samples, key=lambda r: r["reward"])
        _, random_history = random_search(config, dataset=desk_data)
        random_best = max(r["reward"] for r in random_history)
        identity_model = train_inner(LossParams.identity(), desk_data[0],
                                     DESK_STEPS, _train_seed(seed, 0, 0))
        runs.append({
            "seed": seed,
            "best_params": best_params,
            "best_reward": top["reward"],
            "train_seed": _train_seed(seed, top["round"], top["sample_index"]),
            "random_best": random_best,
            "identity_reward": reward(identity_model, desk_data[1]),
        })
    return {"runs": runs, "wall": time.perf_counter() - start}


# ------------------------------------------------------- instance builders


def _ap_instance(rng, max_preds=20):
    """Scene with well-separated ground truths and jittered/far candidates."""
    n_gt = int(rng.integers(1, 4))
    gts = np.array([[3.0 * g, 0.0, 3.0 * g + 1.0, 1.0] for g in range(n_gt)])
    n = int(rng.integers(1, max_preds + 1))
    boxes = np.empty((n, 4))
    for k in range(n):
        if rng.uniform() < 0.7:
            g = int(rng.integers(n_gt))
            boxes[k] = gts[g] + rng.uniform(-0.15, 0.15, size=4)
        else:
            off = -4.0 - 2.0 * k
            boxes[k] = (off, 0.0, off + 1.0, 1.0)
    scores = rng.uniform(0.0, 2.0, size=n)
    return DetectionBatch.from_predictions(boxes, scores, gts)


def _random_params(rng, block):
    flat = rng.uniform(0.05, 0.95, size=41)
    flat[-1] = rng.uniform(0.1, 0.9)
    return LossParams.from_flat(flat, block_denominator=block)


def _knots_clear(values, functions, margin=1e-3):
    for f in functions:
        knots = f.control_points[:, 0]
        dist = np.min(np.abs(np.asarray(values).reshape(-1, 1) - knots[None, :]),
                      axis=1)
        if np.any(dist < margin):
            return False
    return True


def _fd_instance_ok(batch, params, margin=1e-3):
    """Inputs at least margin away from clip boundaries and function knots."""
    s = batch.scores
    if np.any(np.abs(np.abs(s[None, :] - s[:, None]) - 1.0) < margin):
        return False
    off = ~np.eye(len(s), dtype=bool)
    d = (np.clip(s[None, :] - s[:, None], -1.0, 1.0) + 1.0) / 2.0
    fns = resolve_functions(params)
    if not _knots_clear(d[off], (fns[1], fns[3]), margin):
        return False
    lp = loc_scores(batch, params.measurement)[batch.positive_mask]
    if np.any(lp < margin) or np.any(lp > 1.0 - margin):
        return False
    if not _knots_clear(lp, (fns[0], fns[2], fns[4]), margin):
        return False
    pos = batch.positive_mask
    pb = batch.boxes[pos]
    gb = batch.gt_boxes[batch.assignment[pos]]
    if np.any(np.abs(pb - gb) < margin):
        return False
    iw = np.minimum(pb[:, 2], gb[:, 2]) - np.maximum(pb[:, 0], gb[:, 0])
    ih = np.minimum(pb[:, 3], gb[:, 3]) - np.maximum(pb[:, 1], gb[:, 1])
    return bool(np.all(np.abs(iw) > margin) and np.all(np.abs(ih) > margin))


def _frozen_denominator_forward(batch, params, scores, denom):
    # blocking differentiates the loss with the denominator held constant,
    # so the blocked score gradients must be checked against this forward
    f1, f2, f3, f4, f5 = resolve_functions(params)
    l = loc_scores(batch, params.measurement)
    d = (np.clip(scores[None, :] - scores[:, None], -1.0, 1.0) + 1.0) / 2.0
    off = ~np.eye(len(scores), dtype=bool)
    numer = (f2.eval(d) * off) @ (1.0 - f3.eval(l))
    total = (f1.eval(l) - (numer / denom) * f5.eval(l)).sum()
    return -total / batch.n_positive


def _fd_score(batch, params, k, h=1e-5):
    if params.block_denominator:
        cache = loss_forward(batch, params)[1]
        denom = np.ones_like(batch.scores)  # the positives' m_i, 1 at the negatives
        denom[cache.rows] = cache.denom

        def at(delta):
            s = batch.scores.copy()
            s[k] += delta
            return _frozen_denominator_forward(batch, params, s, denom)
    else:
        def at(delta):
            s = batch.scores.copy()
            s[k] += delta
            moved = DetectionBatch(batch.boxes, s, batch.gt_boxes,
                                   batch.assignment)
            return loss_forward(moved, params)[0]

    return (at(h) - at(-h)) / (2 * h)


def _fd_box(batch, params, k, c, h=1e-5):
    def at(delta):
        boxes = batch.boxes.copy()
        boxes[k, c] += delta
        moved = DetectionBatch(boxes, batch.scores, batch.gt_boxes,
                               batch.assignment)
        return loss_forward(moved, params)[0]

    return (at(h) - at(-h)) / (2 * h)


def _random_box(rng):
    x1, y1 = rng.uniform(0.0, 2.0, size=2)
    w, h = rng.uniform(0.2, 1.5, size=2)
    return Box(x1, y1, x1 + w, y1 + h)


def _boxes_clear(a, b, margin=1e-3):
    if np.any(np.abs(a.array - b.array) < margin):
        return False
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    return abs(iw) > margin and abs(ih) > margin


# ---------------------------------------------------------------- criteria


def test_criterion_01_exact_ap_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    while checked < 500:
        batch = _ap_instance(rng)
        if batch.n_positive == 0:
            continue
        if len(np.unique(batch.scores)) < len(batch.scores):
            continue
        rank_form = ap_ranked(batch.scores, batch.positive_mask)
        reform = ap_reformulated(batch.scores, loc_scores(batch, "iou"))
        assert abs(reform - rank_form) <= 1e-12
        value, _ = loss_forward(batch, LossParams.identity(measurement="iou"),
                                functions=HEAVISIDE)
        assert abs(-value - reform) <= 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "exact-ap-equivalence", f"500 instances, {elapsed:.1f}s")


def test_criterion_02_pr_area_cross_check():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(60):
        n_gt = int(rng.integers(1, 7))
        gts = np.array([[3.0 * g, 0.0, 3.0 * g + 1.0, 1.0] for g in range(n_gt)])
        boxes = []
        labels = []
        for g in range(n_gt):
            # exactly one candidate per ground truth, IoU well above 0.5
            dy = rng.uniform(-0.1, 0.1)
            boxes.append([3.0 * g, dy, 3.0 * g + 1.0, dy + 1.0])
            labels.append(True)
        for k in range(int(rng.integers(0, 6))):
            x = -5.0 - 2.0 * k
            boxes.append([x, 0.0, x + 1.0, 1.0])
            labels.append(False)
        boxes = np.array(boxes)
        scores = rng.permutation(np.linspace(0.1, 0.9, len(boxes)))
        lhs = ap_ranked(scores, np.array(labels))
        rhs = ap_pr_area(boxes, scores, gts, [0.5])
        assert abs(lhs - rhs) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, "pr-area-cross-check", f"60 instances, {elapsed:.1f}s")


def test_criterion_03_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    checked = 0
    while checked < 100:
        batch = _ap_instance(rng, max_preds=10)
        if batch.n_positive == 0:
            continue
        params = _random_params(rng, block=bool(checked % 2))
        if not _fd_instance_ok(batch, params):
            continue
        res = loss_with_grads(batch, params)
        lam = lambda_from_theta(params.theta_lambda)
        for k in range(len(batch.scores)):
            assert _grad_close(_fd_score(batch, params, k), res.score_grads[k])
        for k in np.flatnonzero(batch.positive_mask):
            for c in range(4):
                numeric = lam * _fd_box(batch, params, int(k), c)
                assert _grad_close(numeric, res.box_grads[k, c])
        checked += 1

    pairs = 0
    while pairs < 100:
        a, b = _random_box(rng), _random_box(rng)
        if not _boxes_clear(a, b):
            continue
        analytic = giou_grad(a, b)
        for c in range(4):
            ep, em = b.array.copy(), b.array.copy()
            ep[c] += 1e-5
            em[c] -= 1e-5
            numeric = (giou(a, Box.from_array(ep)) - giou(a, Box.from_array(em))) / 2e-5
            assert _grad_close(numeric, analytic[c])
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, "gradient-checks",
            f"100 loss batches + 100 giou pairs, h=1e-5, {elapsed:.1f}s")


def test_criterion_04_piecewise_constraints():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    grid = np.linspace(0.0, 1.0, 1001)
    ends = np.array([0.0, 1.0])
    for _ in range(1000):
        params = RatioParams(rng.uniform(1e-9, 1.0 - 1e-9, size=(4, 2)))
        f = build(params, 5)
        y0, y1 = f.eval(ends)
        assert y0 == 0.0 and y1 == 1.0
        y = f.eval(grid)
        assert np.all(np.diff(y) >= 0.0)
        pts = f.control_points
        assert np.all(np.diff(pts[:, 1]) / np.diff(pts[:, 0]) >= 0.0)
        assert np.array_equal(RatioParams.from_flat(params.flat()).flat(),
                              params.flat())

    # reconstruction from control points back to ratios; the division chain
    # is exact only to rounding, so the draw keeps ratios moderately sized
    for _ in range(1000):
        params = RatioParams(rng.uniform(1e-3, 0.9, size=(4, 2)))
        back = build(params, 5).ratios()
        assert np.allclose(back.ratios, params.ratios, rtol=0.0, atol=1e-12)

    ident = build(identity_params(5), 5)
    assert np.max(np.abs(ident.eval(grid) - grid)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, "piecewise-constraints", f"2000 random builds, {elapsed:.1f}s")


def test_criterion_05_lambda_mapping():
    for theta, lam in ((0.25, 10.0 ** -0.5), (0.5, 1.0), (0.75, 10.0 ** 0.5)):
        assert abs(lambda_from_theta(theta) - lam) <= 1e-12
    _report(5, "lambda-mapping", "theta 0.25/0.5/0.75")


def test_criterion_06_structural_properties():
    rng = np.random.default_rng(1006)
    checked = 0
    while checked < 100:
        batch = _ap_instance(rng, max_preds=12)
        if batch.n_positive == 0:
            continue
        flat = rng.uniform(0.05, 0.95, size=41)
        flat[-1] = rng.uniform(0.1, 0.7)
        blocked = LossParams.from_flat(flat, block_denominator=True)
        unblocked = LossParams.from_flat(flat, block_denominator=False)
        assert abs(loss_forward(batch, blocked)[0]
                   - loss_forward(batch, unblocked)[0]) <= 1e-12

        res = loss_with_grads(batch, blocked)
        assert np.all(res.box_grads[~batch.positive_mask] == 0.0)

        # moving theta_lambda by log10(2)/2 doubles lambda
        doubled = flat.copy()
        doubled[-1] += np.log10(2.0) / 2.0
        res2 = loss_with_grads(batch, LossParams.from_flat(doubled,
                                                           block_denominator=True))
        assert np.array_equal(res2.score_grads, res.score_grads)
        pos = batch.positive_mask
        assert np.allclose(res2.box_grads[pos], 2.0 * res.box_grads[pos],
                           rtol=1e-12, atol=0.0)
        checked += 1
    _report(6, "structural-properties", "100 batches")


def test_criterion_07_search_effectiveness(desk_runs):
    runs = desk_runs["runs"]
    beats_random = sum(r["best_reward"] >= r["random_best"] for r in runs)
    beats_identity = sum(r["best_reward"] >= r["identity_reward"] + 0.01
                         for r in runs)
    for r in runs:
        print(f"  seed {r['seed']}: ppo2 {r['best_reward']:.4f} "
              f"random {r['random_best']:.4f} identity {r['identity_reward']:.4f}")
    assert beats_random >= 3
    assert beats_identity >= 3
    assert desk_runs["wall"] < 1800.0
    _report(7, "search-effectiveness",
            f"ppo2>=random {beats_random}/4, ppo2>=identity+0.01 "
            f"{beats_identity}/4, {desk_runs['wall']:.0f}s")


def test_criterion_08_substitution_ablation(desk_data, desk_runs, tmp_path):
    train_set, eval_set = desk_data
    kinds = ("linear", "square", "sqrt", "sigmoid")
    rows = []
    for run in desk_runs["runs"]:
        searched = reward(train_inner(run["best_params"], train_set,
                                      DESK_STEPS, run["train_seed"]), eval_set)
        # the winning sample must be reproducible from its recorded seed
        assert abs(searched - run["best_reward"]) <= 1e-12
        row = {"seed": run["seed"], "searched": searched}
        for kind in kinds:
            functions = tuple(handcrafted_substitution(kind) for _ in range(5))
            try:
                model = train_inner(LossParams.identity(), train_set,
                                    DESK_STEPS, run["train_seed"],
                                    functions=functions)
                row[kind] = reward(model, eval_set)
            except (TrainingDivergedError, ConstraintViolationError):
                row[kind] = None
        rows.append(row)

    table = tmp_path / "substitution_ablation.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "searched"] + list(kinds))
        for row in rows:
            writer.writerow([row["seed"], f"{row['searched']:.6f}"]
                            + ["diverged" if row[k] is None else f"{row[k]:.6f}"
                               for k in kinds])
    print(f"substitution ablation table ({table}):")
    print(table.read_text())

    for row in rows:
        assert row["linear"] is not None and row["searched"] >= row["linear"]
        assert row["square"] is not None and row["searched"] >= row["square"]
    _report(8, "substitution-ablation",
            "searched >= linear and square on 4/4 seeds")


def test_criterion_09_blocking_ablation(desk_data):
    train_set, eval_set = desk_data
    outcome = {}
    for block in (True, False):
        params = LossParams.identity(block_denominator=block)
        model = train_inner(params, train_set, DESK_STEPS, _train_seed(1, 0, 0))
        eval_loss = dataset_loss(model, params, eval_set)
        ap = reward(model, eval_set)
        assert np.isfinite(eval_loss) and np.isfinite(ap)
        outcome[block] = (eval_loss, ap)
    print("blocking comparison (identity loss, eval split):")
    for block, (eval_loss, ap) in outcome.items():
        print(f"  block_denominator={block}: loss {eval_loss:.4f} reward {ap:.4f}")
    _report(9, "blocking-ablation",
            f"blocked reward {outcome[True][1]:.4f}, "
            f"unblocked reward {outcome[False][1]:.4f}")


def test_criterion_10_determinism(tmp_path):
    dataset_config = tmp_path / "dataset_config.json"
    dataset_config.write_text(json.dumps(
        {"scenes": 12, "G_max": 2, "A": 8, "F": 6, "noise": 0.05, "seed": 21}))
    assert main(["generate", "--config", str(dataset_config),
                 "--out", str(tmp_path)]) == EXIT_OK
    search_config = tmp_path / "search_config.json"
    search_config.write_text(json.dumps(
        {"T": 2, "S": 2, "steps": 20, "seed": 9,
         "dataset": str(tmp_path / "dataset.json")}))

    results = {}
    for tag, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / f"search_{tag}"
        assert main(["search", "--config", str(search_config),
                     "--jobs", str(jobs), "--out", str(out)]) == EXIT_OK
        best = json.loads((out / "best_params.json").read_text())
        history = [json.loads(line)
                   for line in (out / "history.jsonl").read_text().splitlines()]
        # wall_ms is the one timing field; everything else must reproduce
        results[tag] = (best, [{k: v for k, v in r.items() if k != "wall_ms"}
                               for r in history])
    assert results["a"][0] == results["b"][0] == results["c"][0]
    assert results["a"][1] == results["b"][1] == results["c"][1]
    bests = [max(r["reward"] for r in results[t][1] if "reward" in r)
             for t in ("a", "b", "c")]
    assert max(bests) - min(bests) <= 1e-12

    best_path = tmp_path / "search_a" / "best_params.json"
    metrics = []
    for tag in ("x", "y"):
        out = tmp_path / f"train_eval_{tag}"
        assert main(["train-eval", str(best_path), "--config",
                     str(search_config), "--out", str(out)]) == EXIT_OK
        metrics.append((out / "metrics.json").read_text())
    assert metrics[0] == metrics[1]
    _report(10, "determinism",
            "search jobs 1/1/2 byte-identical minus wall_ms; "
            "train-eval reruns identical")
