"""The benchmark's workloads, their output checks and the traced pass.

Every operation is one sample evaluation: an inner training followed by
`reward`. `desk-ppo2-serial` runs `paramloss search` in-process through
`cli.main` on a dataset file written during set-up and reads each sample's
time from `wall_ms` in the search's `history.jsonl`; `wide-batch-train`
calls `toybench.train_inner` and `toybench.reward` directly. Why each
workload exists, and which end-to-end metric each layer metric should move
on which workload, is written down in METRICS.md.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import fields
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from paramloss import apmetric, cli, optim, paploss, piecewise, search, toybench
from paramloss.errors import ConstraintViolationError, TrainingDivergedError
from paramloss.paploss import LossParams, StepFn

import spans
import summary
from summary import CHECK_FAILED, DIVERGED, ERROR, OK

# the acceptance gate's DESK_DATASET shape; the seed comes from --seed
DESK_SHAPE = {"scenes": 200, "g_max": 3, "anchors": 16, "features": 16, "noise": 0.05}
DESK = search.PRESETS["desk"]  # T=15, S=4, steps=300
SAMPLES = DESK["T"] * DESK["S"]
DESK_BATCH_SCENES = 8   # train_inner's default: N = 8 x 16 = 128 predictions
WIDE_BATCH_SCENES = 64  # N = 64 x 16 = 1024 predictions in one joint ranking
# one wide operation is ~0.5 s, so a 30 s run holds ~60 operations and the
# tail rule (10 samples beyond) lands near p83, as on a 60-sample search
WIDE_STEPS = 4
SIGMA0 = search.SearchConfig().sigma0
SETUP_REPEATS = 5
# the pool path, run untraced inside the traced pass of desk-ppo2-serial
POOL_STRATEGY, POOL_JOBS = "random", 2
IMPORT_PROBE = ("import time; start = time.perf_counter(); import paramloss.cli; "
                "print(time.perf_counter() - start)")
REPLAY_OPS = 4  # operations timed untraced and traced for trace.overhead
MIN_OPS = summary.TAIL_BEYOND + 1  # so the tail rule always names a percentile
# the traced wide-batch-train pass runs a fixed number of operations, like a
# traced search, so that its per-layer counts and totals are for fixed work
TRACED_WIDE_OPS = 32

# exact Heaviside hooks: with them the loss equals minus the rank-form AP
HEAVISIDE = (StepFn(0.0), StepFn(0.5), StepFn(0.0), StepFn(0.5), StepFn(0.0))
ORACLE_TOLERANCE = 1e-9

WORKLOADS = {
    "desk-ppo2-serial": {"strategy": "ppo2", "N": DESK_BATCH_SCENES * 16},
    "wide-batch-train": {"strategy": None, "N": WIDE_BATCH_SCENES * 16},
}


def _points(_fn, x):
    return int(np.size(x))


# (owner, attribute, span name, count hook): the bindings the callers look
# up, so a wrapper there sees every call from inside the program
LAYER_SPANS = (
    (paploss, "measure_grad", "geometry.measure_grad", None),
    (apmetric, "pairwise_iou", "geometry.pairwise_iou", None),
    (toybench, "pairwise_iou", "geometry.pairwise_iou", None),
    (apmetric.DetectionBatch, "__post_init__", "apmetric.DetectionBatch", None),
    (paploss, "loc_scores", "apmetric.loc_scores", None),
    (toybench, "ap_pr_area", "apmetric.ap_pr_area", None),
    (paploss, "build", "piecewise.build", None),
    (piecewise.PiecewiseFn, "eval", "piecewise.eval", _points),
    (piecewise.PiecewiseFn, "slope", "piecewise.slope", None),
    (toybench, "loss_forward", "paploss.loss_forward", None),
    (toybench, "loss_backward", "paploss.loss_backward", None),
    (paploss, "resolve_functions", "paploss.resolve_functions", None),
    (optim.Adam, "step", "optim.Adam.step", None),
    (toybench, "train_inner", "toybench.train_inner", None),
    (toybench.ToyModel, "with_vector", "toybench.ToyModel.with_vector", None),
    (toybench, "reward", "toybench.reward", None),
    (toybench, "generate", "toybench.generate", None),
    (cli, "load_dataset", "toybench.load_dataset", None),
    (search, "sample_truncnorm", "search.sample_truncnorm", None),
    (search, "ppo2_update", "search.ppo2_update", None),
    (cli, "run_search", "search", None),
    (cli, "random_search", "search", None),
)

# the bounded end-to-end metrics; sample_s.p50 and failed_share are printed
# but not bounded (see METRICS.md)
END_TO_END = {"setup_s": "s", "steps_per_s": "1/s", "sample_s.tail": "s", "peak_rss_mb": "MB"}

# per-layer metrics read straight from the span table: "<span>.<field>"
SPAN_METRICS = (
    "geometry.measure_grad.busy_s",
    "geometry.pairwise_iou.calls", "geometry.pairwise_iou.busy_s",
    "apmetric.DetectionBatch.calls", "apmetric.DetectionBatch.busy_s",
    "apmetric.loc_scores.busy_s",
    "apmetric.ap_pr_area.calls", "apmetric.ap_pr_area.busy_s",
    "piecewise.build.calls", "piecewise.build.busy_s",
    "piecewise.eval.calls", "piecewise.eval.busy_s", "piecewise.slope.busy_s",
    "paploss.loss_forward.calls", "paploss.loss_forward.self_s",
    "paploss.loss_backward.self_s", "paploss.resolve_functions.busy_s",
    "optim.Adam.step.busy_s",
    "toybench.train_inner.calls", "toybench.train_inner.self_s",
    "toybench.ToyModel.with_vector.busy_s", "toybench.reward.busy_s",
    "toybench.generate.busy_s", "toybench.load_dataset.busy_s",
    "search.sample_truncnorm.busy_s",
    "search.ppo2_update.calls", "search.ppo2_update.busy_s",
    "search.self_s", "cli.main.self_s",
)
# per-layer metrics computed from counts, histories and replays
DERIVED_METRICS = {
    "piecewise.eval.points": "count",
    "paploss.loss_forward.empty_share": "ratio",
    "paploss.cache_bytes": "bytes",
    "search.parallel_efficiency": "ratio",
    "search.task_bytes": "bytes",
    "search.diverged_share": "ratio",
    "trace.overhead": "ratio",
}
# counts that follow from the inputs alone and repeat exactly for a seed
COMPUTED_COUNTS = ("paploss.cache_bytes", "search.task_bytes", "piecewise.build.calls",
                   "apmetric.DetectionBatch.calls")


def install_layers(tracer):
    for owner, attr, name, count in LAYER_SPANS:
        tracer.install(owner, attr, name, count)


def import_seconds():
    """Seconds to import the program's CLI in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(toybench.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def derive_seeds(seed):
    """(dataset seed, search master seed) from the workload seed."""
    dataset_seed, master = np.random.SeedSequence([seed, 2112]).generate_state(2)
    return int(dataset_seed % 2**31), int(master % 2**31)


def final_batch_scenes(train, steps, seed, batch_scenes):
    """The scenes of train_inner's last mini-batch, by its shuffle rule."""
    rng = np.random.default_rng([seed, 733])
    batch_scenes = min(batch_scenes, len(train))
    order, picked = [], []
    for _ in range(steps):
        if len(order) < batch_scenes:
            order = list(rng.permutation(len(train)))
        picked, order = order[:batch_scenes], order[batch_scenes:]
    return [train[i] for i in picked]


def joint_batch(model, scenes):
    """The detector's predictions on the scenes as one joint ranking."""
    parts = [toybench.model_forward(model, s) for s in scenes]
    offsets = np.cumsum([0] + [p.gt_boxes.shape[0] for p in parts[:-1]])
    assignment = np.concatenate([np.where(p.assignment >= 0, p.assignment + o, -1)
                                 for p, o in zip(parts, offsets)])
    return apmetric.DetectionBatch(np.vstack([p.boxes for p in parts]),
                                   np.concatenate([p.scores for p in parts]),
                                   np.vstack([p.gt_boxes for p in parts]), assignment)


def heaviside_gap(model, scenes):
    """|loss with exact step substitutions + rank-form AP| on the scenes."""
    batch = joint_batch(model, scenes)
    value, _ = paploss.loss_forward(batch, LossParams.identity(), HEAVISIDE)
    return abs(value + apmetric.ap_ranked(batch.scores, batch.positive_mask))


def cache_bytes(model, scenes):
    """Bytes of the arrays in the LossCache loss_forward returns for these scenes."""
    _, cache = paploss.loss_forward(joint_batch(model, scenes), LossParams.identity())
    values = (getattr(cache, f.name) for f in fields(cache))
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def history_digest(history):
    """sha256 of the history minus wall_ms, the only non-deterministic field."""
    stripped = [{k: v for k, v in r.items() if k != "wall_ms"} for r in history]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()[:16]


@contextmanager
def pickled_to_pool():
    """Yield a list that receives the size of everything the pool's queues
    pickle in this process while the context is open."""
    sizes = []
    original = vars(ForkingPickler)["dumps"]

    def dumps(obj, protocol=None):
        data = original.__func__(ForkingPickler, obj, protocol)
        sizes.append(len(data))
        return data

    ForkingPickler.dumps = staticmethod(dumps)
    try:
        yield sizes
    finally:
        ForkingPickler.dumps = original


class Run:
    """One benchmark run of one workload: set-up, operations, checks."""

    def __init__(self, workload, seed, seconds, out):
        self.spec = WORKLOADS[workload]
        self.seconds = seconds
        self.out = out
        self.dataset_seed, self.master = derive_seeds(seed)
        self.outcomes = []   # one per attempted operation
        self.sample_s = []   # seconds per operation
        self.steps = 0       # inner training steps completed
        self.wall = 0.0      # seconds over which those steps ran
        self.notes = []      # check results and context, printed before the result
        self.searches = 0

    # ---------------------------------------------------------------- set-up

    def setup(self):
        """Set-up seconds: median import in a fresh interpreter plus median
        dataset generate-and-write pass, SETUP_REPEATS of each."""
        config = toybench.DatasetConfig(seed=self.dataset_seed, **DESK_SHAPE)
        self.dataset_path = self.out / "dataset.json"
        self.config_path = self.out / "search_config.json"
        imports, passes = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds())
            start = time.perf_counter()
            self.train, self.eval_set = toybench.generate(config)
            toybench.save_dataset(self.dataset_path, config, self.train, self.eval_set)
            passes.append(time.perf_counter() - start)
        self.config_path.write_text(json.dumps({"dataset": str(self.dataset_path)}))
        import_s, pass_s = statistics.median(imports), statistics.median(passes)
        self.notes.append(f"setup_s = median import {import_s:.3f} s (fresh interpreter) + "
                          f"median generate-and-write {pass_s:.3f} s, of {SETUP_REPEATS} each")
        return import_s + pass_s

    # ------------------------------------------------------------ operations

    def evaluate(self, theta, seed, steps, batch_scenes):
        """One sample evaluation as the search runs it: (reward, steps done, model)."""
        try:
            params = LossParams.from_flat(theta)
            model = toybench.train_inner(params, self.train, steps, seed,
                                         batch_scenes=batch_scenes)
        except ConstraintViolationError:
            return 0.0, 0, None
        except TrainingDivergedError as exc:
            return 0.0, exc.step, None
        return toybench.reward(model, self.eval_set), steps, model

    def search(self, strategy, jobs, tracer=None):
        """One `paramloss search --preset desk` through cli.main: (wall, history)."""
        out = self.out / f"search-{self.searches}"
        self.searches += 1
        argv = ["search", "--preset", "desk", "--strategy", strategy,
                "--jobs", str(jobs), "--config", str(self.config_path),
                "--seed", str(self.master), "--out", str(out)]
        start = time.perf_counter()
        code = cli.main(argv) if tracer is None else tracer.call("cli.main", cli.main, argv)
        wall = time.perf_counter() - start
        if code != cli.EXIT_OK:
            raise RuntimeError(f"paramloss search exited with code {code}")
        with open(out / "history.jsonl") as fh:
            return wall, [json.loads(line) for line in fh]

    def search_op(self, strategy, jobs, tracer=None):
        """One search, counted as SAMPLES errors if it raises; its history or None."""
        try:
            wall, history = self.search(strategy, jobs, tracer)
        except Exception:
            traceback.print_exc()
            self.outcomes += [ERROR] * SAMPLES
            self.notes.append(f"check: {strategy} search at --jobs {jobs} raised: FAIL")
            return None
        self.wall += wall
        return history

    def wide_thetas(self):
        """The search's round-1 proposals: truncated normal around the identity."""
        mu = LossParams.identity().to_flat()
        return [search.sample_truncnorm(mu, SIGMA0, np.random.default_rng([self.master, 1, i]))
                for i in range(DESK["S"])]

    def wide_ops(self, thetas, until, count=MIN_OPS):
        """wide-batch-train operations until `until` (perf_counter), at least `count`."""
        ops = []
        start = time.perf_counter()
        while len(ops) < count or time.perf_counter() < until:
            theta = thetas[len(ops) % len(thetas)]
            seed = search._train_seed(self.master, 1, len(ops))
            t0 = time.perf_counter()
            try:
                value, steps, model = self.evaluate(theta, seed, WIDE_STEPS, WIDE_BATCH_SCENES)
            except Exception:
                traceback.print_exc()
                value, steps, model = None, 0, None
            ops.append((time.perf_counter() - t0, seed, value, steps, model))
        self.wall += time.perf_counter() - start
        return ops

    # ---------------------------------------------------------------- checks

    def check_search(self, history, strategy, jobs):
        samples = [r for r in history if "reward" in r]
        if len(samples) != SAMPLES:
            self.outcomes += [CHECK_FAILED] * SAMPLES
            self.notes.append(f"check: {len(samples)} sample records, want {SAMPLES}: FAIL")
            return
        outcomes = []
        for r in samples:
            value = r["reward"]
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                outcomes.append(CHECK_FAILED)
            elif r["diverged"]:
                # replayed for its step count; it must diverge again
                _, steps, model = self.evaluate(
                    r["theta"], search._train_seed(self.master, r["round"], r["sample_index"]),
                    DESK["steps"], DESK_BATCH_SCENES)
                outcomes.append(DIVERGED if model is None else CHECK_FAILED)
                self.steps += steps
            else:
                outcomes.append(OK)
                self.steps += DESK["steps"]
            self.sample_s.append(r["wall_ms"] / 1000.0)
        top = max(range(SAMPLES), key=lambda k: samples[k]["reward"])
        best = samples[top]
        replayed, _, _ = self.evaluate(
            best["theta"], search._train_seed(self.master, best["round"], best["sample_index"]),
            DESK["steps"], DESK_BATCH_SCENES)
        exact = replayed == best["reward"]
        if not exact:
            outcomes[top] = CHECK_FAILED
        self.outcomes += outcomes
        bad = sum(1 for o in outcomes if o == CHECK_FAILED)
        self.notes += [
            f"check: {strategy} search at --jobs {jobs}: {len(samples)}/{SAMPLES} records, "
            f"{bad} failed checks (reward finite in [0, 1], diverged replays diverge)",
            f"check: best sample (round {best['round']}, sample {best['sample_index']}, "
            f"reward {best['reward']!r}) replayed serially: "
            f"{'exact' if exact else f'{replayed!r}: FAIL'}",
            f"history digest minus wall_ms: {history_digest(history)} (not gated)",
        ]

    def check_wide(self, ops):
        worst = 0.0
        digest = hashlib.sha256()
        for elapsed, seed, value, steps, model in ops:
            self.steps += steps
            self.sample_s.append(elapsed)
            digest.update(repr((seed, value)).encode())
            if value is None:
                self.outcomes.append(ERROR)
            elif not (math.isfinite(value) and 0.0 <= value <= 1.0):
                self.outcomes.append(CHECK_FAILED)
            elif model is None:
                self.outcomes.append(DIVERGED)
            else:
                gap = heaviside_gap(model, final_batch_scenes(
                    self.train, WIDE_STEPS, seed, WIDE_BATCH_SCENES))
                worst = max(worst, gap)
                self.outcomes.append(OK if gap <= ORACLE_TOLERANCE else CHECK_FAILED)
        self.notes += [
            f"check: {len(ops)} operations, reward finite in [0, 1]; Heaviside oracle on "
            f"each final mini-batch: max |loss + ap_ranked| = {worst:.3g} "
            f"(limit {ORACLE_TOLERANCE:g})",
            f"reward digest: {digest.hexdigest()[:16]} (not gated)",
        ]


def end_to_end(run):
    """Untraced run: set-up, then operations for run.seconds; end-to-end metrics."""
    setup_s = run.setup()
    until = time.perf_counter() + run.seconds
    strategy = run.spec["strategy"]
    if strategy is None:
        run.check_wide(run.wide_ops(run.wide_thetas(), until))
    else:
        # a search is one indivisible command, so whole searches repeat
        # until the run has lasted run.seconds
        while True:
            history = run.search_op(strategy, 1)
            if history is not None:
                run.check_search(history, strategy, 1)
            if time.perf_counter() >= until:
                break
    if not run.sample_s or run.wall == 0.0:
        return None
    q, tail_s = summary.tail(run.sample_s)
    run.notes += [
        f"N = {run.spec['N']} predictions per training step, one process, no pool",
        f"sample_s.p50 and sample_s.tail over {len(run.sample_s)} operations; "
        f"tail is p{q} ({summary.TAIL_BEYOND} or more operations beyond it)",
        f"sample_s.p50 = {statistics.median(run.sample_s):.6g} s (printed, not bounded)",
        f"failed_share = {summary.failed_share(run.outcomes):.4g} "
        f"({summary.tally(run.outcomes)[1]} of {len(run.outcomes)} operations)",
    ]
    values = {
        "setup_s": setup_s,
        "steps_per_s": run.steps / run.wall,
        "sample_s.tail": tail_s,
        # Linux reports KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def trace_overhead(run, replays, steps, batch_scenes):
    """Median over operations of traced / untraced time, minus 1.

    Each operation runs once each way, back to back, alternating which way
    goes first so that a warm second run does not favour either side.
    """
    tracer = spans.Tracer()
    ratios = []
    for k, (theta, seed) in enumerate(replays):
        seconds = {}
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_run:
                install_layers(tracer)
            try:
                start = time.perf_counter()
                run.evaluate(theta, seed, steps, batch_scenes)
                seconds[traced_run] = time.perf_counter() - start
            finally:
                tracer.uninstall()
        ratios.append(seconds[True] / seconds[False])
    return statistics.median(ratios) - 1.0


def traced(run):
    """Traced run: the workload once under spans; per-layer metrics.

    On desk-ppo2-serial an untraced 2-job random search, the CLI's pool
    path, gives search.parallel_efficiency and search.task_bytes; a serial
    traced run of the PPO2 search gives the spans.
    """
    tracer = spans.Tracer()
    install_layers(tracer)
    try:
        run.setup()
    finally:
        tracer.uninstall()
    derived = dict.fromkeys(DERIVED_METRICS, 0.0)
    strategy = run.spec["strategy"]
    if strategy is None:
        install_layers(tracer)
        try:
            thetas = run.wide_thetas()
            ops = run.wide_ops(thetas, time.perf_counter(), TRACED_WIDE_OPS)
        finally:
            tracer.uninstall()
        run.check_wide(ops)
        derived["search.diverged_share"] = (
            sum(1 for op in ops if op[2] is not None and op[4] is None) / len(ops))
        replays = [(thetas[k % len(thetas)], op[1]) for k, op in enumerate(ops[:REPLAY_OPS])]
        steps, batch_scenes = WIDE_STEPS, WIDE_BATCH_SCENES
    else:
        timer = spans.Tracer()
        timer.install(cli, "random_search", "search")
        try:
            with pickled_to_pool() as sizes:
                history = run.search_op(POOL_STRATEGY, POOL_JOBS)
        finally:
            timer.uninstall()
        if history is not None:
            run.check_search(history, POOL_STRATEGY, POOL_JOBS)
            busy = sum(r["wall_ms"] for r in history if "wall_ms" in r) / 1000.0
            derived["search.parallel_efficiency"] = (
                busy / (POOL_JOBS * timer.table()["search"]["busy_s"]))
            derived["search.task_bytes"] = sum(sizes) / SAMPLES
        install_layers(tracer)
        try:
            history = run.search_op(strategy, 1, tracer)
        finally:
            tracer.uninstall()
        replays = []
        if history is not None:
            run.check_search(history, strategy, 1)
            samples = [r for r in history if "reward" in r]
            derived["search.diverged_share"] = sum(r["diverged"] for r in samples) / len(samples)
            replays = [(r["theta"], search._train_seed(run.master, r["round"], r["sample_index"]))
                       for r in samples if r["round"] == 1][:REPLAY_OPS]
        steps, batch_scenes = DESK["steps"], DESK_BATCH_SCENES

    table = tracer.table()
    forward = table.get("paploss.loss_forward", {"calls": 0, "errors": {}})
    derived["piecewise.eval.points"] = tracer.counts.get("piecewise.eval", 0)
    derived["paploss.loss_forward.empty_share"] = (
        forward["errors"].get("EmptyPositiveError", 0) / max(forward["calls"], 1))
    model = toybench.ToyModel.init(run.train[0].features.shape[1], 16, 0)
    derived["paploss.cache_bytes"] = cache_bytes(model, run.train[:batch_scenes])
    if replays:
        derived["trace.overhead"] = trace_overhead(run, replays, steps, batch_scenes)
    tracer.write(run.out / "spans.csv.gz")

    metrics = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        metrics[name] = (table.get(span, {}).get(stat, 0), "count" if stat == "calls" else "s")
    for name, unit in DERIVED_METRICS.items():
        metrics[name] = (derived[name], unit)
    run.notes += [
        f"N = {run.spec['N']} predictions per training step; {len(tracer.names)} spans "
        f"written to {run.out.name}/spans.csv.gz",
        "computed counts (exact for a seed): " + ", ".join(
            f"{name} = {metrics[name][0]}" for name in COMPUTED_COUNTS),
        f"failed_share = {summary.failed_share(run.outcomes):.4g} "
        f"({summary.tally(run.outcomes)[1]} of {len(run.outcomes)} operations)",
    ]
    return metrics
