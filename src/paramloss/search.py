"""Outer-loop search over loss parameters.

Bi-level scheme: the inner level trains the toy detector under a candidate
parameter set; the outer level treats the evaluation AP of the trained
detector as a reward and ascends the mean of a truncated-normal sampling
distribution with a PPO2 clipped-surrogate update. A same-budget random
search provides the baseline curve.

All randomness is routed through named seed streams derived from the master
seed, round index and sample index, so serial and parallel execution
produce identical histories.
"""

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import toybench
from .errors import (
    ConfigError,
    ConstraintViolationError,
    InvalidInputError,
    check_field_types,
)
from .geometry import MEASUREMENTS
from .optim import Adam
from .paploss import LossParams

PROJECTION_MARGIN = 1e-4
PPO2_EPSILON = 0.1
PPO2_ITERATIONS = 100
PPO2_LR = 0.01
PPO2_WARMUP = 30
_EPS = np.finfo(float).eps

# bundled settings: "desk" fits a full comparison suite in minutes on a
# laptop, "paper" mirrors the original search budget
PRESETS = {
    "desk": {"T": 15, "S": 4, "steps": 300},
    "paper": {"T": 40, "S": 8, "steps": 300},
}


@dataclass(frozen=True, eq=False)
class SearchConfig:
    """Outer-search settings plus the inner-training knobs they drive."""

    T: int = 40
    S: int = 8
    sigma0: float = 0.2
    M: int = 5
    measurement: str = "giou"
    steps: int = 300
    seed: int = 0
    dataset: str | None = None
    block_denominator: bool = True

    def __post_init__(self):
        check_field_types(self, ConfigError)
        if self.T < 1 or self.S < 1:
            raise ConfigError("T and S must be at least 1")
        # sigma0 = 0 is the degenerate no-exploration search, kept legal
        if not (np.isfinite(self.sigma0) and self.sigma0 >= 0.0):
            raise ConfigError("sigma0 must be a finite non-negative real")
        if self.M < 2:
            raise ConfigError("M must be at least 2")
        if self.measurement not in MEASUREMENTS:
            raise ConfigError(f"unknown measurement {self.measurement!r}")
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SearchConfig":
        merged = cls().to_json_dict()
        unknown = set(data) - set(merged)
        if unknown:
            raise ConfigError(f"unknown search config keys: {sorted(unknown)}")
        return cls(**{**merged, **data})


# the arrays here are theta-sized, so a loop over Python floats (tolist()
# rather than numpy scalars, which take twice as long) costs microseconds
def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise: 0.5 erfc(-x / sqrt(2))."""
    x = np.asarray(x, dtype=float)
    values = [0.5 * math.erfc(v) for v in (-x / math.sqrt(2.0)).ravel().tolist()]
    return np.array(values).reshape(x.shape)


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile, elementwise; -inf at p <= 0 and +inf at p >= 1."""
    p = np.asarray(p, dtype=float)
    unit = statistics.NormalDist()
    values = [-math.inf if v <= 0.0 else math.inf if v >= 1.0 else unit.inv_cdf(v)
              for v in p.ravel().tolist()]
    return np.array(values).reshape(p.shape)


def sample_truncnorm(mu: np.ndarray, sigma: float, rng) -> np.ndarray:
    """Per-component normal(mu_c, sigma^2) truncated to [0, 1], inverse-CDF.

    sigma = 0 degenerates to mu. Samples landing exactly on 0 or 1 are
    nudged inward by a machine-epsilon margin so downstream open-interval
    constraints hold.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0.0) or np.any(mu >= 1.0):
        raise InvalidInputError("mu components must lie strictly inside (0, 1)")
    if sigma < 0.0:
        raise InvalidInputError("sigma must be non-negative")
    if sigma == 0.0:
        return mu.copy()
    lo = _ndtr(-mu / sigma)
    hi = _ndtr((1.0 - mu) / sigma)
    u = rng.uniform(lo, hi)
    x = mu + sigma * _ndtri(u)
    return np.clip(x, _EPS, 1.0 - _EPS)


def truncnorm_logpdf(x: np.ndarray, mu: np.ndarray, sigma: float) -> np.ndarray:
    """Per-component log-density of the [0,1]-truncated normal."""
    if sigma <= 0.0:
        raise InvalidInputError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InvalidInputError("x components must lie in [0, 1]")
    return _truncnorm_terms(x, mu, sigma)[0]


def _truncnorm_terms(x: np.ndarray, mu: np.ndarray, sigma: float):
    """(truncnorm_logpdf without its checks, the truncation normalizer Z)."""
    z = (x - mu) / sigma
    normalizer = _ndtr((1.0 - mu) / sigma) - _ndtr(-mu / sigma)
    return (-0.5 * z**2 - 0.5 * np.log(2.0 * np.pi) - np.log(sigma) - np.log(normalizer),
            normalizer)


def _dlogpdf_dmu(x: np.ndarray, mu: np.ndarray, sigma: float, z_norm) -> np.ndarray:
    # d/dmu log p = (x - E[X_trunc]) / sigma^2, with the truncated mean
    # mu + sigma (phi(lo) - phi(hi)) / Z; Z is the normalizer that
    # _truncnorm_terms returns at the same (mu, sigma)
    lo = -mu / sigma
    hi = (1.0 - mu) / sigma
    phi = lambda t: np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)
    trunc_mean = mu + sigma * (phi(lo) - phi(hi)) / z_norm
    return (x - trunc_mean) / sigma**2


def clipped_surrogate_terms(rho: np.ndarray, advantage: np.ndarray,
                            epsilon: float) -> np.ndarray:
    """min(rho * A, clip(rho, 1-eps, 1+eps) * A), elementwise."""
    rho = np.asarray(rho, dtype=float)
    return np.minimum(rho * advantage, np.clip(rho, 1.0 - epsilon, 1.0 + epsilon) * advantage)


def ppo2_objective(thetas: np.ndarray, advantages: np.ndarray, mu: np.ndarray,
                   mu_t: np.ndarray, sigma: float, epsilon: float) -> float:
    """Clipped surrogate averaged over samples and components.

    Ratios are per-component truncated-normal density ratios between the
    candidate mean and the sampling mean; the clip is applied per component.
    Evaluated at mu = mu_t every ratio is 1 and the value is the mean
    advantage, which is exactly 0 after baseline subtraction.
    """
    thetas = np.asarray(thetas, dtype=float)
    log_rho = truncnorm_logpdf(thetas, mu, sigma) - truncnorm_logpdf(thetas, mu_t, sigma)
    rho = np.exp(log_rho)
    terms = clipped_surrogate_terms(rho, np.asarray(advantages)[:, None], epsilon)
    return float(terms.mean())


def _ppo2_grad(thetas: np.ndarray, advantages: np.ndarray, mu: np.ndarray,
               logpdf_t: np.ndarray, sigma: float, epsilon: float) -> np.ndarray:
    """Gradient of ppo2_objective wrt mu; logpdf_t is the sampling density's
    truncnorm_logpdf(thetas, mu_t, sigma), which does not depend on mu."""
    adv = np.asarray(advantages)[:, None]
    logpdf, z_norm = _truncnorm_terms(thetas, mu, sigma)
    rho = np.exp(logpdf - logpdf_t)
    # the unclipped branch is active wherever it attains the min; on the
    # flat clipped branch the derivative is zero
    active = rho * adv <= np.clip(rho, 1.0 - epsilon, 1.0 + epsilon) * adv
    d_rho = rho * _dlogpdf_dmu(thetas, mu, sigma, z_norm)
    grads = np.where(active, adv * d_rho, 0.0)
    # each mu_c appears in one component term per sample; the objective
    # averages over samples and components
    return grads.mean(axis=0) / thetas.shape[1]


def ppo2_update(samples, rewards, mu_t: np.ndarray, sigma: float) -> np.ndarray:
    """Ascend the clipped surrogate from mu_t; returns the projected mean.

    PPO2_ITERATIONS Adam steps at clip range PPO2_EPSILON, with a step size
    ramping linearly to PPO2_LR over the first PPO2_WARMUP iterations.
    All-equal rewards mean zero advantage everywhere, in which case mu_t is
    returned unchanged.
    """
    thetas = np.asarray(samples, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if thetas.ndim != 2 or thetas.shape[0] != rewards.shape[0]:
        raise InvalidInputError("samples and rewards must agree on the sample count")
    if thetas.shape[0] < 2:
        raise InvalidInputError("the advantage baseline needs at least 2 samples")
    if sigma <= 0.0:
        raise InvalidInputError("sigma must be positive")
    advantages = rewards - rewards.mean()
    if np.all(advantages == 0.0):
        return np.asarray(mu_t, dtype=float).copy()

    mu = np.asarray(mu_t, dtype=float).copy()
    # the sampling density's term of every ratio, the same on every iteration
    logpdf_t = truncnorm_logpdf(thetas, mu_t, sigma)
    opt = Adam(mu.size)
    for k in range(PPO2_ITERATIONS):
        grad = _ppo2_grad(thetas, advantages, mu, logpdf_t, sigma, PPO2_EPSILON)
        rate = PPO2_LR * min(1.0, (k + 1) / PPO2_WARMUP)
        mu = opt.step(mu, -grad, lr=rate)  # ascent
    return np.clip(mu, PROJECTION_MARGIN, 1.0 - PROJECTION_MARGIN)


def _train_seed(master: int, t: int, i: int) -> int:
    """Stable scalar seed for one inner training, distinct per (round, sample)."""
    return int(np.random.SeedSequence([master, t, i]).generate_state(1)[0])


def _loss_params(config: SearchConfig, theta) -> LossParams:
    """The loss parameters a search under `config` trains for a flat theta;
    ConstraintViolationError for a theta that gives no loss."""
    return LossParams.from_flat(theta, M=config.M, measurement=config.measurement,
                                block_denominator=config.block_denominator)


def _evaluate_chunk(dataset, config: SearchConfig, thetas,
                    seeds) -> list[tuple[float, bool, float]]:
    """Train and score samples in lockstep on the (train, eval) scenes
    `dataset`: (reward, diverged, wall_ms) per sample, in order.

    The one place that decides a sample is unbuildable: a theta that
    _loss_params rejects does not train and gets (0.0, True), as a diverged
    sample does. The chunk's wall time is split evenly among its samples, so
    the wall_ms of a round's samples sum to the time spent evaluating it.
    """
    train_set, eval_set = dataset
    start = time.perf_counter()
    params = {}
    for k, theta in enumerate(thetas):
        try:
            params[k] = _loss_params(config, theta)
        except ConstraintViolationError:
            pass  # unbuildable: it gets no model, so it scores (0.0, True)
    models = dict(zip(params, toybench._train_lockstep(
        list(params.values()), train_set, config.steps, [seeds[k] for k in params])))
    results = [(toybench.reward(models[k], eval_set), False)
               if isinstance(models.get(k), toybench.ToyModel) else (0.0, True)
               for k in range(len(thetas))]
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(thetas)
    return [(value, diverged, wall_ms) for value, diverged in results]


# a pool worker's dataset, set once by the pool's initializer, so that a task
# carries only (config, thetas, seeds) and not the scenes
_worker_dataset = None


def _init_worker(dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _evaluate_in_worker(config: SearchConfig, thetas, seeds) -> list[tuple[float, bool, float]]:
    return _evaluate_chunk(_worker_dataset, config, thetas, seeds)


def _search_rounds(config: SearchConfig, dataset, jobs: int, propose, update=None):
    """The outer loop both strategies share: T rounds of S sample evaluations.

    Round t draws sample i as propose(t, rng) with rng seeded from
    (master seed, t, i). A round trains as lockstep chunks of
    ceil(S / jobs) samples, each in its own pool worker, so the pool has as
    many workers as a round has chunks; one chunk trains in-process. After
    each round, update(t, thetas, rewards), when given, returns the round
    record. Returns (best LossParams, history): best is the earliest sample
    of the highest reward among those that trained, None if none did.
    """
    if jobs < 1:
        raise ConfigError("jobs must be at least 1")
    history = []
    chunk = -(-config.S // jobs)
    # one worker per chunk: the executor forks them all at the first submit
    workers = -(-config.S // chunk)
    pool = nullcontext()
    if workers > 1:
        # imported only here: multiprocessing would add to every start of
        # the program, and a round of one chunk never uses it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(dataset,))
    # a worker reads its scenes from _init_worker, never the dataset path
    task_config = replace(config, dataset=None)
    with pool:
        for t in range(1, config.T + 1):
            thetas = [propose(t, np.random.default_rng([config.seed, t, i]))
                      for i in range(config.S)]
            seeds = [_train_seed(config.seed, t, i) for i in range(config.S)]
            if workers > 1:
                starts = range(0, len(thetas), chunk)
                # map() yields results in submission order, keeping parallel
                # runs byte-identical to serial ones
                parts = pool.map(_evaluate_in_worker, [task_config] * len(starts),
                                 [thetas[a:a + chunk] for a in starts],
                                 [seeds[a:a + chunk] for a in starts])
                results = [result for part in parts for result in part]
            else:
                results = _evaluate_chunk(dataset, config, thetas, seeds)
            for i, (theta, (value, diverged, wall_ms)) in enumerate(zip(thetas, results)):
                history.append({"round": t, "sample_index": i, "theta": theta.tolist(),
                                "reward": value, "diverged": diverged, "wall_ms": wall_ms})
            if update is not None:
                history.append(update(t, np.stack(thetas), [value for value, _, _ in results]))

    # max() keeps the first of equal rewards; round records have no "diverged"
    best = max((r for r in history if r.get("diverged") is False),
               key=lambda r: r["reward"], default=None)
    return None if best is None else _loss_params(config, best["theta"]), history


def run_search(config: SearchConfig, dataset, jobs: int = 1):
    """Truncated-normal sampling around an ascending mean (Algorithm: PPO2).

    `dataset` is the in-memory (train scenes, eval scenes) pair. Returns
    (best LossParams or None, history). The history carries one record per
    sample {round, sample_index, theta, reward, diverged, wall_ms} and one record
    per round {round, mu, sigma} holding the post-update mean. A round's
    samples train in lockstep, in one chunk per job, and each sample's
    wall_ms is its chunk's wall time split evenly among the chunk's
    samples, so a round's wall_ms still sum to the time spent evaluating
    it.
    """
    mu = LossParams.identity(M=config.M).to_flat()

    def sigma(t):
        return config.sigma0 * (1.0 - (t - 1) / config.T)

    def update(t, thetas, rewards):
        nonlocal mu
        if config.S >= 2 and sigma(t) > 0.0:
            mu = ppo2_update(thetas, rewards, mu, sigma(t))
        return {"round": t, "mu": mu.tolist(), "sigma": sigma(t)}

    return _search_rounds(config, dataset, jobs,
                          lambda t, rng: sample_truncnorm(mu, sigma(t), rng), update)


def random_search(config: SearchConfig, dataset, jobs: int = 1):
    """Same-budget baseline: uniform samples over (0,1)^D, no mean update.

    `dataset` is the in-memory (train scenes, eval scenes) pair. Returns
    (best LossParams or None, history); the history has exactly T*S sample
    records in T rounds of S.
    """
    dim = LossParams.identity(M=config.M).to_flat().size
    return _search_rounds(config, dataset, jobs,
                          lambda t, rng: np.clip(rng.uniform(size=dim), _EPS, 1.0 - _EPS))


def best_so_far_curve(history) -> list[tuple[int, float]]:
    """(round, best reward up to and including that round) from sample records."""
    per_round = {}
    for record in history:
        if "reward" in record:
            r = record["round"]
            per_round[r] = max(per_round.get(r, -np.inf), record["reward"])
    curve = []
    best = -np.inf
    for r in sorted(per_round):
        best = max(best, per_round[r])
        curve.append((r, best))
    return curve
