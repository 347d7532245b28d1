"""Truncated-normal sampling, PPO2 surrogate, and the outer search loops."""

import concurrent.futures
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import ndtr, ndtri

import paramloss.search
import paramloss.toybench
from paramloss.errors import ConfigError, InvalidInputError, TrainingDivergedError
from paramloss.optim import Adam
from paramloss.paploss import LossParams
from paramloss.search import (
    PPO2_EPSILON,
    PPO2_ITERATIONS,
    PPO2_LR,
    PPO2_WARMUP,
    PROJECTION_MARGIN,
    SearchConfig,
    _evaluate_chunk,
    _ndtr,
    _ndtri,
    best_so_far_curve,
    clipped_surrogate_terms,
    ppo2_objective,
    ppo2_update,
    random_search,
    run_search,
    sample_truncnorm,
    truncnorm_logpdf,
)
from paramloss.toybench import DatasetConfig, generate, reward, train_inner

TINY_DATA = DatasetConfig(scenes=12, g_max=2, anchors=8, features=6, noise=0.05, seed=21)


def tiny_config(**overrides):
    base = dict(T=2, S=2, sigma0=0.2, steps=4, seed=5)
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.T == 40 and config.S == 8
        assert config.sigma0 == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"T": 0}, {"S": 0}, {"sigma0": -0.1}, {"M": 1},
        {"measurement": "chamfer"}, {"steps": -1},
        {"steps": True}, {"seed": None}, {"seed": -3}, {"sigma0": True},
        {"block_denominator": "false"}, {"block_denominator": 0},
        # the PPO2 update's own settings are not search config keys
        {"epsilon": 0.1}, {"inner_iterations": 100}, {"inner_lr": 0.01},
        {"inner_warmup": 30},
        # the dataset is a path or null: 0 would read stdin, true fd 1
        {"dataset": 0}, {"dataset": True}, {"dataset": ["a"]}, {"dataset": 1.5},
    ])
    def test_invalid_rejected(self, kwargs):
        # through the config-file path, which also rejects unknown keys
        with pytest.raises(ConfigError):
            SearchConfig.from_json_dict(kwargs)

    def test_json_round_trip(self):
        config = SearchConfig(T=3, S=2, seed=9, dataset="d.json")
        again = SearchConfig.from_json_dict(config.to_json_dict())
        assert again.to_json_dict() == config.to_json_dict()
        with pytest.raises(ConfigError):
            SearchConfig.from_json_dict({"bogus": 1})


class TestSampleTruncnorm:
    def test_sigma_zero_returns_mu(self):
        mu = np.array([0.3, 0.7])
        out = sample_truncnorm(mu, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, mu)

    def test_same_seed_identical(self):
        mu = np.full(41, 0.5)
        a = sample_truncnorm(mu, 0.2, np.random.default_rng(11))
        b = sample_truncnorm(mu, 0.2, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_symmetric_truncation_keeps_mean(self):
        rng = np.random.default_rng(3)
        mu = np.full(1, 0.5)
        draws = np.array([sample_truncnorm(mu, 0.2, rng)[0] for _ in range(10_000)])
        assert np.all(draws > 0.0) and np.all(draws < 1.0)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_open_interval_even_with_huge_sigma(self):
        rng = np.random.default_rng(4)
        mu = np.full(100, 0.5)
        draws = sample_truncnorm(mu, 50.0, rng)
        assert np.all(draws > 0.0) and np.all(draws < 1.0)

    def test_mu_outside_open_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_truncnorm(np.array([0.0, 0.5]), 0.2, np.random.default_rng(0))


class TestNormalCdfAndQuantile:
    """The standard library's erfc and NormalDist against scipy.special."""

    def test_ndtr_matches_scipy(self):
        x = np.concatenate([np.linspace(-37.0, 37.0, 20001),
                            np.random.default_rng(7).uniform(-37.0, 37.0, 5000)])
        assert np.allclose(_ndtr(x), ndtr(x), rtol=1e-10, atol=0.0)

    def test_ndtri_matches_scipy(self):
        p = np.concatenate([np.linspace(0.0, 1.0, 20001)[1:-1],
                            np.random.default_rng(8).uniform(size=5000),
                            np.logspace(-300, -1, 300), 1.0 - np.logspace(-16, -1, 100)])
        assert np.allclose(_ndtri(p), ndtri(p), rtol=2e-15, atol=0.0)

    def test_ndtri_is_infinite_at_the_ends(self):
        assert _ndtri(np.array([0.0, 1.0, -0.5, 1.5])).tolist() == [
            -np.inf, np.inf, -np.inf, np.inf]

    def test_shape_kept(self):
        assert _ndtr(np.zeros((2, 3))).shape == (2, 3)
        assert _ndtri(np.full((3, 2), 0.5)).shape == (3, 2)


class TestTruncnormLogpdf:
    def test_center_density_value(self):
        # phi(0) / (0.2 * (Phi(2.5) - Phi(-2.5))) ~ 2.0197
        log_p = truncnorm_logpdf(np.array([0.5]), np.array([0.5]), 0.2)
        assert abs(np.exp(log_p[0]) - 2.0197) < 1e-3
        # truncation renormalizes upward versus the untruncated normal
        untruncated = 1.0 / (0.2 * np.sqrt(2 * np.pi))
        assert np.exp(log_p[0]) > untruncated

    def test_density_integrates_to_one(self):
        grid = np.linspace(0.0, 1.0, 4001)
        for mu, sigma in ((0.5, 0.2), (0.1, 0.3), (0.9, 0.05)):
            density = np.exp(truncnorm_logpdf(grid, np.full_like(grid, mu), sigma))
            assert abs(simpson(density, x=grid) - 1.0) < 1e-6

    def test_identical_distributions_ratio_one(self):
        x = np.linspace(0.05, 0.95, 7)
        mu = np.full_like(x, 0.4)
        ratio = np.exp(truncnorm_logpdf(x, mu, 0.3) - truncnorm_logpdf(x, mu, 0.3))
        assert np.allclose(ratio, 1.0, atol=0)

    def test_sigma_nonpositive_rejected(self):
        with pytest.raises(InvalidInputError):
            truncnorm_logpdf(np.array([0.5]), np.array([0.5]), 0.0)

    def test_x_outside_domain_rejected(self):
        with pytest.raises(InvalidInputError):
            truncnorm_logpdf(np.array([1.5]), np.array([0.5]), 0.2)


class TestClippedSurrogate:
    def test_clip_example(self):
        # ratio 1.3, clip range 0.1, positive advantage: contribution 1.1 * A
        out = clipped_surrogate_terms(np.array([1.3]), np.array([2.0]), 0.1)
        assert out[0] == pytest.approx(1.1 * 2.0)

    def test_negative_advantage_keeps_unclipped_branch(self):
        # for A < 0 the min picks rho * A below the band, never the clip
        out = clipped_surrogate_terms(np.array([1.3]), np.array([-2.0]), 0.1)
        assert out[0] == pytest.approx(1.3 * -2.0)

    def test_inside_band_untouched(self):
        out = clipped_surrogate_terms(np.array([1.05]), np.array([3.0]), 0.1)
        assert out[0] == pytest.approx(1.05 * 3.0)


class TestPPO2Objective:
    def _setup(self, seed=0, dim=5, n=4, sigma=0.25):
        rng = np.random.default_rng(seed)
        mu_t = rng.uniform(0.3, 0.7, dim)
        thetas = np.stack([sample_truncnorm(mu_t, sigma, rng) for _ in range(n)])
        rewards = rng.uniform(0.0, 1.0, n)
        return thetas, rewards - rewards.mean(), mu_t, sigma

    def test_zero_at_sampling_mean(self):
        # at mu = mu_t every ratio is exactly 1 (log-density difference is
        # exactly zero), so the surrogate collapses to the mean advantage;
        # that mean is zero up to the rounding of the baseline subtraction
        thetas, advantages, mu_t, sigma = self._setup()
        value = ppo2_objective(thetas, advantages, mu_t, mu_t, sigma, 0.1)
        assert value == float(np.mean(advantages))
        assert abs(value) < 1e-15

    def test_gradient_matches_finite_differences(self):
        checked = 0
        for seed in range(15):
            thetas, advantages, mu_t, sigma = self._setup(seed=seed)
            rng = np.random.default_rng(seed + 100)
            mu = np.clip(mu_t + rng.normal(0, 0.05, mu_t.size), 0.05, 0.95)
            rho = np.exp(truncnorm_logpdf(thetas, mu, sigma)
                         - truncnorm_logpdf(thetas, mu_t, sigma))
            # keep clear of the clip corners and the min switch
            if np.min(np.abs(rho - 1.1)) < 1e-3 or np.min(np.abs(rho - 0.9)) < 1e-3:
                continue
            from paramloss.search import _ppo2_grad
            analytic = _ppo2_grad(thetas, advantages, mu, truncnorm_logpdf(thetas, mu_t, sigma),
                                  sigma, 0.1)
            h = 1e-6
            fd = np.empty_like(mu)
            for c in range(mu.size):
                bump = np.zeros_like(mu)
                bump[c] = h
                up = ppo2_objective(thetas, advantages, mu + bump, mu_t, sigma, 0.1)
                down = ppo2_objective(thetas, advantages, mu - bump, mu_t, sigma, 0.1)
                fd[c] = (up - down) / (2 * h)
            assert np.max(np.abs(fd - analytic)) < 1e-5 * max(1.0, np.max(np.abs(analytic)))
            checked += 1
            if checked == 5:
                break
        assert checked == 5

    def test_first_step_moves_toward_positive_sample(self):
        # single above-average sample: at mu_t the ascent direction points
        # from the truncated mean toward that sample, component-wise
        mu_t = np.array([0.4, 0.6, 0.5])
        sigma = 0.2
        theta_good = np.array([0.55, 0.35, 0.44])
        theta_bad = np.array([0.3, 0.8, 0.62])
        thetas = np.stack([theta_good, theta_bad])
        advantages = np.array([0.5, -0.5])
        from paramloss.search import _dlogpdf_dmu, _ppo2_grad, _truncnorm_terms
        grad = _ppo2_grad(thetas, advantages, mu_t, truncnorm_logpdf(thetas, mu_t, sigma),
                          sigma, 0.1)
        z_norm = _truncnorm_terms(theta_good, mu_t, sigma)[1]
        expected_sign = np.sign(_dlogpdf_dmu(theta_good, mu_t, sigma, z_norm)
                                - _dlogpdf_dmu(theta_bad, mu_t, sigma, z_norm))
        assert np.all(np.sign(grad) == expected_sign)
        h = 1e-7
        for c in range(3):
            bump = np.zeros(3)
            bump[c] = h
            fd = (ppo2_objective(thetas, advantages, mu_t + bump, mu_t, sigma, 0.1)
                  - ppo2_objective(thetas, advantages, mu_t - bump, mu_t, sigma, 0.1)) / (2 * h)
            assert np.sign(fd) == expected_sign[c]


class TestPPO2Update:
    def test_equal_rewards_return_mu_unchanged(self):
        mu_t = np.array([0.3, 0.5, 0.7])
        thetas = np.random.default_rng(0).uniform(0.2, 0.8, (4, 3))
        out = ppo2_update(thetas, np.full(4, 0.25), mu_t, 0.2)
        assert np.array_equal(out, mu_t)

    def test_needs_two_samples(self):
        with pytest.raises(InvalidInputError):
            ppo2_update(np.array([[0.5]]), np.array([1.0]), np.array([0.5]), 0.2)

    def test_projection_margin(self, monkeypatch):
        # a strong advantage on a boundary-hugging sample drags mu outward,
        # harder under a longer, faster ascent than the search's; the
        # projection must keep every component inside the open cube
        monkeypatch.setattr(paramloss.search, "PPO2_ITERATIONS", 400)
        monkeypatch.setattr(paramloss.search, "PPO2_LR", 0.05)
        monkeypatch.setattr(paramloss.search, "PPO2_WARMUP", 1)
        mu_t = np.array([0.995, 0.005])
        thetas = np.array([[0.9999, 0.0001], [0.5, 0.5]])
        rewards = np.array([1.0, 0.0])
        out = ppo2_update(thetas, rewards, mu_t, 0.3)
        assert np.all(out >= PROJECTION_MARGIN)
        assert np.all(out <= 1.0 - PROJECTION_MARGIN)

    def test_moves_toward_better_sample(self):
        mu_t = np.full(4, 0.5)
        rng = np.random.default_rng(7)
        thetas = np.stack([np.full(4, 0.62), np.full(4, 0.38),
                           rng.uniform(0.45, 0.55, 4), rng.uniform(0.45, 0.55, 4)])
        rewards = np.array([1.0, 0.0, 0.4, 0.4])
        out = ppo2_update(thetas, rewards, mu_t, 0.2)
        assert np.all(out > mu_t)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        thetas = rng.uniform(0.2, 0.8, (5, 6))
        rewards = rng.uniform(0, 1, 5)
        mu_t = np.full(6, 0.5)
        a = ppo2_update(thetas, rewards, mu_t, 0.15)
        b = ppo2_update(thetas, rewards, mu_t, 0.15)
        assert np.array_equal(a, b)

    @staticmethod
    def _reference_update(thetas, rewards, mu_t, sigma):
        """ppo2_update with both log-densities and the truncation normalizer
        computed afresh on every iteration; also returns how many ratios sat
        on the clipped and on the unclipped branch."""
        advantages = rewards - rewards.mean()
        adv = advantages[:, None]
        mu = mu_t.copy()
        opt = Adam(mu.size)
        branches = [0, 0]
        for k in range(PPO2_ITERATIONS):
            rho = np.exp(truncnorm_logpdf(thetas, mu, sigma)
                         - truncnorm_logpdf(thetas, mu_t, sigma))
            active = rho * adv <= np.clip(rho, 1.0 - PPO2_EPSILON, 1.0 + PPO2_EPSILON) * adv
            branches[0] += int(np.count_nonzero(~active))
            branches[1] += int(np.count_nonzero(active))
            lo, hi = -mu / sigma, (1.0 - mu) / sigma
            phi = lambda t: np.exp(-0.5 * t**2) / np.sqrt(2.0 * np.pi)
            trunc_mean = mu + sigma * (phi(lo) - phi(hi)) / (_ndtr(hi) - _ndtr(lo))
            d_rho = rho * ((thetas - trunc_mean) / sigma**2)
            grad = np.where(active, adv * d_rho, 0.0).mean(axis=0) / thetas.shape[1]
            mu = opt.step(mu, -grad, lr=PPO2_LR * min(1.0, (k + 1) / PPO2_WARMUP))
        return np.clip(mu, PROJECTION_MARGIN, 1.0 - PROJECTION_MARGIN), branches

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hoisted_update_equals_per_iteration_reference(self, seed, monkeypatch):
        rng = np.random.default_rng([seed, 41])
        mu_t = rng.uniform(0.2, 0.8, 41)
        sigma = 0.2
        thetas = np.stack([sample_truncnorm(mu_t, sigma, rng) for _ in range(4)])
        rewards = rng.uniform(0.0, 1.0, 4)
        expected, (clipped, unclipped) = self._reference_update(thetas, rewards, mu_t, sigma)
        assert clipped > 0 and unclipped > 0
        calls = []
        real = paramloss.search._ndtr

        def counted(x):
            calls.append(np.shape(x))
            return real(x)

        monkeypatch.setattr(paramloss.search, "_ndtr", counted)
        out = ppo2_update(thetas, rewards, mu_t, sigma)
        assert np.array_equal(out, expected)
        # two for the sampling density once, then two per iteration
        assert len(calls) == 2 + 2 * 100


def _strip_wall(history):
    return [{k: v for k, v in record.items() if k != "wall_ms"} for record in history]


@pytest.fixture(scope="module")
def data():
    return generate(TINY_DATA)


class TestRunSearch:
    def test_deterministic_history(self, data):
        best_a, hist_a = run_search(tiny_config(), dataset=data)
        best_b, hist_b = run_search(tiny_config(), dataset=data)
        assert np.array_equal(best_a.to_flat(), best_b.to_flat())
        assert _strip_wall(hist_a) == _strip_wall(hist_b)

    def test_history_shape_and_invariants(self, data):
        config = tiny_config(T=3, S=2)
        best, history = run_search(config, dataset=data)
        samples = [r for r in history if "reward" in r]
        rounds = [r for r in history if "mu" in r]
        assert len(samples) == config.T * config.S
        assert len(rounds) == config.T
        assert all(0.0 <= r["reward"] <= 1.0 for r in samples)
        for r in rounds:
            mu = np.array(r["mu"])
            assert np.all(mu > 0.0) and np.all(mu < 1.0)
        sigmas = [r["sigma"] for r in rounds]
        assert sigmas[0] == config.sigma0
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] > 0.0

    def test_best_reward_is_reproducible(self, data):
        # retraining the winning sample with its derived seed recovers the
        # recorded reward exactly
        from paramloss.search import _train_seed
        config = tiny_config(T=2, S=2, steps=3)
        best, history = run_search(config, dataset=data)
        samples = [r for r in history if "reward" in r]
        top = max(samples, key=lambda r: r["reward"])
        assert np.array_equal(np.array(top["theta"]), best.to_flat())
        seed = _train_seed(config.seed, top["round"], top["sample_index"])
        model = train_inner(best, data[0], config.steps, seed)
        assert reward(model, data[1]) == top["reward"]

    def test_degenerate_search_equals_identity(self, data):
        # sigma0 = 0 keeps every sample at the identity initialization
        config = tiny_config(T=1, S=2, sigma0=0.0, steps=3)
        best, history = run_search(config, dataset=data)
        identity_flat = LossParams.identity().to_flat()
        samples = [r for r in history if "reward" in r]
        assert len(samples) == 2
        for record in samples:
            assert np.array_equal(np.array(record["theta"]), identity_flat)
        assert np.array_equal(best.to_flat(), identity_flat)

    def test_diverged_samples_survive(self, data, monkeypatch):
        calls = {"n": 0}
        real = paramloss.toybench._train_lockstep

        # the search trains each round through the lockstep trainer; every
        # second sample it trains diverges
        def sometimes_diverges(params, train_set, steps, seeds, **kwargs):
            outcomes = real(params, train_set, steps, seeds, **kwargs)
            for k in range(len(outcomes)):
                calls["n"] += 1
                if calls["n"] % 2 == 0:
                    outcomes[k] = TrainingDivergedError(3)
            return outcomes

        monkeypatch.setattr(paramloss.toybench, "_train_lockstep", sometimes_diverges)
        best, history = run_search(tiny_config(T=2, S=2, steps=2), dataset=data)
        samples = [r for r in history if "reward" in r]
        flagged = [r for r in samples if r["diverged"]]
        assert len(flagged) == 2
        assert all(r["reward"] == 0.0 for r in flagged)
        assert best is not None

    def test_all_failed_search_has_no_best(self, data, monkeypatch):
        def always_diverges(params, train_set, steps, seeds, **kwargs):
            return [TrainingDivergedError(1) for _ in params]

        monkeypatch.setattr(paramloss.toybench, "_train_lockstep", always_diverges)
        best, history = run_search(tiny_config(T=2, S=2, steps=2), dataset=data)
        assert best is None
        assert [r["diverged"] for r in history if "reward" in r] == [True] * 4

    def test_parallel_matches_serial(self, data):
        config = tiny_config(T=2, S=3, steps=3)
        best_serial, hist_serial = run_search(config, dataset=data, jobs=1)
        best_par, hist_par = run_search(config, dataset=data, jobs=2)
        assert np.array_equal(best_serial.to_flat(), best_par.to_flat())
        assert _strip_wall(hist_serial) == _strip_wall(hist_par)

    @staticmethod
    def _in_process_pool(sizes, configs):
        """A ProcessPoolExecutor stand-in that records its size and the
        configs its tasks get, and runs the tasks in-process, in order."""

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, task_configs, *iterables):
                configs.extend(task_configs)
                return map(fn, task_configs, *iterables)

        return InProcessPool

    @pytest.mark.parametrize("S, jobs, pools", [
        (4, 64, [4]),  # one worker per sample, not 64
        (4, 3, [2]),   # chunks of 2: two chunks, not three workers
        (3, 2, [2]),
        (1, 4, []),    # one chunk trains in-process
        (4, 1, []),
    ])
    def test_pool_has_one_worker_per_chunk(self, data, monkeypatch, S, jobs, pools):
        sizes = []
        # search imports the pool class from concurrent.futures when it
        # makes a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self._in_process_pool(sizes, []))
        monkeypatch.setattr(paramloss.search, "_worker_dataset", None)
        config = tiny_config(T=2, S=S, steps=2)
        best, history = run_search(config, dataset=data, jobs=jobs)
        assert sizes == pools
        serial_best, serial = run_search(config, dataset=data)
        assert np.array_equal(best.to_flat(), serial_best.to_flat())
        assert _strip_wall(history) == _strip_wall(serial)

    def test_pool_tasks_carry_no_dataset_path(self, data, monkeypatch):
        # a worker reads the scenes its initializer gave it, so its tasks
        # leave out the path they came from, which would tie the task size
        # to where the file lies
        configs = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            self._in_process_pool([], configs))
        monkeypatch.setattr(paramloss.search, "_worker_dataset", None)
        config = tiny_config(T=2, S=3, steps=2, dataset="/a/long/path/to/dataset.json")
        _, history = random_search(config, dataset=data, jobs=2)
        assert len(configs) == 4
        want = {**config.to_json_dict(), "dataset": None}
        assert all(c.to_json_dict() == want for c in configs)
        _, serial = random_search(config, dataset=data)
        assert _strip_wall(history) == _strip_wall(serial)

    def test_pool_tasks_carry_no_scenes(self):
        # the pool's initializer hands each worker the dataset once, so a task
        # message holds only (config, theta, seed); with the scenes in it, one
        # is about 83 kB on this dataset
        data = generate(DatasetConfig(scenes=40, seed=3))
        config = tiny_config(T=2, S=3, steps=1)
        sizes = []
        original = vars(ForkingPickler)["dumps"]

        def dumps(obj, protocol=None):
            message = original.__func__(ForkingPickler, obj, protocol)
            sizes.append(len(message))
            return message

        ForkingPickler.dumps = staticmethod(dumps)
        try:
            _, history = random_search(config, dataset=data, jobs=2)
        finally:
            ForkingPickler.dumps = original
        assert len(history) == config.T * config.S
        assert len(sizes) >= config.T * config.S
        assert max(sizes) < 10_000


class TestRandomSearch:
    def test_deterministic(self, data):
        config = tiny_config(T=2, S=2, steps=2)
        _, a = random_search(config, dataset=data)
        _, b = random_search(config, dataset=data)
        assert _strip_wall(a) == _strip_wall(b)
        # T rounds of S samples, and no round records without a distribution
        assert [(r["round"], r["sample_index"]) for r in a] == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_samples_cover_unit_cube(self, data):
        _, history = random_search(tiny_config(T=1, S=8, steps=0), dataset=data)
        thetas = np.array([r["theta"] for r in history if "reward" in r])
        assert np.all(thetas > 0.0) and np.all(thetas < 1.0)
        assert thetas.std() > 0.2  # uniform spread, not clustered


class TestBestSoFarCurve:
    def test_curve(self):
        history = [
            {"round": 1, "sample_index": 0, "theta": [], "reward": 0.3,
             "diverged": False, "wall_ms": 1.0},
            {"round": 1, "sample_index": 1, "theta": [], "reward": 0.5,
             "diverged": False, "wall_ms": 1.0},
            {"round": 1, "mu": [], "sigma": 0.2},
            {"round": 2, "sample_index": 0, "theta": [], "reward": 0.4,
             "diverged": False, "wall_ms": 1.0},
            {"round": 2, "mu": [], "sigma": 0.1},
        ]
        assert best_so_far_curve(history) == [(1, 0.5), (2, 0.5)]

    def test_empty(self):
        assert best_so_far_curve([]) == []


# ratios this close to 1 collapse the knots onto x = 1, with a valid theta_lambda
UNBUILDABLE = np.append(np.full(40, np.nextafter(1.0, 0.0)), 0.5)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_unbuildable_sample_scores_zero_and_leaves_the_others(data, size):
    # _evaluate_chunk is where a sample turns out unbuildable: it gets
    # (0.0, True) and the chunk's other samples train as if it were absent
    config = tiny_config(steps=3)
    mu = LossParams.identity().to_flat()
    thetas = [sample_truncnorm(mu, 0.2, np.random.default_rng([3, i])) for i in range(size)]
    seeds = list(range(size))
    thetas[size // 2] = UNBUILDABLE
    got = [result[:2] for result in _evaluate_chunk(data, config, thetas, seeds)]
    assert got[size // 2] == (0.0, True)
    others = [k for k in range(size) if k != size // 2]
    if others:
        want = [result[:2] for result in _evaluate_chunk(
            data, config, [thetas[k] for k in others], [seeds[k] for k in others])]
        assert [got[k] for k in others] == want
        assert not any(diverged for _, diverged in want)
