"""End-to-end command-line workflows on tiny datasets."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramloss.cli
import paramloss.search
import paramloss.toybench
from paramloss.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from paramloss.errors import (
    ConstraintViolationError,
    DomainError,
    EmptyPositiveError,
    InvalidInputError,
    TrainingDivergedError,
)
from paramloss.paploss import LossParams, lambda_from_theta
from paramloss.piecewise import PiecewiseFn, build

from dataset_helpers import dataset_to_json_dict

TINY_DATASET = {"scenes": 12, "G_max": 2, "A": 8, "F": 6, "noise": 0.05, "seed": 21}
TINY_SEARCH = {"T": 2, "S": 2, "steps": 3, "seed": 5}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    config = root / "dataset_config.json"
    config.write_text(json.dumps(TINY_DATASET))
    assert main(["generate", "--config", str(config), "--out", str(root)]) == EXIT_OK
    return root


def _search_config_file(tmp_path, dataset_dir, **overrides):
    config = dict(TINY_SEARCH, dataset=str(dataset_dir / "dataset.json"))
    config.update(overrides)
    path = tmp_path / "search_config.json"
    path.write_text(json.dumps(config))
    return path


def _read_history(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


class TestGenerate:
    def test_artifacts(self, dataset_dir):
        data = json.loads((dataset_dir / "dataset.json").read_text())
        assert len(data["train"]) == 10 and len(data["eval"]) == 2
        resolved = json.loads((dataset_dir / "resolved_config.json").read_text())
        assert resolved == TINY_DATASET

    def test_seed_flag_overrides(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(TINY_DATASET))
        assert main(["generate", "--config", str(config), "--seed", "99",
                     "--out", str(tmp_path)]) == EXIT_OK
        resolved = json.loads((tmp_path / "resolved_config.json").read_text())
        assert resolved["seed"] == 99

    def test_unknown_key_exits_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scenes": 5, "typo": 1}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_dataset_file_is_the_save_dataset_file(self, tmp_path, dataset_dir):
        config = paramloss.toybench.DatasetConfig.from_json_dict(TINY_DATASET)
        path = tmp_path / "saved.json"
        paramloss.toybench.save_dataset(path, config, *paramloss.toybench.generate(config))
        assert (dataset_dir / "dataset.json").read_bytes() == path.read_bytes()

    def test_failed_dataset_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(TINY_DATASET))
        assert main(["generate", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        old = (tmp_path / "dataset.json").read_bytes()
        real_dumps, calls = json.dumps, []

        def dumps_then_fail(obj, **kwargs):
            # the config and two scenes are written, then the write fails
            calls.append(obj)
            if len(calls) > 3:
                raise OSError("disk full")
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps_then_fail)
        with pytest.raises(OSError, match="disk full"):
            main(["generate", "--config", str(config), "--seed", "99", "--out", str(tmp_path)])
        assert len(calls) == 4
        assert (tmp_path / "dataset.json").read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "dataset.json", "resolved_config.json"]


class TestSearchCommand:
    def test_artifacts_and_accounting(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "run"
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_OK
        history = _read_history(out / "history.jsonl")
        samples = [r for r in history if "reward" in r]
        rounds = [r for r in history if "mu" in r]
        assert len(samples) == 4 and len(rounds) == 2
        best = LossParams.from_json_dict(json.loads((out / "best_params.json").read_text()))
        assert best.dim == 41
        with open(out / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "best_reward"]
        assert len(rows) == 3
        assert float(rows[2][1]) >= float(rows[1][1])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["search"]["T"] == 2
        assert resolved["dataset_config"] == TINY_DATASET

    def test_same_seed_reproduces_history(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["search", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["search", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
        # wall-clock fields differ between runs; everything else is identical
        hist_a = _strip_wall(_read_history(out_a / "history.jsonl"))
        hist_b = _strip_wall(_read_history(out_b / "history.jsonl"))
        assert hist_a == hist_b
        assert (out_a / "best_params.json").read_text() == (out_b / "best_params.json").read_text()
        assert (out_a / "curve.csv").read_text() == (out_b / "curve.csv").read_text()

    def test_random_strategy_budget(self, tmp_path, dataset_dir):
        # the baseline spends the PPO2 search's budget of T x S samples
        config = _search_config_file(tmp_path, dataset_dir, T=3)
        out = tmp_path / "rand"
        assert main(["search", "--config", str(config), "--strategy", "random",
                     "--out", str(out)]) == EXIT_OK
        samples = [r for r in _read_history(out / "history.jsonl") if "reward" in r]
        assert len(samples) == 3 * TINY_SEARCH["S"]

    def test_preset_is_applied(self, tmp_path, dataset_dir):
        # config file overrides the preset bundle where both specify a key
        config = _search_config_file(tmp_path, dataset_dir, T=1, S=2, steps=2)
        out = tmp_path / "preset"
        assert main(["search", "--preset", "desk", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["search"]["T"] == 1 and resolved["search"]["steps"] == 2

    def test_all_diverged_exits_runtime(self, tmp_path, dataset_dir, monkeypatch):
        def always_diverges(params, *args, **kwargs):
            return [TrainingDivergedError(0) for _ in params]

        # the search trains each round through the lockstep trainer
        monkeypatch.setattr(paramloss.toybench, "_train_lockstep", always_diverges)
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "dead"
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_RUNTIME
        assert not (out / "best_params.json").exists()
        history = _read_history(out / "history.jsonl")
        assert all(r["diverged"] for r in history if "reward" in r)

    def test_all_unbuildable_exits_runtime(self, tmp_path, dataset_dir, monkeypatch):
        def unbuildable(config, theta):
            raise ConstraintViolationError("knots collapse")

        monkeypatch.setattr(paramloss.search, "_loss_params", unbuildable)
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "unbuildable"
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_RUNTIME
        assert not (out / "best_params.json").exists()
        history = _read_history(out / "history.jsonl")
        assert all(r["diverged"] and r["reward"] == 0.0 for r in history if "reward" in r)

    def test_trained_zero_reward_search_writes_its_best(self, tmp_path, dataset_dir,
                                                        monkeypatch):
        # every sample trains and scores 0: the search still has a best, the
        # earliest sample, and the command reports it
        monkeypatch.setattr(paramloss.toybench, "reward", lambda model, scenes: 0.0)
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "zero"
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_OK
        samples = [r for r in _read_history(out / "history.jsonl") if "reward" in r]
        assert all(r["reward"] == 0.0 and not r["diverged"] for r in samples)
        best = LossParams.from_json_dict(json.loads((out / "best_params.json").read_text()))
        assert np.array_equal(best.to_flat(), samples[0]["theta"])

    def test_unknown_config_key(self, tmp_path, dataset_dir):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"T": 2, "nope": 1}))
        assert main(["search", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", [{"T": 2.5}, {"sigma0": "0.2"},
                                          {"block_denominator": "false"}])
    def test_mistyped_value_exits_config(self, tmp_path, dataset_dir, override):
        config = _search_config_file(tmp_path, dataset_dir, **override)
        out = tmp_path / "mistyped"
        assert main(["search", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("dataset", [0, True, ["a"]], ids=["zero", "true", "list"])
    def test_non_string_dataset_exits_config(self, tmp_path, dataset):
        # in a process of its own with no stdin: unchecked, 0 read the
        # dataset from stdin and true opened the descriptor of stdout
        config = tmp_path / "c.json"
        config.write_text(json.dumps(dict(TINY_SEARCH, dataset=dataset)))
        package_root = str(Path(paramloss.cli.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {package_root!r}); import paramloss.cli; "
                "sys.exit(paramloss.cli.main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", code, "search", "--config", str(config),
                               "--out", str(tmp_path / "out")], stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG
        assert "dataset must be a string or null" in done.stderr

    def test_jobs_below_one_exits_config(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "nojobs"
        assert main(["search", "--config", str(config), "--jobs", "0",
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_budget_with_ppo2_exits_config(self, tmp_path, dataset_dir):
        # every search spends T x S samples: --budget is no option, and
        # argparse exits with the config code
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "ppo2budget"
        with pytest.raises(SystemExit) as exc:
            main(["search", "--config", str(config), "--strategy", "ppo2",
                  "--budget", "3", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()


class TestTrainEvalCommand:
    def test_substitution_smoke(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "te"
        assert main(["train-eval", "--substitution", "linear", "--config",
                     str(config), "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["reward"] <= 1.0
        assert metrics["source"] == "substitution:linear"
        assert len(metrics["per_threshold_ap"]) == 10
        assert all(0.0 <= v <= 1.0 for v in metrics["per_threshold_ap"].values())

    def test_params_file(self, tmp_path, dataset_dir):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(LossParams.identity().to_json_dict()))
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "tep"
        assert main(["train-eval", str(params_path), "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["source"] == str(params_path)
        assert metrics["lambda"] == 1.0

    def test_deterministic_reward(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        rewards = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train-eval", "--substitution", "square", "--config",
                         str(config), "--out", str(out)]) == EXIT_OK
            rewards.append(json.loads((out / "metrics.json").read_text())["reward"])
        assert rewards[0] == rewards[1]

    def test_source_exclusivity(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(LossParams.identity().to_json_dict()))
        assert main(["train-eval", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert main(["train-eval", str(params_path), "--substitution", "linear",
                     "--config", str(config), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_lambda_fixed(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "lf"
        assert main(["train-eval", "--substitution", "linear", "--lambda-fixed", "1",
                     "--config", str(config), "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["lambda"] == 1.0
        assert metrics["params"]["theta_lambda"] == 0.5
        assert main(["train-eval", "--substitution", "linear", "--lambda-fixed",
                     "50", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG

    def test_shared_params(self, tmp_path, dataset_dir):
        rng = np.random.default_rng(3)
        flat = np.clip(rng.uniform(0.2, 0.8, 41), 0.2, 0.8)
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(LossParams.from_flat(flat).to_json_dict()))
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "sp"
        assert main(["train-eval", str(params_path), "--shared-params",
                     "--config", str(config), "--out", str(out)]) == EXIT_OK
        fields = json.loads((out / "metrics.json").read_text())["params"]
        assert fields["theta2"] == fields["theta1"]
        assert fields["theta5"] == fields["theta1"]

    def test_all_ablation_flags(self, tmp_path, dataset_dir):
        params = LossParams.from_flat(np.random.default_rng(5).uniform(0.2, 0.8, 41))
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(params.to_json_dict()))
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "ablate"
        assert main(["train-eval", str(params_path), "--shared-params", "--lambda-fixed",
                     "2", "--no-block-denominator", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        expected = params.to_json_dict()
        expected.update({f"theta{k}": expected["theta1"] for k in range(2, 6)},
                        theta_lambda=(np.log10(2.0) + 1.0) / 2.0, block_denominator=False)
        assert json.loads((out / "metrics.json").read_text())["params"] == expected

    def test_no_block_denominator_flag(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "nb"
        assert main(["train-eval", "--substitution", "linear", "--no-block-denominator",
                     "--config", str(config), "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["params"]["block_denominator"] is False

    def test_substitution_uses_config_block_denominator(self, tmp_path, dataset_dir):
        config = _search_config_file(tmp_path, dataset_dir, block_denominator=False)
        out = tmp_path / "cfgnb"
        assert main(["train-eval", "--substitution", "linear", "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["params"]["block_denominator"] is False

    @pytest.mark.parametrize("loss, flags", [
        ({"M": 3, "measurement": "iou"}, []),
        ({}, ["--no-block-denominator"]),
    ], ids=["params-file", "no-block-denominator"])
    def test_resolved_config_records_the_trained_loss(self, tmp_path, dataset_dir, loss, flags):
        # the params file and --no-block-denominator override the config's
        # loss keys, so the snapshot records the loss as trained
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(LossParams.identity(**loss).to_json_dict()))
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "te"
        assert main(["train-eval", str(params_path), *flags, "--config", str(config),
                     "--out", str(out)]) == EXIT_OK
        trained = json.loads((out / "metrics.json").read_text())["params"]
        recorded = json.loads((out / "resolved_config.json").read_text())["train_eval"]
        keys = ("M", "measurement", "block_denominator")
        assert {k: recorded[k] for k in keys} == {k: trained[k] for k in keys}

    def test_flags_override_file_before_validation(self, tmp_path, dataset_dir):
        # the merged config is validated once, after --seed replaces the
        # file's invalid value
        config = _search_config_file(tmp_path, dataset_dir, seed=-1)
        out = tmp_path / "seed"
        assert main(["train-eval", "--substitution", "linear", "--seed", "2",
                     "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["seed"] == 2
        assert main(["train-eval", "--substitution", "linear", "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG

    def test_mixed_feature_widths_exit_config(self, tmp_path, capsys):
        # 20 scenes of F = 8 and 20 of F = 9 in one dataset file
        config = paramloss.toybench.DatasetConfig(scenes=20, features=8)
        scenes = []
        for width in (8, 9):
            train, eval_scenes = paramloss.toybench.generate(
                paramloss.toybench.DatasetConfig(scenes=20, features=width))
            scenes += train + eval_scenes
        data = dataset_to_json_dict(config, scenes[:32], scenes[32:])
        dataset = tmp_path / "mixed.json"
        dataset.write_text(json.dumps(data))
        search_config = tmp_path / "search_config.json"
        search_config.write_text(json.dumps(dict(TINY_SEARCH, dataset=str(dataset))))
        assert main(["train-eval", "--substitution", "linear", "--config", str(search_config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "feature widths [8, 9]" in capsys.readouterr().err

    def test_config_of_other_scenes_exits_config(self, tmp_path, capsys):
        # the file's config says 200 scenes of F = 6; it holds 20 of F = 8
        config = paramloss.toybench.DatasetConfig(features=6)
        train, eval_scenes = paramloss.toybench.generate(
            paramloss.toybench.DatasetConfig(scenes=20))
        data = dataset_to_json_dict(config, train, eval_scenes)
        dataset = tmp_path / "other.json"
        dataset.write_text(json.dumps(data))
        search_config = tmp_path / "search_config.json"
        search_config.write_text(json.dumps(dict(TINY_SEARCH, dataset=str(dataset))))
        assert main(["train-eval", "--substitution", "linear", "--config", str(search_config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config F = 6" in capsys.readouterr().err

    def test_divergence_exits_runtime(self, tmp_path, dataset_dir, monkeypatch, capsys):
        def diverges(*args, **kwargs):
            raise TrainingDivergedError(7)

        monkeypatch.setattr(paramloss.cli, "train_inner", diverges)
        config = _search_config_file(tmp_path, dataset_dir)
        assert main(["train-eval", "--substitution", "linear", "--config",
                     str(config), "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert "step 7" in capsys.readouterr().err

    def test_bad_params_schema(self, tmp_path, dataset_dir):
        params_path = tmp_path / "bad.json"
        params_path.write_text(json.dumps({"theta1": [[0.5, 0.5]]}))
        config = _search_config_file(tmp_path, dataset_dir)
        assert main(["train-eval", str(params_path), "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_string_block_denominator_exits_config(self, tmp_path, dataset_dir):
        params_path = tmp_path / "string_flag.json"
        params_path.write_text(json.dumps(
            {**LossParams.identity().to_json_dict(), "block_denominator": "false"}))
        config = _search_config_file(tmp_path, dataset_dir)
        out = tmp_path / "string_flag"
        assert main(["train-eval", str(params_path), "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestExportFunctions:
    def test_identity_curves(self, tmp_path):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(LossParams.identity().to_json_dict()))
        out = tmp_path / "exp"
        assert main(["export-functions", str(params_path), "--out", str(out)]) == EXIT_OK
        for k in range(1, 6):
            with open(out / f"f{k}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["x", "f"]
            assert len(rows) == 202
            for x_str, y_str in rows[1:]:
                assert abs(float(y_str) - float(x_str)) < 1e-12

    def test_control_points_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        params = LossParams.from_flat(rng.uniform(0.2, 0.8, 41))
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(params.to_json_dict()))
        out = tmp_path / "exp"
        assert main(["export-functions", str(params_path), "--out", str(out)]) == EXIT_OK
        control = json.loads((out / "control_points.json").read_text())
        assert control["lambda"] == lambda_from_theta(params.theta_lambda)
        for name, theta in zip(("f1", "f2", "f3", "f4", "f5"), params.thetas):
            fn = PiecewiseFn.from_points(np.array(control[name]))
            rebuilt = build(theta, params.M)
            assert np.allclose(fn.control_points, rebuilt.control_points, atol=1e-12)

    def test_bad_file(self, tmp_path):
        params_path = tmp_path / "p.json"
        params_path.write_text("{}")
        assert main(["export-functions", str(params_path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("M", 5.9), ("M", 5.0),
                                            ("theta_lambda", "0.5")])
    def test_mistyped_value_exits_config(self, tmp_path, key, value):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps({**LossParams.identity().to_json_dict(),
                                           key: value}))
        out = tmp_path / "exp"
        assert main(["export-functions", str(params_path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestCompare:
    def _write_history(self, path, rewards_by_round):
        with open(path, "w") as fh:
            for rnd, rewards in rewards_by_round.items():
                for i, r in enumerate(rewards):
                    fh.write(json.dumps({"round": rnd, "sample_index": i,
                                         "theta": [], "reward": r,
                                         "diverged": False, "wall_ms": 1.0}) + "\n")

    def test_merge(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_history(a, {1: [0.2, 0.4], 2: [0.3], 3: [0.5]})
        self._write_history(b, {1: [0.35], 2: [0.1]})
        out = tmp_path / "cmp"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == EXIT_OK
        with open(out / "comparison.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "best_a", "best_b"]
        assert rows[1] == ["1", "0.4", "0.35"]
        assert rows[2] == ["2", "0.4", "0.35"]
        assert rows[3] == ["3", "0.5", "0.35"]

    def test_missing_file(self, tmp_path):
        assert main(["compare", str(tmp_path / "x.jsonl"), str(tmp_path / "y.jsonl"),
                     "--out", str(tmp_path)]) == EXIT_CONFIG


def _fails_after_one(items):
    """The first of `items`, then an OSError, as a write cut short."""
    yield items[0]
    raise OSError("interrupted")


class TestArtifactWrites:
    def test_failed_json_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "best_params.json"
        paramloss.cli._write_json(path, {"old": 1})
        old = path.read_text()

        def partial_dump(obj, fh, **kwargs):
            fh.write('{"new"')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", partial_dump)
        with pytest.raises(OSError, match="disk full"):
            paramloss.cli._write_json(path, {"new": 2})
        assert path.read_text() == old
        assert [p.name for p in tmp_path.iterdir()] == ["best_params.json"]

    @pytest.mark.parametrize("name, write, rows", [
        ("history.jsonl", paramloss.cli._write_history, [{"round": 1}, {"round": 2}]),
        ("curve.csv", lambda path, rows: paramloss.cli._write_csv(path, ["round"], rows),
         [(1, 0.5), (2, 0.75)]),
    ], ids=["history", "curve"])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, name, write, rows):
        path = tmp_path / name
        write(path, rows[:1])
        old = path.read_text()
        with pytest.raises(OSError, match="interrupted"):
            write(path, _fails_after_one(rows[1:]))
        assert path.read_text() == old
        assert [p.name for p in tmp_path.iterdir()] == [name]
        # a write that completes replaces the file whole
        write(path, rows)
        assert path.read_text() != old
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestInputErrors:
    """A malformed file exits with the config code; an error inside the
    program is not reported as one."""

    def _broken_dataset(self, tmp_path, dataset_dir, edit):
        data = json.loads((dataset_dir / "dataset.json").read_text())
        edit(data)
        path = tmp_path / "broken_dataset.json"
        path.write_text(json.dumps(data))
        config = tmp_path / "broken_config.json"
        config.write_text(json.dumps(dict(TINY_SEARCH, dataset=str(path))))
        return config

    @pytest.mark.parametrize("text", ["{\"T\": 2,", "[1, 2]", "not json"],
                             ids=["truncated", "list", "text"])
    def test_malformed_config_exits_config(self, tmp_path, text):
        config = tmp_path / "c.json"
        config.write_text(text)
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "gen")]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("train"),
        lambda d: d["train"][0].pop("anchors"),
        lambda d: d["train"][0].__setitem__("features", [["a"] * 6] * 8),
        lambda d: d["train"][0].__setitem__("gt_boxes", [[0.1, 0.1, 0.5, 0.5], [0.2]]),
        lambda d: d.__setitem__("eval", 3),
        lambda d: d["train"][0].update(anchors=[], features=[], assignment=[], source=[]),
        lambda d: d["train"][0].__setitem__("source", [99] * 8),
    ], ids=["no-train", "no-anchors", "non-numeric", "ragged", "not-a-list",
            "zero-anchors", "source-out-of-range"])
    def test_malformed_dataset_exits_config(self, tmp_path, dataset_dir, edit):
        config = self._broken_dataset(tmp_path, dataset_dir, edit)
        for command in (["search"], ["train-eval", "--substitution", "linear"]):
            assert main([*command, "--config", str(config),
                         "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_invalid_scene_error_names_file_split_and_scene(self, tmp_path, dataset_dir,
                                                            capsys):
        def flip_first_label(d):
            scene = d["train"][1]
            scene["assignment"][0] = -1 if scene["assignment"][0] >= 0 else 0

        config = self._broken_dataset(tmp_path, dataset_dir, flip_first_label)
        assert main(["search", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'broken_dataset.json'}: train scene 1: "
            "stored assignment disagrees with the assignment rule\n")

    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_empty_split_exits_before_any_work(self, tmp_path, dataset_dir, monkeypatch,
                                               capsys, split):
        def never(*args, **kwargs):
            raise AssertionError("work started on a dataset with an empty split")

        for name in ("run_search", "random_search", "train_inner"):
            monkeypatch.setattr(paramloss.cli, name, never)

        def empty_split(d):
            # every scene in the other split, so that the config's count holds
            other = "eval" if split == "train" else "train"
            d[other] = d["train"] + d["eval"]
            d[split] = []

        config = self._broken_dataset(tmp_path, dataset_dir, empty_split)
        for command in (["search"], ["search", "--strategy", "random"],
                        ["train-eval", "--substitution", "linear"]):
            assert main([*command, "--config", str(config),
                         "--out", str(tmp_path / "out")]) == EXIT_CONFIG
            assert (f"{tmp_path / 'broken_dataset.json'}: the {split} split holds no scenes"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("theta1", [[["a", 0.5]] * 4, [[0.5, 0.5], [0.5]] * 2],
                             ids=["non-numeric", "ragged"])
    def test_malformed_params_exits_config(self, tmp_path, dataset_dir, theta1):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps({**LossParams.identity().to_json_dict(),
                                           "theta1": theta1}))
        assert main(["export-functions", str(params_path),
                     "--out", str(tmp_path / "exp")]) == EXIT_CONFIG
        config = _search_config_file(tmp_path, dataset_dir)
        assert main(["train-eval", str(params_path), "--config", str(config),
                     "--out", str(tmp_path / "te")]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["{\"round\": 1, \"reward\":", "{\"reward\": 0.5}", "[1]",
                                      "{\"round\": 1, \"reward\": \"x\"}",
                                      "{\"round\": [1], \"reward\": 0.5}"],
                             ids=["truncated", "no-round", "not-an-object", "text-reward",
                                  "list-round"])
    def test_malformed_history_exits_config(self, tmp_path, line):
        good = tmp_path / "a.jsonl"
        good.write_text(json.dumps({"round": 1, "reward": 0.2}) + "\n")
        bad = tmp_path / "b.jsonl"
        bad.write_text(line + "\n")
        assert main(["compare", str(good), str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_directory_input_exits_config(self, tmp_path, dataset_dir, capsys):
        # a directory, or a file that is not UTF-8 text, where a config,
        # params, dataset or history file goes
        folder = tmp_path / "folder"
        folder.mkdir()
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff\xfe\x00")
        config = _search_config_file(tmp_path, dataset_dir)
        history = tmp_path / "a.jsonl"
        history.write_text(json.dumps({"round": 1, "reward": 0.2}) + "\n")
        for bad, reason in ((folder, "Is a directory"), (binary, "can't decode")):
            dataset_is_bad = tmp_path / "bad_dataset.json"
            dataset_is_bad.write_text(json.dumps(dict(TINY_SEARCH, dataset=str(bad))))
            for argv in (["search", "--config", str(bad)],
                         ["search", "--config", str(dataset_is_bad)],
                         ["train-eval", str(bad), "--config", str(config)],
                         ["export-functions", str(bad)],
                         ["compare", str(history), str(bad)],
                         ["compare", str(bad), str(bad)]):
                assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"error: {bad} is not a" in err and reason in err

    def test_out_that_cannot_be_a_directory_exits_before_any_work(self, tmp_path, dataset_dir,
                                                                  monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("generate", "run_search", "random_search", "train_inner"):
            monkeypatch.setattr(paramloss.cli, name, never)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        dataset_config = tmp_path / "dataset_config.json"
        dataset_config.write_text(json.dumps(TINY_DATASET))
        config = _search_config_file(tmp_path, dataset_dir)
        params = tmp_path / "p.json"
        params.write_text(json.dumps(LossParams.identity().to_json_dict()))
        history = tmp_path / "a.jsonl"
        history.write_text(json.dumps({"round": 1, "reward": 0.2}) + "\n")
        for out in (afile, afile / "sub"):
            for argv in (["generate", "--config", str(dataset_config)],
                         ["search", "--config", str(config)],
                         ["train-eval", "--substitution", "linear", "--config", str(config)],
                         ["export-functions", str(params)],
                         ["compare", str(history), str(history)]):
                assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
                assert f"{afile} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("steps", [0, 3])
    def test_unbuildable_params_exit_config(self, tmp_path, dataset_dir, capsys, steps):
        # ratios this close to 1 collapse the knots onto x = 1: the params
        # file gives no loss, whether or not training would take a step
        top = [[float(np.nextafter(1.0, 0.0))] * 2] * 4
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps({**LossParams.identity().to_json_dict(),
                                           "theta2": top}))
        config = _search_config_file(tmp_path, dataset_dir, steps=steps)
        assert main(["train-eval", str(params_path), "--config", str(config),
                     "--out", str(tmp_path / "te")]) == EXIT_CONFIG
        assert main(["export-functions", str(params_path),
                     "--out", str(tmp_path / "exp")]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("collapse") == 2
        assert not (tmp_path / "te").exists() and not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("command", [["generate", "--seed", "-1"], ["search", "--seed", "-3"],
                                         ["train-eval", "--substitution", "linear", "--seed",
                                          "-3"]], ids=["generate", "search", "train-eval"])
    def test_negative_seed_exits_config(self, tmp_path, dataset_dir, command):
        config = _search_config_file(tmp_path, dataset_dir)
        if command[0] == "generate":
            config.write_text(json.dumps(TINY_DATASET))
        out = tmp_path / "neg"
        assert main([*command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("error", [ValueError, KeyError, DomainError, EmptyPositiveError,
                                       InvalidInputError])
    def test_internal_error_is_not_a_config_error(self, tmp_path, dataset_dir, monkeypatch,
                                                  error):
        # the package's own errors too: only a ConfigError is the input's fault
        def broken(*args, **kwargs):
            raise error("internal")

        monkeypatch.setattr(paramloss.cli, "train_inner", broken)
        config = _search_config_file(tmp_path, dataset_dir)
        # uncaught, it exits 1 with a traceback
        with pytest.raises(error, match="internal"):
            main(["train-eval", "--substitution", "linear", "--config", str(config),
                  "--out", str(tmp_path)])


def test_cli_import_loads_no_scipy():
    # scipy is a test-only reference: the runtime takes its sigmoid from numpy
    # and the normal CDF and quantile from the standard library
    package_root = str(Path(paramloss.cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {package_root!r}); import paramloss.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # a search imports the pool only for a round of more than one chunk, so a
    # start of the program at --jobs 1 does not pay for multiprocessing
    package_root = str(Path(paramloss.cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {package_root!r}); import paramloss.cli; "
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
            " or m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
