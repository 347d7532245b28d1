"""Every numerics digest the program produces on its own, pinned once.

This file is the one place a change that alters the numbers on purpose
re-pins them. The only digests kept elsewhere are the desk search's
`bb8883672db2a641` and `81959b2e82977b67`, which CI checks in the traced
benchmark run, because only the benchmark's seed rule produces them.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paramloss
from paramloss.cli import EXIT_OK, main
from paramloss.paploss import LossParams
from paramloss.search import sample_truncnorm
from paramloss.toybench import (
    DatasetConfig,
    _scene_threshold_ap,
    generate,
    load_dataset,
    reward,
    save_dataset,
    train_inner,
)

# history.jsonl minus wall_ms of a search on the default dataset; the pool
# path (--jobs 2) must give the serial digest
SEARCH_DIGESTS = {"ppo2": "602b3d5b65970ddb", "random": "87b5875986eb05c1"}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_train_eval_metrics_digest(tmp_path):
    # the search digests gate only the reward; this one also gates the
    # per-threshold AP that train-eval writes. It runs in a fresh interpreter
    # with scipy blocked, so it also checks that the program needs only numpy,
    # and a RuntimeWarning fails it as it fails the tests run in-process
    package_root = str(Path(paramloss.__file__).parents[1])
    code = ("import sys; sys.modules['scipy'] = None; "
            f"sys.path.insert(0, {package_root!r}); from paramloss import cli; "
            "sys.exit(cli.main(['train-eval', '--substitution', 'linear', '--seed', '1', "
            "'--out', sys.argv[1]]))")
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           str(tmp_path)], capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert _digest((tmp_path / "metrics.json").read_bytes()) == "1617d04c96935f79"


@pytest.mark.parametrize("strategy, jobs", [("ppo2", 1), ("ppo2", 2), ("random", 1)])
def test_search_history_digests(tmp_path, strategy, jobs):
    # gates a whole search: the lockstep chunk of 4, the stacked shape
    # functions, the truncated-normal proposals, the PPO2 update and, at
    # --jobs 2, the pool
    config = tmp_path / "search.json"
    config.write_text(json.dumps({"T": 3, "S": 4, "steps": 40}))
    out = tmp_path / "out"
    assert main(["search", "--config", str(config), "--seed", "1", "--strategy", strategy,
                 "--jobs", str(jobs), "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
    stripped = [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]
    assert _digest(json.dumps(stripped, sort_keys=True).encode()) == SEARCH_DIGESTS[strategy]


def test_dataset_file_digest(tmp_path):
    # gates the generator and the dataset writer together: one changed
    # scene value or one changed byte of the format fails here. The file
    # read back and written again gates the reader's fidelity too
    config = DatasetConfig(seed=1)
    path = tmp_path / "dataset.json"
    save_dataset(path, config, *generate(config))
    assert _digest(path.read_bytes()) == "82e209859ff3020f"
    again = tmp_path / "again.json"
    save_dataset(again, *load_dataset(path))
    assert _digest(again.read_bytes()) == "82e209859ff3020f"


def test_wide_training_digests():
    # N = 1024 reaches the loss's sorted path, which the N = 128 digests
    # never do: unblocked, so all five pair sums are used, then blocked, as
    # the wide-batch-train workload trains
    train, eval_scenes = generate(DatasetConfig(seed=1))
    theta = sample_truncnorm(LossParams.identity().to_flat(), 0.2, np.random.default_rng(1))
    got = []
    for params in (LossParams.from_flat(theta, block_denominator=False),
                   LossParams.from_flat(theta)):
        model = train_inner(params, train, 20, seed=1, batch_scenes=64)
        got += [_digest(model.to_vector().tobytes()),
                _digest(_scene_threshold_ap(model, eval_scenes).tobytes()),
                repr(reward(model, eval_scenes))]
    assert got == ["7f9cc1bd750a478b", "394c0914ed636d7a", "0.3459460955710957",
                   "9446fce4e1ad38c3", "593bdde4c6e72b0c", "0.3690914502164502"]
