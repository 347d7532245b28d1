"""The numerics digests the CI workflow checks, recomputed in the test suite.

Each value is computed exactly as its CI step computes it, so a numerics
drift fails here as well as in CI. A change that alters the numbers on
purpose updates these digests and the CI steps' together.
"""

import hashlib

import numpy as np

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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_train_eval_metrics_digest(tmp_path):
    # the desk digest gates only the reward; this one also gates the
    # per-threshold AP that train-eval writes
    assert main(["train-eval", "--substitution", "linear", "--seed", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert _digest((tmp_path / "metrics.json").read_bytes()) == "1617d04c96935f79"


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
