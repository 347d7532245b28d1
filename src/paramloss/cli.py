"""Command-line interface.

Subcommands:
  generate          build and save a synthetic dataset
  search            run the PPO2 parameter search (or the random baseline)
  train-eval        one inner training plus evaluation-set metrics
  export-functions  dump the five substitution curves of a parameter file
  compare           merge two search histories into a best-so-far CSV

`generate`, `search` and `train-eval` take `--config PATH` (JSON, unknown
keys rejected) and a `--seed` override, are deterministic under a fixed
seed, and write a resolved-config snapshot next to their outputs so runs can
be reproduced byte-for-byte. `export-functions` and `compare` read only the
files they are given. Every command writes to `--out`, and a failed write
leaves the file it was writing as it was.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .apmetric import COCO_THRESHOLDS
from .errors import (
    ConfigError,
    ConstraintViolationError,
    InvalidInputError,
    TrainingDivergedError,
    check_value_type,
)
from .paploss import HANDCRAFTED_KINDS, LossParams, handcrafted_substitution
from .search import (
    PRESETS,
    SearchConfig,
    best_so_far_curve,
    random_search,
    run_search,
)
from .toybench import (
    DatasetConfig,
    _reward_from,
    _scene_threshold_ap,
    generate,
    load_dataset,
    read_json,
    train_inner,
    write_dataset,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _load_json(path):
    """The JSON object in a config or params file; ConfigError otherwise."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return data


def _load_params(path):
    """LossParams from a params file; ConfigError, naming the file, for a
    file LossParams rejects (a missing key, a non-numeric or ragged theta, a
    mistyped value, collapsing knots)."""
    data = _load_json(path)
    try:
        return LossParams.from_json_dict(data)
    except (TypeError, ValueError, InvalidInputError, ConstraintViolationError) as exc:
        raise ConfigError(f"{path} is not a loss parameter file: {exc!r}") from exc


@contextmanager
def _replacing(path, newline=None):
    """A text file open for writing that replaces `path` when the block
    ends; on an error it is removed and `path` keeps what it held."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path, obj):
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_history(path, history):
    with _replacing(path) as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _write_csv(path, header, rows):
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset_for(config: SearchConfig):
    """Load the configured dataset, or build the default desk-scale one."""
    if config.dataset is not None:
        dataset_config, train_set, eval_set = load_dataset(config.dataset)
    else:
        dataset_config = DatasetConfig()
        train_set, eval_set = generate(dataset_config)
    return dataset_config, train_set, eval_set


def _resolve_config(cls, args, defaults=None, **flags):
    """cls from the defaults, then the --config file, then the non-None flags.

    Later sources override earlier ones key by key, and the merged values
    are validated once, so a file value a flag overrides is never checked.
    """
    data = {**(defaults or {}), **(_load_json(args.config) if args.config else {})}
    data.update((key, value) for key, value in flags.items() if value is not None)
    return cls.from_json_dict(data)


def cmd_generate(args) -> int:
    config = _resolve_config(DatasetConfig, args, seed=args.seed)
    train_set, eval_set = generate(config)
    out = _out_dir(args)
    with _replacing(out / "dataset.json") as fh:
        write_dataset(fh, config, train_set, eval_set)
    _write_json(out / "resolved_config.json", config.to_json_dict())
    print(f"wrote {len(train_set)} train / {len(eval_set)} eval scenes to {out / 'dataset.json'}")
    return EXIT_OK


def cmd_search(args) -> int:
    config = _resolve_config(SearchConfig, args, PRESETS.get(args.preset), seed=args.seed)
    dataset_config, train_set, eval_set = _dataset_for(config)
    strategy = run_search if args.strategy == "ppo2" else random_search
    best, history = strategy(config, dataset=(train_set, eval_set), jobs=args.jobs)
    out = _out_dir(args)
    _write_json(out / "resolved_config.json",
                {"search": config.to_json_dict(), "strategy": args.strategy,
                 "dataset_config": dataset_config.to_json_dict()})
    _write_history(out / "history.jsonl", history)
    _write_csv(out / "curve.csv", ["round", "best_reward"], best_so_far_curve(history))
    if best is None:
        print("search produced no trainable loss", file=sys.stderr)
        return EXIT_RUNTIME
    rewards = [r["reward"] for r in history if "reward" in r]
    _write_json(out / "best_params.json", best.to_json_dict())
    print(f"best reward {max(rewards):.4f} over {len(rewards)} samples; "
          f"artifacts in {out}")
    return EXIT_OK


def _train_eval_params(args, config: SearchConfig):
    """Resolve the loss parameterization: params file or handcrafted curves."""
    if (args.params is None) == (args.substitution is None):
        raise ConfigError(
            "exactly one of a params file or --substitution must be given")
    if args.params is not None:
        params = _load_params(args.params)
        functions = None
        source = str(args.params)
    else:
        params = LossParams.identity(M=config.M, measurement=config.measurement,
                                     block_denominator=config.block_denominator)
        functions = tuple(handcrafted_substitution(args.substitution) for _ in range(5))
        source = f"substitution:{args.substitution}"
    ablation = {}
    if args.shared_params:
        ablation.update(dict.fromkeys(("theta2", "theta3", "theta4", "theta5"), params.theta1))
    if args.lambda_fixed is not None:
        if not (0.1 < args.lambda_fixed < 10.0):
            raise ConfigError("--lambda-fixed must lie in (0.1, 10)")
        ablation["theta_lambda"] = float((np.log10(args.lambda_fixed) + 1.0) / 2.0)
    if args.no_block_denominator:
        ablation["block_denominator"] = False
    return replace(params, **ablation), functions, source


def cmd_train_eval(args) -> int:
    config = _resolve_config(SearchConfig, args, seed=args.seed)
    params, functions, source = _train_eval_params(args, config)
    dataset_config, train_set, eval_set = _dataset_for(config)

    try:
        model = train_inner(params, train_set, config.steps, config.seed,
                            functions=functions)
    except TrainingDivergedError as exc:
        print(f"training diverged at step {exc.step}", file=sys.stderr)
        return EXIT_RUNTIME

    by_scene = _scene_threshold_ap(model, eval_set)
    per_threshold = {f"{thr:.2f}": float(np.mean(values))
                     for thr, values in zip(COCO_THRESHOLDS, by_scene.T.tolist())}
    metrics = {
        "reward": _reward_from(by_scene),
        "per_threshold_ap": per_threshold,
        "source": source,
        "params": params.to_json_dict(),
        "lambda": params.lam,
        "steps": config.steps,
        "seed": config.seed,
    }
    # the loss keys as trained: a params file or --no-block-denominator
    # overrides the config's
    trained = {"M": params.M, "measurement": params.measurement,
               "block_denominator": params.block_denominator}
    out = _out_dir(args)
    _write_json(out / "metrics.json", metrics)
    _write_json(out / "resolved_config.json",
                {"train_eval": {**config.to_json_dict(), **trained}, "source": source,
                 "shared_params": args.shared_params,
                 "lambda_fixed": args.lambda_fixed,
                 "no_block_denominator": args.no_block_denominator,
                 "dataset_config": dataset_config.to_json_dict()})
    print(f"reward {metrics['reward']:.4f} ({source}); metrics in {out / 'metrics.json'}")
    return EXIT_OK


def cmd_export_functions(args) -> int:
    params = _load_params(args.params)
    out = _out_dir(args)
    grid = np.linspace(0.0, 1.0, 201)
    control = {}
    for k, fn in enumerate(params.functions, start=1):
        _write_csv(out / f"f{k}.csv", ["x", "f"],
                   [[repr(float(x)), repr(float(y))] for x, y in zip(grid, fn.eval(grid))])
        control[f"f{k}"] = fn.to_points()
    control["lambda"] = params.lam
    _write_json(out / "control_points.json", control)
    print(f"wrote 5 curves and control points to {out}")
    return EXIT_OK


def _history_curve(path):
    """best_so_far_curve of a history.jsonl as a dict; ConfigError for a
    directory, a file that is not text, a line that is not a JSON object,
    or a sample record whose round is not an integer or whose reward is not
    a real number."""
    try:
        with open(path) as fh:
            history = [json.loads(line) for line in fh if line.strip()]
    except (IsADirectoryError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not a search history: {exc}") from exc

    def bad_record(message):
        return ConfigError(f"{path} holds a sample record whose {message}")

    if not all(isinstance(r, dict) for r in history):
        raise ConfigError(f"{path} holds a line that is not a search record")
    for record in (r for r in history if "reward" in r):
        check_value_type("round", int, record.get("round"), bad_record)
        check_value_type("reward", float, record["reward"], bad_record)
    return dict(best_so_far_curve(history))


def cmd_compare(args) -> int:
    curve_a = _history_curve(args.history_a)
    curve_b = _history_curve(args.history_b)
    rounds = sorted(set(curve_a) | set(curve_b))
    out = _out_dir(args)
    rows, last_a, last_b = [], "", ""
    for r in rounds:
        last_a = curve_a.get(r, last_a)
        last_b = curve_b.get(r, last_b)
        rows.append([r, last_a, last_b])
    _write_csv(out / "comparison.csv", ["round", "best_a", "best_b"], rows)
    print(f"wrote {out / 'comparison.csv'} over {len(rounds)} rounds")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramloss",
        description="Parameterized detection-loss search on a synthetic benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("generate", help="build and save a synthetic dataset")
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("search", help="outer-loop parameter search")
    common(p)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--strategy", choices=("ppo2", "random"), default="ppo2")
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent inner trainings")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("train-eval", help="train once and report eval metrics")
    common(p)
    p.add_argument("params", nargs="?", default=None,
                   help="loss parameter JSON file (omit with --substitution)")
    p.add_argument("--substitution", choices=sorted(HANDCRAFTED_KINDS), default=None,
                   help="use a handcrafted substitution instead of a params file")
    p.add_argument("--no-block-denominator", action="store_true",
                   help="let gradients flow through the denominator terms")
    p.add_argument("--shared-params", action="store_true",
                   help="use the first function's parameters for all five slots")
    p.add_argument("--lambda-fixed", type=float, default=None,
                   help="force the localization gradient scale to this value")
    p.set_defaults(fn=cmd_train_eval)

    p = sub.add_parser("export-functions", help="dump substitution curves")
    p.add_argument("params", help="loss parameter JSON file")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(fn=cmd_export_functions)

    p = sub.add_parser("compare", help="merge two histories into one CSV")
    p.add_argument("history_a", help="first history.jsonl")
    p.add_argument("history_b", help="second history.jsonl")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command makes --out a directory only after its work, so a
        # path that cannot become one is refused before any
        out = Path(args.out).absolute()
        nearest = next(p for p in (out, *out.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"--out {args.out}: {nearest} is not a directory")
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        # any other error is a bug in the program, not in its input: it
        # propagates and exits 1 with its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
