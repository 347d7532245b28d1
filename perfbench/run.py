"""paramloss benchmark: one workload per run, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload desk-ppo2-serial --seed 1 --seconds 30 --trace 0

Workloads: desk-ppo2-serial, wide-batch-train (see METRICS.md for why each
exists and what each metric should respond to).
`--seed` derives the dataset seed and the search master seed. With
`--trace 0` the run is untraced and reports the end-to-end metrics; with
`--trace 1` it records spans around the program's functions and reports the
per-layer metrics. Each run checks the program's outputs. Lines describing
the environment, sample counts and checks come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Artifacts go to perfbench/out/<workload>-trace<0|1>/, which
each run replaces. The program is imported from src/ next to this
directory; without it the run exits with code 2 and prints no result.
"""

import os
import sys

# One BLAS thread per process, set before numpy loads, so that the two pool
# workers of --jobs 2 are two compute threads on two cores, not four.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-ppo2-serial", "wide-batch-train")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the operations run (whole searches repeat until then)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev():
    """The checkout's commit from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = Path("/proc/self/task")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "os_threads_after_import": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "git_rev": git_rev(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "paramloss" / "__init__.py").is_file():
        print(f"error: the paramloss sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import summary
    import workloads

    out = ROOT / "perfbench" / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, out)
    if args.trace:
        metrics = workloads.traced(run)
    else:
        metrics = workloads.end_to_end(run)
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1

    attempted, failed = summary.tally(run.outcomes)
    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "notes": run.notes,
                   **result}, fh, indent=2)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in run.notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
