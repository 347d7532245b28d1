"""The benchmark's own arithmetic: the tail rule and failure counting."""

import math

# per-operation outcomes; only the last two are failures. A diverged or
# unbuildable sample is a deterministic result of its parameters, scored 0
# by the search, so it is not a failure of the program.
OK, DIVERGED, ERROR, CHECK_FAILED = "ok", "diverged", "error", "check_failed"
FAILURES = (ERROR, CHECK_FAILED)

TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """(q, value): the highest whole percentile with >= `beyond` samples above it.

    The value is the nearest-rank q-th percentile, the sample at rank
    ceil(q n / 100) in ascending order, so at least `beyond` samples rank
    above it. Returns None when there are `beyond` samples or fewer.
    """
    n = len(values)
    if n <= beyond:
        return None
    q = 100 * (n - beyond) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(values)[rank - 1]


def tally(outcomes):
    """(attempted, failed) over per-operation outcomes."""
    unknown = set(outcomes) - {OK, DIVERGED, ERROR, CHECK_FAILED}
    if unknown:
        raise ValueError(f"unknown outcomes {sorted(unknown)}")
    return len(outcomes), sum(1 for o in outcomes if o in FAILURES)


def failed_share(outcomes):
    attempted, failed = tally(outcomes)
    if attempted == 0:
        raise ValueError("no operation was attempted")
    return failed / attempted
