"""In-memory spans recorded around calls into the program's functions.

A Tracer replaces an attribute that callers look up at call time (a
module-level binding such as `toybench.loss_forward`, or a method on a
class such as `PiecewiseFn.eval`) with a wrapper that records one span per
call: name, start and end (`perf_counter_ns`), the index of the enclosing
span, and the exception type when the call raised. Spans are kept in flat
arrays while the benchmark runs and written out once at the end.

Everything traced runs on the benchmark's main thread, so spans nest
strictly: a span's parent is the innermost span still open when it starts,
and the children of one span never overlap each other.
"""

import functools
import gzip
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.errors = {}  # span index -> exception type name
        self.counts = {}  # span name -> summed count reported at the boundary
        self._open = []
        self._patched = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped to record a span; count(*args) adds to counts[name]."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        errors, counts, open_spans = self.errors, self.counts, self._open
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[name] = counts.get(name, 0) + count(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[index] = type(exc).__name__
                raise
            finally:
                ends[index] = now()
                open_spans.pop()

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, owner, attr, name, count=None):
        """Replace owner.attr (module or class attribute) by a traced wrapper."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def table(self):
        """Per span name: calls, busy_s (summed span time), self_s, errors."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = self_times(self.parents, durations)
        rows = {}
        for index, name in enumerate(self.names):
            row = rows.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "errors": {}})
            row["calls"] += 1
            row["busy_s"] += durations[index] / 1e9
            row["self_s"] += own[index] / 1e9
            error = self.errors.get(index)
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return rows

    def write(self, path):
        """Write every span as gzip CSV: index,name,parent,start_ns,end_ns,error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,parent,start_ns,end_ns,error\n")
            for index, name in enumerate(self.names):
                fh.write(f"{index},{name},{self.parents[index]},{self.starts[index]},"
                         f"{self.ends[index]},{self.errors.get(index, '')}\n")


def self_times(parents, durations):
    """A span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    summed duration is exactly the part of the parent's interval they cover.
    """
    own = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[index]
    return own
