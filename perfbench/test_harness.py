"""Tests of the benchmark's own arithmetic and of BENCHMARK.json's metric lists.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import spans
import summary
from summary import CHECK_FAILED, DIVERGED, ERROR, OK

ROOT = Path(__file__).resolve().parent.parent


class TestTail:
    def test_sixty_samples_give_p83_with_ten_beyond(self):
        values = [float(v) for v in range(1, 61)]
        q, value = summary.tail(values)
        assert q == 83
        assert value == 50.0
        assert sum(v > value for v in values) == 10

    def test_one_percentile_more_would_leave_fewer_than_ten_beyond(self):
        for n in range(11, 400):
            values = list(range(n))
            q, value = summary.tail(values)
            assert sum(v > value for v in values) >= 10
            # nearest rank of q + 1 already has fewer than ten beyond it
            rank_next = -(-(q + 1) * n // 100)
            assert n - rank_next < 10

    def test_order_of_samples_does_not_matter(self):
        assert summary.tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12]) == \
            summary.tail(list(range(1, 13)))

    def test_ten_or_fewer_samples_have_no_tail(self):
        assert summary.tail(list(range(10))) is None
        assert summary.tail([]) is None

    def test_eleven_samples_name_the_minimum(self):
        assert summary.tail(list(range(100, 111))) == (9, 100)


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 100) holds a [10, 40) with child c [15, 25), and b [50, 90)
        parents = [-1, 0, 1, 0]
        durations = [100, 30, 10, 40]
        assert spans.self_times(parents, durations) == [30, 20, 10, 40]

    def test_tracer_records_nesting_errors_and_counts(self):
        tracer = spans.Tracer()

        def leaf(x):
            if x < 0:
                raise ValueError("negative")
            return x

        traced_leaf = tracer.wrap("leaf", leaf, count=lambda x: 2)

        def outer():
            traced_leaf(1)
            with pytest.raises(ValueError):
                traced_leaf(-1)
            return "done"

        assert tracer.call("outer", outer) == "done"
        assert list(tracer.parents) == [-1, 0, 0]
        table = tracer.table()
        assert table["outer"]["calls"] == 1 and table["leaf"]["calls"] == 2
        assert table["leaf"]["errors"] == {"ValueError": 1}
        assert tracer.counts == {"leaf": 4}
        children = table["leaf"]["busy_s"]
        assert table["outer"]["self_s"] == pytest.approx(table["outer"]["busy_s"] - children)
        assert table["leaf"]["self_s"] == pytest.approx(children)

    def test_install_and_uninstall_restore_the_original(self):
        class Owner:
            def method(self, x):
                return x + 1

            @classmethod
            def made(cls, x):
                return x * 2

        tracer = spans.Tracer()
        original = vars(Owner)["method"]
        tracer.install(Owner, "method", "m")
        tracer.install(Owner, "made", "c")
        assert Owner().method(1) == 2 and Owner.made(3) == 6
        tracer.uninstall()
        assert vars(Owner)["method"] is original
        assert isinstance(vars(Owner)["made"], classmethod)
        assert Owner().method(1) == 2
        assert tracer.table()["m"]["calls"] == 1 and tracer.table()["c"]["calls"] == 1


class TestFailedShare:
    def test_diverged_is_not_a_failure(self):
        assert summary.tally([OK, DIVERGED, DIVERGED]) == (3, 0)
        assert summary.failed_share([OK, DIVERGED]) == 0.0

    def test_errors_and_failed_checks_count_once_each(self):
        outcomes = [OK, ERROR, CHECK_FAILED, DIVERGED]
        assert summary.tally(outcomes) == (4, 2)
        assert summary.failed_share(outcomes) == 0.5

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            summary.failed_share([])

    def test_unknown_outcome_is_rejected(self):
        with pytest.raises(ValueError):
            summary.tally([OK, "skipped"])


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    """Per-layer names come from workloads; end-to-end names from end_to_end."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: ("count" if name.endswith(".calls") else "s")
                for name in workloads.SPAN_METRICS}
    expected.update(workloads.DERIVED_METRICS)
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    import run
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
