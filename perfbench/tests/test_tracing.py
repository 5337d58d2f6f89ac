"""Tests of the benchmark's own span and percentile code.

    python3 -m pytest perfbench/tests -q
"""

import gzip
import math
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------


def test_tail_needs_more_samples_than_the_margin():
    assert tracing.tail(range(10)) is None
    assert tracing.tail([]) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # input order must not matter
    pct, value = tracing.tail(samples)
    assert value == 90
    assert pct == 90.0
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_lowest():
    pct, value = tracing.tail([5.0] + [9.0] * 10)
    assert value == 5.0
    assert pct == pytest.approx(100.0 / 11)


def test_tail_percentile_rises_with_sample_count():
    assert tracing.tail(range(20))[0] == 50.0
    assert tracing.tail(range(1000))[0] == 99.0


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("a1", 1, 2.0, 3.0),
             ("b", 0, 5.0, 9.0)]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 6.0), ("b", 0, 4.0, 8.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_covered_merges_touching_and_disjoint_intervals():
    assert tracing.covered([(0, 1), (1, 2), (5, 6), (5.5, 7)]) == pytest.approx(4.0)
    assert tracing.covered([]) == 0.0


def test_tracer_records_parents_and_summarizes():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 1.0

    leaf_w = tracer.wrap("leaf", leaf)
    outer_w = tracer.wrap("outer", outer)
    outer_w()
    assert tracer.spans == [("outer", -1, 0.0, 4.0), ("leaf", 0, 1.0, 2.0),
                            ("leaf", 0, 2.0, 3.0)]
    stats = tracing.summarize(tracer.spans)
    assert stats["outer"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert stats["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_benchmark_span_is_a_parent_and_closes_on_error():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    leaf = tracer.wrap("leaf", lambda: None)
    with pytest.raises(KeyError):
        with tracer.span("block"):
            leaf()
            clock.now = 2.0
            raise KeyError("x")
    assert tracer.spans == [("block", -1, 0.0, 2.0), ("leaf", 0, 0.0, 0.0)]
    leaf()
    assert tracer.spans[-1][1] == -1  # the stack unwound


def test_after_hook_sees_result_and_exception():
    seen = []
    tracer = tracing.Tracer()
    ok = tracer.wrap("ok", lambda: 7, after=lambda r, e: seen.append((r, e)))
    bad = tracer.wrap("bad", lambda: math.log(-1), after=lambda r, e: seen.append((r, e)))
    assert ok() == 7
    with pytest.raises(ValueError):
        bad()
    assert seen[0] == (7, None)
    assert seen[1][0] is None and isinstance(seen[1][1], ValueError)


# ---------------------------------------------------------------------------
# wrappers are restored
# ---------------------------------------------------------------------------


class Model:
    def log_joint(self, x):
        return 2 * x


def test_patched_wraps_then_restores_module_and_class_attributes():
    module = types.ModuleType("fake_layer")
    module.step = lambda x: x + 1
    original_step = module.step
    original_method = Model.__dict__["log_joint"]
    tracer = tracing.Tracer()
    targets = [(module, "step", "layer.step", None), (Model, "log_joint", "models.eval", None)]
    with tracer.patched(targets):
        assert module.step is not original_step
        assert Model.__dict__["log_joint"] is not original_method
        assert module.step(1) == 2
        assert Model().log_joint(3) == 6
    assert module.step is original_step
    assert Model.__dict__["log_joint"] is original_method
    assert [s[0] for s in tracer.spans] == ["layer.step", "models.eval"]
    module.step(1)
    assert len(tracer.spans) == 2  # unpatched calls record nothing


def test_patched_restores_when_the_body_raises():
    module = types.ModuleType("fake_layer")
    module.step = lambda: None
    original = module.step
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(module, "step", "layer.step", None)]):
            raise RuntimeError("boom")
    assert module.step is original


def test_patched_restores_earlier_targets_when_a_later_one_is_missing():
    module = types.ModuleType("fake_layer")
    module.step = lambda: None
    original = module.step
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.patched([(module, "step", "layer.step", None),
                             (module, "missing", "layer.missing", None)]):
            pass
    assert module.step is original


def test_write_emits_one_row_per_span_from_first(tmp_path):
    tracer = tracing.Tracer()
    tracer.wrap("a", lambda: None)()
    tracer.wrap("b", lambda: None)()
    path = tmp_path / "spans.csv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "id,parent,name,start_s,end_s"
    assert rows[1].startswith("0,-1,a,")
    assert len(rows) == 3
    tracer.write(path, first=1)
    with gzip.open(path, "rt") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 2 and rows[1].startswith("1,-1,b,")
