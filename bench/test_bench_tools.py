"""Tests for the benchmark's own code: span self times, the percentile rule,
trace installation, and the correctness gate that feeds error_rate."""

import json
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import worker
from tracing import Span, Target, Tracer, self_time_problems, self_times, tail_percentile
from workloads import WORKLOADS, config_values

from dpviewsim import harness
from dpviewsim.leakage import TranscriptKind


def test_self_time_nested_spans():
    spans = [Span(1, "outer", "outer", 0, 100, 0, 7),
             Span(2, "mid", "mid", 10, 40, 1, 7),
             Span(3, "inner", "inner", 20, 30, 2, 7),
             Span(4, "mid", "mid", 50, 90, 1, 7)]
    assert self_times(spans) == {1: 30, 2: 20, 3: 10, 4: 40}
    assert self_time_problems(spans, main_thread=7, wall_ns=100) == []


def test_self_time_two_threads_do_not_nest():
    # Thread 8 runs while thread 7's outer span is open; its spans are its own.
    spans = [Span(1, "outer", "outer", 0, 100, 0, 7),
             Span(2, "root", "root", 10, 90, 0, 8),
             Span(3, "leaf", "leaf", 20, 30, 2, 8)]
    assert self_times(spans) == {1: 100, 2: 70, 3: 10}
    assert self_time_problems(spans, main_thread=7, wall_ns=100) == []


def test_self_time_problems_flags_negative_and_mismatch():
    spans = [Span(1, "outer", "outer", 0, 10, 0, 7),
             Span(2, "child", "child", 0, 20, 1, 7)]
    problems = self_time_problems(spans, main_thread=7, wall_ns=50)
    assert any("negative self time" in p for p in problems)
    assert any("wall time" in p for p in problems)


def test_live_spans_keep_one_stack_per_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf():
        barrier.wait()

    traced_leaf = tracer.wrap(leaf, "leaf", "leaf")

    def body():
        with tracer.span("root"):
            traced_leaf()

    threads = [threading.Thread(target=body) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.name == "root"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(roots) == 2 and len(leaves) == 2
    assert len({s.thread for s in roots}) == 2
    for leaf_span in leaves:
        parent = by_id[leaf_span.parent]
        assert parent.name == "root" and parent.thread == leaf_span.thread
    assert all(v >= 0 for v in self_times(tracer.spans).values())


def test_wrap_records_counts_and_reals_outside_the_span():
    tracer = Tracer()
    counted = tracer.wrap(lambda items: (sorted(items), 2 * len(items)), "sort", "m.sort",
                          size=lambda items: len(items),
                          reals=lambda items: sum(1 for x in items if x > 0))
    assert counted([3, -1, 2]) == ([-1, 2, 3], 6)
    count_span, sort_span = tracer.spans
    assert count_span.name == "trace.count" and count_span.parent == 0
    assert (sort_span.name, sort_span.site, sort_span.n, sort_span.m) == ("sort", "m.sort", 3, 2)
    assert count_span.end <= sort_span.start

    from_result = tracer.wrap(lambda k: (None, k * k), "keys", "m.keys",
                              from_result=lambda r: r[1])
    from_result(4)
    assert tracer.spans[-1].n == 16


def test_wrap_records_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom", "m.boom")()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer._stack() == []


@pytest.mark.parametrize("n, pct", [(1000, 99), (2000, 99), (999, 98), (499, 97),
                                    (100, 90), (20, 50), (19, 47)])
def test_tail_percentile_has_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))  # unsorted input
    got_pct, value, count = tail_percentile(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(1 for x in samples if x > value) >= 10
    # Nearest rank: value is the ceil(p * n / 100)-th smallest sample.
    assert value == -(-pct * n // 100)


def test_tail_percentile_too_few_samples():
    assert tail_percentile(list(range(10))) == (None, None, 10)
    assert tail_percentile([]) == (None, None, 0)


def test_install_fails_loudly_on_a_renamed_target():
    fake = SimpleNamespace(present=lambda: 1)
    targets = (Target("mod", "present", "layer.present", frozenset({"w"})),
               Target("mod", "renamed", "layer.renamed", frozenset({"w"})))
    with pytest.raises(LookupError, match="mod.renamed"):
        tracing.install(Tracer(), {"mod": fake}, targets)


def test_unfired_lists_required_targets_that_recorded_nothing():
    fake = SimpleNamespace(a=lambda: 1, b=lambda: 2)
    targets = (Target("mod", "a", "layer.a", frozenset({"w"})),
               Target("mod", "b", "layer.b", frozenset({"w"})),
               Target("mod", "b", "layer.b", frozenset({"other"})))
    tracer = Tracer()
    tracing.install(tracer, {"mod": fake}, targets[:2])
    fake.a()
    assert tracing.unfired(tracer.spans, "w", targets) == ["mod.b"]
    assert tracing.unfired(tracer.spans, "other", targets) == ["mod.b"]
    fake.b()
    assert tracing.unfired(tracer.spans, "w", targets) == []


def _small_timer_smj():
    values = {**config_values("timer-smj", 3), "horizon": "40", "f": "20"}
    return harness.run_experiment(harness.coerce_config(values))


def test_gate_passes_a_real_run_and_forged_transform_size_fails_it():
    result = _small_timer_smj()
    assert worker.check_results([result]) == []

    events = result.transcript.events
    i = next(k for k, e in enumerate(events) if e.kind is TranscriptKind.TRANSFORM_OUTPUT)
    events[i] = replace(events[i], size=events[i].size + 1)
    problems = worker.check_results([result])
    assert problems and "transform output size" in problems[0]

    reps = [{"mode": "plain", "problems": [], "sha256": "same"},
            {"mode": "plain", "problems": problems, "sha256": "same"}]
    failed = run.count_failures(reps)
    assert failed / len(reps) > 0


def test_gate_checks_record_count_and_view_rows():
    result = _small_timer_smj()
    result.metrics.pop()
    result.metrics[0] = replace(result.metrics[0], view_rows_real=result.metrics[0].view_rows_total + 1)
    problems = worker.check_results([result])
    assert any("metrics records" in p for p in problems)
    assert any("view_rows_real > view_rows_total" in p for p in problems)


def test_byte_difference_between_repetitions_counts_as_failure():
    reps = [{"mode": "plain", "problems": [], "sha256": "a"},
            {"mode": "traced", "problems": [], "sha256": "b"},
            {"mode": "plain", "problems": [], "sha256": "a"}]
    assert run.count_failures(reps) == 1


def test_layer_counts_from_a_real_run():
    result = _small_timer_smj()
    metrics = tracing.layer_metrics([], [result], audit_s=0.0)
    assert metrics["shrink.sync.triggered"] == len(result.sync_reports) == 4
    assert metrics["shrink.flush.count"] == 2
    assert metrics["transform.slots_out"] == sum(
        e.size for e in result.transcript.by_kind(TranscriptKind.TRANSFORM_OUTPUT, server=0))
    assert 0 < metrics["shrink.sync.real_fraction"] <= 1


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for target in tracing.TARGETS:
        assert target.required <= set(WORKLOADS)


def test_times_are_scaled_by_their_own_calibration():
    reports = [{"mode": "plain", "run_s": 2.0, "calib_s": 0.45, "problems": []},
               {"mode": "plain", "run_s": 3.0, "calib_s": 0.6, "problems": []},
               {"mode": "plain", "problems": ["raised"]}]
    _, ref = run.SCALING["run_s"]
    assert run.at_reference_speed(reports, "run_s") == pytest.approx(
        [2.0 * ref / 0.45, 3.0 * ref / 0.6])
    setups = [{"mode": "setup", "setup_s": 0.3, "import_calib_s": 0.1, "problems": []}]
    _, ref = run.SCALING["setup_s"]
    assert run.at_reference_speed(setups, "setup_s") == pytest.approx([0.3 * ref / 0.1])


def test_calibration_is_a_positive_time():
    assert 0 < worker.calibrate() < 30


def test_import_calibration_refuses_modules_already_loaded():
    with pytest.raises(RuntimeError, match="json"):
        worker.calibrate_imports(("json",))
