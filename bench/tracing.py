"""Outside-in layer trace for dpviewsim.

The benchmark does not change the package. In a traced run it replaces
selected functions and methods, on the name each caller actually resolves,
with wrappers that record one span per call: name, start, end, parent span,
thread, and up to two counts. Spans are kept in memory; the caller writes
them out when the run is over.

A span's parent is the innermost open span of the same thread, so spans of a
thread-pool worker never become children of the main thread's spans. Self
time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

T, E, A = "timer-smj", "ep-nlj", "ant-filter-sweep"
ALL = frozenset({T, E, A})


class Span(NamedTuple):
    id: int
    name: str
    site: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for a thread's root span
    thread: int
    n: int = 0  # items, rows or compares, depending on the layer
    m: int = 0  # real entries among the n items


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, name, start, end, parent,
                                   threading.get_ident()))

    def wrap(self, fn: Callable, name: str, site: str,
             size: Callable | None = None, reals: Callable | None = None,
             from_result: Callable | None = None) -> Callable:
        """Return `fn` wrapped so that each call records a span.

        `size(*args, **kwargs)` gives the span's n before the call, or
        `from_result(result)` after it. `reals(*args, **kwargs)` gives m; it is
        counted before the span opens, inside a `trace.count` span, so the
        counting is charged to the trace and not to the layer.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, get_ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            m = 0
            if reals is not None:
                with self.span("trace.count"):
                    m = reals(*args, **kwargs)
            n = size(*args, **kwargs) if size is not None else 0
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if from_result is not None and result is not None:
                    n = from_result(result)
                spans.append(Span(sid, name, site, start, end, parent,
                                  get_ident(), n, m))

        return wrapper


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the summed durations of its child spans."""
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent:
            child_ns[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_ns[s.id] for s in spans}


def tail_percentile(samples: list[float], want: int = 99,
                    beyond: int = 10) -> tuple[int | None, float | None, int]:
    """(percentile, value, sample count) for the highest integer percentile
    up to `want` that leaves at least `beyond` samples above its
    nearest-rank position; (None, None, n) when even p1 does not.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(want, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, xs[rank - 1], n
    return None, None, n


# ---------------------------------------------------------------------------
# What is traced. Each target is (owner, attribute, layer name, workloads on
# which it must fire, counts). The owner is the module or class whose
# attribute the caller resolves at call time.

class Target(NamedTuple):
    owner: str
    attr: str
    name: str
    required: frozenset
    size: Callable | None = None
    reals: Callable | None = None
    from_result: Callable | None = None

    @property
    def site(self) -> str:
        return f"{self.owner}.{self.attr}"


def _query_rows(view, predicate=None, t=None, cache=None):
    return len(view.rows) + (len(cache) if cache is not None else 0)


def _cache_len(cache, *args, **kwargs):
    return len(cache)


def _cache_reals(cache, *args, **kwargs):
    return sum(1 for e in cache.entries if e.is_view)


def _items_len(items, *args, **kwargs):
    return len(items)


TARGETS: tuple[Target, ...] = (
    Target("harness", "synth_stream", "harness.synth_stream", ALL),
    Target("harness", "client_batches", "harness.client_batches", ALL),
    Target("harness", "run_experiment", "harness.run_experiment", ALL),
    Target("harness", "run_trials", "harness.run_trials", frozenset({A})),
    Target("harness", "query_count", "harness.query_count", ALL, size=_query_rows),
    Target("harness", "emit_metrics", "harness.emit_metrics", ALL),
    Target("harness", "transform_step", "transform.transform_step", ALL),
    Target("transform", "trans_truncate_smj", "transform.trans_truncate_smj",
           frozenset({T})),
    Target("transform", "trans_truncate_nlj", "transform.trans_truncate_nlj",
           frozenset({E})),
    Target("transform", "network_sort", "obliv.row_sort", frozenset({T, E}),
           size=_items_len),
    Target("harness", "sdp_timer_step", "shrink.sync", frozenset({T})),
    Target("harness", "sdp_ant_step", "shrink.sync", frozenset({A})),
    Target("harness", "flush_step", "shrink.flush", frozenset({T, A})),
    # Sync-time sorts resolve shrink's name; flush-time sorts (cache_flush)
    # resolve obliv's own.
    Target("shrink", "obli_sort", "obliv.obli_sort", frozenset({T, A}),
           size=_cache_len, reals=_cache_reals),
    Target("obliv", "obli_sort", "obliv.obli_sort", frozenset({T, A}),
           size=_cache_len, reals=_cache_reals),
    Target("shrink", "cache_read", "obliv.cache_read", frozenset({T, A})),
    Target("obliv", "cache_read", "obliv.cache_read", frozenset({T, A})),
    Target("obliv", "network_sort_keys", "obliv.network_sort_keys", ALL,
           from_result=lambda result: result[1]),
    Target("obliv.SecureCache", "real_count", "obliv.real_count", ALL),
    Target("shrink.MaterializedView", "real_rows", "shrink.view_real_rows", ALL),
    Target("randomness.ServerRandomness", "joint_laplace",
           "randomness.joint_laplace", frozenset({T, A})),
    Target("transform", "share_in_protocol", "sharing.share_in_protocol", ALL),
    Target("shrink", "share_in_protocol", "sharing.share_in_protocol",
           frozenset({T, A})),
    Target("leakage.Transcript", "add", "leakage.transcript_add", ALL),
)


def _resolve(modules: dict[str, object], dotted: str):
    head, *rest = dotted.split(".")
    obj = modules[head]
    for part in rest:
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, modules: dict[str, object],
            targets: tuple[Target, ...] = TARGETS) -> None:
    """Wrap every target; a target that no longer exists raises LookupError.

    `modules` maps short module names ("harness", "obliv", ...) to modules.
    """
    for t in targets:
        try:
            owner = _resolve(modules, t.owner)
            original = getattr(owner, t.attr)
        except (KeyError, AttributeError):
            raise LookupError(f"trace target {t.site} not found") from None
        setattr(owner, t.attr, tracer.wrap(original, t.name, t.site, t.size,
                                           t.reals, t.from_result))


def unfired(spans: list[Span], workload: str,
            targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Sites that must fire on this workload but recorded no span."""
    fired = {s.site for s in spans}
    return [t.site for t in targets if workload in t.required and t.site not in fired]


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same.

LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("harness.synth_stream.busy_s", "s", "lower"),
    ("harness.client_batches.busy_s", "s", "lower"),
    ("harness.run_experiment.self_s", "s", "lower"),
    ("harness.query_count.calls", "count", "lower"),
    ("harness.query_count.busy_s", "s", "lower"),
    ("harness.query_count.rows_scanned", "rows", "lower"),
    ("harness.step.p50_ms", "ms", "lower"),
    ("harness.step.p99_ms", "ms", "lower"),
    ("harness.step.p99_pct", "%", "higher"),
    ("harness.step.samples", "count", "higher"),
    ("harness.run_trials.busy_s", "s", "lower"),
    ("harness.run_trials.concurrency", "ratio", "higher"),
    ("harness.emit_metrics.busy_s", "s", "lower"),
    ("transform.transform_step.calls", "count", "lower"),
    ("transform.transform_step.busy_s", "s", "lower"),
    ("transform.transform_step.self_s", "s", "lower"),
    ("transform.trans_truncate_smj.busy_s", "s", "lower"),
    ("transform.trans_truncate_nlj.busy_s", "s", "lower"),
    ("transform.slots_out", "slots", "lower"),
    ("transform.real_fraction", "fraction", "higher"),
    ("obliv.obli_sort.calls", "count", "lower"),
    ("obliv.obli_sort.busy_s", "s", "lower"),
    ("obliv.obli_sort.self_s", "s", "lower"),
    ("obliv.obli_sort.items", "items", "lower"),
    ("obliv.obli_sort.max_items", "items", "lower"),
    ("obliv.obli_sort.real_fraction", "fraction", "higher"),
    ("obliv.row_sort.calls", "count", "lower"),
    ("obliv.row_sort.busy_s", "s", "lower"),
    ("obliv.row_sort.items", "items", "lower"),
    ("obliv.network_sort_keys.busy_s", "s", "lower"),
    ("obliv.network_sort_keys.compares", "count", "lower"),
    ("obliv.network_sort_keys.ns_per_compare", "ns", "lower"),
    ("obliv.cache_read.busy_s", "s", "lower"),
    ("obliv.real_count.calls", "count", "lower"),
    ("obliv.real_count.busy_s", "s", "lower"),
    ("shrink.sync.calls", "count", "lower"),
    ("shrink.sync.triggered", "count", "lower"),
    ("shrink.sync.busy_s", "s", "lower"),
    ("shrink.sync.self_s", "s", "lower"),
    ("shrink.sync.rows_fetched", "rows", "lower"),
    ("shrink.sync.real_fraction", "fraction", "higher"),
    ("shrink.flush.count", "count", "lower"),
    ("shrink.flush.busy_s", "s", "lower"),
    ("shrink.flush.real_lost", "rows", "lower"),
    ("shrink.view_real_rows.calls", "count", "lower"),
    ("shrink.view_real_rows.busy_s", "s", "lower"),
    ("randomness.joint_laplace.calls", "count", "lower"),
    ("randomness.joint_laplace.busy_s", "s", "lower"),
    ("sharing.share_in_protocol.calls", "count", "lower"),
    ("sharing.share_in_protocol.busy_s", "s", "lower"),
    ("leakage.transcript.events", "count", "lower"),
    ("leakage.transcript_add.busy_s", "s", "lower"),
    ("leakage.transcript_audit.busy_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


class _Agg:
    __slots__ = ("calls", "busy", "self", "n", "n_max", "m")

    def __init__(self):
        self.calls = self.busy = self.self = self.n = self.n_max = self.m = 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_time_problems(spans: list[Span], main_thread: int,
                       wall_ns: int, tolerance: float = 0.03) -> list[str]:
    """Check self times: none negative, and per thread they add up to the
    time that thread's root spans cover. On the benchmark thread that must
    match the independently timed wall time of the run.
    """
    problems = []
    selfs = self_times(spans)
    negative = [s.name for s in spans if selfs[s.id] < 0]
    if negative:
        problems.append(f"negative self time in {len(negative)} spans, e.g. {negative[0]}")
    self_sum: dict[int, int] = defaultdict(int)
    root_sum: dict[int, int] = defaultdict(int)
    for s in spans:
        self_sum[s.thread] += selfs[s.id]
        if not s.parent:
            root_sum[s.thread] += s.end - s.start
    for thread, total in self_sum.items():
        if abs(total - root_sum[thread]) > tolerance * root_sum[thread]:
            problems.append(f"thread {thread}: self times sum to {total} ns, "
                            f"root spans cover {root_sum[thread]} ns")
    main = self_sum.get(main_thread, 0)
    if abs(main - wall_ns) > tolerance * wall_ns:
        problems.append(f"benchmark-thread self times sum to {main / 1e9:.4f} s, "
                        f"wall time is {wall_ns / 1e9:.4f} s")
    return problems


def layer_metrics(spans: list[Span], results: list, audit_s: float) -> dict[str, float]:
    """Every LAYER_METRICS value except trace.overhead_frac, which needs an
    untraced run, from one traced run's spans and its ExperimentResults.
    """
    selfs = self_times(spans)
    agg: dict[str, _Agg] = defaultdict(_Agg)
    for s in spans:
        a = agg[s.name]
        a.calls += 1
        a.busy += s.end - s.start
        a.self += selfs[s.id]
        a.n += s.n
        a.n_max = max(a.n_max, s.n)
        a.m += s.m

    # Step interval: time between successive query_count calls of one run.
    starts: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s.name == "harness.query_count":
            starts[s.parent].append(s.start)
    steps_ms = []
    for run in starts.values():
        run.sort()
        steps_ms += [(b - a) / 1e6 for a, b in zip(run, run[1:])]
    pct, p_tail, n_steps = tail_percentile(steps_ms)
    _, p50, _ = tail_percentile(steps_ms, want=50, beyond=0)

    outer = agg["harness.run_trials"].busy or agg["harness.run_experiment"].busy

    slots = sum(e.size for r in results for e in r.transcript.events
                if e.kind.value == "TransformOutput" and e.server == 0)
    produced = sum(len(r.produced_rows) for r in results)
    fetched = sum(rep.size for r in results for rep in r.sync_reports)
    fetched_real = sum(sync_real_rows(r) for r in results)

    def sec(ns: int) -> float:
        return ns / 1e9

    return {
        "harness.synth_stream.busy_s": sec(agg["harness.synth_stream"].busy),
        "harness.client_batches.busy_s": sec(agg["harness.client_batches"].busy),
        "harness.run_experiment.self_s": sec(agg["harness.run_experiment"].self),
        "harness.query_count.calls": agg["harness.query_count"].calls,
        "harness.query_count.busy_s": sec(agg["harness.query_count"].busy),
        "harness.query_count.rows_scanned": agg["harness.query_count"].n,
        "harness.step.p50_ms": p50 or 0.0,
        "harness.step.p99_ms": p_tail or 0.0,
        "harness.step.p99_pct": pct or 0,
        "harness.step.samples": n_steps,
        "harness.run_trials.busy_s": sec(agg["harness.run_trials"].busy),
        "harness.run_trials.concurrency": _ratio(agg["harness.run_experiment"].busy, outer),
        "harness.emit_metrics.busy_s": sec(agg["harness.emit_metrics"].busy),
        "transform.transform_step.calls": agg["transform.transform_step"].calls,
        "transform.transform_step.busy_s": sec(agg["transform.transform_step"].busy),
        "transform.transform_step.self_s": sec(agg["transform.transform_step"].self),
        "transform.trans_truncate_smj.busy_s": sec(agg["transform.trans_truncate_smj"].busy),
        "transform.trans_truncate_nlj.busy_s": sec(agg["transform.trans_truncate_nlj"].busy),
        "transform.slots_out": slots,
        "transform.real_fraction": _ratio(produced, slots),
        "obliv.obli_sort.calls": agg["obliv.obli_sort"].calls,
        "obliv.obli_sort.busy_s": sec(agg["obliv.obli_sort"].busy),
        "obliv.obli_sort.self_s": sec(agg["obliv.obli_sort"].self),
        "obliv.obli_sort.items": agg["obliv.obli_sort"].n,
        "obliv.obli_sort.max_items": agg["obliv.obli_sort"].n_max,
        "obliv.obli_sort.real_fraction": _ratio(agg["obliv.obli_sort"].m,
                                                agg["obliv.obli_sort"].n),
        "obliv.row_sort.calls": agg["obliv.row_sort"].calls,
        "obliv.row_sort.busy_s": sec(agg["obliv.row_sort"].busy),
        "obliv.row_sort.items": agg["obliv.row_sort"].n,
        "obliv.network_sort_keys.busy_s": sec(agg["obliv.network_sort_keys"].busy),
        "obliv.network_sort_keys.compares": agg["obliv.network_sort_keys"].n,
        "obliv.network_sort_keys.ns_per_compare": _ratio(agg["obliv.network_sort_keys"].busy,
                                                         agg["obliv.network_sort_keys"].n),
        "obliv.cache_read.busy_s": sec(agg["obliv.cache_read"].busy),
        "obliv.real_count.calls": agg["obliv.real_count"].calls,
        "obliv.real_count.busy_s": sec(agg["obliv.real_count"].busy),
        "shrink.sync.calls": agg["shrink.sync"].calls,
        "shrink.sync.triggered": sum(len(r.sync_reports) for r in results),
        "shrink.sync.busy_s": sec(agg["shrink.sync"].busy),
        "shrink.sync.self_s": sec(agg["shrink.sync"].self),
        "shrink.sync.rows_fetched": fetched,
        "shrink.sync.real_fraction": _ratio(fetched_real, fetched),
        "shrink.flush.count": sum(len(r.flush_reports) for r in results),
        "shrink.flush.busy_s": sec(agg["shrink.flush"].busy),
        "shrink.flush.real_lost": sum(f.real_lost for r in results for f in r.flush_reports),
        "shrink.view_real_rows.calls": agg["shrink.view_real_rows"].calls,
        "shrink.view_real_rows.busy_s": sec(agg["shrink.view_real_rows"].busy),
        "randomness.joint_laplace.calls": agg["randomness.joint_laplace"].calls,
        "randomness.joint_laplace.busy_s": sec(agg["randomness.joint_laplace"].busy),
        "sharing.share_in_protocol.calls": agg["sharing.share_in_protocol"].calls,
        "sharing.share_in_protocol.busy_s": sec(agg["sharing.share_in_protocol"].busy),
        "leakage.transcript.events": sum(len(r.transcript) for r in results),
        "leakage.transcript_add.busy_s": sec(agg["leakage.transcript_add"].busy),
        "leakage.transcript_audit.busy_s": audit_s,
        "trace.spans": len(spans),
    }


def sync_real_rows(result) -> int:
    """Real rows that DP syncs (not flushes) moved into the final view.

    The view records one batch per append. For the DP protocols every append
    is a sync or a flush, and at one step the sync comes first, so the
    reports line up with the batches in order. Baselines have no reports.
    """
    if not result.sync_reports:
        return 0
    view = result.final_view
    events = sorted([(r.t, 0, r.size) for r in result.sync_reports] +
                    [(f.t, 1, f.size) for f in result.flush_reports])
    if [(t, size) for t, _, size in events] != view.batches:
        raise ValueError("view batches do not line up with sync and flush reports")
    real = offset = 0
    for t, kind, size in events:
        if kind == 0:
            real += sum(1 for row in view.rows[offset:offset + size] if row.is_view)
        offset += size
    return real
