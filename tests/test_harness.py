import dataclasses
import gc
import io
import itertools
import json

import numpy as np
import pytest

from dpviewsim import harness
from dpviewsim.harness import (_BURST_ON, _BURST_PERIOD, CapacityExceeded,
                               ConfigError, ExperimentConfig, MetricsRecord,
                               ParseError, Profile, Protocol,
                               client_batches, coerce_config, emit_metrics,
                               load_stream, parse_config_file, query_count,
                               read_metrics, run_experiment, run_trials,
                               synth_stream, true_count, validate_config)
from dpviewsim.leakage import LogicalStream, StreamRecord
from dpviewsim.shrink import MaterializedView
from dpviewsim.transcript import TranscriptKind
from dpviewsim.transform import OperatorKind
from test_golden import hot_key_config


# ---------------------------------------------------------------------------
# Stream loading.

def test_load_stream_basic(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,key,a\n1,7,0\n")
    s = load_stream(str(p))
    assert s.arrivals == [StreamRecord(1, 7, (0,))]
    assert s.horizon == 1


def test_load_stream_empty_with_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,key,a\n")
    s = load_stream(str(p))
    assert s.arrivals == [] and s.horizon == 0


def test_load_stream_sorts_stably(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,key,a\n3,1,0\n1,2,0\n3,3,0\n2,4,0\n")
    s = load_stream(str(p))
    assert [r.t for r in s.arrivals] == [1, 2, 3, 3]
    assert [r.key for r in s.arrivals] == [2, 4, 1, 3]  # ties keep file order


def test_load_stream_missing_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1,7,0\n")
    with pytest.raises(ParseError) as err:
        load_stream(str(p))
    assert err.value.line == 1


def test_load_stream_non_integer_field(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,key,a\n1,7,0\n2,x,0\n")
    with pytest.raises(ParseError) as err:
        load_stream(str(p))
    assert err.value.line == 3


def test_load_stream_wrong_arity(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("t,key,a\n1,7\n")
    with pytest.raises(ParseError):
        load_stream(str(p))


# ---------------------------------------------------------------------------
# Owner batches.

def make_stream(times):
    return LogicalStream([StreamRecord(t, i + 1, (1,)) for i, t in enumerate(times)],
                         max(times) if times else 0)


def test_client_batches_hold_each_step_s_arrivals():
    # Each batch is its step's reals; the upload's other c_r - len(batch)
    # slots are padding, which is a count and is not built.
    s = make_stream([2, 2, 2])
    batches = client_batches(s, c_r=5, horizon=3, seqs=itertools.count(0))
    assert [len(b) for b in batches] == [0, 3, 0]
    assert all(t.is_view and t.timestamp == 2 for t in batches[1])


def test_client_batches_capacity_exceeded():
    s = make_stream([1, 1, 1, 1, 1, 1])
    with pytest.raises(CapacityExceeded):
        client_batches(s, c_r=5, horizon=2, seqs=itertools.count(0))


def test_client_batches_unique_seqs():
    s = make_stream([1, 2, 2, 3])
    batches = client_batches(s, c_r=4, horizon=3, seqs=itertools.count(100))
    rows = [t for b in batches for t in b]
    assert [(t.seq, t.timestamp) for t in rows] == [(100, 1), (101, 2), (102, 2), (103, 3)]
    assert all(t.is_view for t in rows)


# ---------------------------------------------------------------------------
# Synthetic workloads.

def test_synth_calibration_over_seeds():
    ratios_sparse, ratios_burst = [], []
    for seed in range(20):
        std = true_count(*synth_stream(Profile.STANDARD, seed, 400, cap=12),
                         OperatorKind.SMJ, 400)
        sparse = true_count(*synth_stream(Profile.SPARSE, seed, 400, cap=12),
                            OperatorKind.SMJ, 400)
        burst = true_count(*synth_stream(Profile.BURST, seed, 400, cap=12),
                           OperatorKind.SMJ, 400)
        ratios_sparse.append(sparse / std)
        ratios_burst.append(burst / std)
    assert abs(np.mean(ratios_sparse) - 0.1) < 0.01   # 10% +- 10% of 0.1
    assert abs(np.mean(ratios_burst) - 2.0) < 0.2     # 2x +- 10%


def _synth_stream_per_record(profile, seed, horizon, multiplicity=1,
                             pairs_per_step=2.5, cap=5):
    """Reference synth_stream: one scalar attribute draw per record."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    group_rate = pairs_per_step / multiplicity
    if profile is Profile.SPARSE:
        group_rate *= 0.1
    noise_rate = min(0.5, group_rate * 0.2)
    pend_a, pend_b = {}, {}
    next_key = 1

    def scheduled_groups(t):
        if profile is Profile.BURST:
            if (t - 1) % _BURST_PERIOD >= _BURST_ON:
                return 0
            return int(rng.poisson(2 * group_rate * _BURST_PERIOD / _BURST_ON))
        return int(rng.poisson(group_rate))

    for t in range(1, horizon + 1):
        for _ in range(scheduled_groups(t)):
            key = next_key
            next_key += 1
            pend_a.setdefault(t, []).append(
                StreamRecord(t, key, (1, int(rng.integers(1000)))))
            for i in range(multiplicity):
                bt = t + (i % 2)
                pend_b.setdefault(bt, []).append(
                    StreamRecord(bt, key, (1, int(rng.integers(1000)))))
        if rng.random() < noise_rate:
            pend_a.setdefault(t, []).append(
                StreamRecord(t, (1 << 30) + next_key, (0, int(rng.integers(1000)))))
            next_key += 1
        if rng.random() < noise_rate:
            pend_b.setdefault(t, []).append(
                StreamRecord(t, (1 << 31) + next_key, (0, int(rng.integers(1000)))))
            next_key += 1

    def drain(pending):
        out, carry = [], []
        for t in range(1, horizon + 1):
            queue = carry + pending.get(t, [])
            take, carry = queue[:cap], queue[cap:]
            out.extend(StreamRecord(t, r.key, r.attrs) for r in take)
        return out

    return drain(pend_a), drain(pend_b)


@pytest.mark.parametrize("multiplicity", [1, 2, 3])
@pytest.mark.parametrize("profile", list(Profile))
def test_synth_block_draws_match_per_record_draws(profile, multiplicity):
    for cap in (5, 12):
        for seed in range(5):
            want = _synth_stream_per_record(profile, seed, 150, multiplicity, cap=cap)
            a, b = synth_stream(profile, seed, 150, multiplicity, cap=cap)
            assert (a.arrivals, b.arrivals) == want
            # Without B's records, B's draws are still made: A is unchanged.
            a, b = synth_stream(profile, seed, 150, multiplicity, cap=cap, right=False)
            assert a.arrivals == want[0] and b is None
    a, b = synth_stream(profile, 0, 0, multiplicity)
    assert (a.arrivals, b.arrivals) == _synth_stream_per_record(profile, 0, 0, multiplicity)


@pytest.mark.parametrize("operator", list(OperatorKind))
def test_run_builds_owner_b_only_for_joins(monkeypatch, operator):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["right"])
        return synth_stream(*args, **kwargs)

    monkeypatch.setattr(harness, "synth_stream", recording)
    run_experiment(ExperimentConfig(operator=operator, horizon=10))
    assert calls == [operator is not OperatorKind.FILTER]


def test_synth_zero_horizon():
    a, b = synth_stream(Profile.STANDARD, 1, 0)
    assert a.arrivals == [] and b.arrivals == []


def test_synth_multiplicity_groups():
    a, b = synth_stream(Profile.STANDARD, 3, 200, multiplicity=4, cap=12)
    from collections import Counter
    # groups started near the horizon may lose partners past the edge
    interior = {r.key for r in a.arrivals if r.attrs[0] == 1 and r.t <= 190}
    per_key = Counter(r.key for r in b.arrivals
                      if r.attrs[0] == 1 and r.key in interior)
    assert per_key and set(per_key.values()) == {4}


def test_synth_respects_cap():
    for profile in Profile:
        a, b = synth_stream(profile, 5, 300, cap=5)
        for s in (a, b):
            per_step = np.bincount([r.t for r in s.arrivals], minlength=301)
            assert per_step.max() <= 5


# ---------------------------------------------------------------------------
# Config machinery.

def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(omega=0))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(omega=11, b=10))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(protocol=Protocol.DP_TIMER, epsilon=-1))
    with pytest.raises(ConfigError):
        validate_config(ExperimentConfig(protocol=Protocol.DP_ANT, theta=0))


def test_coerce_config_types_and_unknown_keys(tmp_path):
    cfg = coerce_config({"protocol": "DPANT", "epsilon": "0.5", "horizon": "100",
                         "scan_cache": "true", "operator": "Filter"})
    assert cfg.protocol is Protocol.DP_ANT
    assert cfg.epsilon == 0.5 and cfg.horizon == 100 and cfg.scan_cache
    assert cfg.operator is OperatorKind.FILTER
    with pytest.raises(ConfigError):
        coerce_config({"nope": "1"})
    with pytest.raises(ConfigError):
        coerce_config({"horizon": "ten"})
    with pytest.raises(ConfigError):
        coerce_config({"protocol": "Nope"})


def test_parse_config_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# comment\nprotocol = DPTimer\nhorizon=50\n\nseed=9 # inline\n")
    values = parse_config_file(str(p))
    assert values == {"protocol": "DPTimer", "horizon": "50", "seed": "9"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("horizon 50\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


# ---------------------------------------------------------------------------
# Experiments.

def test_ep_zero_error_with_ample_bound():
    cfg = ExperimentConfig(protocol=Protocol.EP, operator=OperatorKind.SMJ,
                           horizon=120, seed=3, omega=1, b=10)
    res = run_experiment(cfg)
    assert all(m.l1_error == 0 for m in res.metrics)
    assert res.metrics[-1].view_rows_total > 10 * res.metrics[-1].view_rows_real


def test_otm_relative_error_tends_to_one():
    cfg = ExperimentConfig(protocol=Protocol.OTM, operator=OperatorKind.SMJ,
                           horizon=150, seed=4)
    res = run_experiment(cfg)
    assert res.metrics[-1].relative_error > 0.9
    rels = [m.relative_error for m in res.metrics]
    assert rels[-1] >= rels[len(rels) // 2]


def test_nm_zero_error_superlinear_cost():
    cfg = ExperimentConfig(protocol=Protocol.NM, operator=OperatorKind.SMJ,
                           horizon=160, seed=5)
    res = run_experiment(cfg)
    assert all(m.l1_error == 0 for m in res.metrics)
    c80 = res.metrics[79].cost_proxy
    c160 = res.metrics[159].cost_proxy
    assert c160 > 2.5 * c80  # quadratic-ish growth in the comparison count


def test_error_attribution_identity_independent_oracle():
    # l1 == deferred reals + truncation-discarded reals, with "discarded"
    # recomputed from a brute-force pair oracle rather than the metric field.
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ,
                           horizon=80, seed=6, omega=1, b=10, f=10_000)
    res = run_experiment(cfg)
    a, b = synth_stream(cfg.profile, cfg.seed, cfg.horizon,
                        cfg.multiplicity, cap=cfg.c_r)
    for m in res.metrics:
        truth = true_count(a, b, cfg.operator, m.time)
        produced = sum(1 for row in res.produced_rows if row.timestamp <= m.time)
        independent_discarded = truth - produced
        assert m.l1_error == m.deferred_real + independent_discarded
        assert m.discarded_by_truncation == independent_discarded


def test_scan_cache_eliminates_deferral_error():
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ,
                           horizon=80, seed=7, omega=1, b=10, f=10_000,
                           scan_cache=True)
    res = run_experiment(cfg)
    assert all(m.l1_error == 0 for m in res.metrics)
    # scanning the padded cache costs extra
    plain = run_experiment(ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ, horizon=80,
        seed=7, omega=1, b=10, f=10_000))
    assert res.metrics[-1].cost_proxy > plain.metrics[-1].cost_proxy


def test_view_rows_monotone_and_counter_reset():
    cfg = ExperimentConfig(protocol=Protocol.DP_ANT, operator=OperatorKind.FILTER,
                           horizon=100, seed=8, theta=10.0)
    res = run_experiment(cfg)
    totals = [m.view_rows_total for m in res.metrics]
    assert totals == sorted(totals)
    assert res.sync_reports, "expected at least one trigger"


def test_real_count_conservation():
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.SMJ,
                           horizon=120, seed=9, f=40, s=5)
    res = run_experiment(cfg)
    produced = len(res.produced_rows)
    in_view = res.final_view.real_rows()
    in_cache = res.final_cache.real_count()
    lost = sum(r.real_lost for r in res.flush_reports)
    assert produced == in_view + in_cache + lost


def test_determinism_same_seed():
    cfg = ExperimentConfig(protocol=Protocol.DP_ANT, operator=OperatorKind.SMJ,
                           horizon=60, seed=10)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.metrics == r2.metrics
    assert r1.transcript.events == r2.transcript.events


def test_transcript_event_contract():
    # The bench gate test swaps one event of a run for a dataclasses.replace
    # copy and compares the events of two runs of one config.
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
                           horizon=20, seed=4)
    result = run_experiment(cfg)
    transcript = result.transcript
    adds = result.metrics[-1].transcript_events
    assert len(transcript) == adds
    events = transcript.events
    assert len(events) == adds
    event = events[0]
    assert dataclasses.is_dataclass(event)
    assert type(event).__slots__ == tuple(f.name for f in dataclasses.fields(event))
    assert not hasattr(event, "__dict__")
    bigger = dataclasses.replace(event, size=event.size + 1)
    assert dataclasses.astuple(bigger) == (event.time, event.server, event.kind,
                                           event.size + 1, event.share_value)
    assert run_experiment(cfg).transcript.events == events
    # Events are built on the first read and kept: every read returns the same
    # list, so an event replaced in it stays replaced.
    events[0] = bigger
    assert transcript.events is events and transcript.events[0] is bigger
    later = [(21, 0, TranscriptKind.SYNC_BATCH, 3, None),
             (21, 1, TranscriptKind.SHARE_RECEIVED, 0, 7)]
    for row in later:
        transcript.add(*row)
    assert len(transcript) == adds + 2
    assert transcript.events is events and events[0] is bigger
    assert [dataclasses.astuple(e) for e in events[adds:]] == later


def test_run_trials_merged_by_index():
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
                           horizon=30, seed=100)
    results = run_trials(cfg, trials=3)
    assert [r.config.seed for r in results] == [100, 101, 102]
    solo = run_experiment(ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
        horizon=30, seed=101))
    assert results[1].metrics == solo.metrics


# ---------------------------------------------------------------------------
# The collector pause around a run.

@pytest.fixture
def gc_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("source", [p.value for p in Profile] + ["hot-keys"])
@pytest.mark.parametrize("operator", list(OperatorKind))
@pytest.mark.parametrize("protocol", list(Protocol))
def test_run_builds_no_reference_cycles(protocol, operator, source, tmp_path, gc_restored):
    # The pause is safe only if reference counting frees all of a run: a
    # cycle would stay in memory until the caller's collector ran again.
    config = ExperimentConfig(protocol=protocol, operator=operator, horizon=60,
                              f=20, s=5, omega=2, b=5, seed=3)
    if source == "hot-keys":
        config = hot_key_config(config, tmp_path)
    else:
        config = dataclasses.replace(config, profile=Profile(source))
    gc.collect()
    gc.disable()
    results = run_trials(config, 2)
    assert len(results) == 2
    del results
    assert gc.collect() == 0


def test_run_starts_no_collector_pass(gc_restored):
    config = ExperimentConfig(protocol=Protocol.DP_ANT, operator=OperatorKind.FILTER,
                              profile=Profile.BURST, c_r=12, f=500, horizon=1000, seed=1)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(hook)
    try:
        run_experiment(config)
    finally:
        gc.callbacks.remove(hook)
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(enabled, tmp_path, gc_restored):
    threshold = gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    run_experiment(ExperimentConfig(horizon=20))
    assert gc.isenabled() is enabled
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(omega=3, b=2))
    assert gc.isenabled() is enabled
    path = tmp_path / "a.csv"
    path.write_text("t,key,a\n" + "1,7,1\n" * 6)  # c_r + 1 arrivals in step 1
    with pytest.raises(CapacityExceeded):
        run_experiment(ExperimentConfig(operator=OperatorKind.FILTER, c_r=5, horizon=2,
                                        stream_a=str(path)))
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == threshold


# ---------------------------------------------------------------------------
# Queries.

def test_query_count_empty_view():
    assert query_count(MaterializedView()) == 0


def test_true_count_brute_force_filter():
    s = LogicalStream([StreamRecord(1, 1, (1,)), StreamRecord(2, 2, (0,)),
                       StreamRecord(3, 3, (1,))], 3)
    assert true_count(s, None, OperatorKind.FILTER, 1) == 1
    assert true_count(s, None, OperatorKind.FILTER, 3) == 2


def test_true_count_brute_force_join():
    a = LogicalStream([StreamRecord(1, 5, (1,)), StreamRecord(2, 6, (1,))], 3)
    b = LogicalStream([StreamRecord(1, 5, (1,)), StreamRecord(3, 5, (1,))], 3)
    assert true_count(a, b, OperatorKind.SMJ, 1) == 1
    assert true_count(a, b, OperatorKind.SMJ, 3) == 2


@pytest.mark.parametrize("operator", [OperatorKind.SMJ, OperatorKind.NLJ])
def test_true_count_join_without_right_stream_raises(operator):
    # An explicit raise, so the check also holds under python -O.
    a = LogicalStream([StreamRecord(1, 5, (1,))], 3)
    with pytest.raises(ValueError, match="right-hand stream"):
        true_count(a, None, operator, 1)


def test_true_count_matches_nested_loop_on_synthetic_streams():
    # Multiplicity 3 gives keys with several right-side matches.
    for profile in Profile:
        a, b = synth_stream(profile, 3, 120, multiplicity=3, cap=12)
        for t in (1, 37, 120):
            pairs = sum(1 for x in a.arrivals if x.t <= t
                        for y in b.arrivals if y.t <= t and x.key == y.key)
            assert true_count(a, b, OperatorKind.NLJ, t) == pairs


# ---------------------------------------------------------------------------
# Metrics files.

def test_metrics_round_trip(tmp_path):
    records = [MetricsRecord(1, 0.0, 0.0, 3, 2, 1, 0, 17, 6),
               MetricsRecord(2, 2.5, 0.5, 4, 2, 2, 1, 23, 12)]
    path = tmp_path / "m.jsonl"
    emit_metrics(records, str(path))
    assert read_metrics(str(path)) == records
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["l1_error"] == 0.0


def test_metrics_bytes_deterministic(tmp_path):
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
                           horizon=40, seed=11)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit_metrics(run_experiment(cfg).metrics, str(p1))
    emit_metrics(run_experiment(cfg).metrics, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _json_lines(records) -> str:
    return "".join(json.dumps(vars(rec), separators=(",", ":")) + "\n" for rec in records)


@pytest.mark.parametrize("protocol,operator", [
    (Protocol.DP_TIMER, OperatorKind.SMJ), (Protocol.DP_ANT, OperatorKind.FILTER),
    (Protocol.EP, OperatorKind.NLJ), (Protocol.OTM, OperatorKind.SMJ),
    (Protocol.NM, OperatorKind.NLJ)])
def test_emit_metrics_matches_json_dumps_on_real_runs(protocol, operator):
    records = run_experiment(ExperimentConfig(protocol=protocol, operator=operator,
                                              horizon=60, f=20, s=5, seed=4)).metrics
    out = io.StringIO()
    emit_metrics(records, out)
    assert out.getvalue() == _json_lines(records)


def test_emit_metrics_matches_json_dumps_on_edge_values():
    records = [MetricsRecord(t, x, y, 2 ** 53 + 1, -3, -(2 ** 70), 0, 10 ** 20, -1)
               for t, (x, y) in enumerate([(0.0, -0.0), (1e16, 1e-7), (0.1 + 0.2, 1 / 3),
                                           (1e300, 5e-324), (2.5, 123456789.125)])]
    out = io.StringIO()
    emit_metrics(records, out)
    assert out.getvalue() == _json_lines(records)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_metrics_record_rejects_non_finite_floats(value):
    # json.dumps would write NaN or Infinity, which is not JSON, so no such
    # record reaches emit_metrics.
    with pytest.raises(ValueError, match="NaN or infinite"):
        MetricsRecord(1, 0.0, value, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="NaN or infinite"):
        MetricsRecord(1, value, 0.0, 0, 0, 0, 0, 0, 0)
