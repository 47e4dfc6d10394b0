import bisect
import dataclasses
import gc
import inspect
import io
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpviewsim import harness, shrink
from dpviewsim.harness import (_BURST_ON, _BURST_PERIOD, CapacityExceeded,
                               ConfigError, ExperimentConfig, MetricsRecord,
                               ParseError, Profile, Protocol, RunState,
                               client_batches, coerce_config, emit_metrics,
                               load_stream, parse_config_file, query_count,
                               run_experiment, run_trials, synth_stream,
                               validate_config)
from dpviewsim.leakage import LogicalStream, StreamRecord
from dpviewsim.obliv import SecureTuple, cache_flush, network_sort, obli_sort
from dpviewsim.randomness import ServerRandomness
from dpviewsim.sharing import recover
from dpviewsim.shrink import (MaterializedView, flush_step, sdp_ant_step, sdp_timer_step,
                              zero_counter)
from dpviewsim.transcript import Transcript, TranscriptKind
from dpviewsim.transform import (OperatorKind, step_sizes, trans_truncate_nlj,
                                 trans_truncate_smj, transform_step)
from oracles import true_count
from test_golden import hot_key_config
from test_transform import charge_joins


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
    p.write_text("")
    with pytest.raises(ParseError, match="missing header$") as err:
        load_stream(str(p))
    assert err.value.line == 1


def test_load_stream_bad_header(tmp_path):
    p = tmp_path / "s.csv"
    p.write_text("1,7,0\n")
    with pytest.raises(ParseError, match="header must start with 't,key', got '1,7,0'$") as err:
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
    assert all(t.timestamp == 2 for t in batches[1])


def test_client_batches_capacity_exceeded():
    s = make_stream([1, 1, 1, 1, 1, 1])
    with pytest.raises(CapacityExceeded):
        client_batches(s, c_r=5, horizon=2, seqs=itertools.count(0))


def test_client_batches_drop_arrivals_outside_the_horizon():
    s = LogicalStream([StreamRecord(t, i + 1, (1,)) for i, t in enumerate([0, -3, 1, 4, 3, -1])],
                      4)
    batches = client_batches(s, c_r=5, horizon=3, seqs=itertools.count(0))
    assert [[(r.key, r.timestamp) for r in b] for b in batches] == [[(3, 1)], [], [(5, 3)]]


def test_client_batches_keep_unsorted_arrivals_in_order_within_a_step():
    s = make_stream([2, 1, 2, 3, 1])
    batches = client_batches(s, c_r=5, horizon=3, seqs=itertools.count(10))
    assert [[(r.key, r.seq) for r in b] for b in batches] == [[(2, 10), (5, 11)],
                                                              [(1, 12), (3, 13)], [(4, 14)]]


def test_client_batches_unique_seqs():
    s = make_stream([1, 2, 2, 3])
    batches = client_batches(s, c_r=4, horizon=3, seqs=itertools.count(100))
    rows = [t for b in batches for t in b]
    assert [(t.seq, t.timestamp) for t in rows] == [(100, 1), (101, 2), (102, 2), (103, 3)]


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


def _synth_stream_oracle(profile, seed, horizon, multiplicity=1, cap=5, *, right=True,
                         leftover=None):
    """Reference synth_stream on numpy's Generator, in two passes: it draws
    every step into per-step dicts, one scalar attribute draw per record, then
    drains each owner's dict `cap` records a step. With `right=False` every B
    draw is still made but no B record is kept. Adds to `leftover` the
    records that were still waiting after the horizon."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    group_rate = harness._PAIRS_PER_STEP / multiplicity
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
                rec = StreamRecord(bt, key, (1, int(rng.integers(1000))))
                if right:
                    pend_b.setdefault(bt, []).append(rec)
        if rng.random() < noise_rate:
            pend_a.setdefault(t, []).append(
                StreamRecord(t, (1 << 30) + next_key, (0, int(rng.integers(1000)))))
            next_key += 1
        if rng.random() < noise_rate:
            attr = int(rng.integers(1000))
            if right:
                pend_b.setdefault(t, []).append(
                    StreamRecord(t, (1 << 31) + next_key, (0, attr)))
            next_key += 1

    def drain(pending):
        out, carry = [], []
        for t in range(1, horizon + 1):
            queue = carry + pending.get(t, [])
            take, carry = queue[:cap], queue[cap:]
            out.extend(r if r.t == t else StreamRecord(t, r.key, r.attrs) for r in take)
        if leftover is not None:
            leftover.update(carry + pending.get(horizon + 1, []))
        return out

    return (LogicalStream(drain(pend_a), horizon),
            LogicalStream(drain(pend_b), horizon) if right else None)


@pytest.mark.parametrize("multiplicity", [1, 2, 3])
@pytest.mark.parametrize("profile", list(Profile))
def test_synth_block_draws_match_per_record_draws(profile, multiplicity):
    for cap in (5, 12):
        for seed in range(5):
            want = _synth_stream_oracle(profile, seed, 150, multiplicity, cap=cap)
            assert synth_stream(profile, seed, 150, multiplicity, cap=cap) == want
            # Without B's records, B's draws are still made: A is unchanged.
            a, b = synth_stream(profile, seed, 150, multiplicity, cap=cap, right=False)
            assert a == want[0] and b is None
    assert synth_stream(profile, 0, 0, multiplicity) == \
        _synth_stream_oracle(profile, 0, 0, multiplicity)


@pytest.mark.parametrize("right", [True, False])
@pytest.mark.parametrize("multiplicity", [1, 2, 3])
def test_one_pass_synth_stream_equals_the_two_pass_generator(multiplicity, right):
    carried, due_past = set(), set()
    for profile, horizon, cap, seed in itertools.product(Profile, (41, 83), (1, 2, 5, 12),
                                                         range(3)):
        leftover = set()
        want = _synth_stream_oracle(profile, seed, horizon, multiplicity, cap,
                                    right=right, leftover=leftover)
        assert synth_stream(profile, seed, horizon, multiplicity, cap, right=right) == want
        carried |= {r for r in leftover if r.t <= horizon}
        due_past |= {r for r in leftover if r.t > horizon}
    # The grid covers records spilled past the horizon, and (with B records
    # scheduled a step late) B records due after it.
    assert carried and bool(due_past) == (right and multiplicity > 1)


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
    transcript.add(21, TranscriptKind.SYNC_BATCH, 3, ((11, 12),))
    later = [(21, 0, TranscriptKind.SYNC_BATCH, 3, None),
             (21, 0, TranscriptKind.SHARE_RECEIVED, 0, 11),
             (21, 1, TranscriptKind.SYNC_BATCH, 3, None),
             (21, 1, TranscriptKind.SHARE_RECEIVED, 0, 12)]
    assert len(transcript) == adds + 4
    assert transcript.events is events and events[0] is bigger
    assert [dataclasses.astuple(e) for e in events[adds:]] == later


def _fan_out(time, kind, size, shares=()):
    """Oracle for the events of one observation, built row by row: server 0's
    size row and its half of each pair, then server 1's."""
    rows = []
    for s in (0, 1):
        rows.append((time, s, kind, size, None))
        for pair in shares:
            rows.append((time, s, TranscriptKind.SHARE_RECEIVED, 0, pair[s]))
    return rows


def _expected_observations(config, result) -> Counter:
    """(time, kind) -> observations: one per owner per step (none for NM),
    per transform, sync and flush, and per DPANT check."""
    owners = 1 if config.operator is OperatorKind.FILTER else 2
    want = Counter()
    if config.protocol is not Protocol.NM:
        for t in range(1, config.horizon + 1):
            want[t, TranscriptKind.OWNER_UPLOAD] = owners
    # OTM transforms and syncs once; EP every step; the DP protocols
    # transform every step and sync when a report says so.
    direct = {Protocol.OTM: range(1, 2), Protocol.EP: range(1, config.horizon + 1)}
    if config.protocol in direct:
        for t in direct[config.protocol]:
            want[t, TranscriptKind.TRANSFORM_OUTPUT] = want[t, TranscriptKind.SYNC_BATCH] = 1
    elif config.protocol is not Protocol.NM:
        for t in range(1, config.horizon + 1):
            want[t, TranscriptKind.TRANSFORM_OUTPUT] = 1
        for rep in result.sync_reports:
            want[rep.t, TranscriptKind.SYNC_BATCH] += 1
    for rep in result.flush_reports:
        want[rep.t, TranscriptKind.FLUSH_BATCH] += 1
    if config.protocol is Protocol.DP_ANT:
        for t in range(1, config.horizon + 1):
            want[t, TranscriptKind.COMPARE_CHECK] = 1
    return want


_EXPANSION_CASES = [(p, o, False) for p in Protocol for o in OperatorKind]
_EXPANSION_CASES.append((Protocol.DP_ANT, OperatorKind.SMJ, True))


@pytest.mark.parametrize("protocol,operator,hot", _EXPANSION_CASES)
def test_events_expand_one_row_per_observation(protocol, operator, hot, tmp_path,
                                               monkeypatch):
    config = ExperimentConfig(protocol=protocol, operator=operator, horizon=60, f=20,
                              seed=3)
    if hot:
        config = hot_key_config(config, tmp_path)
    observed, fanned = Counter(), []
    add = Transcript.add

    def recording_add(self, time, kind, *args, **kwargs):
        observed[time, kind] += 1
        fanned.extend(_fan_out(time, kind, *args, **kwargs))  # expanded when seen
        add(self, time, kind, *args, **kwargs)

    monkeypatch.setattr(Transcript, "add", recording_add)
    result = run_experiment(config)
    events = result.transcript.events

    assert [dataclasses.astuple(e) for e in events] == fanned
    assert observed == _expected_observations(config, result)
    times = [e.time for e in events]
    assert len(result.metrics) == config.horizon
    for m in result.metrics:
        assert m.transcript_events == bisect.bisect_right(times, m.time), m.time
    assert len(result.transcript) == len(events)


def test_run_trials_merged_by_index():
    cfg = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
                           horizon=30, seed=100)
    results = run_trials(cfg, trials=3)
    assert [r.config.seed for r in results] == [100, 101, 102]
    solo = run_experiment(ExperimentConfig(
        protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
        horizon=30, seed=101))
    assert results[1].metrics == solo.metrics


def test_steps_update_the_run_state_in_place():
    # No step takes the state a run carries from step to step, or hands it
    # back: each updates the run's one RunState and returns only its report.
    for step in (transform_step, sdp_timer_step, sdp_ant_step, flush_step):
        names = set(inspect.signature(step).parameters)
        assert not names & {"cache", "counter", "threshold", "view"}, step.__name__
    rand = ServerRandomness(3)
    run = RunState(ExperimentConfig(T=10, f=20), itertools.count(), rand, Transcript(),
                   zero_counter(rand))
    assert transform_step(1, [[SecureTuple(4, (1,), 0, 1)], [SecureTuple(4, (2,), 1, 1)]],
                          run) == step_sizes(run.config, 1)
    cache, counter, view = run.cache, run.counter, run.view
    assert (cache.real_count(), recover(counter)) == (1, 1)
    events = len(run.transcript)
    # Off schedule (t = 7 is no multiple of T or f): no report, nothing moves.
    assert sdp_timer_step(7, run) is None and flush_step(7, run) is None
    assert run.cache is cache and run.counter is counter and run.view is view
    assert cache.real_count() == 1 and view.batches == [] and len(run.transcript) == events
    # On schedule the same run is updated in place: a new cache and counter.
    report = sdp_timer_step(10, run)
    assert report is not None and run.view is view and view.batches == [(10, report.size)]
    assert run.cache is not cache and recover(run.counter) == 0


def test_no_step_join_or_sort_takes_a_counter():
    # The run charges each step's cost from the sizes the servers see, so no
    # step, join or sort takes a counter or a cost to add to. A join's caps
    # alone bound each record's joins, so neither join takes omega.
    for fn in (transform_step, sdp_timer_step, sdp_ant_step, flush_step, shrink._sync,
               trans_truncate_smj, trans_truncate_nlj, network_sort, obli_sort, cache_flush):
        names = inspect.signature(fn).parameters
        assert not [n for n in names if "counter" in n or "cost" in n], fn.__name__
    for join in (trans_truncate_smj, trans_truncate_nlj):
        assert "omega" not in inspect.signature(join).parameters, join.__name__


def assert_cost_is_what_the_run_did(config):
    """Run `config` and check each query step's cost_proxy: the compare count
    of the networks it ran, plus the slots it moved into the view, plus the
    query's scan. Returns the compare count per step.

    A join is charged the networks of the padded (n1, n2) it was called with,
    whether or not a real can join, and cache sorts as `network_sort_keys`
    returns their count (see `test_transform.charge_joins`)."""
    compares, batches, now = Counter(), [], 0

    def at_step(fn):
        def stepped(t, *args):
            nonlocal now
            now = t
            return fn(t, *args)
        return stepped

    def charge(count):
        compares[now] += count

    def recording(*args):
        batches.append(client_batches(*args))
        return batches[-1]

    with pytest.MonkeyPatch.context() as mp:
        for name in ("transform_step", "sdp_timer_step", "sdp_ant_step", "flush_step"):
            mp.setattr(harness, name, at_step(getattr(harness, name)))
        mp.setattr(harness, "client_batches", recording)
        charge_joins(mp, charge, charge)
        result = run_experiment(config)
    moved = Counter()
    for t, slots in result.final_view.batches:
        moved[t] += slots
    assert [m.time for m in result.metrics] == list(range(1, config.horizon + 1))
    for m in result.metrics:
        if config.protocol is Protocol.NM:  # the query scans every real record
            seen = [sum(map(len, side[:m.time])) for side in batches]
            scan = seen[0] if config.operator is OperatorKind.FILTER else seen[0] * seen[1]
        else:
            scan = m.view_rows_total
        assert m.cost_proxy == compares[m.time] + moved[m.time] + scan, m.time
    return compares


_COST_SOURCES = [p.value for p in Profile] + ["hot-keys"]


def cost_config(protocol, operator, source, tmp_path, **fields):
    config = ExperimentConfig(protocol=protocol, operator=operator, omega=2, b=5,
                              multiplicity=3, **fields)
    if source == "hot-keys":
        return hot_key_config(config, tmp_path)
    return dataclasses.replace(config, profile=Profile(source))


@pytest.mark.parametrize("source", _COST_SOURCES)
@pytest.mark.parametrize("operator", list(OperatorKind))
@pytest.mark.parametrize("protocol", list(Protocol))
def test_cost_proxy_charges_the_sorts_the_run_ran(protocol, operator, source, tmp_path):
    config = cost_config(protocol, operator, source, tmp_path, horizon=60, f=20, s=5, seed=3)
    compares = assert_cost_is_what_the_run_did(config)
    # Syncs and flushes sort the cache; joins charge their networks; nothing else does.
    sorts = protocol in (Protocol.DP_TIMER, Protocol.DP_ANT) or (
        protocol in (Protocol.EP, Protocol.OTM) and operator is not OperatorKind.FILTER)
    assert (sum(compares.values()) > 0) == sorts


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(protocol=st.sampled_from(list(Protocol)), operator=st.sampled_from(list(OperatorKind)),
       source=st.sampled_from(_COST_SOURCES), horizon=st.integers(1, 40),
       f=st.integers(1, 40), s=st.integers(0, 20), T=st.integers(1, 12),
       seed=st.integers(0, 2**16))
def test_cost_proxy_charges_the_sorts_on_drawn_configs(protocol, operator, source, horizon,
                                                       f, s, T, seed, tmp_path_factory):
    config = cost_config(protocol, operator, source, tmp_path_factory.mktemp("cost"),
                         horizon=horizon, f=f, s=s, T=T, seed=seed)
    assert_cost_is_what_the_run_did(config)


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
    gc.freeze()  # later collections skip every object that exists now
    try:
        gc.disable()
        results = run_trials(config, 2)
        assert len(results) == 2
        del results
        assert gc.collect() == 0
    finally:
        gc.unfreeze()


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
    lines = path.read_text().splitlines()
    assert [MetricsRecord(**json.loads(line)) for line in lines] == records
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
