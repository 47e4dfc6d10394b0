"""Properties of real `run_experiment` output on small random configs.

Every protocol x operator x profile runs with hypothesis-drawn horizon, flush
schedule and seed. Each run must conserve its real rows at every step. At the
end, every cache entry and every view real must be a row the run produced, no
row in both, each list in strictly increasing seq order, and the two counts
plus the reals lost to flushes must add up to the produced rows. Each view
batch, sliced from the view's reals by its real count, must hold no more
reals than its slots, and only rows produced at or before its step; the
view's slot total must be its batches' slots, and the cache must hold no more
reals than its slots. Each run must also pass the transcript audit against
its public configuration, and a DPTimer or DPANT run against the sync times
and sizes its reference mechanism replays (`tests/test_replay.py`), and
reproduce its metrics bytes from the same seed.
"""

import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpviewsim.harness import (ExperimentConfig, Profile, Protocol, emit_metrics,
                               expected_transform_size, run_experiment)
from dpviewsim.leakage import AuditExpectation, transcript_audit
from dpviewsim.transform import OperatorKind
from test_replay import replayed_syncs

_DP = (Protocol.DP_TIMER, Protocol.DP_ANT)
_SHAPES = list(itertools.product(Protocol, OperatorKind, Profile))


def _metrics_bytes(result) -> str:
    out = io.StringIO()
    emit_metrics(result.metrics, out)
    return out.getvalue()


@pytest.mark.parametrize("protocol,operator,profile", _SHAPES,
                         ids=["-".join(e.value for e in shape) for shape in _SHAPES])
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(horizon=st.integers(1, 40), f=st.integers(1, 40), s=st.integers(0, 20),
       seed=st.integers(0, 2**16))
def test_real_runs_conserve_rows_pass_audit_and_repeat(protocol, operator, profile,
                                                      horizon, f, s, seed):
    config = ExperimentConfig(protocol=protocol, operator=operator, profile=profile,
                              c_r=12 if profile is Profile.BURST else 5,
                              horizon=horizon, f=f, s=s, seed=seed)
    result = run_experiment(config)

    if protocol is not Protocol.NM:
        for m in result.metrics:
            produced = sum(1 for row in result.produced_rows if row.timestamp <= m.time)
            lost = sum(r.real_lost for r in result.flush_reports if r.t <= m.time)
            assert produced == m.view_rows_real + m.deferred_real + lost, m.time

    view, cache = result.final_view, result.final_cache
    produced = {row.seq: row for row in result.produced_rows}
    held = cache.entries + view.reals
    assert all(produced.get(row.seq) == row for row in held)
    assert len({row.seq for row in held}) == len(held)  # no row in both, or twice
    for rows in (cache.entries, view.reals):
        assert all(a.seq < b.seq for a, b in zip(rows, rows[1:]))
    lost = sum(r.real_lost for r in result.flush_reports)
    assert len(cache.entries) + len(view.reals) + lost == len(result.produced_rows)
    assert len(cache.entries) <= len(cache)

    assert len(view.counts) == len(view.batches)
    assert sum(view.counts) == view.real_rows() == len(view.reals)
    start = 0
    for (t, slots), n in zip(view.batches, view.counts):
        assert n <= slots
        assert all(row.timestamp <= t for row in view.reals[start:start + n]), t
        start += n
    assert view.total_rows() == sum(slots for _, slots in view.batches)

    dp = protocol in _DP
    report = transcript_audit(result.transcript, AuditExpectation(
        owner_batch=config.c_r,
        transform_size=expected_transform_size(config),
        flush_interval=config.f if dp else None,
        flush_size=config.s if dp else None,
        sync_sizes=dict(replayed_syncs(result)) if dp else None,
        sync_equals_transform=protocol is Protocol.EP))
    assert report.passed, report.violations[:5]

    assert _metrics_bytes(run_experiment(config)) == _metrics_bytes(result)
