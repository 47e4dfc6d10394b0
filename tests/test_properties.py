"""Properties of real `run_experiment` output on small random configs.

Every protocol x operator x profile runs with hypothesis-drawn horizon, flush
schedule and seed. Each run must conserve its real rows at every step, keep its
running view real-row count equal to a plain recount, hold no more reals in a
view batch than its slots and as many padded rows as its running slot total,
end with a cache that holds only real rows, in strictly increasing seq order
and no more of them than its slots, pass the transcript audit against its
public configuration, and reproduce its metrics bytes from the same seed.
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
    assert view.real_rows() == sum(1 for row in view.rows if row.is_view)
    assert all(e.is_view for e in cache.entries)
    assert all(a.seq < b.seq for a, b in zip(cache.entries, cache.entries[1:]))
    assert len(cache.entries) <= len(cache)
    assert all(n <= slots for (_, slots), n in zip(view.batches, view.counts))
    assert len(view.counts) == len(view.batches)
    assert len(view.rows) == view.total_rows() == sum(slots for _, slots in view.batches)

    dp = protocol in _DP
    report = transcript_audit(result.transcript, AuditExpectation(
        owner_batch=config.c_r,
        transform_size=expected_transform_size(config),
        flush_interval=config.f if dp else None,
        flush_size=config.s if dp else None,
        sync_equals_transform=protocol is Protocol.EP))
    assert report.passed, report.violations[:5]

    assert _metrics_bytes(run_experiment(config)) == _metrics_bytes(result)
