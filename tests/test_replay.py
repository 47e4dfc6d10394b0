"""Replay every DP sync of a real run through its reference mechanism.

The reference mechanisms see only the logical stream and the noise draws. Fed
the run's produced rows as (timestamp, key) records and a fresh
`ServerRandomness(seed).joint_laplace` as their draw, `m_timer` and `m_ant`
must release, after `clamp_round`, exactly the run's sync times and sizes; the
transcript audit must then accept every sync as that coupled release.
"""

import pytest

from dpviewsim.harness import ExperimentConfig, Protocol, run_experiment
from dpviewsim.leakage import (AuditExpectation, LogicalStream, StreamRecord, m_ant,
                               m_timer, transcript_audit)
from dpviewsim.randomness import ServerRandomness
from dpviewsim.shrink import clamp_round
from dpviewsim.transform import OperatorKind

from test_golden import hot_key_config

_CASES = [(protocol, operator, seed)
          for protocol in (Protocol.DP_TIMER, Protocol.DP_ANT)
          for operator in OperatorKind for seed in (1, 2)]


def replayed_syncs(result) -> list[tuple[int, int]]:
    """(t, size) of each release the run's reference mechanism makes."""
    config = result.config
    stream = LogicalStream([StreamRecord(r.timestamp, r.key, ()) for r in result.produced_rows],
                           config.horizon)
    draw = ServerRandomness(config.seed).joint_laplace
    if config.protocol is Protocol.DP_TIMER:
        releases = m_timer(stream, config.T, config.b, config.epsilon, draw)
    else:
        releases = m_ant(stream, config.theta, config.b, config.epsilon, draw)
    return [(t, clamp_round(v)) for t, v in releases if v is not None]


def check_replay(config: ExperimentConfig) -> None:
    result = run_experiment(config)
    syncs = replayed_syncs(result)
    assert syncs, "a replay with no sync checks nothing"
    assert syncs == [(r.t, r.size) for r in result.sync_reports]
    report = transcript_audit(result.transcript, AuditExpectation(sync_sizes=dict(syncs)))
    assert report.passed, report.violations[:5]


@pytest.mark.parametrize("protocol,operator,seed", _CASES)
def test_replay_matches_every_sync(protocol, operator, seed):
    check_replay(ExperimentConfig(protocol=protocol, operator=operator, horizon=600,
                                  f=200, seed=seed))


@pytest.mark.parametrize("protocol,operator,seed",
                         [c for c in _CASES if c[1] is not OperatorKind.FILTER])
def test_replay_matches_every_sync_on_hot_keys(protocol, operator, seed, tmp_path):
    # Hot-key streams make the SMJ and the NLJ produce different rows.
    config = ExperimentConfig(protocol=protocol, operator=operator, omega=2, b=5,
                              horizon=600, f=200, seed=seed)
    check_replay(hot_key_config(config, tmp_path))
