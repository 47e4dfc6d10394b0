"""Replay every DP sync of a real run through its reference mechanism.

The reference mechanisms see only a logical stream's steps, the run's horizon
and the noise draws. Fed the run's produced rows as (timestamp, key) records
and a fresh `ServerRandomness(seed).joint_laplace` as their draw, `m_timer`
and `m_ant` must release, after `clamp_round`, exactly the run's sync times
and sizes; the transcript audit must then accept every sync as that coupled
release.
"""

import pytest

from dpviewsim.harness import ExperimentConfig, Protocol, load_stream, run_experiment
from dpviewsim.leakage import AuditExpectation, m_ant, m_timer, transcript_audit
from dpviewsim.randomness import ServerRandomness
from dpviewsim.shrink import clamp_round
from dpviewsim.transform import OperatorKind

from oracles import Arrival, logical_stream
from test_golden import hot_key_config

_CASES = [(protocol, operator, seed)
          for protocol in (Protocol.DP_TIMER, Protocol.DP_ANT)
          for operator in OperatorKind for seed in (1, 2)]


def replayed_syncs(result) -> list[tuple[int, int]]:
    """(t, size) of each release the run's reference mechanism makes."""
    config = result.config
    stream = logical_stream(Arrival(r.timestamp, r.key, ()) for r in result.produced_rows)
    return released_syncs(stream, config)


def released_syncs(stream, config: ExperimentConfig) -> list[tuple[int, int]]:
    """(t, size) of each release `config`'s reference mechanism makes from
    `stream` over the run's horizon, with the run's draws."""
    draw = ServerRandomness(config.seed).joint_laplace
    if config.protocol is Protocol.DP_TIMER:
        releases = m_timer(stream, config.horizon, config.T, config.b, config.epsilon, draw)
    else:
        releases = m_ant(stream, config.horizon, config.theta, config.b, config.epsilon, draw)
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


class StepsUpTo(dict):
    """A stream's steps that fail on any read of a step past `horizon`, so a
    mechanism that reads past the run's horizon fails at once rather than
    building one count per step up to a far row."""

    def __init__(self, steps, horizon):
        super().__init__(steps)
        self.horizon = horizon

    def _check(self, t):
        assert t <= self.horizon, f"read step {t} past the horizon {self.horizon}"

    def get(self, t, default=None):
        self._check(t)
        return super().get(t, default)

    def __getitem__(self, t):
        self._check(t)
        return super().__getitem__(t)

    def __contains__(self, t):
        self._check(t)
        return super().__contains__(t)


@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
def test_a_row_far_past_the_horizon_replays_the_run_s_releases(protocol, tmp_path):
    # The steps of a CSV whose one row is at t = 10**12 reach that far, but
    # the mechanisms read only the run's 20 steps: they give the run's
    # releases (pure noise, since no row arrives by step 20) and never build
    # a count per step up to the far row, which would exhaust memory.
    path = tmp_path / "far.csv"
    path.write_text(f"t,key,attr\n{10**12},7,1\n")
    config = ExperimentConfig(protocol=protocol, operator=OperatorKind.FILTER, horizon=20,
                              T=5, theta=2, f=10, seed=3, stream_a=str(path))
    steps = load_stream(config.stream_a)
    assert max(steps) == 10**12
    syncs = released_syncs(StepsUpTo(steps, config.horizon), config)
    assert syncs == [(r.t, r.size) for r in run_experiment(config).sync_reports]
    assert len(syncs) >= (4 if protocol is Protocol.DP_TIMER else 1)
