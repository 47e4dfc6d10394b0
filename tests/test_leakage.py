import functools

import numpy as np
import pytest

from dpviewsim.leakage import (AuditExpectation, LogicalStream, StreamRecord,
                               Transcript, TranscriptEvent, TranscriptKind,
                               m_ant, m_timer, stream_record, transcript_audit)

from oracles import (NeighborViolation, ant_mechanism, assert_neighbors,
                     empirical_privacy_loss, laplace_oracle, timer_mechanism)


def stream(times, horizon=None, key0=1):
    arrivals = [StreamRecord(t, key0 + i, (1,)) for i, t in enumerate(times)]
    return LogicalStream(arrivals, horizon if horizon is not None else
                         (max(times) if times else 0))


class ScriptedNoise:
    """Fixed noise sequence for pinned-randomness traces."""

    def __init__(self, values, default: float | None = None):
        self._values = list(values)
        self._default = default

    def laplace(self, scale: float) -> float:
        if self._values:
            return self._values.pop(0)
        if self._default is None:
            raise RuntimeError("scripted noise exhausted")
        return self._default


ZERO = lambda: ScriptedNoise([], default=0.0)


def seeded(seed: int):
    """Inverse-CDF Laplace draws from a generator seeded with `seed`: one per
    `draw(scale)`, or n per `draw(scale, n)` for the trial runners."""
    rng = np.random.default_rng(seed)
    return lambda scale, n=None: laplace_oracle(scale, rng, n)


# A stream with several syncs and releases.
SEVERAL = stream([t for t in range(1, 41) for _ in range(t % 3)], horizon=40)


def nant(stream: LogicalStream, epsilon: float, theta: float, delta_f: float,
         noise) -> tuple[int, float] | None:
    """Numeric above-noisy-threshold: one release at the first crossing.

    The single-release mechanism that m_ant repeats after every release.
    """
    h = stream.horizon
    counts = stream.arrivals_per_step()
    eps1 = epsilon / 2
    eps2 = epsilon / 2
    noisy_th = theta + noise.laplace(2 * delta_f / eps1)
    c = 0
    for t in range(1, h + 1):
        v_t = noise.laplace(4 * delta_f / eps1)
        c += int(counts[t])
        if c + v_t >= noisy_th:
            return (t, c + noise.laplace(2 * delta_f / eps2))
    return None


# ---------------------------------------------------------------------------
# Reference mechanisms.

def test_m_timer_empty_stream_pure_noise():
    out = m_timer(stream([], horizon=20), T=5, b=1, epsilon=1.0, draw=seeded(4))
    assert [t for t, _ in out] == [5, 10, 15, 20]
    values = np.array([v for _, v in out])
    assert np.all(np.abs(values) < 50)  # Laplace(1) draws around zero
    zeroed = m_timer(stream([], horizon=20), T=5, b=1, epsilon=1.0, draw=ZERO().laplace)
    assert [v for _, v in zeroed] == [0, 0, 0, 0]


def test_m_timer_window_counts_with_zero_noise():
    s = stream([1, 2, 2, 7], horizon=10)
    out = m_timer(s, T=5, b=1, epsilon=1.0, draw=ZERO().laplace)
    assert out == [(5, 3.0), (10, 1.0)]


def test_m_timer_deterministic_given_seed():
    s = stream([1, 3], horizon=6)
    assert m_timer(s, 2, 1, 1.0, seeded(9)) == m_timer(s, 2, 1, 1.0, seeded(9))


def test_m_ant_huge_threshold_never_releases():
    s = stream([1, 2, 3], horizon=10)
    out = m_ant(s, theta=1e9, b=1, epsilon=1.0, draw=seeded(3))
    assert all(v is None for _, v in out)


def test_m_ant_zero_noise_release_trace():
    # Two arrivals per step, threshold 5: counts 2, 4, 6 -> release at t=3
    # with value 6, then the window resets.
    arrivals = [StreamRecord(t, 10 * t + i, (1,)) for t in (1, 2, 3, 4) for i in (0, 1)]
    s = LogicalStream(arrivals, 4)
    out = m_ant(s, theta=5, b=1, epsilon=1.0, draw=ZERO().laplace)
    assert out[:3] == [(1, None), (2, None), (3, 6.0)]
    assert out[3] == (4, None)  # window restarted: count 2 < 5


def test_nant_zero_noise_trace():
    s = stream([1, 2, 3, 4, 5], horizon=5)
    assert nant(s, epsilon=1.0, theta=3, delta_f=1, noise=ZERO()) == (3, 3.0)


def test_nant_zero_threshold_fires_immediately():
    s = stream([1, 2], horizon=2)
    assert nant(s, epsilon=1.0, theta=0.0001, delta_f=1, noise=ZERO())[0] == 1


def test_nant_no_crossing_returns_none():
    s = stream([1], horizon=3)
    assert nant(s, epsilon=1.0, theta=10, delta_f=1, noise=ZERO()) is None


def test_nant_segments_compose_to_m_ant():
    # Running the single-release mechanism on each between-release segment,
    # with a shared noise tape, reproduces the repeated mechanism exactly
    # (nant's scales equal the proof-variant scales at delta_f = b).
    times = [1, 1, 2, 3, 3, 3, 5, 6, 6, 8]
    s = stream(times, horizon=8)
    b, eps, theta = 1, 2.0, 3
    tape = list(np.random.default_rng(5).standard_normal(64))
    tape_draw = ScriptedNoise(list(tape)).laplace
    repeated = ant_mechanism(s, 1, lambda scale, n: np.full(n, tape_draw(scale)), theta, b,
                             eps, variant="proof")[0]
    releases = [(t, v) for t, v in enumerate(repeated.tolist(), 1) if v != 0]

    shared = ScriptedNoise(list(tape))
    segment_start = 1
    segmented = []
    while segment_start <= 8:
        seg = LogicalStream(
            [StreamRecord(r.t - segment_start + 1, r.key, r.attrs)
             for r in s.arrivals if r.t >= segment_start],
            8 - segment_start + 1)
        hit = nant(seg, eps, theta, b, noise=shared)
        if hit is None:
            break
        segmented.append((hit[0] + segment_start - 1, hit[1]))
        segment_start += hit[0]
    assert segmented == releases


def test_neighbor_check():
    a = stream([1, 2, 3])
    b = stream([1, 2])
    assert_neighbors(a, b)  # removal of one
    with pytest.raises(NeighborViolation):
        assert_neighbors(stream([1, 2, 3, 4]), stream([1, 2]))
    # substitution is not addition/removal
    x = LogicalStream([StreamRecord(1, 5, (1,))], 1)
    y = LogicalStream([StreamRecord(1, 6, (1,))], 1)
    with pytest.raises(NeighborViolation):
        assert_neighbors(x, y)


def test_stream_record_builder_equals_the_constructor():
    fields = (3, 9, (1, 2))
    built, made = stream_record(fields), StreamRecord(*fields)
    assert built == made and type(built) is StreamRecord
    assert (built.t, built.key, built.attrs) == fields
    assert built._asdict() == made._asdict()


# ---------------------------------------------------------------------------
# Empirical privacy loss.

def neighbor_pair(horizon=4, extra_t=2):
    base = [StreamRecord(1, 100, (1,)), StreamRecord(2, 101, (1,)),
            StreamRecord(extra_t, 102, (1,))]
    a = LogicalStream(base, horizon)
    b = LogicalStream(base + [StreamRecord(extra_t, 103, (1,))], horizon)
    return a, b


def test_identical_streams_estimate_near_zero():
    a, _ = neighbor_pair()
    mech = functools.partial(timer_mechanism, T=4, b=1, epsilon=1.0)
    est = empirical_privacy_loss(mech, a, a, trials=100_000, seed=0)
    assert est < 0.05


def test_timer_estimate_within_budget():
    a, b = neighbor_pair()
    mech = functools.partial(timer_mechanism, T=4, b=1, epsilon=1.0)
    est = empirical_privacy_loss(mech, a, b, trials=100_000, seed=1)
    assert est <= 1.15
    assert est > 0.5  # the mechanism does spend real budget


@pytest.mark.parametrize("theta", [1, 2, 4])
def test_ant_protocol_variant_estimate_within_budget(theta):
    # The protocol variant's output scale 2b/epsilon is the one a run draws
    # (shrink.ant_scales); its loss must stay inside the same budget.
    a, b = neighbor_pair(horizon=2)
    mech = functools.partial(ant_mechanism, theta=theta, b=1, epsilon=1.0, variant="protocol")
    est = empirical_privacy_loss(mech, a, b, trials=400_000, seed=theta, min_bin=2000)
    assert 0.4 < est <= 1.15


def test_timer_stability_scaling_doubles_loss():
    # A 2-stable transform ahead of the same mechanism doubles the measured
    # loss (the composed release moves by 2 between neighbors).
    a, b = neighbor_pair()
    def two_stable(s, trials, draw):
        doubled = [rec for rec in s.arrivals for _ in range(2)]
        return timer_mechanism(LogicalStream(doubled, s.horizon), trials, draw, 4, 1, 1.0)

    est = empirical_privacy_loss(two_stable, a, b, trials=100_000, seed=2)
    assert 1.6 < est < 2.3


def test_run_many_matches_scalar_mechanism_distribution():
    a, _ = neighbor_pair()
    mech = functools.partial(timer_mechanism, T=4, b=1, epsilon=1.0)
    draw = seeded(7)
    arr = mech(a, 20_000, draw)
    assert arr.shape == (20_000, 1)
    seq = np.array([m_timer(a, 4, 1, 1.0, seeded(100 + i))[0][1]
                    for i in range(2_000)])
    assert abs(arr.mean() - seq.mean()) < 0.15
    assert abs(arr.var() - seq.var()) < 0.4
    # One body: a one-trial run_many is m_timer under the same seed, exactly,
    # on a stream with several syncs.
    for k in range(20):
        one = mech(SEVERAL, 1, seeded(k))
        assert one.shape == (1, 10)
        assert one[0].tolist() == [v for _, v in m_timer(SEVERAL, 4, 1, 1.0, seeded(k))]
    # A horizon shorter than T syncs nothing.
    assert mech(stream([1, 2], horizon=3), 5, draw).shape == (5, 0)
    assert m_timer(stream([1, 2], horizon=3), 4, 1, 1.0, seeded(0)) == []


def test_ant_mechanism_run_many_consistent_with_scalar():
    a, _ = neighbor_pair()
    draw = seeded(11)
    arr = ant_mechanism(a, 5_000, draw, theta=2, b=1, epsilon=2.0, variant="proof")
    assert arr.shape == (5_000, 4)
    # same release-time distribution as the scalar path, whose output scale
    # is the protocol's: trigger times do not depend on the output scale
    scalar_hits = np.zeros(4)
    n = 2_000
    for i in range(n):
        vec = [0.0 if v is None else v for _, v in m_ant(a, 2, 1, 2.0, seeded(500 + i))]
        scalar_hits += np.array(vec) != 0
    vec_hits = (arr != 0).mean(axis=0)
    assert np.all(np.abs(vec_hits - scalar_hits / n) < 0.05)
    # One body: a one-trial protocol run is m_ant under the same seed, exactly,
    # with None read as 0, on a stream with several releases.
    for k in range(20):
        one = ant_mechanism(SEVERAL, 1, seeded(k), 4, 1, 1.0)
        assert one.shape == (1, 40)
        scalar = m_ant(SEVERAL, 4, 1, 1.0, seeded(k))
        assert sum(v is not None for _, v in scalar) >= 2
        assert one[0].tolist() == [0.0 if v is None else v for _, v in scalar]
    # A horizon of 0 has no step to release at.
    for variant in ("protocol", "proof"):
        assert ant_mechanism(stream([], horizon=0), 5, draw, 4, 1, 1.0, variant).shape == (5, 0)
    assert m_ant(stream([], horizon=0), 4, 1, 1.0, seeded(0)) == []


def test_ant_proof_variant_doubles_each_release_s_noise():
    # The proofs' output scale 4b/eps is twice the protocol's 2b/eps. Under one
    # seed both variants draw alike, so they trigger at the same steps, and each
    # release's noise (the release minus the count since the last) doubles.
    cum = np.cumsum(SEVERAL.arrivals_per_step())
    protocol, proof = (ant_mechanism(SEVERAL, 50, seeded(3), 4, 1, 1.0, variant)
                       for variant in ("protocol", "proof"))
    np.testing.assert_array_equal(protocol != 0, proof != 0)
    assert (protocol != 0).sum(axis=1).min() >= 2
    for released, doubled in zip(protocol, proof):
        steps = np.flatnonzero(released)
        since = np.diff(cum[steps + 1], prepend=0)
        assert doubled[steps] - since == pytest.approx(2 * (released[steps] - since), rel=1e-12)


def test_unknown_ant_variant_raises():
    # Only the protocol's and the proofs' output scales exist.
    a, _ = neighbor_pair()
    with pytest.raises(ValueError, match="unknown variant 'paper'"):
        ant_mechanism(a, 10, seeded(0), theta=2, b=1, epsilon=2.0, variant="paper")


def test_two_phase_composition_bound():
    # Release one count per phase; a record with stability q_i in phase i and
    # per-phase budgets eps_i yields total loss sum(q_i * eps_i).
    q1, q2 = 1, 2
    eps1, eps2 = 0.5, 0.25
    a = LogicalStream([], 1)
    b = LogicalStream([StreamRecord(1, 7, (1,))], 1)

    def two_phase(s, trials, draw):
        count = len(s.arrivals)
        r1 = q1 * count + draw(1 / eps1, trials)
        r2 = q2 * count + draw(1 / eps2, trials)
        return np.stack([r1, r2], axis=1)

    # two release dimensions spread the mass; a fixed cutoff keeps bins
    est = empirical_privacy_loss(two_phase, a, b, trials=200_000, seed=3,
                                 min_bin=1000)
    total = q1 * eps1 + q2 * eps2
    assert est <= total * 1.2
    assert est >= total * 0.6


# ---------------------------------------------------------------------------
# Transcript audit.

def test_observe_fans_out_to_each_server_in_turn():
    tr = Transcript()
    p, q = (11, 12), (21, 22)
    tr.add(7, TranscriptKind.SYNC_BATCH, 3, (p, q))
    share = TranscriptKind.SHARE_RECEIVED
    assert [(e.time, e.server, e.kind, e.size, e.share_value) for e in tr.events] == [
        (7, 0, TranscriptKind.SYNC_BATCH, 3, None), (7, 0, share, 0, 11), (7, 0, share, 0, 21),
        (7, 1, TranscriptKind.SYNC_BATCH, 3, None), (7, 1, share, 0, 12), (7, 1, share, 0, 22),
    ]
    tr.add(8, TranscriptKind.FLUSH_BATCH, 5)
    assert len(tr) == 8
    assert [(e.server, e.size) for e in tr.events[6:]] == [(0, 5), (1, 5)]


def test_audit_config_determined_pass():
    tr = Transcript()
    for t in (1, 2, 3):
        tr.add(t, TranscriptKind.OWNER_UPLOAD, 5)
        tr.add(t, TranscriptKind.TRANSFORM_OUTPUT, 20)
        tr.add(t, TranscriptKind.SYNC_BATCH, 20)
    report = transcript_audit(tr, AuditExpectation(
        owner_batch=5, transform_size=lambda t: 20, sync_equals_transform=True))
    assert report.passed
    assert report.lines() == "audit: pass\n"


def test_audit_flags_leaked_counter():
    tr = Transcript()
    tr.add(1, TranscriptKind.OWNER_UPLOAD, 5)
    tr.add(1, TranscriptKind.SYNC_BATCH, 37)  # true count leaked as a size
    report = transcript_audit(tr, AuditExpectation(
        owner_batch=5, sync_sizes={1: 12}))
    assert not report.passed
    # Each server saw the size, so each is flagged once.
    assert [v.split()[1] for v in report.violations] == ["server=0", "server=1"]
    assert all("t=1" in v and "SyncBatch" in v and "37" in v
               for v in report.violations)


def test_audit_coupled_sync_sizes():
    tr = Transcript()
    tr.add(10, TranscriptKind.SYNC_BATCH, 12)
    tr.add(20, TranscriptKind.SYNC_BATCH, 0)
    ok = transcript_audit(tr, AuditExpectation(sync_sizes={10: 12, 20: 0}))
    assert ok.passed
    bad = transcript_audit(tr, AuditExpectation(sync_sizes={10: 12, 20: 3}))
    assert not bad.passed
    assert [v.split()[:2] for v in bad.violations] == [["t=20", "server=0"],
                                                        ["t=20", "server=1"]]


def test_audit_missing_release_flagged():
    tr = Transcript()
    tr.add(10, TranscriptKind.SYNC_BATCH, 12)
    report = transcript_audit(tr, AuditExpectation(sync_sizes={10: 12, 20: 4}))
    assert not report.passed
    assert report.violations == ["t=20 kind=SyncBatch: expected release missing"]


def test_audit_flush_schedule():
    tr = Transcript()
    tr.add(2000, TranscriptKind.FLUSH_BATCH, 15)
    tr.add(2500, TranscriptKind.FLUSH_BATCH, 15)  # off schedule
    report = transcript_audit(tr, AuditExpectation(flush_interval=2000, flush_size=15))
    assert not report.passed
    assert [v.split()[:2] for v in report.violations] == [["t=2500", "server=0"],
                                                          ["t=2500", "server=1"]]


def test_audit_flags_a_forgery_seen_by_server_1_only():
    tr = Transcript()
    for t in (1, 2):
        tr.add(t, TranscriptKind.OWNER_UPLOAD, 5)
        tr.add(t, TranscriptKind.TRANSFORM_OUTPUT, 20, ((t, t + 1),))
    expect = AuditExpectation(owner_batch=5, transform_size=lambda t: 20)
    assert transcript_audit(tr, expect).passed
    tr.events.append(TranscriptEvent(2, 1, TranscriptKind.TRANSFORM_OUTPUT, 21))
    assert transcript_audit(tr, expect).violations == [
        "t=2 server=1 kind=TransformOutput size=21: "
        "transform output size must equal padded size 20"]
