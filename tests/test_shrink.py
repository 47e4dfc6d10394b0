import math

import pytest
from scipy.stats import binom

from dpviewsim.harness import ExperimentConfig, Protocol, run_experiment
from dpviewsim.obliv import DUMMY, SecureCache, SecureTuple, network_comparison_count
from dpviewsim.randomness import ServerRandomness
from dpviewsim.sharing import recover, share_in_protocol
from dpviewsim.shrink import (BoundPreconditionError, MaterializedView,
                              ThresholdShares, ant_scales,
                              bound_deferred_ant, bound_deferred_timer,
                              bound_dummy_timer, clamp_round, flush_step,
                              recover_real, sdp_ant_init, sdp_ant_step,
                              sdp_timer_step, share_real, timer_scale)
from dpviewsim.transcript import Transcript, TranscriptKind
from dpviewsim.transform import OperatorKind


class PinnedRand:
    """Scripted joint noise over a real sharing stream, for protocol traces."""

    def __init__(self, noises, seed=0, default=None):
        self._noises = list(noises)
        self._default = default
        self._real = ServerRandomness(seed)
        self.seen_pairs = self._real.seen_pairs

    def joint_laplace(self, scale):
        if self._noises:
            return self._noises.pop(0)
        if self._default is None:
            raise RuntimeError("scripted noise exhausted")
        return self._default

    def share_pair(self):
        return self._real.share_pair()


def real_row(seq):
    return SecureTuple(key=1, attrs=(1,), seq=seq)


def counter_of(value, rand):
    return share_in_protocol(value, *rand.share_pair(), seen=rand.seen_pairs)


def filled_cache(n_real, n_dummy):
    return SecureCache([real_row(i) for i in range(n_real)], n_real + n_dummy)


def timer_step(t, cfg, counter, cache, view, rand):
    return sdp_timer_step(t, cfg, counter, cache, view, rand, Transcript(), [0])


def ant_step(t, cfg, counter, threshold, cache, view, rand):
    return sdp_ant_step(t, cfg, counter, threshold, cache, view, rand, Transcript(), [0])


def flush(t, cfg, cache, view):
    return flush_step(t, cfg, cache, view, Transcript(), [0])


def sizes(transcript, kind):
    return [(e.time, e.server, e.size) for e in transcript.by_kind(kind)]


# ---------------------------------------------------------------------------
# Timer protocol.

def test_timer_noop_off_schedule():
    rand = PinnedRand([])
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10)
    counter = counter_of(5, rand)
    cache = filled_cache(5, 5)
    view = MaterializedView()
    transcript, compares = Transcript(), [0]
    c2, cache2, report = sdp_timer_step(7, cfg, counter, cache, view, rand,
                                        transcript, compares)
    assert report is None
    assert c2 == counter and cache2 is cache
    assert view.total_rows() == 0 and len(transcript) == 0
    assert compares == [0]


def test_timer_pinned_positive_size():
    # c=30 with noise -4.2: sz = round(25.8) = 26 entries, real-first.
    rand = PinnedRand([-4.2])
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10)
    counter = counter_of(30, rand)
    cache = filled_cache(30, 10)
    view = MaterializedView()
    transcript, compares = Transcript(), [0]
    counter, cache, report = sdp_timer_step(10, cfg, counter, cache, view, rand,
                                            transcript, compares)
    assert report is not None
    assert report.pre_clamp == pytest.approx(25.8)
    assert report.size == 26
    assert view.total_rows() == 26
    assert view.real_rows() == 26  # reals fetched ahead of dummies
    assert len(cache) == 14
    assert recover(counter) == 0
    # Both servers see the released size and a share of the reset counter.
    assert sizes(transcript, TranscriptKind.SYNC_BATCH) == [(10, 0, 26), (10, 1, 26)]
    shares = transcript.by_kind(TranscriptKind.SHARE_RECEIVED)
    assert [e.share_value for e in shares] == list(counter)
    assert compares == [network_comparison_count(40)]


def test_timer_pinned_clamped_to_zero():
    # c=2 with noise -7.9: sz = 0, view untouched, counter still reset.
    rand = PinnedRand([-7.9])
    cfg = ExperimentConfig(T=5, epsilon=1.5, b=10)
    counter = counter_of(2, rand)
    cache = filled_cache(2, 3)
    view = MaterializedView()
    counter, cache, report = timer_step(5, cfg, counter, cache, view, rand)
    assert report is not None and report.size == 0
    assert report.pre_clamp == pytest.approx(-5.9)
    assert view.total_rows() == 0
    assert len(cache) == 5
    assert recover(counter) == 0


def test_timer_tops_up_with_dummies():
    rand = PinnedRand([4.0])
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1)
    counter = counter_of(2, rand)
    cache = filled_cache(2, 0)
    view = MaterializedView()
    counter, cache, report = timer_step(1, cfg, counter, cache, view, rand)
    assert report.size == 6
    assert view.total_rows() == 6
    assert view.real_rows() == 2
    assert len(cache) == 0
    assert all(row is DUMMY for row in view.rows[2:])  # four top-up dummies


# ---------------------------------------------------------------------------
# Threshold protocol.

def test_ant_init_round_trip():
    rand = PinnedRand([2.1])
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    shares = sdp_ant_init(cfg, rand)
    assert recover_real(shares) == 30 + 2.1


def test_share_real_exact_round_trip():
    rand = ServerRandomness(3)
    for value in (0.0, -1.5, 32.1, 1e-12, 12345.6789, -7.25e8):
        assert recover_real(share_real(value, rand)) == value


def test_ant_trigger_trace():
    # theta-tilde = 32.1; c = 35 with check noise +1.3 crosses; output noise
    # -0.2 gives sz = round(34.8) = 35; threshold refreshed with noise 0.9.
    rand = PinnedRand([2.1, 1.3, -0.2, 0.9])
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    counter = counter_of(35, rand)
    cache = filled_cache(35, 5)
    view = MaterializedView()
    transcript, compares = Transcript(), [0]
    counter, threshold, cache, report = sdp_ant_step(
        1, cfg, counter, threshold, cache, view, rand, transcript, compares)
    assert report is not None
    assert report.pre_clamp == pytest.approx(34.8)
    assert report.size == 35
    assert view.real_rows() == 35
    assert recover(counter) == 0
    assert recover_real(threshold) == 30 + 0.9
    # Per server: the check, the release, then shares of counter and threshold.
    for server in (0, 1):
        events = [e for e in transcript.events if e.server == server]
        assert [(e.kind, e.size) for e in events] == [
            (TranscriptKind.COMPARE_CHECK, 0), (TranscriptKind.SYNC_BATCH, 35),
            (TranscriptKind.SHARE_RECEIVED, 0), (TranscriptKind.SHARE_RECEIVED, 0),
            (TranscriptKind.SHARE_RECEIVED, 0)]
        assert [e.share_value for e in events[2:]] == [
            counter[server], threshold.hi[server], threshold.lo[server]]
    assert compares == [network_comparison_count(40)]


def test_ant_below_threshold_no_trigger():
    rand = PinnedRand([2.1, -1.0])
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    counter = counter_of(20, rand)
    cache = filled_cache(20, 0)
    view = MaterializedView()
    transcript, compares = Transcript(), [0]
    c2, th2, cache2, report = sdp_ant_step(
        1, cfg, counter, threshold, cache, view, rand, transcript, compares)
    assert report is None
    # Every step shows both servers a check, even one that does not sync.
    assert sizes(transcript, TranscriptKind.COMPARE_CHECK) == [(1, 0, 0), (1, 1, 0)]
    assert len(transcript) == 2 and compares == [0]
    assert recover(c2) == 20          # counter untouched
    assert recover_real(th2) == 32.1  # threshold untouched
    assert view.total_rows() == 0


def test_ant_quiet_period_never_triggers():
    rand = PinnedRand([0.0], default=0.0)
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    counter = counter_of(0, rand)
    cache = SecureCache()
    view = MaterializedView()
    for t in range(1, 50):
        counter, threshold, cache, report = ant_step(
            t, cfg, counter, threshold, cache, view, rand)
        assert report is None
    assert view.total_rows() == 0


def test_ant_trigger_monotone_with_zero_noise():
    # Counts grow 2 per step; with all noise pinned at zero the first trigger
    # is exactly the first step where c >= theta.
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=5, epsilon=1.0, b=1)
    rand = PinnedRand([], default=0.0)
    threshold = sdp_ant_init(cfg, rand)
    cache = SecureCache()
    view = MaterializedView()
    c = 0
    trigger_at = None
    for t in range(1, 10):
        c += 2
        counter = counter_of(c, rand)
        counter, threshold, cache, report = ant_step(
            t, cfg, counter, threshold, cache, view, rand)
        if report is not None:
            trigger_at = t
            break
    assert trigger_at == 3  # c = 6 is the first count >= 5


def test_ant_scales_protocol_and_proof():
    th, check, out = ant_scales(10, 1.5)
    assert th.scale == pytest.approx(4 * 10 / 1.5)
    assert check.scale == pytest.approx(8 * 10 / 1.5)
    assert out.scale == pytest.approx(2 * 10 / 1.5)
    _, _, out_proof = ant_scales(10, 1.5, variant="proof")
    assert out_proof.scale == pytest.approx(4 * 10 / 1.5)
    assert timer_scale(10, 1.5).scale == pytest.approx(10 / 1.5)


# ---------------------------------------------------------------------------
# Flush.

def test_flush_on_schedule_paper_defaults():
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10, f=2000, s=15)
    cache = filled_cache(3, 30)
    view = MaterializedView()
    transcript, compares = Transcript(), [0]
    cache, report = flush_step(2000, cfg, cache, view, transcript, compares)
    assert sizes(transcript, TranscriptKind.FLUSH_BATCH) == [(2000, 0, 15), (2000, 1, 15)]
    assert compares == [network_comparison_count(33)]
    assert report is not None and report.size == 15
    assert view.total_rows() == 15
    assert view.real_rows() == 3  # all reals land inside the 15
    assert len(cache) == 0
    assert report.real_lost == 0


def test_flush_off_schedule():
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10, f=2000, s=15)
    cache = filled_cache(3, 3)
    view = MaterializedView()
    cache2, report = flush(1999, cfg, cache, view)
    assert report is None
    assert cache2 is cache and view.total_rows() == 0


def test_flush_size_zero_pure_recycle():
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1, f=1, s=0)
    cache = filled_cache(2, 2)
    view = MaterializedView()
    cache, report = flush(1, cfg, cache, view)
    assert report is not None and view.total_rows() == 0
    assert len(cache) == 0
    assert report.real_lost == 2


def test_flush_reports_lost_reals():
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1, f=1, s=4)
    cache = filled_cache(6, 2)
    view = MaterializedView()
    cache, report = flush(1, cfg, cache, view)
    assert view.real_rows() == 4
    assert report.real_lost == 2


# ---------------------------------------------------------------------------
# Rounding and clamping.

def test_clamp_round():
    assert clamp_round(25.8) == 26
    assert clamp_round(26.5) == 27
    assert clamp_round(0.49) == 0
    assert clamp_round(-3.2) == 0
    assert clamp_round(0.0) == 0


# ---------------------------------------------------------------------------
# Closed-form bounds (values frozen from direct evaluation of the formulas).

def test_bound_deferred_timer_value():
    assert bound_deferred_timer(10, 1.5, 16, 0.05) == pytest.approx(92.3103, abs=1e-3)


def test_bound_deferred_timer_linearity():
    base = bound_deferred_timer(10, 1.5, 16, 0.05)
    assert bound_deferred_timer(20, 1.5, 16, 0.05) == pytest.approx(2 * base)
    assert bound_deferred_timer(10, 3.0, 16, 0.05) == pytest.approx(base / 2)


def test_bound_deferred_timer_precondition():
    with pytest.raises(BoundPreconditionError):
        bound_deferred_timer(10, 1.5, 5, 0.01)  # 4 ln(100) > 5


def test_bound_dummy_timer():
    base = bound_deferred_timer(10, 1.5, 16, 0.05)
    assert bound_dummy_timer(10, 1.5, 16, 0, 10, 2000, 0.05) == pytest.approx(base)
    with_flush = bound_dummy_timer(10, 1.5, 16, 15, 10, 2000, 0.05)
    assert with_flush == pytest.approx(base + 15 * 16 * 10 / 2000)
    halved = bound_dummy_timer(10, 1.5, 16, 15, 10, 4000, 0.05)
    assert (with_flush - base) == pytest.approx(2 * (halved - base))


def test_bound_deferred_ant_values():
    assert bound_deferred_ant(1, 1.0, math.e) == pytest.approx(16.0)
    assert bound_deferred_ant(20, 1.5, 1000) == pytest.approx(1473.654, abs=1e-2)
    assert bound_deferred_ant(5, 1.0, 500) < bound_deferred_ant(5, 1.0, 1000)


def test_deferred_bound_holds_on_real_timer_runs():
    # After the k-th sync, at most bound_deferred_timer(b, epsilon, k, beta)
    # real entries stay cached, except with probability beta. Over real runs,
    # the syncs above the bound must not be so many that a Binomial(n, beta)
    # count reaches them with probability below 1e-6. Flush steps move
    # entries out on their own schedule, so syncs on them are skipped.
    beta = 0.05
    runs = ([(OperatorKind.FILTER, seed) for seed in range(30)] +
            [(OperatorKind.SMJ, seed) for seed in range(4)])
    checked = above = 0
    for operator, seed in runs:
        config = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=operator,
                                  horizon=1000, seed=seed)
        result = run_experiment(config)
        deferred = {m.time: m.deferred_real for m in result.metrics}
        for k, report in enumerate(result.sync_reports, start=1):
            if k < 4 * math.log(1 / beta) or report.t % config.f == 0:
                continue
            checked += 1
            above += deferred[report.t] > bound_deferred_timer(
                config.b, config.epsilon, k, beta)
    assert checked == 34 * 89  # syncs 12..100 of each run
    assert binom.sf(above - 1, checked, beta) >= 1e-6, (above, checked)


@pytest.mark.parametrize("operator", [OperatorKind.FILTER, OperatorKind.SMJ])
def test_deferred_bound_holds_on_real_ant_runs(operator):
    # At every step t >= 2, the real entries still cached stay within
    # bound_deferred_ant(b, epsilon, t). At t = 1 the bound is 0 (ln 1), so
    # that step is not checked.
    for seed in range(5):
        config = ExperimentConfig(protocol=Protocol.DP_ANT, operator=operator,
                                  horizon=1000, seed=seed)
        metrics = run_experiment(config).metrics
        assert [m.time for m in metrics] == list(range(1, 1001))
        for m in metrics[1:]:
            assert m.deferred_real <= bound_deferred_ant(config.b, config.epsilon, m.time), (
                seed, m.time, m.deferred_real)


# ---------------------------------------------------------------------------
# Reuse guard wiring.

def test_randomness_reuse_guard_active():
    # The protocol consumes each sharing pair once; replaying a pair through
    # the same run-scoped set trips the guard.
    from dpviewsim.sharing import RandomnessReuse
    rand = ServerRandomness(11)
    z = rand.share_pair()
    share_in_protocol(1, *z, seen=rand.seen_pairs)
    with pytest.raises(RandomnessReuse):
        share_in_protocol(2, *z, seen=rand.seen_pairs)


def test_view_built_with_rows_counts_them():
    # The view holds each batch's reals and slot count; its padded rows are
    # each batch's reals, then DUMMY up to its slots.
    view = MaterializedView()
    view.append_batch([real_row(0), real_row(2)], 3, t=1)
    view.append_batch([], 2, t=2)
    view.append_batch([real_row(4)], 1, t=3)
    assert view.real_rows() == 3 and view.total_rows() == 6
    assert view.batches == [(1, 3), (2, 2), (3, 1)] and view.counts == [2, 0, 1]
    assert view.rows == [real_row(0), real_row(2), DUMMY, DUMMY, DUMMY, real_row(4)]
    with pytest.raises(ValueError, match="exceed"):
        view.append_batch([real_row(5), real_row(6)], 1, t=4)
    assert view.real_rows() == 3 and view.total_rows() == 6
