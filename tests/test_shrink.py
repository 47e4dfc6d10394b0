import itertools
import math

import pytest
from scipy.stats import binom

from dpviewsim import harness, obliv, shrink
from dpviewsim.harness import ExperimentConfig, Profile, Protocol, RunState, run_experiment
from dpviewsim.leakage import LogicalStream, StreamRecord, m_ant
from dpviewsim.obliv import SecureCache, SecureTuple, obli_sort
from dpviewsim.randomness import ServerRandomness
from dpviewsim.sharing import recover, share_in_protocol
from dpviewsim.shrink import (BoundPreconditionError, MaterializedView,
                              ThresholdShares, ant_scales,
                              bound_deferred_ant, bound_deferred_timer,
                              bound_dummy_timer, clamp_round, flush_step,
                              recover_real, sdp_ant_init, sdp_ant_step,
                              sdp_timer_step, share_real, timer_scale,
                              zero_counter)
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


def run_state(cfg, cache, rand=None, counter=None, threshold=None):
    """A run's state at some step: an empty view and transcript."""
    return RunState(cfg, itertools.count(), rand, Transcript(), counter, threshold, cache)


@pytest.fixture
def sorted_slots(monkeypatch):
    """The slot count of every cache a sync (shrink's name) or flush
    (obliv's name) sorts, in order."""
    lengths = []

    def spy_obli_sort(cache):
        lengths.append(len(cache))
        return obli_sort(cache)

    monkeypatch.setattr(shrink, "obli_sort", spy_obli_sort)
    monkeypatch.setattr(obliv, "obli_sort", spy_obli_sort)
    return lengths


def sizes(transcript, kind):
    return [(e.time, e.server, e.size) for e in transcript.by_kind(kind)]


def test_zero_counter_is_one_share_pair_draw():
    # The run's first counter and each sync's reset: a sharing of 0 that
    # takes the same one share-pair draw as any other counter.
    rand, same = ServerRandomness(4), ServerRandomness(4)
    for _ in range(3):
        counter = zero_counter(rand)
        assert recover(counter) == 0 and counter == counter_of(0, same)


# ---------------------------------------------------------------------------
# Timer protocol.

def test_timer_noop_off_schedule(sorted_slots):
    rand = PinnedRand([])
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10)
    counter = counter_of(5, rand)
    cache = filled_cache(5, 5)
    run = run_state(cfg, cache, rand, counter)
    report = sdp_timer_step(7, run)
    assert report is None
    assert run.counter == counter and run.cache is cache
    assert run.view.total_rows() == 0 and len(run.transcript) == 0
    assert sorted_slots == []


def test_timer_pinned_positive_size(sorted_slots):
    # c=30 with noise -4.2: sz = round(25.8) = 26 entries, real-first.
    rand = PinnedRand([-4.2])
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10)
    run = run_state(cfg, filled_cache(30, 10), rand, counter_of(30, rand))
    report = sdp_timer_step(10, run)
    assert report is not None
    assert report.pre_clamp == pytest.approx(25.8)
    assert report.size == 26
    assert run.view.total_rows() == 26
    assert run.view.real_rows() == 26  # reals fetched ahead of dummies
    assert len(run.cache) == 14
    assert recover(run.counter) == 0
    # Both servers see the released size and a share of the reset counter.
    assert sizes(run.transcript, TranscriptKind.SYNC_BATCH) == [(10, 0, 26), (10, 1, 26)]
    shares = run.transcript.by_kind(TranscriptKind.SHARE_RECEIVED)
    assert [e.share_value for e in shares] == list(run.counter)
    assert sorted_slots == [40]


def test_timer_pinned_clamped_to_zero():
    # c=2 with noise -7.9: sz = 0, view untouched, counter still reset.
    rand = PinnedRand([-7.9])
    cfg = ExperimentConfig(T=5, epsilon=1.5, b=10)
    run = run_state(cfg, filled_cache(2, 3), rand, counter_of(2, rand))
    report = sdp_timer_step(5, run)
    assert report is not None and report.size == 0
    assert report.pre_clamp == pytest.approx(-5.9)
    assert run.view.total_rows() == 0
    assert len(run.cache) == 5
    assert recover(run.counter) == 0


def test_timer_tops_up_with_dummies():
    rand = PinnedRand([4.0])
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1)
    run = run_state(cfg, filled_cache(2, 0), rand, counter_of(2, rand))
    report = sdp_timer_step(1, run)
    assert report.size == 6
    assert run.view.total_rows() == 6
    assert run.view.real_rows() == 2
    assert len(run.cache) == 0
    # One batch of six slots: the two cached reals and four top-up dummies.
    assert run.view.reals == [real_row(0), real_row(1)]
    assert run.view.batches == [(1, 6)] and run.view.counts == [2]


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


def test_ant_trigger_trace(sorted_slots):
    # theta-tilde = 32.1; c = 35 with check noise +1.3 crosses; output noise
    # -0.2 gives sz = round(34.8) = 35; threshold refreshed with noise 0.9.
    rand = PinnedRand([2.1, 1.3, -0.2, 0.9])
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    run = run_state(cfg, filled_cache(35, 5), rand, counter_of(35, rand), threshold)
    report = sdp_ant_step(1, run)
    counter, threshold = run.counter, run.threshold
    assert report is not None
    assert report.pre_clamp == pytest.approx(34.8)
    assert report.size == 35
    assert run.view.real_rows() == 35
    assert recover(counter) == 0
    assert recover_real(threshold) == 30 + 0.9
    # Per server: the check, the release, then shares of counter and threshold.
    for server in (0, 1):
        events = [e for e in run.transcript.events if e.server == server]
        assert [(e.kind, e.size) for e in events] == [
            (TranscriptKind.COMPARE_CHECK, 0), (TranscriptKind.SYNC_BATCH, 35),
            (TranscriptKind.SHARE_RECEIVED, 0), (TranscriptKind.SHARE_RECEIVED, 0),
            (TranscriptKind.SHARE_RECEIVED, 0)]
        assert [e.share_value for e in events[2:]] == [
            counter[server], threshold.hi[server], threshold.lo[server]]
    assert sorted_slots == [40]


def test_ant_below_threshold_no_trigger(sorted_slots):
    rand = PinnedRand([2.1, -1.0])
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    run = run_state(cfg, filled_cache(20, 0), rand, counter_of(20, rand), threshold)
    report = sdp_ant_step(1, run)
    assert report is None
    # Every step shows both servers a check, even one that does not sync.
    assert sizes(run.transcript, TranscriptKind.COMPARE_CHECK) == [(1, 0, 0), (1, 1, 0)]
    assert len(run.transcript) == 2 and sorted_slots == []
    assert recover(run.counter) == 20          # counter untouched
    assert recover_real(run.threshold) == 32.1  # threshold untouched
    assert run.view.total_rows() == 0


def test_ant_quiet_period_never_triggers():
    rand = PinnedRand([0.0], default=0.0)
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=30, epsilon=1.5, b=10)
    threshold = sdp_ant_init(cfg, rand)
    run = run_state(cfg, SecureCache(), rand, counter_of(0, rand), threshold)
    for t in range(1, 50):
        report = sdp_ant_step(t, run)
        assert report is None
    assert run.view.total_rows() == 0


def test_ant_trigger_monotone_with_zero_noise():
    # Counts grow 2 per step; with all noise pinned at zero the first trigger
    # is exactly the first step where c >= theta.
    cfg = ExperimentConfig(Protocol.DP_ANT, theta=5, epsilon=1.0, b=1)
    rand = PinnedRand([], default=0.0)
    run = run_state(cfg, SecureCache(), rand, threshold=sdp_ant_init(cfg, rand))
    c = 0
    trigger_at = None
    for t in range(1, 10):
        c += 2
        run.counter = counter_of(c, rand)
        report = sdp_ant_step(t, run)
        if report is not None:
            trigger_at = t
            break
    assert trigger_at == 3  # c = 6 is the first count >= 5


def test_ant_scales_protocol_and_proof():
    th, check, out = ant_scales(10, 1.5)
    # Exact, as a run's bytes rest on these values.
    assert (th, check, out) == (4 * 10 / 1.5, 8 * 10 / 1.5, 2 * 10 / 1.5)
    assert timer_scale(10, 1.5) == 10 / 1.5
    assert all(type(sc) is float for sc in (th, check, out, timer_scale(10, 1.5)))
    # m_ant draws at these scales. At zero noise one record crosses theta 0.5
    # at t = 1: a threshold, a check, the release and a refreshed threshold.
    # (The proofs' 4b/eps output scale is the tests' oracle's; test_leakage
    # checks it against these.)
    one = LogicalStream([StreamRecord(1, 1, (1,))], 1)
    scales = []
    m_ant(one, 0.5, 10, 1.5, lambda scale: scales.append(scale) or 0.0)
    assert scales == [b * 10 / 1.5 for b in (4, 8, 2, 4)]
    assert all(type(sc) is float for sc in scales)


# ---------------------------------------------------------------------------
# Flush.

def test_flush_on_schedule_paper_defaults(sorted_slots):
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10, f=2000, s=15)
    run = run_state(cfg, filled_cache(3, 30))
    report = flush_step(2000, run)
    assert sizes(run.transcript, TranscriptKind.FLUSH_BATCH) == [(2000, 0, 15), (2000, 1, 15)]
    assert sorted_slots == [33]
    assert report is not None and report.size == 15
    assert run.view.total_rows() == 15
    assert run.view.real_rows() == 3  # all reals land inside the 15
    assert len(run.cache) == 0
    assert report.real_lost == 0


def test_flush_off_schedule():
    cfg = ExperimentConfig(T=10, epsilon=1.5, b=10, f=2000, s=15)
    cache = filled_cache(3, 3)
    run = run_state(cfg, cache)
    report = flush_step(1999, run)
    assert report is None
    assert run.cache is cache and run.view.total_rows() == 0


def test_flush_size_zero_pure_recycle():
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1, f=1, s=0)
    run = run_state(cfg, filled_cache(2, 2))
    report = flush_step(1, run)
    assert report is not None and run.view.total_rows() == 0
    assert len(run.cache) == 0
    assert report.real_lost == 2


def test_flush_reports_lost_reals():
    cfg = ExperimentConfig(T=1, epsilon=1.0, b=1, f=1, s=4)
    run = run_state(cfg, filled_cache(6, 2))
    report = flush_step(1, run)
    assert run.view.real_rows() == 4
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


def test_bound_deferred_ant_precondition():
    # At t = 1 the formula gives 0, which real DPANT runs exceed.
    with pytest.raises(BoundPreconditionError):
        bound_deferred_ant(10, 1.5, 1)
    assert bound_deferred_ant(10, 1.5, 2) == pytest.approx(160 * math.log(2) / 1.5)


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


def test_dummy_bound_holds_on_real_timer_runs():
    # After the k-th sync, the padding rows the view holds (flushes included)
    # stay within bound_dummy_timer(b, epsilon, k, s, T, f, beta), except with
    # probability beta; the count above it is judged by the binomial-tail
    # rule of the deferred-entry test. A flush at a sync's step comes after it.
    beta = 0.05
    checked = above = 0
    for seed in range(10):
        config = ExperimentConfig(protocol=Protocol.DP_TIMER, operator=OperatorKind.FILTER,
                                  horizon=2000, f=500, seed=seed)
        result = run_experiment(config)
        view = result.final_view
        events = sorted([(r.t, 0, r.size) for r in result.sync_reports] +
                        [(f.t, 1, f.size) for f in result.flush_reports])
        assert [(t, size) for t, _, size in events] == view.batches
        padding = k = 0
        for (_, kind, size), real in zip(events, view.counts):
            padding += size - real
            if kind == 0:
                k += 1
                if k >= 4 * math.log(1 / beta):
                    checked += 1
                    above += padding > bound_dummy_timer(
                        config.b, config.epsilon, k, config.s, config.T, config.f, beta)
    assert checked == 10 * 189  # syncs 12..200 of each run
    assert binom.sf(above - 1, checked, beta) >= 1e-6, (above, checked)


@pytest.mark.parametrize("operator", [OperatorKind.FILTER, OperatorKind.SMJ])
def test_deferred_bound_holds_on_real_ant_runs(operator):
    # At every step t >= 2, the real entries still cached stay within
    # bound_deferred_ant(b, epsilon, t), whose precondition rejects t = 1.
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
    # The view holds its reals and each batch's slot and real counts.
    view = MaterializedView()
    view.append_batch([real_row(0), real_row(2)], 3, t=1)
    view.append_batch([], 2, t=2)
    view.append_batch([real_row(4)], 1, t=3)
    assert view.real_rows() == 3 and view.total_rows() == 6
    assert view.reals == [real_row(0), real_row(2), real_row(4)]
    assert view.batches == [(1, 3), (2, 2), (3, 1)] and view.counts == [2, 0, 1]
    with pytest.raises(ValueError, match="exceed"):
        view.append_batch([real_row(5), real_row(6)], 1, t=4)
    assert view.real_rows() == 3 and view.total_rows() == 6


@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
def test_padded_rows_are_each_batch_s_reals_then_padding(protocol):
    # The padded `rows` read, kept only for the benchmark's tracer: batch by
    # batch, its counts[i] reals in view order, then slots - counts[i]
    # padding slots of seq -1.
    view = run_experiment(ExperimentConfig(protocol=protocol, horizon=40, seed=2)).final_view
    rows, pos, start = view.rows, 0, 0
    assert len(rows) == view.total_rows()
    for (_, slots), n in zip(view.batches, view.counts):
        assert rows[pos:pos + n] == view.reals[start:start + n]
        assert rows[pos + n:pos + slots] == [SecureTuple(key=0, attrs=(), seq=-1)] * (slots - n)
        pos, start = pos + slots, start + n
    assert pos == len(rows) and start == len(view.reals) and 0 < start < pos


# ---------------------------------------------------------------------------
# The zero-noise limit on real runs.

@pytest.mark.parametrize("operator", list(OperatorKind))
@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
def test_zero_noise_syncs_move_every_cached_row(protocol, operator, monkeypatch):
    # At epsilon = 1e300 the noise is about 1e-299 slots, so a DP sync's
    # size is the real count to the last row, and the sync must leave no real
    # row cached: a sync that read the wrong rows, or one row short, fails.
    # Hot keys (Burst, multiplicity 3) make the three operators differ.
    syncs = []

    def checked(step):
        def sync_then_check(t, run):
            report = step(t, run)
            if report is not None:
                syncs.append((t, list(run.cache.entries)))  # the cache changes in place
            return report
        return sync_then_check

    name = {Protocol.DP_TIMER: "sdp_timer_step", Protocol.DP_ANT: "sdp_ant_step"}[protocol]
    monkeypatch.setattr(harness, name, checked(getattr(harness, name)))
    result = run_experiment(ExperimentConfig(
        protocol=protocol, operator=operator, epsilon=1e300, profile=Profile.BURST,
        multiplicity=3, c_r=12, horizon=400, omega=2, b=5, seed=1))
    assert len(syncs) == len(result.sync_reports) >= 20
    assert [t for t, entries in syncs if entries] == []
    # No flush falls in the horizon, and every synced slot holds a real row:
    # the view holds exactly the rows produced up to the last sync.
    view, last = result.final_view, syncs[-1][0]
    assert view.batches == [(r.t, r.size) for r in result.sync_reports]
    assert view.counts == [r.size for r in result.sync_reports]
    assert sum(view.counts) == sum(1 for row in result.produced_rows if row.timestamp <= last)
