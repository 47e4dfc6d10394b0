"""Reference DP mechanisms, empirical privacy loss, and the transcript audit.

The reference mechanisms mirror the sync protocols' observable behavior from
the logical stream alone, up to its own horizon, with the noise source they
are given: what an adversary may learn is at most what these mechanisms
release. The threshold ones draw a run's scales by default; variant="proof"
selects the analysis's output scale. The empirical estimator measures privacy
loss between neighboring streams from the mechanisms' vectorized `run_many`
trials; the audit asserts that every transcript size is either a function of
public configuration or a coupled DP release.

The mechanisms' noise is calibrated to b, on the premise that one logical
update moves the produced-row stream by at most b rows. tests/test_sensitivity
checks that half of the DP argument on real runs: it deletes each record of
hot-key streams in turn and bounds the change of the per-step produced rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dpnoise import laplace_oracle_many
from .shrink import ant_scales, timer_scale
# Callers of the audit also reach the transcript types through this module.
from .transcript import Transcript, TranscriptEvent, TranscriptKind


class NeighborViolation(ValueError):
    """The two streams do not differ by exactly one logical update."""


class StreamRecord(NamedTuple):
    t: int
    key: int
    attrs: tuple[int, ...]


@dataclass
class LogicalStream:
    """Insertion-only growing database: time-stamped records."""

    arrivals: list[StreamRecord]
    horizon: int

    def arrivals_per_step(self) -> np.ndarray:
        counts = np.zeros(self.horizon + 1, dtype=np.int64)
        for rec in self.arrivals:
            if 1 <= rec.t <= self.horizon:
                counts[rec.t] += 1
        return counts


def assert_neighbors(a: LogicalStream, b: LogicalStream) -> None:
    """Neighbors differ by the addition or removal of one logical update."""
    from collections import Counter
    ca = Counter(a.arrivals)
    cb = Counter(b.arrivals)
    diff = ca - cb
    rdiff = cb - ca
    n_extra = sum(diff.values())
    n_missing = sum(rdiff.values())
    if (n_extra, n_missing) not in ((1, 0), (0, 1)):
        raise NeighborViolation(
            f"streams differ by {n_extra} additions and {n_missing} removals")


# ---------------------------------------------------------------------------
# Reference mechanisms.

def m_timer(stream: LogicalStream, T: int, b: float, epsilon: float,
            noise) -> list[tuple[int, float]]:
    """Noisy per-window arrival counts at every multiple of T up to the
    stream's horizon; each noise draw is `noise.laplace(scale)`, as a
    `randomness.SeededLaplace` gives."""
    counts = stream.arrivals_per_step()
    scale = timer_scale(b, epsilon)
    out = []
    for t in range(T, stream.horizon + 1, T):
        c = int(counts[max(0, t - T + 1): t + 1].sum())
        out.append((t, c + noise.laplace(scale)))
    return out


def m_ant(stream: LogicalStream, theta: float, b: float, epsilon: float, noise,
          variant: str = "protocol") -> list[tuple[int, float | None]]:
    """Sparse-vector release of counts-since-last-release.

    Draw order matches the threshold protocol exactly: initial threshold,
    one check per step, then release noise and a threshold refresh on each
    trigger; `noise` gives the draws as in `m_timer`. variant selects the
    output-noise scale ("protocol" couples with the running protocol;
    "proof" matches the reference analysis).
    """
    counts = stream.arrivals_per_step()
    th_scale, check_scale, out_scale = ant_scales(b, epsilon, variant)
    noisy_th = theta + noise.laplace(th_scale)
    out: list[tuple[int, float | None]] = []
    since = 0
    for t in range(1, stream.horizon + 1):
        since += int(counts[t])
        check = since + noise.laplace(check_scale)
        if check >= noisy_th:
            released = since + noise.laplace(out_scale)
            out.append((t, released))
            noisy_th = theta + noise.laplace(th_scale)
            since = 0
        else:
            out.append((t, None))
    return out


# Vectorized trial runners for the empirical estimator.

class TimerMechanism:
    def __init__(self, T: int, b: float, epsilon: float):
        self.T, self.b, self.epsilon = T, b, epsilon

    def run_many(self, stream: LogicalStream, trials: int, rng) -> np.ndarray:
        counts = stream.arrivals_per_step()
        sync_ts = range(self.T, stream.horizon + 1, self.T)
        base = np.array([counts[max(0, t - self.T + 1): t + 1].sum() for t in sync_ts],
                        dtype=np.float64)
        noise = laplace_oracle_many(timer_scale(self.b, self.epsilon),
                                    (trials, len(base)), rng)
        return base[None, :] + noise


class AntMechanism:
    def __init__(self, theta: float, b: float, epsilon: float,
                 variant: str = "protocol"):
        self.theta, self.b, self.epsilon, self.variant = theta, b, epsilon, variant

    def run_many(self, stream: LogicalStream, trials: int, rng) -> np.ndarray:
        h = stream.horizon
        counts = stream.arrivals_per_step()
        cum = np.cumsum(counts)
        th_scale, check_scale, out_scale = ant_scales(self.b, self.epsilon, self.variant)
        noisy_th = self.theta + laplace_oracle_many(th_scale, trials, rng)
        last_cum = np.zeros(trials)
        out = np.zeros((trials, h))
        for t in range(1, h + 1):
            since = cum[t] - last_cum
            check = since + laplace_oracle_many(check_scale, trials, rng)
            trig = check >= noisy_th
            if trig.any():
                hits = int(trig.sum())
                out[trig, t - 1] = since[trig] + laplace_oracle_many(out_scale, hits, rng)
                noisy_th[trig] = self.theta + laplace_oracle_many(th_scale, hits, rng)
                last_cum[trig] = cum[t]
        return out


def empirical_privacy_loss(mechanism, stream_a: LogicalStream,
                           stream_b: LogicalStream, trials: int,
                           seed: int = 0, min_bin: int | None = None) -> float:
    """Estimate max_o |ln(Pr_a[o] / Pr_b[o])| over binned output vectors.

    `mechanism.run_many(stream, trials, rng)` gives one output vector per
    trial as the rows of an array. Outputs are quantized to integers per
    timestep; bins need at least min_bin samples on both sides to enter the
    maximum. The default cutoff
    grows with the trial count (never below 100) so the sampling noise on a
    qualifying bin's log-ratio stays well under the scales being measured.
    Identical streams are accepted as a degenerate case (the estimator's
    noise floor).
    """
    if min_bin is None:
        min_bin = max(100, trials // 20)
    if sorted(stream_a.arrivals) != sorted(stream_b.arrivals):
        assert_neighbors(stream_a, stream_b)
    rng_a = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    rng_b = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    def histogram(stream, rng):
        quantized = np.floor(mechanism.run_many(stream, trials, rng) + 0.5).astype(np.int64)
        bins: dict[tuple, int] = {}
        for row in quantized:
            key = tuple(row.tolist())
            bins[key] = bins.get(key, 0) + 1
        return bins

    bins_a = histogram(stream_a, rng_a)
    bins_b = histogram(stream_b, rng_b)
    worst = 0.0
    for key, ca in bins_a.items():
        cb = bins_b.get(key, 0)
        if ca >= min_bin and cb >= min_bin:
            worst = max(worst, abs(math.log(ca / cb)))
    return worst


# ---------------------------------------------------------------------------
# Transcript audit.

@dataclass
class AuditExpectation:
    """Public-configuration sizes the transcript must match.

    sync_sizes maps sync time -> expected batch size (clamped, rounded oracle
    release); when sync_equals_transform is set instead, each step's sync must
    equal that step's padded transform size (exhaustive-padding baselines).
    """

    owner_batch: int | None = None
    transform_size: Callable[[int], int] | None = None
    flush_interval: int | None = None
    flush_size: int | None = None
    sync_sizes: dict[int, int] | None = None
    sync_equals_transform: bool = False


@dataclass
class AuditReport:
    passed: bool
    violations: list[str] = field(default_factory=list)

    def lines(self) -> str:
        if self.passed:
            return "audit: pass\n"
        return "".join(v + "\n" for v in self.violations)


def transcript_audit(transcript: Transcript, expect: AuditExpectation) -> AuditReport:
    """Flag any event size that is neither config-determined nor a DP release."""
    violations: list[str] = []

    def flag(e: TranscriptEvent, reason: str) -> None:
        violations.append(
            f"t={e.time} server={e.server} kind={e.kind.value} size={e.size}: {reason}")

    seen_syncs: set[int] = set()
    for e in transcript.events:
        if e.kind is TranscriptKind.OWNER_UPLOAD:
            if expect.owner_batch is not None and e.size != expect.owner_batch:
                flag(e, f"owner upload size must equal batch size {expect.owner_batch}")
        elif e.kind is TranscriptKind.TRANSFORM_OUTPUT:
            if expect.transform_size is not None and e.size != expect.transform_size(e.time):
                flag(e, f"transform output size must equal padded size "
                        f"{expect.transform_size(e.time)}")
        elif e.kind is TranscriptKind.FLUSH_BATCH:
            if expect.flush_interval is not None and e.time % expect.flush_interval != 0:
                flag(e, f"flush outside schedule (interval {expect.flush_interval})")
            if expect.flush_size is not None and e.size != expect.flush_size:
                flag(e, f"flush size must equal configured {expect.flush_size}")
        elif e.kind is TranscriptKind.SYNC_BATCH:
            seen_syncs.add(e.time)
            if expect.sync_sizes is not None:
                want = expect.sync_sizes.get(e.time)
                if want is None:
                    flag(e, "sync at a time with no coupled release")
                elif e.size != want:
                    flag(e, f"sync size must equal coupled DP release {want}")
            elif expect.sync_equals_transform:
                if expect.transform_size is None or e.size != expect.transform_size(e.time):
                    flag(e, "sync size must equal padded transform size")
        elif e.kind in (TranscriptKind.SHARE_RECEIVED, TranscriptKind.COMPARE_CHECK):
            if e.size != 0:
                flag(e, "share/check events must carry no size")
    if expect.sync_sizes is not None:
        for t in sorted(set(expect.sync_sizes) - seen_syncs):
            violations.append(f"t={t} kind=SyncBatch: expected release missing")
    return AuditReport(passed=not violations, violations=violations)
