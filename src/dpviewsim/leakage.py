"""Reference DP mechanisms, empirical privacy loss, and the transcript audit.

The reference mechanisms mirror the sync protocols' observable behavior from
the logical stream alone, up to its own horizon, with the noise draw they
are given: what an adversary may learn is at most what they release. Each
has one body. `m_timer` and `m_ant` run it once with the caller's draw, which
tests/test_replay ties to real runs; `run_many` runs it over many trials with
oracle draws, and the empirical estimator measures privacy loss between
neighboring streams from those trials. The audit asserts that every transcript
size is either a function of public configuration or a coupled DP release.
No run, CLI call or audit reaches the mechanisms or the estimator yet, so
tests/test_reachability allow-lists them as test oracles until ROADMAP items 3,
12 and 13 make them part of a run.

The mechanisms' noise is calibrated to b, on the premise that one logical
update moves the produced-row stream by at most b rows. tests/test_sensitivity
checks that half of the DP argument on real runs: it deletes each record of
hot-key streams in turn and bounds the change of the per-step produced rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dpnoise import NoiseScale, laplace_oracle
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
            draw: Callable[[NoiseScale], float]) -> list[tuple[int, float]]:
    """Noisy per-window arrival counts at every multiple of T up to the
    stream's horizon; each noise draw is `draw(scale)`, e.g.
    `ServerRandomness(seed).joint_laplace`, or `dpnoise.laplace_oracle` bound
    to a generator and, in `TimerMechanism.run_many`, to a trial count."""
    counts = stream.arrivals_per_step()
    scale = timer_scale(b, epsilon)
    out = []
    for t in range(T, stream.horizon + 1, T):
        c = int(counts[max(0, t - T + 1): t + 1].sum())
        out.append((t, c + draw(scale)))
    return out


def _threshold(stream: LogicalStream, theta: float, b: float, epsilon: float,
               variant: str, draw: Callable[[NoiseScale, int], np.ndarray],
               trials: int) -> np.ndarray:
    """Noisy counts-since-last-release of `trials` sparse-vector runs at once
    (a row per run, a column per step, NaN where none is released). In the
    protocol's order, `draw(scale, n)` gives the n runs that need one each a
    threshold, a check per step, then a release and a refresh per trigger."""
    cum = np.cumsum(stream.arrivals_per_step())
    th_scale, check_scale, out_scale = ant_scales(b, epsilon)
    if variant == "proof":
        out_scale = NoiseScale(b, epsilon / 4)  # the proofs' output scale, 4b/eps
    elif variant != "protocol":
        raise ValueError(f"unknown variant {variant!r}")
    noisy_th = theta + draw(th_scale, trials)
    last_cum = np.zeros(trials)
    out = np.full((trials, stream.horizon), np.nan)
    for t in range(1, stream.horizon + 1):
        since = cum[t] - last_cum
        trig = since + draw(check_scale, trials) >= noisy_th
        if trig.any():
            hits = int(trig.sum())
            out[trig, t - 1] = since[trig] + draw(out_scale, hits)
            noisy_th[trig] = theta + draw(th_scale, hits)
            last_cum[trig] = cum[t]
    return out


def m_ant(stream: LogicalStream, theta: float, b: float, epsilon: float,
          draw: Callable[[NoiseScale], float],
          variant: str = "protocol") -> list[tuple[int, float | None]]:
    """The threshold mechanism's one-run case, None where a step releases
    nothing; `draw` gives the draws as in `m_timer`. `variant` selects the
    output scale: the running protocol's (`shrink.ant_scales`) by default, or
    "proof" for the proofs' 4b/epsilon."""
    out = _threshold(stream, theta, b, epsilon, variant,
                     lambda scale, n: np.full(n, draw(scale)), 1)[0]
    return [(t, None if math.isnan(v) else v) for t, v in enumerate(out.tolist(), 1)]


# Trial runners for the empirical estimator: the bodies above, one oracle draw per trial.

class TimerMechanism:
    def __init__(self, T: int, b: float, epsilon: float):
        self.T, self.b, self.epsilon = T, b, epsilon

    def run_many(self, stream: LogicalStream, trials: int, rng) -> np.ndarray:
        out = m_timer(stream, self.T, self.b, self.epsilon,
                      lambda scale: laplace_oracle(scale, rng, trials))
        return np.array([v for _, v in out]).reshape(len(out), trials).T


class AntMechanism:
    def __init__(self, theta: float, b: float, epsilon: float,
                 variant: str = "protocol"):
        self.theta, self.b, self.epsilon, self.variant = theta, b, epsilon, variant

    def run_many(self, stream: LogicalStream, trials: int, rng) -> np.ndarray:
        out = _threshold(stream, self.theta, self.b, self.epsilon, self.variant,
                         lambda scale, n: laplace_oracle(scale, rng, n), trials)
        return np.nan_to_num(out, nan=0.0)


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
    rng_a, rng_b = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))

    def histogram(stream, rng):
        quantized = np.floor(mechanism.run_many(stream, trials, rng) + 0.5).astype(np.int64)
        if not quantized.shape[1]:  # no column to zip: every trial's vector is ()
            return Counter({(): len(quantized)})
        return Counter(zip(*quantized.T.tolist()))

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
