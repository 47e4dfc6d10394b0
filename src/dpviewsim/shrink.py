"""DP synchronization of cached view entries into the materialized view.

Two protocols: a timer that syncs every T steps, and an above-noisy-threshold
variant that syncs when the noisy cached-entry count crosses a noisy
threshold. Both draw joint noise from server-contributed words, fetch a
DP-sized batch from the sorted cache, and re-share the reset counter. A
periodic flush drains the cache to keep dummy accumulation bounded.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

from .dpnoise import NoiseScale
from .obliv import DUMMY, SecureCache, SecureTuple, cache_flush, cache_read, obli_sort
from .sharing import SharePair, recover, share_in_protocol
from .transform import CounterShares
from .transcript import Transcript, TranscriptKind


class BoundPreconditionError(ValueError):
    """A closed-form bound was evaluated outside its stated precondition."""


@dataclass(frozen=True)
class TimerConfig:
    T: int
    epsilon: float
    b: int
    f: int = 2000
    s: int = 15

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if self.epsilon <= 0 or self.b <= 0 or self.s < 0:
            raise ValueError("epsilon and b must be positive, s non-negative")


@dataclass(frozen=True)
class AntConfig:
    theta: float
    epsilon: float
    b: int
    f: int = 2000
    s: int = 15

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if self.epsilon <= 0 or self.b <= 0 or self.s < 0:
            raise ValueError("epsilon and b must be positive, s non-negative")


def timer_scale(b: float, epsilon: float) -> NoiseScale:
    return NoiseScale(b, epsilon)


@functools.cache
def ant_scales(b: float, epsilon: float, variant: str = "protocol") -> tuple[NoiseScale, NoiseScale, NoiseScale]:
    """(threshold, check, output) noise scales for the threshold protocol.

    Sub-budgets are eps1/2, eps1/4 and eps2 with eps1 = eps2 = epsilon/2,
    giving scales 4b/eps, 8b/eps and 2b/eps. The proofs' reference mechanism
    uses 4b/eps for the output; variant="proof" selects it. The scales are
    immutable and built once per argument tuple.
    """
    eps1 = epsilon / 2
    eps2 = epsilon / 2
    threshold = NoiseScale(b, eps1 / 2)
    check = NoiseScale(b, eps1 / 4)
    if variant == "protocol":
        out = NoiseScale(b, eps2)
    elif variant == "proof":
        out = NoiseScale(b, epsilon / 4)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return threshold, check, out


class ThresholdShares(NamedTuple):
    """Noisy threshold secret-shared word-wise (float64 bit pattern)."""

    hi: SharePair
    lo: SharePair


_WORD = (1 << 32) - 1


def share_real(value: float, rand, seen: set | None = None) -> ThresholdShares:
    bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    hi = share_in_protocol(bits >> 32, *rand.share_pair(), seen=seen)
    lo = share_in_protocol(bits & _WORD, *rand.share_pair(), seen=seen)
    return ThresholdShares(hi, lo)


def recover_real(shares: ThresholdShares) -> float:
    bits = (recover(shares.hi) << 32) | recover(shares.lo)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def clamp_round(x: float) -> int:
    """Nearest integer (half away from zero upward), clamped at zero."""
    return max(0, math.floor(x + 0.5))


@dataclass
class MaterializedView:
    """Append-only synchronized view: its real rows, and per sync or flush
    batch its (t, slots) in `batches` and its real count in `counts`."""

    reals: list[SecureTuple] = field(init=False, default_factory=list)
    batches: list[tuple[int, int]] = field(init=False, default_factory=list)
    counts: list[int] = field(init=False, default_factory=list)
    _total: int = field(init=False, default=0, repr=False, compare=False)

    def append_batch(self, reals: list[SecureTuple], slots: int, t: int) -> None:
        if len(reals) > slots:
            raise ValueError(f"{len(reals)} real rows exceed {slots} slots")
        self.reals += reals
        self.batches.append((t, slots))
        self.counts.append(len(reals))
        self._total += slots

    @property
    def rows(self) -> list[SecureTuple]:
        """The padded view, rebuilt per read: each batch's reals, then DUMMY."""
        rows, start = [], 0
        for (_, slots), n in zip(self.batches, self.counts):
            rows += self.reals[start:start + n] + [DUMMY] * (slots - n)
            start += n
        return rows

    def total_rows(self) -> int:
        return self._total

    def real_rows(self) -> int:
        return len(self.reals)


class SyncReport(NamedTuple):
    """Per-step protocol diagnostics (simulator-side, not adversary-visible)."""

    t: int
    triggered: bool
    pre_clamp: float | None = None
    size: int | None = None


def sdp_timer_step(t: int, config: TimerConfig, counter: CounterShares,
                   cache: SecureCache, view: MaterializedView, rand,
                   transcript: Transcript,
                   compare_counter: list) -> tuple[CounterShares, SecureCache, SyncReport]:
    """Sync a DP-sized batch every T steps; no-op otherwise."""
    if t % config.T != 0:
        return counter, cache, SyncReport(t, False)
    c = recover(counter)
    noise = rand.joint_laplace(timer_scale(config.b, config.epsilon))
    pre = c + noise
    sz = clamp_round(pre)
    cache = obli_sort(cache, compare_counter)
    fetched, cache = cache_read(cache, sz)
    view.append_batch(fetched, sz, t)
    counter = share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)
    for server in (0, 1):
        transcript.add(t, server, TranscriptKind.SYNC_BATCH, sz)
        transcript.add(t, server, TranscriptKind.SHARE_RECEIVED, 0,
                       share_value=counter[server])
    return counter, cache, SyncReport(t, True, pre, sz)


def sdp_ant_init(config: AntConfig, rand) -> ThresholdShares:
    """Draw and share the initial noisy threshold."""
    th_scale, _, _ = ant_scales(config.b, config.epsilon)
    noisy = config.theta + rand.joint_laplace(th_scale)
    return share_real(noisy, rand, seen=rand.seen_pairs)


def sdp_ant_step(t: int, config: AntConfig, counter: CounterShares,
                 threshold: ThresholdShares, cache: SecureCache,
                 view: MaterializedView, rand, transcript: Transcript,
                 compare_counter: list
                 ) -> tuple[CounterShares, ThresholdShares, SecureCache, SyncReport]:
    """Noisy-count vs noisy-threshold check; sync and refresh on a trigger."""
    th_scale, check_scale, out_scale = ant_scales(config.b, config.epsilon)
    c = recover(counter)
    th = recover_real(threshold)
    check = c + rand.joint_laplace(check_scale)
    for server in (0, 1):
        transcript.add(t, server, TranscriptKind.COMPARE_CHECK, 0)
    if check < th:
        return counter, threshold, cache, SyncReport(t, False)

    pre = c + rand.joint_laplace(out_scale)
    sz = clamp_round(pre)
    cache = obli_sort(cache, compare_counter)
    fetched, cache = cache_read(cache, sz)
    view.append_batch(fetched, sz, t)
    new_noisy = config.theta + rand.joint_laplace(th_scale)
    threshold = share_real(new_noisy, rand, seen=rand.seen_pairs)
    counter = share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)
    for server in (0, 1):
        transcript.add(t, server, TranscriptKind.SYNC_BATCH, sz)
        transcript.add(t, server, TranscriptKind.SHARE_RECEIVED, 0,
                       share_value=counter[server])
        transcript.add(t, server, TranscriptKind.SHARE_RECEIVED, 0,
                       share_value=threshold.hi[server])
        transcript.add(t, server, TranscriptKind.SHARE_RECEIVED, 0,
                       share_value=threshold.lo[server])
    return counter, threshold, cache, SyncReport(t, True, pre, sz)


class FlushReport(NamedTuple):
    t: int
    flushed: bool
    size: int = 0
    real_lost: int = 0


def flush_step(t: int, config, cache: SecureCache, view: MaterializedView,
               transcript: Transcript,
               compare_counter: list) -> tuple[SecureCache, FlushReport]:
    """Every f steps: sort, move s entries to the view, recycle the rest."""
    if t % config.f != 0:
        return cache, FlushReport(t, False)
    real_before = cache.real_count() + view.real_rows()
    fetched, cache = cache_flush(cache, config.s, compare_counter)
    view.append_batch(fetched, config.s, t)
    for server in (0, 1):
        transcript.add(t, server, TranscriptKind.FLUSH_BATCH, config.s)
    return cache, FlushReport(t, True, config.s, real_before - view.real_rows())


# ---------------------------------------------------------------------------
# Closed-form utility bounds (natural logs throughout).

def bound_deferred_timer(b: float, epsilon: float, k: int, beta: float) -> float:
    """High-probability bound on deferred entries after the k-th timer sync."""
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if k < 4 * math.log(1 / beta):
        raise BoundPreconditionError(
            f"k={k} below precondition 4*ln(1/beta)={4 * math.log(1 / beta):.3f}")
    return (2 * b / epsilon) * math.sqrt(k * math.log(1 / beta))


def bound_dummy_timer(b: float, epsilon: float, k: int, s: float, T: int,
                      f: int, beta: float) -> float:
    """Bound on rows inserted into the view after k timer syncs, flush included."""
    return bound_deferred_timer(b, epsilon, k, beta) + s * k * T / f


def bound_deferred_ant(b: float, epsilon: float, t: float) -> float:
    """Deferred-entry bound for the threshold protocol at time t."""
    if t < 1:
        raise BoundPreconditionError(f"t must be >= 1, got {t}")
    return 16 * b * math.log(t) / epsilon
