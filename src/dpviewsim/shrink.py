"""DP synchronization of cached view entries into the materialized view.

Two protocols: a timer that syncs every T steps, and an above-noisy-threshold
variant that syncs when the noisy cached-entry count crosses a noisy
threshold. They differ only in when they sync: each draws joint noise from
server-contributed words and fresh shares, then runs the one sync body
`_sync`, which fetches a DP-sized batch from the sorted cache and hands out
the re-shared counter (and DPANT's new threshold). A periodic flush drains
the cache to keep dummy accumulation bounded.

Each step function takes the run's one validated config (the harness's
`ExperimentConfig`) and reads it by attribute; its docstring names the fields
it reads. A step that syncs or flushes nothing returns no report.
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
from .transcript import Transcript, TranscriptKind


class BoundPreconditionError(ValueError):
    """A closed-form bound was evaluated outside its stated precondition."""


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


def share_real(value: float, rand) -> ThresholdShares:
    """Share a float's two words, each guarded by `rand.seen_pairs`."""
    bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
    hi = share_in_protocol(bits >> 32, *rand.share_pair(), seen=rand.seen_pairs)
    lo = share_in_protocol(bits & _WORD, *rand.share_pair(), seen=rand.seen_pairs)
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
    """One sync's diagnostics (simulator-side, not adversary-visible)."""

    t: int
    pre_clamp: float
    size: int


def _sync(t: int, pre: float, cache: SecureCache, view: MaterializedView,
          transcript: Transcript, compare_counter: list, *shares: SharePair
          ) -> tuple[SecureCache, SyncReport]:
    """The sync both protocols run: sort the cache, move the first
    clamp_round(pre) slots into the view, and hand each server its half of
    every re-shared pair in `shares`, in order. Draws no randomness."""
    sz = clamp_round(pre)
    fetched, cache = cache_read(obli_sort(cache, compare_counter), sz)
    view.append_batch(fetched, sz, t)
    transcript.observe(t, TranscriptKind.SYNC_BATCH, sz, *shares)
    return cache, SyncReport(t, pre, sz)


def sdp_timer_step(t: int, config, counter: SharePair,
                   cache: SecureCache, view: MaterializedView, rand,
                   transcript: Transcript, compare_counter: list
                   ) -> tuple[SharePair, SecureCache, SyncReport | None]:
    """Sync a DP-sized batch every T steps; no-op, and no report, otherwise.

    Reads the config's `T`, `b` and `epsilon`.
    """
    if t % config.T != 0:
        return counter, cache, None
    pre = recover(counter) + rand.joint_laplace(timer_scale(config.b, config.epsilon))
    counter = share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)
    return (counter, *_sync(t, pre, cache, view, transcript, compare_counter, counter))


def sdp_ant_init(config, rand) -> ThresholdShares:
    """Draw and share the initial noisy threshold from the config's `theta`,
    `b` and `epsilon`."""
    th_scale, _, _ = ant_scales(config.b, config.epsilon)
    return share_real(config.theta + rand.joint_laplace(th_scale), rand)


def sdp_ant_step(t: int, config, counter: SharePair,
                 threshold: ThresholdShares, cache: SecureCache,
                 view: MaterializedView, rand, transcript: Transcript,
                 compare_counter: list
                 ) -> tuple[SharePair, ThresholdShares, SecureCache, SyncReport | None]:
    """Noisy-count vs noisy-threshold check; sync and refresh on a trigger,
    with no report otherwise. Reads the config's `theta`, `b` and `epsilon`.
    """
    th_scale, check_scale, out_scale = ant_scales(config.b, config.epsilon)
    c = recover(counter)
    check = c + rand.joint_laplace(check_scale)
    transcript.observe(t, TranscriptKind.COMPARE_CHECK, 0)
    if check < recover_real(threshold):
        return counter, threshold, cache, None
    pre = c + rand.joint_laplace(out_scale)
    threshold = share_real(config.theta + rand.joint_laplace(th_scale), rand)
    counter = share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)
    return (counter, threshold,
            *_sync(t, pre, cache, view, transcript, compare_counter, counter, *threshold))


class FlushReport(NamedTuple):
    t: int
    size: int
    real_lost: int


def flush_step(t: int, config, cache: SecureCache, view: MaterializedView,
               transcript: Transcript, compare_counter: list
               ) -> tuple[SecureCache, FlushReport | None]:
    """Every f steps: sort, move s entries to the view, recycle the rest; no
    report on other steps. Reads the config's `f` and `s`."""
    if t % config.f != 0:
        return cache, None
    real_before = cache.real_count() + view.real_rows()
    fetched, cache = cache_flush(cache, config.s, compare_counter)
    view.append_batch(fetched, config.s, t)
    transcript.observe(t, TranscriptKind.FLUSH_BATCH, config.s)
    return cache, FlushReport(t, config.s, real_before - view.real_rows())


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
