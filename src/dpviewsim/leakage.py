"""Reference DP mechanisms and the transcript audit.

The reference mechanisms mirror the sync protocols' observable behavior from
the logical stream alone, up to its own horizon, with the noise draw they
are given: what an adversary may learn is at most what they release.
tests/test_replay feeds `m_timer` and `m_ant` a real run's draws and checks
that they release exactly its syncs; tests/oracles runs the same mechanisms
over many trials for the empirical privacy-loss estimator. The audit asserts
that every transcript size is either a function of public configuration or a
coupled DP release. No run, CLI call or audit reaches the mechanisms yet, so
tests/test_reachability allow-lists them until ROADMAP item 3 makes them part
of a run.

The mechanisms' noise is calibrated to b, on the premise that one logical
update moves the produced-row stream by at most b rows. tests/test_sensitivity
checks that half of the DP argument on real runs: it deletes each record of
hot-key streams in turn and bounds the change of the per-step produced rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .shrink import ant_scales, timer_scale
# Callers of the audit also reach the transcript types through this module.
from .transcript import Transcript, TranscriptEvent, TranscriptKind


class StreamRecord(NamedTuple):
    t: int
    key: int
    attrs: tuple[int, ...]


# Builds a StreamRecord from its three fields without the Python-level call of
# the generated constructor: stream_record((t, key, attrs)).
stream_record = functools.partial(tuple.__new__, StreamRecord)


@dataclass
class LogicalStream:
    """Insertion-only growing database: time-stamped records."""

    arrivals: list[StreamRecord]
    horizon: int

    def arrivals_per_step(self) -> list[int]:
        counts = [0] * (self.horizon + 1)
        for rec in self.arrivals:
            if 1 <= rec.t <= self.horizon:
                counts[rec.t] += 1
        return counts


# ---------------------------------------------------------------------------
# Reference mechanisms.

def m_timer(stream: LogicalStream, T: int, b: float, epsilon: float,
            draw: Callable[[float], float]) -> list[tuple[int, float]]:
    """Noisy per-window arrival counts at every multiple of T up to the
    stream's horizon; each noise draw is `draw(scale)`, e.g.
    `ServerRandomness(seed).joint_laplace`."""
    counts = stream.arrivals_per_step()
    scale = timer_scale(b, epsilon)
    out = []
    for t in range(T, stream.horizon + 1, T):
        c = sum(counts[max(0, t - T + 1): t + 1])
        out.append((t, c + draw(scale)))
    return out


def m_ant(stream: LogicalStream, theta: float, b: float, epsilon: float,
          draw: Callable[[float], float]) -> list[tuple[int, float | None]]:
    """Noisy counts since the last release at each step whose noisy count
    reaches a noisy threshold, None where a step releases nothing, at the
    protocol's scales (`shrink.ant_scales`). In the protocol's order it draws
    a threshold, a check per step, then per trigger the release and a
    refreshed threshold; `draw` gives the draws as in `m_timer`."""
    th_scale, check_scale, out_scale = ant_scales(b, epsilon)
    counts = stream.arrivals_per_step()
    noisy_th = theta + draw(th_scale)
    since = 0
    out: list[tuple[int, float | None]] = []
    for t in range(1, stream.horizon + 1):
        since += counts[t]
        if since + draw(check_scale) >= noisy_th:
            out.append((t, since + draw(out_scale)))
            noisy_th = theta + draw(th_scale)
            since = 0
        else:
            out.append((t, None))
    return out


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
