"""Reference DP mechanisms and the transcript audit.

An owner's logical stream is its database held per step, a `harness.Steps`
dict: each step's `(key, attrs)` records, as `harness.synth_stream` hands them
out or `harness.load_stream` reads them, which `harness.client_batches` stamps
into that step's owner batch. The reference mechanisms mirror the sync
protocols' observable behavior from those steps alone, over steps 1 to the
run's horizon and none past it, with the noise draw they are given: what an
adversary may learn is at most what they release.
tests/test_replay feeds `m_timer` and `m_ant` a real run's draws and checks
that they release exactly its syncs; tests/oracles runs the same mechanisms
over many trials for the empirical privacy-loss estimator. The audit asserts
that every transcript size is either a function of public configuration or a
coupled DP release. No run, CLI call or audit reaches the mechanisms yet, so
tests/test_reachability allow-lists them until ROADMAP item 3 makes them part
of a run; no module that a run imports imports this one.

The mechanisms' noise is calibrated to b, on the premise that one logical
update moves the produced-row stream by at most b rows. tests/test_sensitivity
checks that half of the DP argument on real runs: it deletes each record of
hot-key streams in turn and bounds the change of the per-step produced rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .harness import Steps
from .shrink import ant_scales, timer_scale
# Callers of the audit also reach the transcript types through this module.
from .transcript import Transcript, TranscriptEvent, TranscriptKind


# ---------------------------------------------------------------------------
# Reference mechanisms.

def arrivals_per_step(steps: Steps, horizon: int) -> list[int]:
    """The record count of each step 0..horizon; steps past `horizon`,
    which a stream read from a file may hold, are not read."""
    return [len(steps.get(t, ())) for t in range(horizon + 1)]


def m_timer(steps: Steps, horizon: int, T: int, b: float, epsilon: float,
            draw: Callable[[float], float]) -> list[tuple[int, float]]:
    """Noisy per-window arrival counts at every multiple of T up to the run's
    `horizon`, from the records of `steps`; each noise draw is `draw(scale)`,
    e.g. `ServerRandomness(seed).joint_laplace`."""
    counts = arrivals_per_step(steps, horizon)
    scale = timer_scale(b, epsilon)
    out = []
    for t in range(T, horizon + 1, T):
        c = sum(counts[max(0, t - T + 1): t + 1])
        out.append((t, c + draw(scale)))
    return out


def m_ant(steps: Steps, horizon: int, theta: float, b: float, epsilon: float,
          draw: Callable[[float], float]) -> list[tuple[int, float | None]]:
    """Noisy counts since the last release at each step 1..`horizon` whose
    noisy count reaches a noisy threshold, None where a step releases
    nothing, at the protocol's scales (`shrink.ant_scales`). In the
    protocol's order it draws a threshold, a check per step, then per
    trigger the release and a refreshed threshold; `horizon` and `draw` are
    as in `m_timer`."""
    th_scale, check_scale, out_scale = ant_scales(b, epsilon)
    counts = arrivals_per_step(steps, horizon)
    noisy_th = theta + draw(th_scale)
    since = 0
    out: list[tuple[int, float | None]] = []
    for t in range(1, horizon + 1):
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
