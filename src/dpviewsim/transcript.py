"""What each server observes during a run: sizes, timestamps and shares.

Both servers see every observation, so `add` stores one plain row per
observation and counts the per-server events the rows stand for: the
transcript's length. A run records rows and reads none of them; only the
transcript audit and the tests read the events, after the run. `events`
expands each row not yet built when it is read, server 0's size event and its
half of each re-shared pair, then server 1's, and keeps them. Every read
returns the same list, so an event replaced in it stays replaced for the next
read and for the audit; the benchmark's gate test forges a size that way.
Events are slotted, not frozen: a frozen dataclass pays for an
object.__setattr__ call per field on every construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TranscriptKind(enum.Enum):
    OWNER_UPLOAD = "OwnerUpload"
    TRANSFORM_OUTPUT = "TransformOutput"
    SYNC_BATCH = "SyncBatch"
    FLUSH_BATCH = "FlushBatch"
    SHARE_RECEIVED = "ShareReceived"
    COMPARE_CHECK = "CompareCheck"


@dataclass(slots=True)
class TranscriptEvent:
    time: int
    server: int
    kind: TranscriptKind
    size: int
    share_value: int | None = None


class Transcript:
    """Ordered per-server record of observed sizes, timestamps and shares."""

    def __init__(self):
        self._rows: list[tuple] = []
        self._events: list[TranscriptEvent] = []
        self._built = 0  # rows whose events are in _events
        self._count = 0  # per-server events the rows stand for

    def add(self, time: int, kind: TranscriptKind, size: int,
            shares: tuple[tuple[int, int], ...] = ()) -> None:
        """Both servers see `size`, then their half of each of `shares`."""
        self._rows.append((time, kind, size, shares))
        self._count += 2 * (1 + len(shares))

    @property
    def events(self) -> list[TranscriptEvent]:
        """One event per server per size or share seen, in order; the same list on every read."""
        events, share = self._events, TranscriptKind.SHARE_RECEIVED
        for time, kind, size, shares in self._rows[self._built:]:
            for server in (0, 1):
                events.append(TranscriptEvent(time, server, kind, size))
                for pair in shares:
                    events.append(TranscriptEvent(time, server, share, 0, pair[server]))
        self._built = len(self._rows)
        return events

    def by_kind(self, kind: TranscriptKind, server: int | None = None) -> list[TranscriptEvent]:
        return [e for e in self.events
                if e.kind is kind and (server is None or e.server == server)]

    def __len__(self) -> int:
        return self._count
