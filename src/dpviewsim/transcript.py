"""What each server observes during a run: sizes, timestamps and shares.

Both servers see every observation. `observe` fans one out into one row per
server: server 0's size row and then its half of each re-shared pair, then the
same for server 1. A run records rows and reads none of them: only the
transcript audit and the tests read the events, after the run. So `add`
stores a plain `(time, server, kind, size, share_value)` tuple, and `events`
builds a `TranscriptEvent` for each row not yet built when it is read, and
keeps them. Every read returns the same list, so an event replaced in it stays
replaced for the next read and for the audit; the benchmark's gate test forges
a size that way. Events are slotted, not frozen: a frozen dataclass pays for
an object.__setattr__ call per field on every construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import starmap


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
        self._built = 0  # rows that have an event in _events

    def add(self, time: int, server: int, kind: TranscriptKind, size: int,
            share_value: int | None = None) -> None:
        self._rows.append((time, server, kind, size, share_value))

    def observe(self, time: int, kind: TranscriptKind, size: int,
                *shares: tuple[int, int]) -> None:
        """Each server in turn sees `size`, then its half of each pair in `shares`."""
        for server in (0, 1):
            self.add(time, server, kind, size)
            for pair in shares:
                self.add(time, server, TranscriptKind.SHARE_RECEIVED, 0, pair[server])

    @property
    def events(self) -> list[TranscriptEvent]:
        """One event per row, in order of addition; the same list on every read."""
        if self._built < len(self._rows):
            self._events.extend(starmap(TranscriptEvent, self._rows[self._built:]))
            self._built = len(self._rows)
        return self._events

    def by_kind(self, kind: TranscriptKind, server: int | None = None) -> list[TranscriptEvent]:
        return [e for e in self.events
                if e.kind is kind and (server is None or e.server == server)]

    def __len__(self) -> int:
        return len(self._rows)
