"""What each server observes during a run: sizes, timestamps and shares.

A run records one event per observation, so events are plain slotted records,
not frozen ones: a frozen dataclass pays for an object.__setattr__ call per
field on every construction, and nothing here assigns a field or hashes an
event.
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
        self.events: list[TranscriptEvent] = []

    def add(self, time: int, server: int, kind: TranscriptKind, size: int,
            share_value: int | None = None) -> None:
        self.events.append(TranscriptEvent(time, server, kind, size, share_value))

    def by_kind(self, kind: TranscriptKind, server: int | None = None) -> list[TranscriptEvent]:
        return [e for e in self.events
                if e.kind is kind and (server is None or e.server == server)]

    def __len__(self) -> int:
        return len(self.events)
