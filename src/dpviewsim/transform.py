"""Truncated view transformation: filter, sort-merge join, nested-loop join.

Each step converts newly outsourced batches into padded view entries, keeps
the secret-shared cardinality counter in sync, and charges every join input
record against its lifetime contribution budget. Each transform returns its
real output rows and its padded slot count, which is a function of the input
sizes and the truncation parameters only, never of data values; the padding
itself is never built.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .obliv import SecureCache, SecureTuple, SeqCounter, cache_append, network_sort
from .randomness import ServerRandomness
from .sharing import RING_MASK, SharePair, recover, share_in_protocol
from .transcript import Transcript, TranscriptKind

# Counter shares are a plain word SharePair; recover() gives the cached-real count.
CounterShares = SharePair


class ChargePolicy(enum.Enum):
    # Flat omega per invocation a record is used in (main-protocol accounting).
    PER_INVOCATION_OMEGA = "PerInvocationOmega"
    # One unit per emitted real row the record contributes to.
    PER_OUTPUT_ROW = "PerOutputRow"


@dataclass(frozen=True)
class TruncationConfig:
    omega: int
    b: int
    charge_policy: ChargePolicy = ChargePolicy.PER_INVOCATION_OMEGA

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.b < self.omega:
            raise ValueError(f"omega ({self.omega}) must not exceed budget b ({self.b})")

    @property
    def retention_steps(self) -> int:
        """Invocations a record stays usable under flat-omega charging."""
        return -(-self.b // self.omega)


class BudgetLedger:
    """Remaining lifetime contribution budget per record id (seq)."""

    def __init__(self):
        self._remaining: dict[int, int] = {}

    def register(self, rid: int, b: int) -> None:
        self._remaining.setdefault(rid, b)

    def remaining(self, rid: int) -> int:
        return self._remaining.get(rid, 0)

    def charge(self, rid: int, amount: int) -> int:
        """Consume up to `amount`; returns what was actually consumed."""
        have = self._remaining.get(rid, 0)
        self.charge_each([rid], amount)
        return have - self._remaining[rid]

    def charge_each(self, rids: list[int], amount: int) -> None:
        """Consume up to `amount` from each listed record in turn, as one
        `charge` call per listed id would."""
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        remaining = self._remaining
        for rid in rids:
            have = remaining.get(rid)
            if have is None:
                raise ValueError(f"charging unregistered record {rid}")
            remaining[rid] = have - amount if have > amount else 0

    def retired(self, rid: int) -> bool:
        return self.remaining(rid) == 0


class InvocationCaps:
    """Per-invocation contribution slots: min(omega, remaining budget)."""

    def __init__(self, ledger: BudgetLedger, omega: int):
        self._ledger = ledger
        self._omega = omega
        self._rem: dict[int, int] = {}

    def remaining(self, rid: int) -> int:
        r = self._rem.get(rid)
        if r is None:
            r = min(self._omega, self._ledger.remaining(rid))
            self._rem[rid] = r
        return r

    def consume(self, rid: int) -> None:
        self._rem[rid] = self.remaining(rid) - 1


def _join_tuple(a: SecureTuple, b: SecureTuple, seqs: SeqCounter, timestamp: int) -> SecureTuple:
    return SecureTuple(key=a.key, attrs=a.attrs + b.attrs, is_view=True,
                       seq=seqs.take(), timestamp=timestamp,
                       sources=(a.seq, b.seq))


def trans_truncate_filter(batch: list[SecureTuple],
                          predicate: Callable[[SecureTuple], bool],
                          seqs: SeqCounter, timestamp: int) -> tuple[list[SecureTuple], int]:
    """Oblivious selection: (kept rows, len(batch) slots).

    A real input is kept, with its payload, iff the predicate holds.
    """
    return [SecureTuple(key=tup.key, attrs=tup.attrs, is_view=True, seq=seqs.take(),
                        timestamp=timestamp, sources=(tup.seq,))
            for tup in batch if tup.is_view and predicate(tup)], len(batch)


def _merge_key(origin: int, t: SecureTuple) -> int:
    # (dummy-last, join key, t1-before-t2, seq) packed into one int64.
    if t.seq >> 28 or t.key >> 32:
        raise ValueError(f"seq {t.seq} or key {t.key} does not fit the merge sort "
                         f"key (seq < 2**28, 0 <= key < 2**32)")
    return ((0 if t.is_view else 1) << 61) | (t.key << 29) | (origin << 28) | t.seq


def trans_truncate_smj(t1: list[SecureTuple], t2: list[SecureTuple], omega: int,
                       caps: InvocationCaps, seqs: SeqCounter, timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious sort-merge join: (joined rows, omega slots per input).

    The tables are merged and network-sorted on (join key, origin, seq); ties
    put t1 records first and input dummies last. The linear scan emits, for
    every accessed tuple, exactly omega output slots: real joins with
    previously scanned partners while both sides hold contribution slots,
    dummies for the rest. `caps` holds each record's slots this invocation,
    min(omega, remaining ledger budget), so joins of an exhausted or
    unregistered record are discarded.

    Every t1 record of a key sorts before every t2 record of it, so only t2
    records join, each with the t1 records of its key. A real whose key is
    not held by a real on the other side therefore emits nothing and touches
    no cap: after every real's merge key is checked, only the reals of keys
    found on both sides are sorted and scanned, in the network's order of the
    whole padded input.
    """
    reals1 = [t for t in t1 if t.is_view]
    reals2 = [t for t in t2 if t.is_view]
    for t in reals1 + reals2:
        if t.seq >> 28 or t.key >> 32:
            _merge_key(0, t)  # raises: a field does not fit the merge key
    both = {t.key for t in reals1} & {t.key for t in reals2}
    tagged = [(0, t) for t in reals1 if t.key in both] + \
             [(1, t) for t in reals2 if t.key in both]
    merged = network_sort(tagged, lambda it: _merge_key(*it), len(t1) + len(t2),
                          compare_counter, networks=1)

    out: list[SecureTuple] = []
    group_key = None
    seen: tuple[list, list] = ([], [])
    for origin, tup in merged:
        if tup.key != group_key:
            group_key = tup.key
            seen = ([], [])
        for p in seen[1 - origin]:
            if caps.remaining(tup.seq) <= 0:  # at most omega joins per access
                break
            if caps.remaining(p.seq) <= 0:
                continue
            caps.consume(tup.seq)
            caps.consume(p.seq)
            a, b = (tup, p) if origin == 0 else (p, tup)
            out.append(_join_tuple(a, b, seqs, timestamp))
        seen[origin].append(tup)
    return out, omega * (len(t1) + len(t2))


def trans_truncate_nlj(t1: list[SecureTuple], t2: list[SecureTuple], omega: int,
                       caps: InvocationCaps, seqs: SeqCounter, timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious nested-loop join: (joined rows, omega slots per outer tuple).

    Every (outer, inner) probe either emits a real join (keys match and both
    records hold budget, one unit consumed from each) or a dummy, so each
    outer tuple yields a len(t2)-slot intermediate, which is network-sorted
    real-first and cut to omega slots. Only key-matching probes can emit, so
    each real outer probes just the real inner rows of its key, in t2 order,
    and a dummy outer or one whose key no real inner row holds is skipped. The
    len(t1) intermediates are sorted by one batched call of len(t1) networks:
    their rows are stamped in emission order, so every row of one outer holds
    a lower seq than every row of the next. Only the outers that emitted rows
    have a span of the sorted rows to cut.
    """
    if omega < 1:
        raise ValueError(f"per-outer bound must be positive, got {omega}")
    inner: dict[int, list[SecureTuple]] = {}
    for v in t2:
        if v.is_view:
            inner.setdefault(v.key, []).append(v)
    rows: list[SecureTuple] = []
    spans: list[tuple[int, int]] = []  # each emitting outer's rows in `rows`
    for u in t1:
        partners = inner.get(u.key) if u.is_view else None
        if not partners:
            continue
        start = len(rows)
        for v in partners:
            if caps.remaining(u.seq) <= 0:
                break
            if caps.remaining(v.seq) > 0:
                caps.consume(u.seq)
                caps.consume(v.seq)
                rows.append(_join_tuple(u, v, seqs, timestamp))
        if len(rows) > start:
            spans.append((start, len(rows)))
    rows = network_sort(rows, lambda t: t.seq, len(t2), compare_counter, networks=len(t1))
    out: list[SecureTuple] = []
    for start, end in spans:
        out += rows[start:min(end, start + omega)]
    return out, omega * len(t1)


class OperatorKind(enum.Enum):
    FILTER = "Filter"
    SMJ = "SMJ"
    NLJ = "NLJ"


@dataclass
class TransformState:
    """Everything the transformation carries across invocations."""

    config: TruncationConfig
    operator: OperatorKind
    seqs: SeqCounter
    predicate: Callable[[SecureTuple], bool] | None = None
    ledger: BudgetLedger = field(default_factory=BudgetLedger)
    retained: tuple[deque, deque] = None  # past padded batches per owner
    produced_rows: list[SecureTuple] = field(default_factory=list)

    def __post_init__(self):
        if self.retained is None:
            keep = max(0, self.config.retention_steps - 1)
            self.retained = (deque(maxlen=keep), deque(maxlen=keep))


def transform_init(rand: ServerRandomness) -> CounterShares:
    """Zero counter, secret-shared with server-contributed randomness."""
    return share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)


def expected_output_size(operator: OperatorKind, t: int, c_r: int,
                         config: TruncationConfig) -> int:
    """Padded |delta-view| at step t: a function of public parameters only."""
    if operator is OperatorKind.FILTER:
        return c_r
    old = c_r * min(t - 1, config.retention_steps - 1)  # retained rows per owner
    if operator is OperatorKind.SMJ:
        # new1 vs (old2 + new2), then old1 vs new2; slots per scanned tuple.
        return (c_r + old + c_r) * config.omega + (old + c_r) * config.omega
    # NLJ: slots per outer tuple.
    return (c_r + old) * config.omega


def transform_step(t: int, new_batches: list[list[SecureTuple]],
                   cache: SecureCache, counter: CounterShares,
                   state: TransformState, rand: ServerRandomness,
                   transcript: Transcript,
                   compare_counter: list) -> tuple[SecureCache, CounterShares]:
    """One invocation: truncate-transform new data, cache it, update the counter.

    Join operators also scan the retained padded batches of the partner owner;
    batches are retained for ceil(b / omega) invocations, after which their
    records are budget-retired, so the input sizes stay data-independent.
    Only joins read the budget ledger, so only join inputs are registered
    and charged in it.
    """
    cfg = state.config
    if state.operator is OperatorKind.FILTER:
        if state.predicate is None:
            raise ValueError("filter operator requires a predicate")
        rows, slots = trans_truncate_filter(new_batches[0], state.predicate, state.seqs, t)
    else:
        new1, new2 = new_batches[0], new_batches[1]
        for tup in new1 + new2:
            if tup.is_view:
                state.ledger.register(tup.seq, cfg.b)
        caps = InvocationCaps(state.ledger, cfg.omega)
        old1 = [tup for batch in state.retained[0] for tup in batch]
        old2 = [tup for batch in state.retained[1] for tup in batch]
        join = trans_truncate_smj if state.operator is OperatorKind.SMJ else trans_truncate_nlj
        rows, slots = join(new1, old2 + new2, cfg.omega, caps, state.seqs, t, compare_counter)
        rows2, slots2 = join(old1, new2, cfg.omega, caps, state.seqs, t, compare_counter)
        rows += rows2
        slots += slots2
        if cfg.charge_policy is ChargePolicy.PER_INVOCATION_OMEGA:
            # The four batches are disjoint and seqs unique: each id once.
            state.ledger.charge_each([tup.seq for tup in new1 + new2 + old1 + old2
                                      if tup.is_view], cfg.omega)
        else:
            state.ledger.charge_each([rid for row in rows for rid in row.sources], 1)
        state.retained[0].append(new1)
        state.retained[1].append(new2)

    state.produced_rows.extend(rows)

    c = recover(counter)
    c = (c + len(rows)) & RING_MASK
    counter = share_in_protocol(c, *rand.share_pair(), seen=rand.seen_pairs)
    cache = cache_append(cache, rows, slots)

    for server in (0, 1):
        transcript.add(t, server, TranscriptKind.TRANSFORM_OUTPUT, slots)
        transcript.add(t, server, TranscriptKind.SHARE_RECEIVED, 0,
                       share_value=counter[server])
    return cache, counter
