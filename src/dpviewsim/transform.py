"""Truncated view transformation: filter, sort-merge join, nested-loop join.

Each step converts newly outsourced batches into padded view entries and
keeps the secret-shared cardinality counter in sync. A join input record has
a lifetime contribution budget b: it is scanned in ceil(b / omega)
invocations and spends omega of b in each, whatever it joins. So its join
slots in one invocation, min(omega, b - age * omega) after `age` earlier
invocations, are a function of its age alone, never of the data. Each
transform returns its real output rows and its padded slot count, which is a
function of the input sizes and the truncation parameters only; the padding
itself is never built.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from .obliv import SecureCache, SecureTuple, SeqCounter, cache_append, network_sort, seq_of
from .randomness import ServerRandomness
from .sharing import RING_MASK, SharePair, recover, share_in_protocol
from .transcript import Transcript, TranscriptKind

# Counter shares are a plain word SharePair; recover() gives the cached-real count.
CounterShares = SharePair


@dataclass(frozen=True)
class TruncationConfig:
    omega: int
    b: int

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.b < self.omega:
            raise ValueError(f"omega ({self.omega}) must not exceed budget b ({self.b})")

    @property
    def retention_steps(self) -> int:
        """Invocations that scan a record; each spends omega of its budget b."""
        return -(-self.b // self.omega)


def _join_tuple(a: SecureTuple, b: SecureTuple, seqs: SeqCounter, timestamp: int) -> SecureTuple:
    return SecureTuple(a.key, a.attrs + b.attrs, True, seqs.take(), timestamp,
                       (a.seq, b.seq))


def trans_truncate_filter(batch: list[SecureTuple],
                          predicate: Callable[[SecureTuple], bool],
                          seqs: SeqCounter, timestamp: int) -> tuple[list[SecureTuple], int]:
    """Oblivious selection: (kept rows, len(batch) slots).

    A real input is kept, with its payload, iff the predicate holds.
    """
    return [SecureTuple(tup.key, tup.attrs, True, seqs.take(), timestamp, (tup.seq,))
            for tup in batch if tup.is_view and predicate(tup)], len(batch)


def trans_truncate_smj(t1: list[SecureTuple], t2: list[SecureTuple], omega: int,
                       caps: dict[int, int], seqs: SeqCounter, timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious sort-merge join: (joined rows, omega slots per input).

    The tables are merged and network-sorted on (join key, origin, seq); ties
    put t1 records first and input dummies last. The linear scan emits, for
    every accessed tuple, exactly omega output slots: real joins with
    previously scanned partners while both sides hold contribution slots,
    dummies for the rest. `caps` maps the seq of every real input to its join
    slots this invocation, a function of the record's age alone (see
    `transform_step`), and each join takes one slot from both records, so a
    record with no slots left joins nothing.

    Every t1 record of a key sorts before every t2 record of it, so only t2
    records join, each with the t1 records of its key. A real whose key is
    not held by a real on the other side therefore emits nothing and touches
    no cap: only the reals of keys found on both sides are sorted and
    scanned, in the network's order of the whole padded input.
    """
    reals1 = [t for t in t1 if t.is_view]
    reals2 = [t for t in t2 if t.is_view]
    both = {t.key for t in reals1} & {t.key for t in reals2}
    tagged = [(0, t) for t in reals1 if t.key in both] + \
             [(1, t) for t in reals2 if t.key in both]
    merged = network_sort(tagged, lambda it: (it[1].key, it[0], it[1].seq),
                          len(t1) + len(t2), compare_counter, networks=1)

    out: list[SecureTuple] = []
    group_key = None
    seen: tuple[list, list] = ([], [])
    for origin, tup in merged:
        if tup.key != group_key:
            group_key = tup.key
            seen = ([], [])
        for p in seen[1 - origin]:
            if caps[tup.seq] <= 0:  # at most omega joins per access
                break
            if caps[p.seq] <= 0:
                continue
            caps[tup.seq] -= 1
            caps[p.seq] -= 1
            a, b = (tup, p) if origin == 0 else (p, tup)
            out.append(_join_tuple(a, b, seqs, timestamp))
        seen[origin].append(tup)
    return out, omega * (len(t1) + len(t2))


def trans_truncate_nlj(t1: list[SecureTuple], t2: list[SecureTuple], omega: int,
                       caps: dict[int, int], seqs: SeqCounter, timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious nested-loop join: (joined rows, omega slots per outer tuple).

    Every (outer, inner) probe either emits a real join (keys match and both
    records hold a slot in `caps`, one taken from each; see
    `trans_truncate_smj`) or a dummy, so each outer tuple yields a
    len(t2)-slot intermediate, which is network-sorted real-first and cut to
    omega slots. Only key-matching probes can emit, so each real outer probes
    just the real inner rows of its key, in t2 order, and a dummy outer or one
    whose key no real inner row holds is skipped. The len(t1) intermediates
    are sorted by one batched call of len(t1) networks: their rows are stamped
    in emission order, so every row of one outer holds a lower seq than every
    row of the next. Only the outers that emitted rows have a span of the
    sorted rows to cut.
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
            if caps[u.seq] <= 0:
                break
            if caps[v.seq] > 0:
                caps[u.seq] -= 1
                caps[v.seq] -= 1
                rows.append(_join_tuple(u, v, seqs, timestamp))
        if len(rows) > start:
            spans.append((start, len(rows)))
    rows = network_sort(rows, seq_of, len(t2), compare_counter, networks=len(t1))
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

    Join operators also scan the retained padded batches of the partner owner.
    A batch is scanned in ceil(b / omega) invocations, so the input sizes stay
    data-independent, and each scan spends omega of its records' budget b. A
    real record scanned in `age` earlier invocations therefore holds
    min(omega, b - age * omega) join slots: omega, except for the reals of the
    oldest retained batch when omega does not divide b.
    """
    cfg = state.config
    if state.operator is OperatorKind.FILTER:
        if state.predicate is None:
            raise ValueError("filter operator requires a predicate")
        rows, slots = trans_truncate_filter(new_batches[0], state.predicate, state.seqs, t)
    else:
        new1, new2 = new_batches[0], new_batches[1]
        kept1, kept2 = state.retained
        caps = defaultdict(lambda: cfg.omega)
        oldest = cfg.b - len(kept1) * cfg.omega  # the oldest batch's age is len(kept1)
        if oldest < cfg.omega:
            caps.update((tup.seq, oldest) for tup in kept1[0] + kept2[0] if tup.is_view)
        old1 = [tup for batch in kept1 for tup in batch]
        old2 = [tup for batch in kept2 for tup in batch]
        join = trans_truncate_smj if state.operator is OperatorKind.SMJ else trans_truncate_nlj
        rows, slots = join(new1, old2 + new2, cfg.omega, caps, state.seqs, t, compare_counter)
        rows2, slots2 = join(old1, new2, cfg.omega, caps, state.seqs, t, compare_counter)
        rows += rows2
        slots += slots2
        kept1.append(new1)
        kept2.append(new2)

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
