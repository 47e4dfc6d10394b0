"""Truncated view transformation: filter, sort-merge join, nested-loop join.

Each step converts newly outsourced batches into padded view entries and
keeps the secret-shared cardinality counter in sync. A join input record has
a lifetime contribution budget b: it is scanned in ceil(b / omega)
invocations and spends omega of b in each, whatever it joins. So its join
slots in one invocation, min(omega, b - age * omega) after `age` earlier
invocations, are a function of its age alone, never of the data. Each
transform takes its inputs' reals and padded lengths (c_r slots per owner
batch) and returns its real rows and its padded slot count, a function of
those lengths and the truncation parameters only; padding is never built.
The Filter keeps the rows that `selected` accepts, a fixed predicate.

The run's one validated config (the harness's `ExperimentConfig`) is read by
attribute: `operator`, `omega`, `b` and `c_r`.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Iterator

from .obliv import SecureCache, SecureTuple, cache_append, network_sort, seq_of
from .randomness import ServerRandomness
from .sharing import RING_MASK, SharePair, recover, share_in_protocol
from .transcript import Transcript, TranscriptKind


def retention_steps(config) -> int:
    """Invocations that scan a record, ceil(b / omega): each spends omega of
    its budget b. Reads `config.b` and `config.omega`."""
    return -(-config.b // config.omega)


def _join_tuple(a: SecureTuple, b: SecureTuple, seqs: Iterator[int], timestamp: int) -> SecureTuple:
    return SecureTuple(a.key, a.attrs + b.attrs, next(seqs), timestamp, (a.seq, b.seq))


def selected(tup: SecureTuple) -> bool:
    """The Filter operator's predicate: the first attribute is nonzero."""
    return bool(tup.attrs and tup.attrs[0])


def trans_truncate_filter(batch: list[SecureTuple], seqs: Iterator[int],
                          timestamp: int) -> list[SecureTuple]:
    """Oblivious selection over a batch's reals: the kept rows.

    A real input is kept, with its payload, iff it is `selected`.
    """
    return [SecureTuple(tup.key, tup.attrs, next(seqs), timestamp, (tup.seq,))
            for tup in batch if selected(tup)]


def trans_truncate_smj(t1: list[SecureTuple], n1: int, t2: list[SecureTuple], n2: int,
                       omega: int, caps: dict[int, int], seqs: Iterator[int], timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious sort-merge join: (joined rows, omega slots per n1 + n2).

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
    both = {t.key for t in t1} & {t.key for t in t2}
    tagged = [(0, t) for t in t1 if t.key in both] + [(1, t) for t in t2 if t.key in both]
    merged = network_sort(tagged, lambda it: (it[1].key, it[0], it[1].seq),
                          n1 + n2, compare_counter, networks=1)

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
    return out, omega * (n1 + n2)


def trans_truncate_nlj(t1: list[SecureTuple], n1: int, t2: list[SecureTuple], n2: int,
                       omega: int, caps: dict[int, int], seqs: Iterator[int], timestamp: int,
                       compare_counter: list) -> tuple[list[SecureTuple], int]:
    """Truncated oblivious nested-loop join: (joined rows, omega slots per n1).

    Every (outer, inner) probe either emits a real join (keys match and both
    records hold a slot in `caps`, one taken from each; see
    `trans_truncate_smj`) or a dummy, so each of the n1 outer slots yields an
    n2-slot intermediate, which is network-sorted real-first and cut to omega
    slots. Only key-matching probes can emit, so each real outer probes just
    the real inner rows of its key, in t2 order, and a dummy outer or one
    whose key no real inner row holds is skipped. The n1 intermediates are
    sorted by one batched call of n1 networks: their rows are stamped in
    emission order, so every row of one outer holds a lower seq than every
    row of the next; only the outers that emitted rows have a span to cut.
    """
    if omega < 1:
        raise ValueError(f"per-outer bound must be positive, got {omega}")
    inner: dict[int, list[SecureTuple]] = {}
    for v in t2:
        inner.setdefault(v.key, []).append(v)
    rows: list[SecureTuple] = []
    spans: list[tuple[int, int]] = []  # each emitting outer's rows in `rows`
    for u in t1:
        partners = inner.get(u.key)
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
    rows = network_sort(rows, seq_of, n2, compare_counter, networks=n1)
    out: list[SecureTuple] = []
    for start, end in spans:
        out += rows[start:min(end, start + omega)]
    return out, omega * n1


class OperatorKind(enum.Enum):
    FILTER = "Filter"
    SMJ = "SMJ"
    NLJ = "NLJ"


@dataclass
class TransformState:
    """Everything the transformation carries across invocations.

    `config` is the run's validated config; the state reads its `operator`,
    `omega`, `b` and `c_r` (the padded slots of every owner batch).
    """

    config: Any
    seqs: Iterator[int]
    retained: tuple[deque, deque] = field(init=False)  # reals of past owner batches
    produced_rows: list[SecureTuple] = field(default_factory=list)

    def __post_init__(self):
        keep = max(0, retention_steps(self.config) - 1)
        self.retained = (deque(maxlen=keep), deque(maxlen=keep))


def transform_init(rand: ServerRandomness) -> SharePair:
    """Zero counter, secret-shared with server-contributed randomness."""
    return share_in_protocol(0, *rand.share_pair(), seen=rand.seen_pairs)


def expected_output_size(config, t: int) -> int:
    """Padded |delta-view| at step t: a function of public parameters only,
    the config's `operator`, `c_r`, `omega` and `b`."""
    c_r = config.c_r
    if config.operator is OperatorKind.FILTER:
        return c_r
    old = c_r * min(t - 1, retention_steps(config) - 1)  # retained rows per owner
    if config.operator is OperatorKind.SMJ:
        # new1 vs (old2 + new2), then old1 vs new2; slots per scanned tuple.
        return (c_r + old + c_r) * config.omega + (old + c_r) * config.omega
    # NLJ: slots per outer tuple.
    return (c_r + old) * config.omega


def transform_step(t: int, new_batches: list[list[SecureTuple]],
                   cache: SecureCache, counter: SharePair,
                   state: TransformState, rand: ServerRandomness,
                   transcript: Transcript,
                   compare_counter: list) -> tuple[SecureCache, SharePair]:
    """One invocation: truncate-transform new data, cache it, update the counter.

    Join operators also scan the retained batches of the partner owner.
    A batch is scanned in ceil(b / omega) invocations, so the input sizes stay
    data-independent, and each scan spends omega of its records' budget b. A
    real record scanned in `age` earlier invocations therefore holds
    min(omega, b - age * omega) join slots: omega, except for the reals of the
    oldest retained batch when omega does not divide b. Reads the state
    config's `operator`, `omega`, `b` and `c_r`.
    """
    cfg = state.config
    if cfg.operator is OperatorKind.FILTER:
        rows = trans_truncate_filter(new_batches[0], state.seqs, t)
        slots = cfg.c_r
    else:
        new1, new2 = new_batches[0], new_batches[1]
        kept1, kept2 = state.retained
        caps = defaultdict(lambda: cfg.omega)
        oldest = cfg.b - len(kept1) * cfg.omega  # the oldest batch's age is len(kept1)
        if oldest < cfg.omega:
            caps.update((tup.seq, oldest) for tup in kept1[0] + kept2[0])
        old1 = [tup for batch in kept1 for tup in batch]
        old2 = [tup for batch in kept2 for tup in batch]
        c_r, n_old = cfg.c_r, cfg.c_r * len(kept1)  # both owners keep as many batches
        join = trans_truncate_smj if cfg.operator is OperatorKind.SMJ else trans_truncate_nlj
        rest = (cfg.omega, caps, state.seqs, t, compare_counter)
        rows, slots = join(new1, c_r, old2 + new2, n_old + c_r, *rest)
        rows2, slots2 = join(old1, n_old, new2, c_r, *rest)
        rows += rows2
        slots += slots2
        kept1.append(new1)
        kept2.append(new2)

    state.produced_rows.extend(rows)

    c = recover(counter)
    c = (c + len(rows)) & RING_MASK
    counter = share_in_protocol(c, *rand.share_pair(), seen=rand.seen_pairs)
    cache = cache_append(cache, rows, slots)

    transcript.observe(t, TranscriptKind.TRANSFORM_OUTPUT, slots, counter)
    return cache, counter
