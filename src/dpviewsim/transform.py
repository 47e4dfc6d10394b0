"""Truncated view transformation: filter, sort-merge join, nested-loop join.

Each step converts newly outsourced batches into padded view entries and
keeps the secret-shared cardinality counter in sync. A join input record has
a lifetime contribution budget b: it is scanned in ceil(b / omega)
invocations and spends omega of b in each, whatever it joins. So its join
slots in one invocation, min(omega, b - age * omega) after `age` earlier
invocations, are a function of its age alone, never of the data; these
`caps` are the joins' only contribution bound. Each transform takes its
inputs' reals and padded lengths (c_r slots per owner batch) and returns
only its real rows, never padding. `step_sizes` states a step's padded join
lengths, output slots and sort compares from the config and t, so the
simulator's joins may skip work that emits nothing: a join sorts only when a
real can join. The SMJ builds the key set of its input with fewer reals,
scans the larger input once, reads partners by key and sorts only its
accessing reals, on (key, seq); the NLJ indexes only the inner reals whose
key an outer holds. The Filter keeps the rows that `selected`, a fixed
predicate, keeps of a whole batch.

`transform_step` takes the run's one state (the harness's `RunState`) and
reads it by attribute: its validated config's `operator`, `omega`, `b` and
`c_r`, its `seqs`, `rand` and `transcript`. It updates the state's `cache`,
`counter`, `retained`, `produced_rows` and `sizes` in place and returns its
sizes.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from itertools import chain
from operator import attrgetter
from typing import Iterator, NamedTuple

from .obliv import SecureTuple, network_comparison_count, network_sort, secure_tuple, seq_of
from .sharing import RING_MASK, recover, share_in_protocol
from .transcript import TranscriptKind


def retention_steps(config) -> int:
    """Invocations that scan a record, ceil(b / omega): each spends omega of
    its budget b. Reads `config.b` and `config.omega`."""
    return -(-config.b // config.omega)


def _join_tuple(a: SecureTuple, b: SecureTuple, seqs: Iterator[int], timestamp: int) -> SecureTuple:
    return secure_tuple((a.key, a.attrs + b.attrs, next(seqs), timestamp, (a.seq, b.seq)))


def selected(batch: list[SecureTuple]) -> list[SecureTuple]:
    """The Filter operator's predicate over a batch: its reals whose first
    attribute is nonzero, in batch order."""
    return [tup for tup in batch if tup.attrs and tup.attrs[0]]


def trans_truncate_filter(batch: list[SecureTuple], seqs: Iterator[int],
                          timestamp: int) -> list[SecureTuple]:
    """Oblivious selection over a batch's reals: the kept rows.

    A real input is kept, with its payload, iff `selected` keeps it.
    """
    return [secure_tuple((tup.key, tup.attrs, next(seqs), timestamp, (tup.seq,)))
            for tup in selected(batch)]


def trans_truncate_smj(t1: list[SecureTuple], n1: int, t2: list[SecureTuple], n2: int,
                       caps: dict[int, int], seqs: Iterator[int],
                       timestamp: int) -> list[SecureTuple]:
    """Truncated oblivious sort-merge join: its real rows, of omega (n1 + n2) slots.

    The tables are merged and network-sorted on (join key, origin, seq); ties
    put t1 records first and input dummies last. The linear scan emits, for
    every accessed tuple, exactly omega output slots: real joins with
    previously scanned partners while both sides hold contribution slots,
    dummies for the rest. `caps` maps the seq of every real input to its join
    slots this invocation, at most omega and a function of the record's age
    alone (see `transform_step`), and each join takes one slot from both
    records, so a record with no slots left joins nothing: `caps` is the
    whole cut.

    Every t1 record of a key sorts before every t2 record of it, so only t2
    records access, each joining the t1 records of its key in seq order. A
    real whose key is not held by a real on the other side therefore emits
    nothing and touches no cap. So the join keys the input with fewer reals
    and scans the larger one once for reals of those keys; if it finds none,
    nothing joins, and it sorts nothing. Otherwise it reads partners by key:
    t1's reals of the shared keys, grouped by key in seq order (one scan on a
    run's inputs, which arrive in seq order). It network-sorts only the
    accessing t2 reals, on (key, seq), over all n1 + n2 slots: that is the
    order the network gives them within the whole merged input.
    """
    small, large = (t1, t2) if len(t1) <= len(t2) else (t2, t1)
    keys = {t.key for t in small}
    found = [t for t in large if t.key in keys]
    if not found:
        return []
    keys = {t.key for t in found}
    joinable = [t for t in small if t.key in keys]
    candidates, accessing = (joinable, found) if small is t1 else (found, joinable)
    partners = defaultdict(list)  # each key's t1 reals, in seq order
    for p in sorted(candidates, key=seq_of):
        partners[p.key].append(p)

    out: list[SecureTuple] = []
    for tup in network_sort(accessing, attrgetter("key", "seq"), n1 + n2, networks=1):
        for p in partners[tup.key]:
            if caps[tup.seq] <= 0:  # at most omega joins per access
                break
            if caps[p.seq] <= 0:
                continue
            caps[tup.seq] -= 1
            caps[p.seq] -= 1
            out.append(_join_tuple(p, tup, seqs, timestamp))
    return out


def trans_truncate_nlj(t1: list[SecureTuple], n1: int, t2: list[SecureTuple], n2: int,
                       caps: dict[int, int], seqs: Iterator[int],
                       timestamp: int) -> list[SecureTuple]:
    """Truncated oblivious nested-loop join: its real rows, of omega n1 slots.

    Every (outer, inner) probe either emits a real join (keys match and both
    records hold a slot in `caps`, one taken from each; see
    `trans_truncate_smj`) or a dummy, so each of the n1 outer slots yields an
    n2-slot intermediate, which the protocol sorts real-first and cuts to
    omega slots. `caps` is that cut: a record is an outer in one call per
    step and spends its at most omega slots only on its own joins. Only
    key-matching probes can emit, so the join indexes only the inner reals
    whose key some outer holds, and each real outer probes just the inner
    rows of its key, in t2 order. Rows are stamped in emission order, so the
    batched sort of the n1 networks reorders nothing; it runs only when there
    are rows, and stays only because `bench/tracing.py` times
    `transform.network_sort` and `obliv.network_sort_keys` here (see ROADMAP
    item 10).
    """
    outer_keys = {u.key for u in t1}
    inner: dict[int, list[SecureTuple]] = {}
    for v in t2:
        if v.key in outer_keys:
            inner.setdefault(v.key, []).append(v)
    rows: list[SecureTuple] = []
    for u in t1:
        for v in inner.get(u.key, ()):
            if caps[u.seq] <= 0:
                break
            if caps[v.seq] > 0:
                caps[u.seq] -= 1
                caps[v.seq] -= 1
                rows.append(_join_tuple(u, v, seqs, timestamp))
    return network_sort(rows, seq_of, n2, networks=n1) if rows else rows


class OperatorKind(enum.Enum):
    FILTER = "Filter"
    SMJ = "SMJ"
    NLJ = "NLJ"


class StepSizes(NamedTuple):
    """A step's public sizes: each join call's padded (n1, n2), none for the
    Filter; the padded output slots; the sorts' compare-exchanges."""

    joins: tuple[tuple[int, int], ...]
    slots: int
    compares: int


def step_sizes(config, t: int) -> StepSizes:
    """The step-t sizes, from the config's `operator`, `c_r`, `omega` and `b`:
    the joins are new1 against old2 + new2, then old1 against new2, and each
    owner keeps c_r slots per step for min(t, retention_steps) - 1 steps. The
    SMJ pads omega slots per scanned tuple and runs one (n1 + n2)-slot network
    per join; the NLJ pads omega per outer tuple and runs n1 n2-slot networks
    per join; the Filter pads to its c_r input slots and sorts nothing. The
    sizes stop changing once t reaches retention_steps."""
    c_r, omega, operator = config.c_r, config.omega, config.operator
    if operator is OperatorKind.FILTER:
        return StepSizes((), c_r, 0)
    old = c_r * min(t - 1, retention_steps(config) - 1)
    n1, n2, m1, m2 = c_r, old + c_r, old, c_r
    joins = (n1, n2), (m1, m2)
    if operator is OperatorKind.SMJ:
        return StepSizes(joins, omega * (n1 + n2 + m1 + m2),
                         network_comparison_count(n1 + n2) + network_comparison_count(m1 + m2))
    return StepSizes(joins, omega * (n1 + m1),
                     n1 * network_comparison_count(n2) + m1 * network_comparison_count(m2))


def transform_step(t: int, new_batches: list[list[SecureTuple]], run) -> StepSizes:
    """One invocation: truncate-transform new data, cache it, update the counter.

    Join operators also scan the retained batches of the partner owner.
    A batch is scanned in ceil(b / omega) invocations, so the input sizes stay
    data-independent, and each scan spends omega of its records' budget b. A
    real record scanned in `age` earlier invocations therefore holds
    min(omega, b - age * omega) join slots: omega, except for the reals of the
    oldest retained batch when omega does not divide b. Reads the run
    config's `operator`, `omega`, `b` and `c_r`; returns `step_sizes`, which
    it computes once per retained depth: only while t <= retention_steps,
    keeping them on the run's `sizes` for the steps after.
    """
    cfg = run.config
    if t <= retention_steps(cfg):
        run.sizes = step_sizes(cfg, t)
    sizes = run.sizes
    if cfg.operator is OperatorKind.FILTER:
        rows = trans_truncate_filter(new_batches[0], run.seqs, t)
    else:
        new1, new2 = new_batches[0], new_batches[1]
        kept1, kept2 = run.retained
        caps = defaultdict(lambda: cfg.omega)
        oldest = cfg.b - len(kept1) * cfg.omega  # the oldest batch's age is len(kept1)
        if oldest < cfg.omega:
            caps.update((tup.seq, oldest) for tup in kept1[0] + kept2[0])
        old1, old2 = list(chain.from_iterable(kept1)), list(chain.from_iterable(kept2))
        (n1, n2), (m1, m2) = sizes.joins
        join = trans_truncate_smj if cfg.operator is OperatorKind.SMJ else trans_truncate_nlj
        rest = (caps, run.seqs, t)
        rows = join(new1, n1, old2 + new2, n2, *rest) + join(old1, m1, new2, m2, *rest)
        kept1.append(new1)
        kept2.append(new2)

    run.produced_rows.extend(rows)

    c = (recover(run.counter) + len(rows)) & RING_MASK
    run.counter = share_in_protocol(c, *run.rand.share_pair(), seen=run.rand.seen_pairs)
    run.cache.append(rows, sizes.slots)
    run.transcript.add(t, TranscriptKind.TRANSFORM_OUTPUT, sizes.slots, (run.counter,))
    return sizes
