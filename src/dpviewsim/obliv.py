"""Exhaustively padded secure cache and its oblivious operations.

The protocol's cache is an append-only array of real view tuples and padding.
The servers learn only how many slots it has and read it only after an
oblivious sort, so the simulator keeps just its real entries, in seq (FIFO)
order, and its slot count; padding is a count and is never built. Each step
appends its padded batch to the cache in place. A read of sz slots returns
the reals among them, and the caller, which knows sz, counts the rest as
padding. The protocol sorts the cache with Batcher's bitonic compare-exchange
network, so the sequence of touched index pairs is a function of the array
length alone and leaks nothing about the contents. The simulator does not execute the network: it Timsorts the real entries' keys,
which gives the network's order of the reals (every dummy lands behind every
real). The sorts charge nothing: the run charges a network's closed-form
compare count from its step's public sizes. Independent networks of one
length, such as the nested-loop join's one per outer tuple, run as one sort of
their concatenated reals. Keys already strictly ascending, which proves them
distinct, come back in order after one scan: the cache and the NLJ's rows
always arrive in seq order. The NLJ's per-outer cut is realized by its caps, so
its sort reorders nothing and stays only for the benchmark's tracer. A join
sorts only when a real can join, since the network's compare count is charged
from the public sizes anyway. `compare_exchange_pairs` is the network itself,
which the tests run as the oracle for these facts. Repeated sort keys raise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, lt
from typing import Callable, Iterator, NamedTuple


class SecureTuple(NamedTuple):
    """One real cache/view row: its payload and per-run stamps.

    seq is the per-run creation stamp of a real row, unique within the run
    and never negative; only the padding slot of the view's padded `rows`
    read (in `shrink`) has seq -1. sources lists the seq ids of the input
    records a real row was derived from; simulator bookkeeping only.
    """

    key: int
    attrs: tuple[int, ...]
    seq: int
    timestamp: int = 0
    sources: tuple[int, ...] = ()

    @property
    def is_view(self) -> bool:
        """A real view entry: every slot but the padding one."""
        return self.seq >= 0


# Builds a SecureTuple from all five fields without the Python-level call of
# the generated constructor: secure_tuple((key, attrs, seq, timestamp, sources)).
secure_tuple = functools.partial(tuple.__new__, SecureTuple)


@dataclass
class SecureCache:
    """Padded array of SecureTuples awaiting synchronization, kept as its
    real rows plus a slot count.

    `entries` are the real rows, in seq order; `slots` is the padded length,
    which is `len(cache)`. Every other slot is padding, which nothing reads by
    position, since the servers read the cache only after sorting it.
    """

    entries: list[SecureTuple] = field(default_factory=list)
    slots: int = 0

    def __post_init__(self):
        if len(self.entries) > self.slots:
            raise ValueError(f"{len(self.entries)} real entries exceed {self.slots} slots")

    def __len__(self) -> int:
        return self.slots

    def real_count(self) -> int:
        return len(self.entries)

    def append(self, reals: list[SecureTuple], slots: int) -> None:
        """Append, in place, a padded batch of `slots` slots holding `reals`."""
        if len(reals) > slots:
            raise ValueError(f"{len(reals)} real entries exceed {slots} slots")
        self.entries += reals
        self.slots += slots


# ---------------------------------------------------------------------------
# Bitonic sorting network. The pair sequence below is the network; the sorts
# reproduce its output order with Timsort, and its size has a closed form.
# With distinct keys every correct sort returns the network's permutation.

def padded_length(n: int) -> int:
    return 1 << max(0, n - 1).bit_length()


def compare_exchange_pairs(n: int) -> Iterator[tuple[int, int, bool]]:
    """Yield the (i, j, ascending) compare-exchange sequence for length n.

    n must be a power of two. The sequence is a pure function of n; tests run
    it as the oracle for the permutation and compare count of the sorts below.
    """
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    k = 2
    while k <= n:
        j = k >> 1
        while j:
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    yield i, partner, (i & k) == 0
            j >>= 1
        k <<= 1


def network_comparison_count(n: int) -> int:
    """Compare-exchange count of the padded n-item network, in closed form."""
    stages = padded_length(n).bit_length() - 1
    return (1 << stages) // 2 * stages * (stages + 1) // 2


def network_sort_keys(keys: list, n: int, networks: int) -> tuple[list[int], int]:
    """The order `networks` independent n-slot networks sort their real keys
    into, and their total compare count.

    `keys` are the reals of every network, concatenated in network order, and
    every key of one network lies below every key of the next, so one Timsort
    of the positions by key gives each network's output order, concatenated.
    The other slots of each network are dummies, which it moves behind every
    real. A network pads to a power of two with max-int sentinels. The count,
    `networks` times the padded n-slot network's, is for `bench/tracing.py`.
    Keys already strictly ascending (fewer than two keys included) are
    distinct and in order, so they come back as the identity after one scan.
    Otherwise keys must be distinct (ValueError otherwise), which makes each
    network's permutation the unique sorting one.
    """
    count = networks * network_comparison_count(n)
    if len(keys) < 2 or all(map(lt, keys, islice(keys, 1, None))):
        return list(range(len(keys))), count  # in order, so distinct: one scan
    if len(set(keys)) != len(keys):
        raise ValueError("sort keys must be distinct")
    return sorted(range(len(keys)), key=keys.__getitem__), count


def network_sort(reals: list, key_of: Callable, n: int, networks: int) -> list:
    """The real items of `networks` independent n-slot padded inputs, in the
    networks' output order, concatenated.

    `reals` holds each input's reals in turn; each network's output is its
    reals followed by its dummies. key_of maps an item to an int or a tuple of
    ints, must be injective over the reals (a repeated key raises ValueError),
    and must put every item of one input below every item of the next. Since
    the network orders reals by key alone, a caller may pass only the reals
    whose order it reads: they come out in the order the network gives them
    among all the input's reals.
    """
    return [reals[i] for i in network_sort_keys(list(map(key_of, reals)), n, networks)[0]]


# ---------------------------------------------------------------------------
# Cache operations. A real's cache sort key is its seq: real first, FIFO.
seq_of = attrgetter("seq")


def obli_sort(cache: SecureCache) -> SecureCache:
    """Sort real entries ahead of dummies, in the network's output order."""
    return SecureCache(network_sort(cache.entries, seq_of, len(cache), 1), len(cache))


def cache_read(cache: SecureCache, sz: int) -> tuple[list[SecureTuple], SecureCache]:
    """Pop the first sz slots and return their reals: the first sz reals.

    The other sz - len(reals) slots read are padding. Reals come first in the
    padded array only once it is sorted, so callers sort first. Reading past
    the cache empties it.
    """
    if sz < 0:
        raise ValueError(f"read size must be non-negative, got {sz}")
    return cache.entries[:sz], SecureCache(cache.entries[sz:], max(0, cache.slots - sz))


def cache_flush(cache: SecureCache, s: int) -> tuple[list[SecureTuple], SecureCache]:
    """Sort, fetch s slots' reals for the view, and recycle the remainder."""
    fetched, _ = cache_read(obli_sort(cache), s)
    return fetched, SecureCache()
