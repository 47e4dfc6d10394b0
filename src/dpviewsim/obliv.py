"""Exhaustively padded secure cache and its oblivious operations.

The cache is an append-only array of real view tuples and dummies, plus an
int64 column of their sort keys built once, as each entry enters. The protocol
sorts it with Batcher's bitonic compare-exchange network, so the sequence of
touched index pairs is a function of the array length alone and leaks nothing
about the contents. The simulator does not execute the network: it argsorts
the keys, which gives the network's permutation, and charges the network's
closed-form compare count. `compare_exchange_pairs` is the network itself, and
the tests run it as the oracle for both facts. Repeated sort keys raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class SecureTuple:
    """One cache/view slot: payload plus flags.

    is_view marks a real view entry; dummies carry is_view=False. seq is the
    per-run creation stamp, unique across real rows and minted dummies.
    sources lists the seq ids of the input records a real row was derived
    from; simulator bookkeeping only, empty for dummies.
    """

    key: int
    attrs: tuple[int, ...]
    is_view: bool
    seq: int
    timestamp: int = 0
    sources: tuple[int, ...] = ()


class SeqCounter:
    """Monotone stamp source for all tuples minted during one simulated run."""

    def __init__(self, start: int = 0):
        self._next = start

    def take(self) -> int:
        n = self._next
        self._next += 1
        return n


def make_dummy(seq: int, timestamp: int = 0, width: int = 0) -> SecureTuple:
    return SecureTuple(key=0, attrs=(0,) * width, is_view=False, seq=seq,
                       timestamp=timestamp)


class SecureCache:
    """Append-only padded array of SecureTuples awaiting synchronization.

    `keys[i]` is `real_first_key(entries[i])`, built once as the entry enters.
    In a run each class (real, dummy) stays in seq order, so the argsort is a
    stable partition.
    """

    def __init__(self, entries: list[SecureTuple] | None = None):
        self.entries = [] if entries is None else entries
        self.keys = np.fromiter(map(real_first_key, self.entries), dtype=np.int64,
                                count=len(self.entries))

    @classmethod
    def _derived(cls, entries: list[SecureTuple], keys: np.ndarray) -> SecureCache:
        # Successor caches of the operations below reuse their keys.
        cache = cls.__new__(cls)
        cache.entries, cache.keys = entries, keys
        return cache

    def __len__(self) -> int:
        return len(self.entries)

    def real_count(self) -> int:
        return int(np.count_nonzero(self.keys < 1 << 48))  # real_first_key's class bit


# ---------------------------------------------------------------------------
# Bitonic sorting network. The pair sequence below is the network; the sorts
# reproduce its output order with argsort and charge its closed-form size.
# With distinct keys every correct sort returns the network's permutation.

def padded_length(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


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
    """Compare-exchange count of the network for n items (padded internally)."""
    m = padded_length(n)
    if m < 2:
        return 0
    stages = m.bit_length() - 1
    return (m // 2) * stages * (stages + 1) // 2


def network_sort_keys(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """The permutation the network sorts int64 keys into, and its compare count.

    The network pads to a power of two with max-int sentinels; the count is
    that of the padded network. Keys must be distinct (ValueError otherwise),
    which makes the network's permutation the unique sorting one.
    """
    perm = np.argsort(keys, kind="stable")
    ordered = keys[perm]
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("sort keys must be distinct")
    return perm, network_comparison_count(len(keys))


def network_sort(items: list, key_of: Callable, counter: list) -> list:
    """Sort items by an int64 composite key in the network's output order.

    key_of maps an item to a non-negative int below 2**62 and must be
    injective over the input (include a seq component); a repeated key raises
    ValueError. `counter[0]` accumulates the network's compare-exchange count.
    """
    n = len(items)
    if n == 0:
        return []
    keys = np.fromiter((key_of(it) for it in items), dtype=np.int64, count=n)
    perm, comparisons = network_sort_keys(keys)
    counter[0] += comparisons
    return [items[i] for i in perm]


# ---------------------------------------------------------------------------
# Cache operations.

def real_first_key(t: SecureTuple) -> int:
    # Real entries first, FIFO within each class.
    if t.seq >> 48:
        raise ValueError(f"seq {t.seq} does not fit the cache sort key (seq < 2**48)")
    return ((0 if t.is_view else 1) << 48) | t.seq


def cache_append(cache: SecureCache, batch: list[SecureTuple]) -> SecureCache:
    """Append a padded batch, preserving order of prior entries."""
    added = SecureCache(list(batch))
    return SecureCache._derived(cache.entries + added.entries,
                                np.concatenate((cache.keys, added.keys)))


def obli_sort(cache: SecureCache, counter: list) -> SecureCache:
    """Sort real entries ahead of dummies, in the network's output order."""
    perm, comparisons = network_sort_keys(cache.keys)
    counter[0] += comparisons
    entries = cache.entries
    return SecureCache._derived([entries[i] for i in perm], cache.keys[perm])


def cache_read(cache: SecureCache, sz: int, seqs: SeqCounter, timestamp: int,
               width: int) -> tuple[list[SecureTuple], SecureCache]:
    """Pop the first sz entries; mint fresh dummies when sz exceeds the cache.

    Callers sort first so real data is fetched ahead of dummies. Minted
    dummies take seq stamps from the run's counter `seqs`.
    """
    if sz < 0:
        raise ValueError(f"read size must be non-negative, got {sz}")
    entries = cache.entries
    if sz <= len(entries):
        return entries[:sz], SecureCache._derived(entries[sz:], cache.keys[sz:])
    fetched = list(entries)
    for _ in range(sz - len(entries)):
        fetched.append(make_dummy(seqs.take(), timestamp, width))
    return fetched, SecureCache()


def cache_flush(cache: SecureCache, s: int, seqs: SeqCounter, timestamp: int,
                width: int, counter: list) -> tuple[list[SecureTuple], SecureCache]:
    """Sort, fetch s entries for the view, and recycle the remainder."""
    fetched, _ = cache_read(obli_sort(cache, counter), s, seqs, timestamp, width)
    return fetched, SecureCache()
