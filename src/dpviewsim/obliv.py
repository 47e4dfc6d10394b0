"""Exhaustively padded secure cache and its oblivious operations.

The cache is an append-only array of real view tuples and padding. Every
padding slot is a reference to the one immutable `DUMMY`: the servers learn
only how many slots a batch has, so no output reads a dummy's contents. The
protocol sorts the cache with Batcher's bitonic compare-exchange network, so
the sequence of touched index pairs is a function of the array length alone
and leaks nothing about the contents. The simulator does not execute the
network: it argsorts the real entries' keys, which gives the network's order
of the reals (every dummy lands behind every real), and charges the closed-form
compare count of the whole padded array. `compare_exchange_pairs` is the
network itself, and the tests run it as the oracle for both facts. Repeated
sort keys raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True, slots=True)
class SecureTuple:
    """One cache/view slot: payload plus flags.

    is_view marks a real view entry; every other slot is `DUMMY`. seq is the
    per-run creation stamp of a real row, unique within the run. sources lists
    the seq ids of the input records a real row was derived from; simulator
    bookkeeping only.
    """

    key: int
    attrs: tuple[int, ...]
    is_view: bool
    seq: int
    timestamp: int = 0
    sources: tuple[int, ...] = ()


# The one padding slot. Its seq of -1 belongs to no real row, and the join's
# packed merge key rejects it, so a dummy that reaches a merge sort raises.
DUMMY = SecureTuple(key=0, attrs=(), is_view=False, seq=-1)


class SeqCounter:
    """Monotone stamp source for the real rows created during one simulated run."""

    def __init__(self, start: int = 0):
        self._next = start

    def take(self) -> int:
        n = self._next
        self._next += 1
        return n


class SecureCache:
    """Append-only padded array of SecureTuples awaiting synchronization.

    Holds the running count of its real entries. In a run the reals stay in
    seq order, so sorting them is a stable partition.
    """

    def __init__(self, entries: list[SecureTuple] | None = None):
        self.entries = [] if entries is None else entries
        self._real = sum(1 for e in self.entries if e.is_view)

    def __len__(self) -> int:
        return len(self.entries)

    def real_count(self) -> int:
        return self._real


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


def network_sort_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The order the network sorts the real keys of an n-slot input into,
    and its compare count.

    The other n - len(keys) slots are dummies, which the network moves behind
    every real. It pads to a power of two with max-int sentinels; the count is
    that of the padded n-slot network. Keys must be distinct (ValueError
    otherwise), which makes the network's permutation the unique sorting one.
    """
    perm = np.argsort(keys, kind="stable")
    ordered = keys[perm]
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("sort keys must be distinct")
    return perm, network_comparison_count(n)


def network_sort(reals: list, key_of: Callable, n: int, counter: list) -> list:
    """The real items of an n-slot padded input, in the network's output order.

    The network's output is these reals followed by n - len(reals) dummies.
    key_of maps an item to a non-negative int below 2**62 and must be
    injective over the reals; a repeated key raises ValueError.
    `counter[0]` accumulates the n-slot network's compare-exchange count.
    """
    keys = np.fromiter(map(key_of, reals), dtype=np.int64, count=len(reals))
    perm, comparisons = network_sort_keys(keys, n)
    counter[0] += comparisons
    return [reals[i] for i in perm]


# ---------------------------------------------------------------------------
# Cache operations. A real's cache sort key is its seq: real first, FIFO.

def cache_append(cache: SecureCache, batch: list[SecureTuple]) -> SecureCache:
    """Append a padded batch, preserving order of prior entries."""
    out = SecureCache(batch)  # counts only the batch's reals
    out.entries = cache.entries + batch
    out._real += cache._real
    return out


def obli_sort(cache: SecureCache, counter: list) -> SecureCache:
    """Sort real entries ahead of dummies, in the network's output order."""
    reals = [e for e in cache.entries if e.is_view]
    out = SecureCache(network_sort(reals, lambda e: e.seq, len(cache), counter))
    out.entries += [DUMMY] * (len(cache) - len(reals))
    return out


def cache_read(cache: SecureCache, sz: int) -> tuple[list[SecureTuple], SecureCache]:
    """Pop the first sz entries, topped up with DUMMY when sz exceeds the cache.

    Callers sort first so real data is fetched ahead of dummies.
    """
    if sz < 0:
        raise ValueError(f"read size must be non-negative, got {sz}")
    entries = cache.entries
    if sz >= len(entries):
        return entries + [DUMMY] * (sz - len(entries)), SecureCache()
    fetched = entries[:sz]
    rest = SecureCache()
    rest.entries = entries[sz:]
    rest._real = cache._real - sum(1 for e in fetched if e.is_view)
    return fetched, rest


def cache_flush(cache: SecureCache, s: int,
                counter: list) -> tuple[list[SecureTuple], SecureCache]:
    """Sort, fetch s entries for the view, and recycle the remainder."""
    fetched, _ = cache_read(obli_sort(cache, counter), s)
    return fetched, SecureCache()
