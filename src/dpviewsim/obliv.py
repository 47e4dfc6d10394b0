"""Exhaustively padded secure cache and its oblivious operations.

The protocol's cache is an append-only array of real view tuples and padding.
The servers learn only how many slots it has and read it only after an
oblivious sort, so the simulator keeps just its real entries, in seq (FIFO)
order, and its slot count; padding is a count and is never built. A read of
sz slots returns the reals among them, and the caller, which knows sz, counts
the rest as padding. The protocol sorts the cache with Batcher's bitonic
compare-exchange network, so the sequence of touched index pairs is a
function of the array length alone and leaks nothing about the contents. The
simulator does not execute the network: it Timsorts the real entries' keys,
which gives the network's order of the reals (every dummy lands behind every
real), and charges the closed-form compare count of the whole padded array.
Several independent networks of one length, such as the nested-loop join's
one network per outer tuple, are run as one sort over their concatenated
reals and charged one closed-form count each; the cache and the join rows
come in seq order, which Timsort takes in one pass. `compare_exchange_pairs`
is the network itself, and the tests run it as the oracle for these facts.
Repeated sort keys raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple


class SecureTuple(NamedTuple):
    """One cache/view slot: payload plus flags.

    is_view marks a real view entry; only the padding slot below lacks it. seq
    is the per-run creation stamp of a real row, unique within the run.
    sources lists the seq ids of the input records a real row was derived
    from; simulator bookkeeping only.
    """

    key: int
    attrs: tuple[int, ...]
    is_view: bool
    seq: int
    timestamp: int = 0
    sources: tuple[int, ...] = ()


# The one padding slot, built only by the view's padded `rows` read. Its seq
# of -1 belongs to no real row.
DUMMY = SecureTuple(key=0, attrs=(), is_view=False, seq=-1)


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


# ---------------------------------------------------------------------------
# Bitonic sorting network. The pair sequence below is the network; the sorts
# reproduce its output order with Timsort and charge its closed-form size.
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
    """Compare-exchange count of the network for n items (padded internally)."""
    m = padded_length(n)
    stages = m.bit_length() - 1
    return (m // 2) * stages * (stages + 1) // 2


def network_sort_keys(keys: list, n: int, networks: int) -> tuple[list[int], int]:
    """The order `networks` independent n-slot networks sort their real keys
    into, and their total compare count.

    `keys` are the reals of every network, concatenated in network order, and
    every key of one network lies below every key of the next, so one Timsort
    of the positions by key gives each network's output order, concatenated.
    The other slots of each network are dummies, which it moves behind every
    real. A network pads to a power of two with max-int sentinels; the count
    is `networks` times that of the padded n-slot network. Keys must be
    distinct (ValueError otherwise), which makes each network's permutation
    the unique sorting one.
    """
    if len(set(keys)) != len(keys):
        raise ValueError("sort keys must be distinct")
    return (sorted(range(len(keys)), key=keys.__getitem__),
            networks * network_comparison_count(n))


def network_sort(reals: list, key_of: Callable, n: int, counter: list,
                 networks: int) -> list:
    """The real items of `networks` independent n-slot padded inputs, in the
    networks' output order, concatenated.

    `reals` holds each input's reals in turn; each network's output is its
    reals followed by its dummies. key_of maps an item to an int or a tuple of
    ints, must be injective over the reals (a repeated key raises ValueError),
    and must put every item of one input below every item of the next.
    `counter[0]` accumulates the networks' compare-exchange count. Since the
    network orders reals by key alone, a caller may pass only the reals whose
    order it reads: they come out in the order the network gives them among
    all the input's reals, and the charge still covers all n slots.
    """
    perm, comparisons = network_sort_keys(list(map(key_of, reals)), n, networks)
    counter[0] += comparisons
    return [reals[i] for i in perm]


# ---------------------------------------------------------------------------
# Cache operations. A real's cache sort key is its seq: real first, FIFO.
seq_of = attrgetter("seq")


def cache_append(cache: SecureCache, reals: list[SecureTuple], slots: int) -> SecureCache:
    """Append a padded batch of `slots` slots holding `reals`, after prior entries."""
    return SecureCache(cache.entries + reals, cache.slots + slots)


def obli_sort(cache: SecureCache, counter: list) -> SecureCache:
    """Sort real entries ahead of dummies, in the network's output order."""
    return SecureCache(network_sort(cache.entries, seq_of, len(cache), counter,
                                    networks=1), len(cache))


def cache_read(cache: SecureCache, sz: int) -> tuple[list[SecureTuple], SecureCache]:
    """Pop the first sz slots and return their reals: the first sz reals.

    The other sz - len(reals) slots read are padding. Reals come first in the
    padded array only once it is sorted, so callers sort first. Reading past
    the cache empties it.
    """
    if sz < 0:
        raise ValueError(f"read size must be non-negative, got {sz}")
    return cache.entries[:sz], SecureCache(cache.entries[sz:], max(0, cache.slots - sz))


def cache_flush(cache: SecureCache, s: int,
                counter: list) -> tuple[list[SecureTuple], SecureCache]:
    """Sort, fetch s slots' reals for the view, and recycle the remainder."""
    fetched, _ = cache_read(obli_sort(cache, counter), s)
    return fetched, SecureCache()
