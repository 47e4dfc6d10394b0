import numpy as np
import pytest

from dpviewsim.obliv import (SecureCache, SecureTuple, SeqCounter,
                             cache_append, cache_flush, cache_read,
                             compare_exchange_pairs, make_dummy,
                             network_comparison_count, network_sort,
                             network_sort_keys, obli_sort, padded_length,
                             real_first_key)


def real(seq, key=1):
    return SecureTuple(key=key, attrs=(key,), is_view=True, seq=seq)


def dummy(seq):
    return make_dummy(seq, width=1)


# Seq stamps minted by the reads and flushes below start past every input seq.
FRESH = 1000


def read(cache, sz):
    return cache_read(cache, sz, SeqCounter(FRESH), 0, 1)


def flush(cache, s, counter=None):
    return cache_flush(cache, s, SeqCounter(FRESH), 0, 1, [0] if counter is None else counter)


def test_append_lengths():
    c = cache_append(SecureCache(), [real(0), real(1), dummy(2)])
    assert len(c) == 3
    c2 = cache_append(c, [dummy(3), dummy(4)])
    assert len(c2) == 5
    assert c2.entries[:3] == c.entries  # prior order preserved


def test_obli_sort_real_first_with_fifo_ties():
    c = SecureCache([dummy(0), real(1), dummy(2), real(3)])
    out = obli_sort(c, [0])
    assert [e.seq for e in out.entries] == [1, 3, 0, 2]
    assert [e.is_view for e in out.entries] == [True, True, False, False]


def test_obli_sort_all_dummies_keeps_seq_order():
    c = SecureCache([dummy(5), dummy(2), dummy(9), dummy(0)])
    out = obli_sort(c, [0])
    assert [e.seq for e in out.entries] == [0, 2, 5, 9]


def test_real_first_exhaustive_small():
    # No dummy may precede a real entry, for every flag pattern up to n=6.
    for n in range(1, 7):
        for bits in range(1 << n):
            entries = [real(i) if bits >> i & 1 else dummy(i) for i in range(n)]
            out = obli_sort(SecureCache(entries), [0]).entries
            flags = [e.is_view for e in out]
            assert flags == sorted(flags, reverse=True)
            assert sorted(e.seq for e in out) == list(range(n))


def test_comparison_count_is_length_only():
    # Same length, different contents: identical comparison count, equal to
    # the closed-form size of the full network.
    a = [real(i) for i in range(8)]
    b = [dummy(i) for i in range(8)]
    ca, cb = [0], [0]
    obli_sort(SecureCache(a), ca)
    obli_sort(SecureCache(b), cb)
    assert ca[0] == cb[0] == network_comparison_count(8) == 24


def test_comparison_count_closed_form():
    for n, expected in [(1, 0), (2, 1), (4, 6), (8, 24), (16, 80)]:
        assert network_comparison_count(n) == expected
    # non-powers pad up
    assert network_comparison_count(5) == network_comparison_count(8)


def test_pair_sequence_function_of_length_only():
    pairs = list(compare_exchange_pairs(8))
    assert len(pairs) == 24
    assert pairs == list(compare_exchange_pairs(8))
    for i, j, _ in pairs:
        assert 0 <= i < j < 8


def test_network_matches_pair_generator():
    # The pair generator is the network. Run it in plain Python over distinct
    # keys padded with max-int sentinels: the sort must return its permutation
    # on the original positions and charge exactly its compare-exchanges.
    rng = np.random.default_rng(3)
    top = np.iinfo(np.int64).max
    for n in [0, 1, 2, 3, 5, 16, 33, 100, 1025, 4096]:
        keys = rng.integers(np.iinfo(np.int64).min, top, size=n, dtype=np.int64)
        assert len(set(keys.tolist())) == n
        m = padded_length(n)
        values = keys.tolist() + [top] * (m - n)
        order = list(range(m))
        pairs = 0
        for i, j, asc in compare_exchange_pairs(m):
            if (values[i] > values[j]) if asc else (values[i] < values[j]):
                values[i], values[j] = values[j], values[i]
                order[i], order[j] = order[j], order[i]
            pairs += 1
        perm, count = network_sort_keys(keys)
        assert values[:n] == sorted(keys.tolist())
        assert [p for p in order if p < n] == perm.tolist()
        assert count == pairs == network_comparison_count(n)


def test_network_sort_rejects_repeated_keys():
    with pytest.raises(ValueError, match="distinct"):
        network_sort([3, 1, 2], lambda v: 7, [0])


def test_obli_sort_rejects_entries_sharing_class_and_seq():
    with pytest.raises(ValueError, match="distinct"):
        obli_sort(SecureCache([real(4), dummy(0), real(4, key=9)]), [0])


def test_network_sort_arbitrary_lengths():
    rng = np.random.default_rng(11)
    for n in [1, 2, 3, 5, 7, 12, 33, 100]:
        vals = [int(v) for v in rng.permutation(n * 3)[:n]]
        counter = [0]
        out = network_sort(vals, lambda v: v, counter)
        assert out == sorted(vals)
        assert counter[0] == network_comparison_count(n)


def test_cache_read_prefix_cut():
    c = SecureCache([real(0), real(1), dummy(2), dummy(3)])
    fetched, remaining = read(c, 3)
    assert [e.seq for e in fetched] == [0, 1, 2]
    assert [e.seq for e in remaining.entries] == [3]


def test_cache_read_dummy_top_up():
    c = SecureCache([real(0)])
    seqs = SeqCounter(FRESH)
    fetched, remaining = cache_read(c, 4, seqs, 7, 2)
    assert len(fetched) == 4
    assert fetched[0].is_view and not any(e.is_view for e in fetched[1:])
    assert len(remaining) == 0
    # Top-up dummies take the run counter's next stamps, the step and the width.
    assert fetched[1:] == [make_dummy(FRESH + i, 7, 2) for i in range(3)]
    assert seqs.take() == FRESH + 3


def test_cache_read_zero():
    c = SecureCache([real(0), dummy(1)])
    fetched, remaining = read(c, 0)
    assert fetched == []
    assert remaining.entries == c.entries


def test_cache_read_negative_rejected():
    with pytest.raises(ValueError):
        read(SecureCache(), -1)


def test_flush_basic():
    c = SecureCache([real(0), dummy(1), dummy(2)])
    counter = [0]
    fetched, remaining = flush(c, 2, counter)
    assert len(fetched) == 2
    assert fetched[0].is_view and not fetched[1].is_view
    assert len(remaining) == 0
    assert counter[0] == network_comparison_count(3)  # the flush sorts first


def test_flush_zero_recycles_everything():
    c = SecureCache([real(0), dummy(1)])
    fetched, remaining = flush(c, 0)
    assert fetched == [] and len(remaining) == 0


def test_flush_real_count_oracle():
    # Real rows fetched by a flush equal min(s, real count), checked against
    # a plain counting oracle on random caches.
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(0, 40))
        entries = [real(i) if rng.random() < 0.4 else dummy(i) for i in range(n)]
        true_reals = sum(1 for e in entries if e.is_view)  # oracle
        s = int(rng.integers(0, 30))
        fetched, _ = flush(SecureCache(entries), s)
        assert len(fetched) == s
        assert sum(1 for e in fetched if e.is_view) == min(s, true_reals)


def test_conservation_under_read():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        entries = [real(i) if rng.random() < 0.5 else dummy(i) for i in range(n)]
        total_real = sum(e.is_view for e in entries)
        sz = int(rng.integers(0, n + 5))
        fetched, remaining = read(obli_sort(SecureCache(entries), [0]), sz)
        got = sum(e.is_view for e in fetched)
        left = sum(e.is_view for e in remaining.entries)
        assert got + left == total_real
        assert got == min(sz, total_real)  # real-first fetch


def test_padded_length():
    assert [padded_length(n) for n in (0, 1, 2, 3, 4, 5, 9)] == [1, 1, 2, 4, 4, 8, 16]


# ---------------------------------------------------------------------------
# Packed sort keys never alias: out-of-range seqs raise instead of wrapping.

def test_cache_key_top_seq_sorts_after_smaller_seqs():
    top = real((1 << 48) - 1)
    assert real_first_key(top) > real_first_key(real(0))
    assert real_first_key(top) < real_first_key(dummy(0))


@pytest.mark.parametrize("seq", [1 << 48, (1 << 48) + 5, -1])
def test_cache_key_rejects_seq_outside_48_bits(seq):
    with pytest.raises(ValueError, match="cache sort key"):
        real_first_key(dummy(seq))
    # Keys are built when an entry enters the cache, so that is where it fails.
    with pytest.raises(ValueError, match="cache sort key"):
        SecureCache([real(0), dummy(seq)])
    cache = SecureCache([real(0)])
    with pytest.raises(ValueError, match="cache sort key"):
        cache_append(cache, [dummy(1), dummy(seq)])
    assert [e.seq for e in cache.entries] == [0] and cache.keys.tolist() == [0]


# ---------------------------------------------------------------------------
# The key column is derived state: it must match the entries after every
# operation.

def assert_keys_aligned(cache):
    assert cache.keys.dtype == np.int64
    assert cache.keys.tolist() == [real_first_key(e) for e in cache.entries]
    assert cache.real_count() == sum(1 for e in cache.entries if e.is_view)


def test_key_column_stays_aligned_through_cache_operations():
    rng = np.random.default_rng(41)
    seqs = SeqCounter()
    cache = SecureCache()
    assert_keys_aligned(cache)
    for _ in range(30):
        batch = [real(seqs.take()) if rng.random() < 0.3 else dummy(seqs.take())
                 for _ in range(int(rng.integers(0, 12)))]
        cache = cache_append(cache, batch)
        assert_keys_aligned(cache)
        if rng.random() < 0.4:
            cache = obli_sort(cache, [0])
            assert_keys_aligned(cache)
            fetched, cache = cache_read(cache, int(rng.integers(0, len(cache) + 3)),
                                        seqs, 0, 1)
            assert_keys_aligned(cache)
    fetched, cache = cache_flush(cache, 5, seqs, 0, 1, [0])
    assert len(fetched) == 5
    assert_keys_aligned(cache)
    assert len(cache) == 0


def test_given_entries_get_keys_and_real_count():
    cache = SecureCache([dummy(7), real(3), dummy(1), real(9)])
    assert_keys_aligned(cache)
    assert cache.real_count() == 2
