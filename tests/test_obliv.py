import itertools

import numpy as np
import pytest

from dpviewsim import obliv, shrink, transform
from dpviewsim.harness import ExperimentConfig, Protocol, run_experiment
from dpviewsim.obliv import (SecureCache, SecureTuple, cache_flush, cache_read,
                             compare_exchange_pairs, network_comparison_count, network_sort,
                             network_sort_keys, obli_sort, secure_tuple, seq_of)
from dpviewsim.transform import OperatorKind
from test_golden import hot_key_config


# A padding slot of the padded arrays the oracles below build; the cache
# itself never holds one.
PAD = object()


def real(seq, key=1):
    return SecureTuple(key=key, attrs=(key,), seq=seq)


def test_secure_tuple_fields():
    assert SecureTuple._fields == ("key", "attrs", "seq", "timestamp", "sources")


@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
def test_is_view_marks_exactly_the_reals_of_the_padded_view(protocol):
    # is_view is read from seq, not stored, and stays only for the benchmark's
    # tracer. In the padded view it holds on the first counts[i] slots of each
    # batch, which are the view's reals, and on no padding slot.
    for seq in (-2, -1, 0, 1, 1 << 40):
        assert SecureTuple(key=3, attrs=(1,), seq=seq).is_view == (seq >= 0)
    view = run_experiment(ExperimentConfig(protocol=protocol, horizon=40, seed=2)).final_view
    rows = view.rows
    flags = [row.is_view for row in rows]
    assert flags == [i < n for (_, slots), n in zip(view.batches, view.counts)
                     for i in range(slots)]
    assert any(flags) and not all(flags)
    assert [row for row in rows if row.is_view] == view.reals


def test_secure_tuple_builder_equals_the_constructor():
    fields = (7, (1, 2), 3, 4, (0, 1))
    built, made = secure_tuple(fields), SecureTuple(*fields)
    assert built == made and type(built) is SecureTuple
    assert (built.key, built.attrs, built.seq, built.timestamp, built.sources) == fields
    assert built._asdict() == made._asdict()


def test_append_lengths():
    # The cache changes in place, so each state is copied before the next append.
    c = SecureCache()
    c.append([real(0), real(1)], 3)
    assert len(c) == 3 and c.real_count() == 2
    first = (list(c.entries), len(c))
    c.append([], 2)
    assert len(c) == 5 and c.entries == first[0]
    batch = [real(2)]
    c.append(batch, 4)
    assert len(c) == 9
    assert c.entries == [real(0), real(1), real(2)]  # prior order preserved
    assert first == ([real(0), real(1)], 3) and batch == [real(2)]  # inputs unchanged


def test_cache_rejects_more_reals_than_slots():
    with pytest.raises(ValueError, match="exceed"):
        SecureCache([real(0), real(1)], 1)
    with pytest.raises(ValueError, match="exceed"):
        SecureCache().append([real(0)], 0)
    # The batch's own slots bound its reals, whatever slots the cache has spare.
    cache = SecureCache([real(0)], 3)
    with pytest.raises(ValueError, match="exceed"):
        cache.append([real(1), real(2)], 1)
    assert cache == SecureCache([real(0)], 3)  # a rejected batch changes nothing


def test_obli_sort_real_first_with_fifo_ties():
    c = SecureCache([real(3), real(1)], 4)
    entries = c.entries
    assert obli_sort(c) is None  # sorted in place
    assert [e.seq for e in c.entries] == [1, 3] and c.entries is entries
    assert len(c) == 4 and c.real_count() == 2
    fetched = cache_read(c, 4)
    assert fetched == [real(1), real(3)]  # the other 2 of the 4 slots read are padding
    assert len(c) == 0 and c.entries == [] and c.entries is entries


def test_real_first_exhaustive_small():
    # No dummy may precede a real entry, for every flag pattern up to n=6,
    # whatever order the reals arrive in: reading the first sz sorted slots
    # gives the first sz reals in seq order, and sz minus their count is
    # the padding read.
    for n in range(1, 7):
        for bits in range(1 << n):
            seqs = [i for i in range(n) if bits >> i & 1]
            for order in (seqs, seqs[::-1]):
                for sz in range(n + 1):
                    rest = SecureCache([real(i) for i in order], n)
                    obli_sort(rest)
                    fetched = cache_read(rest, sz)
                    assert [e.seq for e in fetched] == seqs[:sz]
                    assert sz - len(fetched) == max(0, sz - len(seqs))
                    assert [e.seq for e in rest.entries] == seqs[sz:]
                    assert len(rest) == n - sz


def test_comparison_count_is_length_only():
    # Same length, different contents: identical comparison count, equal to
    # the closed-form size of the full network.
    full = network_sort_keys(list(range(8)), 8, 1)[1]
    assert full == network_sort_keys([], 8, 1)[1] == network_comparison_count(8) == 24


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
        m = 1 << max(0, n - 1).bit_length()
        values = keys.tolist() + [top] * (m - n)
        order = list(range(m))
        pairs = 0
        for i, j, asc in compare_exchange_pairs(m):
            if (values[i] > values[j]) if asc else (values[i] < values[j]):
                values[i], values[j] = values[j], values[i]
                order[i], order[j] = order[j], order[i]
            pairs += 1
        perm, count = network_sort_keys(keys.tolist(), n, 1)
        assert values[:n] == sorted(keys.tolist())
        assert [p for p in order if p < n] == list(perm)
        assert count == pairs == network_comparison_count(n)

    # The padded-length contract: k distinct real keys among n slots whose
    # n - k dummies hold keys above every real. The network's first k outputs
    # are the reals in the order network_sort returns them, and the sort
    # charges the n-slot network.
    for n in [0, 1, 2, 3, 7, 16, 33, 100]:
        for k in sorted({0, 1, n // 3, n - 1, n} & set(range(n + 1))):
            reals = [int(v) for v in rng.permutation(4 * n)[:k]]
            slots = [4 * n] * n
            for value, at in zip(reals, rng.permutation(n)):
                slots[at] = value
            m = 1 << max(0, n - 1).bit_length()
            values = slots + [top] * (m - n)
            pairs = 0
            for i, j, asc in compare_exchange_pairs(m):
                if (values[i] > values[j]) if asc else (values[i] < values[j]):
                    values[i], values[j] = values[j], values[i]
                pairs += 1
            assert network_sort(reals, lambda v: v, n, 1) == values[:k]
            assert all(v >= 4 * n for v in values[k:])
            assert network_sort_keys(reals, n, 1)[1] == pairs == network_comparison_count(n)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 16, 33])
def test_batched_sort_matches_independent_networks(k, n):
    # k independent n-slot inputs, each run through its own plain-Python
    # network. Group g's real keys lie below group g+1's, and its dummies
    # hold a key above every real. One batched sort of all the reals must
    # give each network's reals in its output order, concatenated, and
    # charge the k networks.
    rng = np.random.default_rng(10 * n + k)
    top = 1 << 62
    m = 1 << max(0, n - 1).bit_length()
    for _ in range(5):
        reals, expected, pairs = [], [], 0
        for g in range(k):
            count = int(rng.integers(0, n + 1))
            group = [int(v) + 4 * n * g for v in rng.permutation(4 * n)[:count]]
            values = [top] * m
            for value, at in zip(group, rng.permutation(n)):
                values[at] = value
            reals += [v for v in values if v != top]
            for i, j, asc in compare_exchange_pairs(m):
                if (values[i] > values[j]) if asc else (values[i] < values[j]):
                    values[i], values[j] = values[j], values[i]
                pairs += 1
            expected += values[:count]
        assert network_sort(reals, lambda v: v, n, networks=k) == expected
        assert network_sort_keys(reals, n, k)[1] == pairs == k * network_comparison_count(n)


@pytest.mark.parametrize("networks", [0, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_fewer_than_two_keys_return_at_once_with_the_networks_count(n, networks):
    # Nothing to order: no key is compared, but the count is still that of
    # the `networks` n-slot networks the protocol runs.
    count = networks * network_comparison_count(n)
    order, counted = network_sort_keys([], n, networks)
    assert (list(order), counted) == ([], count)
    order, counted = network_sort_keys([(7, 0, 3)], n, networks)
    assert (list(order), counted) == ([0], count)
    item = real(5)
    assert network_sort([item], seq_of, n, networks) == [item]
    assert network_sort([], seq_of, n, networks) == []


@pytest.mark.parametrize("keys", [[1, 2, 5, 9], [(0, 1, 3), (0, 1, 4), (2, 0, 0)]])
def test_strictly_ascending_keys_come_back_in_order(keys):
    order, count = network_sort_keys(keys, 8, 2)
    assert (list(order), count) == ([0, 1, 2, 3][:len(keys)], 2 * network_comparison_count(8))


@pytest.mark.parametrize("keys", [[1, 2, 2, 3], [(0, 1), (1, 0), (1, 0)]])
def test_ascending_keys_with_a_tie_raise(keys):
    with pytest.raises(ValueError, match="distinct"):
        network_sort_keys(keys, 4, 1)


@pytest.mark.parametrize("keys", [[3, 1, 2], [1, 3, 2, 4], [(1, 0), (0, 5), (0, 6)]])
def test_unsorted_keys_give_the_sorting_permutation(keys):
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert network_sort_keys(keys, 4, 3) == (order, 3 * network_comparison_count(4))


def test_network_sort_rejects_repeated_keys():
    with pytest.raises(ValueError, match="distinct"):
        network_sort([3, 1, 2], lambda v: 7, 3, 1)


def test_obli_sort_rejects_entries_sharing_class_and_seq():
    with pytest.raises(ValueError, match="distinct"):
        obli_sort(SecureCache([real(4), real(4, key=9)], 3))


def test_network_sort_arbitrary_lengths():
    rng = np.random.default_rng(11)
    for n in [1, 2, 3, 5, 7, 12, 33, 100]:
        vals = [int(v) for v in rng.permutation(n * 3)[:n]]
        out = network_sort(vals, lambda v: v, n, 1)
        assert out == sorted(vals)
        assert network_sort_keys(vals, n, 1)[1] == network_comparison_count(n)


def test_cache_read_prefix_cut():
    # Each read pops its slots from the one cache, in place.
    c = SecureCache([real(0), real(1), real(2)], 6)
    fetched = cache_read(c, 2)
    assert fetched == [real(0), real(1)]
    assert c.entries == [real(2)] and len(c) == 4
    fetched = cache_read(c, 3)
    assert fetched == [real(2)]  # and 3 - 1 = 2 padding slots
    assert c.entries == [] and len(c) == 1
    assert c.real_count() == 0


def test_cache_read_dummy_top_up():
    # A read past the cache returns its reals; the other 4 - 1 slots read
    # are padding, which is a count and is not built.
    c = SecureCache([real(0)], 1)
    fetched = cache_read(c, 4)
    assert fetched == [real(0)]
    assert len(c) == 0 and c.entries == []


def test_cache_read_zero():
    c = SecureCache([real(0)], 2)
    fetched = cache_read(c, 0)
    assert fetched == []
    assert c.entries == [real(0)] and c.real_count() == 1
    assert len(c) == 2


def test_cache_read_negative_rejected():
    c = SecureCache([real(0)], 2)
    with pytest.raises(ValueError):
        cache_read(c, -1)
    assert c == SecureCache([real(0)], 2)  # a rejected read changes nothing


def test_flush_basic(monkeypatch):
    sorted_caches = []

    def spy_obli_sort(cache):
        sorted_caches.append(len(cache))
        return obli_sort(cache)

    monkeypatch.setattr(obliv, "obli_sort", spy_obli_sort)
    c = SecureCache([real(0)], 3)
    fetched = cache_flush(c, 2)
    assert fetched == [real(0)]  # the other of the 2 slots read is padding
    assert len(c) == 0 and c.entries == []  # emptied in place
    assert sorted_caches == [3]  # the flush sorts the whole cache first


def test_flush_zero_recycles_everything():
    c = SecureCache([real(0)], 2)
    fetched = cache_flush(c, 0)
    assert fetched == [] and len(c) == 0 and c.entries == []


def test_flush_real_count_oracle():
    # Real rows fetched by a flush equal min(s, real count), checked against
    # a plain counting oracle on random caches.
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(0, 40))
        entries = [real(i) if rng.random() < 0.4 else PAD for i in range(n)]
        true_reals = sum(1 for e in entries if e is not PAD)  # oracle
        s = int(rng.integers(0, 30))
        fetched = cache_flush(SecureCache([e for e in entries if e is not PAD], n), s)
        assert len(fetched) == min(s, true_reals)  # s - len(fetched) is padding


def test_conservation_under_read():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        entries = [real(i) if rng.random() < 0.5 else PAD for i in range(n)]
        total_real = sum(e is not PAD for e in entries)
        sz = int(rng.integers(0, n + 5))
        cache = SecureCache([e for e in entries if e is not PAD], n)
        obli_sort(cache)
        fetched = cache_read(cache, sz)
        got, left = len(fetched), cache.real_count()
        assert got + left == total_real
        assert got == min(sz, total_real)  # real-first fetch; sz - got is padding
        assert len(cache) == max(0, n - sz)


def test_network_count_pads_to_the_least_power_of_two():
    # An n-slot network is the pair generator's network on the least power of
    # two that holds n (one slot for n = 0).
    assert [network_comparison_count(n) for n in (0, 1, 2, 3, 4, 5, 9)] == \
        [len(list(compare_exchange_pairs(m))) for m in (1, 1, 2, 4, 4, 8, 16)]


# ---------------------------------------------------------------------------
# The cache is its reals plus a slot count. Every operation must agree with
# the padded array it stands for: a plain list of reals and PAD slots, sorted
# real-first (stable) before every read, as the protocol does. A read returns
# the reals of the slots it reads, and the rest of them are the padding.

def assert_matches_padded(cache, padded):
    assert len(cache) == len(padded)
    assert cache.entries == [e for e in padded if e is not PAD]
    assert cache.real_count() == sum(1 for e in padded if e is not PAD)
    assert all(a.seq < b.seq for a, b in zip(cache.entries, cache.entries[1:]))


def test_real_count_stays_exact_through_cache_operations():
    rng = np.random.default_rng(41)
    seqs = itertools.count()
    cache, padded = SecureCache(), []
    assert_matches_padded(cache, padded)
    for _ in range(30):
        batch = [real(next(seqs)) if rng.random() < 0.3 else PAD
                 for _ in range(int(rng.integers(0, 12)))]
        cache.append([e for e in batch if e is not PAD], len(batch))
        padded = padded + batch
        assert_matches_padded(cache, padded)
        if rng.random() < 0.3:
            obli_sort(cache)
            padded = sorted(padded, key=lambda e: e is PAD)
            assert_matches_padded(cache, padded)
        if rng.random() < 0.4:
            sz = int(rng.integers(0, len(cache) + 3))
            fetched = cache_read(cache, sz)
            padded = sorted(padded, key=lambda e: e is PAD)
            padded += [PAD] * (sz - len(padded))
            assert fetched == [e for e in padded[:sz] if e is not PAD]
            assert sz - len(fetched) == sum(e is PAD for e in padded[:sz])
            padded = padded[sz:]
            assert_matches_padded(cache, padded)
    fetched = cache_flush(cache, 5)
    read = (sorted(padded, key=lambda e: e is PAD) + [PAD] * 5)[:5]
    assert fetched == [e for e in read if e is not PAD]
    assert cache.entries == [] and len(cache) == 0


def test_given_entries_get_real_count():
    cache = SecureCache([real(3), real(9)], 4)
    assert cache.real_count() == 2 and len(cache) == 4
    assert SecureCache().real_count() == len(SecureCache()) == 0


@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
@pytest.mark.parametrize("operator", list(OperatorKind))
def test_real_runs_sort_inputs_in_seq_order(monkeypatch, protocol, operator):
    # The cache and the NLJ's rows reach the sort in seq order, so it returns
    # them after the one scan that finds them strictly ascending.
    caches, row_inputs = [], []

    def spy_obli_sort(cache):
        caches.append([e.seq for e in cache.entries])
        return obli_sort(cache)

    def spy_network_sort(reals, key_of, n, networks):
        row_inputs.append([r.seq for r in reals])
        return network_sort(reals, key_of, n, networks)

    monkeypatch.setattr(shrink, "obli_sort", spy_obli_sort)  # syncs
    monkeypatch.setattr(obliv, "obli_sort", spy_obli_sort)  # flushes
    if operator is OperatorKind.NLJ:
        monkeypatch.setattr(transform, "network_sort", spy_network_sort)
    run_experiment(ExperimentConfig(protocol=protocol, operator=operator, horizon=60,
                                    f=20, s=5, seed=2))
    for inputs in [caches] + ([row_inputs] if operator is OperatorKind.NLJ else []):
        assert max(map(len, inputs)) > 1
        assert all(a < b for seqs in inputs for a, b in zip(seqs, seqs[1:]))


@pytest.mark.parametrize("protocol", [Protocol.DP_TIMER, Protocol.DP_ANT])
@pytest.mark.parametrize("stream", ["synthetic", "hot-key CSV"])
def test_real_runs_pass_the_smj_seq_ordered_inputs(monkeypatch, tmp_path, protocol, stream):
    # The SMJ reads each key's partners from its t1 reals in seq order and
    # sorts only t2 reals. On real runs both inputs arrive in seq order, so
    # the partner sort is one scan, and the sort's input is a sublist of t2.
    calls = []  # per SMJ call: t1's seqs, t2's seqs, the sorted reals' seqs
    smj = transform.trans_truncate_smj

    def spy_smj(t1, n1, t2, n2, *rest):
        calls.append([[t.seq for t in t1], [t.seq for t in t2], None])
        return smj(t1, n1, t2, n2, *rest)

    def spy_network_sort(reals, key_of, n, networks):
        calls[-1][2] = [r.seq for r in reals]
        return network_sort(reals, key_of, n, networks)

    monkeypatch.setattr(transform, "trans_truncate_smj", spy_smj)
    monkeypatch.setattr(transform, "network_sort", spy_network_sort)
    config = ExperimentConfig(protocol=protocol, operator=OperatorKind.SMJ, horizon=60,
                              f=20, s=5, seed=2)
    run_experiment(config if stream == "synthetic" else hot_key_config(config, tmp_path))
    for t1, t2, sorted_seqs in calls:
        assert all(a < b for seqs in (t1, t2) for a, b in zip(seqs, seqs[1:]))
        rest = iter(t2)
        assert sorted_seqs is None or all(seq in rest for seq in sorted_seqs)
    assert max(len(t1) for t1, _, _ in calls) > 1 and max(len(t2) for _, t2, _ in calls) > 1
    assert max(len(seqs or ()) for _, _, seqs in calls) > 1
