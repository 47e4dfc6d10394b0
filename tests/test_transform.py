import itertools

import numpy as np
import pytest

from dpviewsim import transform
from dpviewsim.harness import ExperimentConfig
from dpviewsim.obliv import SecureCache, SecureTuple, network_comparison_count, network_sort
from dpviewsim.randomness import ServerRandomness
from dpviewsim.sharing import recover
from dpviewsim.transcript import Transcript, TranscriptKind
from dpviewsim.transform import (OperatorKind, TransformState, expected_output_size,
                                 retention_steps, trans_truncate_filter,
                                 trans_truncate_nlj, trans_truncate_smj,
                                 transform_init, transform_step)


def rec(seq, key, flag=1):
    return SecureTuple(key=key, attrs=(flag,), seq=seq)


def padded(rng, n, make):
    """The reals of an n-slot padded input: make(i) for each slot i that is
    not padding, which a slot is with probability 1/4."""
    return [make(i) for i in range(n) if rng.random() >= 0.25]


# Seq stamps minted by the transforms start past every input seq.
FRESH = 1 << 20


def budgets(tables, omega):
    """Join slots of omega for every real record, as a new record holds."""
    return {tup.seq: omega for table in tables for tup in table}


def filt(batch):
    return trans_truncate_filter(batch, itertools.count(FRESH), 0)


def nlj(t1, t2, b, counter=None, n1=None, n2=None):
    """The NLJ of reals t1 and t2, padded to n1 and n2 slots (default: none)."""
    return trans_truncate_nlj(t1, len(t1) if n1 is None else n1,
                              t2, len(t2) if n2 is None else n2, b, budgets((t1, t2), b),
                              itertools.count(FRESH), 0, [0] if counter is None else counter)


# ---------------------------------------------------------------------------
# Independent oracles: plain-python, no networks, no padding, no slots.

def brute_force_pairs(t1, t2):
    """Every key-matching (t1.seq, t2.seq) pair, no truncation."""
    return [(a.seq, b.seq) for a in t1 for b in t2 if a.key == b.key]


def greedy_cap_pairs(t1, t2, omega):
    """Brute-force cross product in merged scan order, greedy both-side cap.

    Scan the key-sorted union (t1 before t2 on ties); each accessed record
    joins earlier records of the other table while both sides still hold
    contribution slots, at most omega per access.
    """
    items = sorted([(t.key, 0, t.seq, t) for t in t1] + [(t.key, 1, t.seq, t) for t in t2])
    caps: dict[int, int] = {}
    pairs = []
    group = None
    seen = {0: [], 1: []}
    for key, origin, _, t in items:
        if key != group:
            group = key
            seen = {0: [], 1: []}
        emitted = 0
        for p in seen[1 - origin]:
            if emitted == omega or caps.get(t.seq, omega) == 0:
                break
            if caps.get(p.seq, omega) == 0:
                continue
            caps[t.seq] = caps.get(t.seq, omega) - 1
            caps[p.seq] = caps.get(p.seq, omega) - 1
            pairs.append((t.seq, p.seq) if origin == 0 else (p.seq, t.seq))
            emitted += 1
        seen[origin].append(t)
    return pairs


def real_pairs(output):
    """Source pairs of a join's (rows, slots) output; every row is real."""
    rows, _ = output
    assert all(row.is_view for row in rows)
    return [row.sources for row in rows]


# ---------------------------------------------------------------------------
# Filter.

def test_filter_all_true():
    batch = [rec(i, key=i) for i in range(5)]  # flag 1: every record is selected
    rows = filt(batch)
    assert len(rows) == 5
    assert all(r.is_view for r in rows)
    assert [r.sources for r in rows] == [(i,) for i in range(5)]


def test_filter_all_false():
    batch = [rec(i, key=i, flag=0) for i in range(5)]
    assert filt(batch) == []


def test_filter_matches_plaintext_selectivity():
    rng = np.random.default_rng(5)
    batch = [SecureTuple(key=i, attrs=(int(rng.integers(2)),), seq=i)
             for i in range(40)]
    pred = lambda t: t.attrs[0] == 1
    expected = sum(1 for t in batch if pred(t))  # oracle
    rows = filt(batch)
    assert len(rows) == expected and all(r.is_view for r in rows)
    # kept rows stay in input order
    assert [r.sources for r in rows] == [(t.seq,) for t in batch if pred(t)]


def test_filter_keeps_payload():
    batch = [rec(3, key=9, flag=7)]
    [row] = filt(batch)
    assert row.key == 9 and row.attrs == (7,)
    assert row.sources == (3,)


# ---------------------------------------------------------------------------
# Sort-merge join.

def smj(t1, t2, omega, counter=None, n1=None, n2=None):
    """The SMJ of reals t1 and t2, padded to n1 and n2 slots (default: none)."""
    return trans_truncate_smj(t1, len(t1) if n1 is None else n1,
                              t2, len(t2) if n2 is None else n2, omega,
                              budgets((t1, t2), omega), itertools.count(FRESH), 0,
                              [0] if counter is None else counter)


def test_smj_worked_example():
    # 2 x 3 rows sharing one key with per-tuple bound 2: brute force gives 6,
    # the cap removes 2, survivors in scan order.
    t1 = [rec(0, key=1), rec(1, key=1)]
    t2 = [rec(2, key=1), rec(3, key=1), rec(4, key=1)]
    out = smj(t1, t2, omega=2)
    got = real_pairs(out)
    assert len(brute_force_pairs(t1, t2)) == 6
    assert got == [(0, 2), (1, 2), (0, 3), (1, 3)]
    assert got == greedy_cap_pairs(t1, t2, 2)
    assert out[1] == (2 + 3) * 2  # omega slots per scanned tuple


def test_smj_disjoint_keys_all_dummy():
    t1 = [rec(0, key=1), rec(1, key=2)]
    t2 = [rec(2, key=3), rec(3, key=4)]
    out = smj(t1, t2, omega=2)
    assert real_pairs(out) == []
    assert out[1] == 8


def test_smj_one_to_one_equals_brute_force():
    rng = np.random.default_rng(13)
    keys = rng.permutation(50)[:20]
    t1 = [rec(i, key=int(keys[i])) for i in range(10)]
    t2 = [rec(100 + i, key=int(keys[i])) for i in range(10)]
    out = smj(t1, t2, omega=1)
    assert sorted(real_pairs(out)) == sorted(brute_force_pairs(t1, t2))


def test_smj_matches_greedy_oracle_random():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n1, n2 = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        t1 = [rec(i, key=int(rng.integers(1, 5))) for i in range(n1)]
        t2 = [rec(100 + i, key=int(rng.integers(1, 5))) for i in range(n2)]
        omega = int(rng.integers(1, 4))
        out = smj(t1, t2, omega)
        assert real_pairs(out) == greedy_cap_pairs(t1, t2, omega)
        assert out[1] == (n1 + n2) * omega


def test_smj_respects_a_record_s_slots():
    # A record holding one slot joins at most once even when omega allows
    # more, and the join takes that slot.
    t1 = [rec(0, key=1)]
    t2 = [rec(1, key=1), rec(2, key=1)]
    caps = {0: 1, 1: 2, 2: 2}
    out = trans_truncate_smj(t1, 1, t2, 2, 2, caps, itertools.count(FRESH), 0, [0])
    assert real_pairs(out) == [(0, 1)]
    assert caps == {0: 0, 1: 1, 2: 2}


def test_smj_output_size_data_independent():
    t1a = [rec(i, key=1) for i in range(4)]
    t2a = [rec(10 + i, key=1) for i in range(4)]
    t1b = [rec(i, key=i) for i in range(4)]
    t2b = [rec(10 + i, key=50 + i) for i in range(4)]
    ca, cb = [0], [0]
    outa = smj(t1a, t2a, 2, ca)
    outb = smj(t1b, t2b, 2, cb)
    assert outa[1] == outb[1] == 16
    assert ca[0] == cb[0] == 24  # one network over the 8 merged records


@pytest.mark.parametrize("omega", [1, 2])
def test_smj_seqs_past_28_bits_and_top_keys_join_as_small_seqs(omega):
    # The SMJ sorts on (key, origin, seq), which no field width bounds: seqs
    # from 2**28 up and keys up to 2**32 - 1 give the rows of the same inputs
    # with small seqs, every seq shifted.
    shift, top = 1 << 28, (1 << 32) - 1
    rng = np.random.default_rng(90 + omega)

    def shifted(t):
        return t._replace(seq=t.seq + shift, sources=tuple(s + shift for s in t.sources))

    joined = 0
    for _ in range(50):
        seq = iter(range(100))
        n1, n2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        t1, t2 = (padded(rng, n, lambda _: rec(next(seq), key=top - int(rng.integers(3)),
                                               flag=int(rng.integers(9))))
                  for n in (n1, n2))
        caps = budgets((t1, t2), omega)
        big_caps = {s + shift: c for s, c in caps.items()}
        counter, big_counter = [0], [0]
        rows, slots = trans_truncate_smj(t1, n1, t2, n2, omega, caps, itertools.count(FRESH), 0,
                                         counter)
        big_rows, big_slots = trans_truncate_smj(
            [shifted(t) for t in t1], n1, [shifted(t) for t in t2], n2, omega, big_caps,
            itertools.count(FRESH + shift), 0, big_counter)
        assert big_rows == [shifted(r) for r in rows]
        assert (big_slots, big_counter) == (slots, counter)
        assert big_caps == {s + shift: c for s, c in caps.items()}
        joined += len(rows)
    assert joined


def test_smj_counts_omega_slots_per_input_slot():
    # Input padding joins nothing but still takes omega output slots per
    # slot, and the sort is charged for all four input slots.
    counter = [0]
    out = smj([rec(0, key=1)], [rec(1, key=1)], omega=2, counter=counter, n1=2, n2=2)
    assert real_pairs(out) == [(0, 1)]
    assert out[1] == 2 * 4
    assert counter[0] == network_comparison_count(4)


def smj_oracle(t1, n1, t2, n2, omega, caps, seqs, timestamp, compare_counter):
    """The full merge: every real of both inputs is sorted and scanned."""
    tagged = [(0, t) for t in t1] + [(1, t) for t in t2]
    merged = network_sort(tagged, lambda it: (it[1].key, it[0], it[1].seq), n1 + n2,
                          compare_counter, networks=1)
    out = []
    group_key = None
    seen = ([], [])
    for origin, tup in merged:
        if tup.key != group_key:
            group_key = tup.key
            seen = ([], [])
        for p in seen[1 - origin]:
            if caps[tup.seq] <= 0:
                break
            if caps[p.seq] <= 0:
                continue
            caps[tup.seq] -= 1
            caps[p.seq] -= 1
            a, b = (tup, p) if origin == 0 else (p, tup)
            out.append(SecureTuple(key=a.key, attrs=a.attrs + b.attrs,
                                   seq=next(seqs), timestamp=timestamp,
                                   sources=(a.seq, b.seq)))
        seen[origin].append(tup)
    return out, omega * (n1 + n2)


def spent_caps(tables, b, spent, cap):
    """Join slots min(cap, b - spent[seq]) for every real: a budget of b, of
    which each record has already spent `spent[seq]`."""
    return {tup.seq: min(cap, b - spent[tup.seq]) for table in tables for tup in table}


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_smj_matches_full_merge_oracle(omega):
    # Shaped like transform_step: (new1, old2 + new2), then (old1, new2), with
    # one slots dict shared by both calls. Each side draws keys from its
    # own random range, so some keys are held by one side only.
    rng = np.random.default_rng(70 + omega)
    for trial in range(300):
        seq = iter(range(10_000))
        lo1, lo2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))

        def table(n, lo):
            n = 0 if trial % 10 == 0 else n
            return padded(rng, n, lambda _: rec(next(seq), key=int(rng.integers(lo, lo + 4)),
                                                flag=int(rng.integers(9)))), n

        (new1, m1), (old1, k1) = (table(int(rng.integers(0, 7)), lo1) for _ in range(2))
        (new2, m2), (old2, k2) = (table(int(rng.integers(0, 7)), lo2) for _ in range(2))
        tables = (new1, old1, new2, old2)
        b = int(rng.integers(omega, 3 * omega + 1))
        spent = {t.seq: int(rng.integers(0, b + 1)) for tab in tables for t in tab}
        caps, want_caps = (spent_caps(tables, b, spent, omega) for _ in range(2))
        seqs, want_seqs = itertools.count(FRESH), itertools.count(FRESH)
        counter, want_counter = [0], [0]
        for inputs in ((new1, m1, old2 + new2, k2 + m2), (old1, k1, new2, m2)):
            rows, slots = trans_truncate_smj(*inputs, omega, caps, seqs, 7, counter)
            want_rows, want_slots = smj_oracle(*inputs, omega, want_caps, want_seqs,
                                               7, want_counter)
            assert [r.sources for r in rows] == [r.sources for r in want_rows]
            assert rows == want_rows  # same seqs, payloads and timestamps
            assert slots == want_slots == omega * (inputs[1] + inputs[3])
            assert counter == want_counter
        assert caps == want_caps
        assert next(seqs) == next(want_seqs)


def test_smj_sorts_once_per_invocation(monkeypatch):
    calls = []

    def recording_sort(reals, key_of, n, counter, networks):
        calls.append(([t.seq for _, t in reals], n, networks))
        return network_sort(reals, key_of, n, counter, networks)

    monkeypatch.setattr(transform, "network_sort", recording_sort)
    t2 = [rec(10, key=1), rec(11, key=3), rec(12, key=1), rec(13, key=4)]  # of 5 slots
    cases = (([], 0, [], 0, []),
             ([], 0, t2, 5, []),
             ([rec(0, key=2)], 2, t2, 5, []),
             ([rec(0, key=1), rec(1, key=2), rec(2, key=4)], 4, t2, 5, [0, 2, 10, 12, 13]))
    for t1, n1, right, n2, joinable in cases:
        calls.clear()
        counter = [0]
        smj(t1, right, omega=2, counter=counter, n1=n1, n2=n2)
        assert calls == [(joinable, n1 + n2, 1)]
        assert counter[0] == network_comparison_count(n1 + n2)


# ---------------------------------------------------------------------------
# Nested-loop join.

def test_nlj_hand_trace():
    # One outer row, four matching inner rows, bound 2: the inner scan joins
    # until the outer's budget is gone; the per-outer cut keeps 2 slots.
    t1 = [rec(0, key=7)]
    t2 = [rec(i + 1, key=7) for i in range(4)]
    counter = [0]
    out = nlj(t1, t2, b=2, counter=counter)
    assert out[1] == 1 * 2
    assert real_pairs(out) == [(0, 1), (0, 2)]
    assert counter[0] == 6  # one network over the outer's 4 probes


def test_nlj_large_bound_equals_brute_force():
    rng = np.random.default_rng(19)
    t1 = [rec(i, key=int(rng.integers(1, 4))) for i in range(6)]
    t2 = [rec(100 + i, key=int(rng.integers(1, 4))) for i in range(6)]
    out = nlj(t1, t2, b=50)
    assert sorted(real_pairs(out)) == sorted(brute_force_pairs(t1, t2))
    assert out[1] == 6 * 50


def test_nlj_empty_inner_all_dummy():
    t1 = [rec(i, key=1) for i in range(3)]
    counter = [0]
    out = nlj(t1, [], b=2, counter=counter)
    assert out == ([], 6)
    assert counter[0] == 0  # a 0-slot network has no compare-exchanges


def test_nlj_dummy_outer_pads_and_still_sorts_its_row():
    t2 = [rec(1, key=1), rec(2, key=1)]  # of 3 slots
    counter = [0]
    out = nlj([rec(0, key=1)], t2, b=2, counter=counter, n1=2, n2=3)
    assert out[1] == 2 * 2  # the padding outer's b slots are still counted
    assert real_pairs(out) == [(0, 1), (0, 2)]
    assert counter[0] == 2 * network_comparison_count(3)


def test_nlj_consumes_both_sides():
    # Two outers sharing one inner with bound 1: the inner's budget is spent
    # by the first outer.
    t1 = [rec(0, key=1), rec(1, key=1)]
    t2 = [rec(2, key=1)]
    out = nlj(t1, t2, b=1)
    assert real_pairs(out) == [(0, 2)]
    assert out[1] == 2


def nlj_oracle(t1, n1, t2, n2, omega, caps, seqs, timestamp):
    """The per-outer nested loop: (rows, slots, compares).

    Every real outer scans all of t2 in order; its row is sorted by seq on its
    own and cut to omega, and each of the n1 outer slots' n2-slot networks is
    charged.
    """
    out = []
    for u in t1:
        row = []
        for v in t2:
            if u.key == v.key and caps[u.seq] > 0 and caps[v.seq] > 0:
                caps[u.seq] -= 1
                caps[v.seq] -= 1
                row.append(SecureTuple(key=u.key, attrs=u.attrs + v.attrs,
                                       seq=next(seqs), timestamp=timestamp,
                                       sources=(u.seq, v.seq)))
        out += sorted(row, key=lambda t: t.seq)[:omega]
    return out, omega * n1, n1 * network_comparison_count(n2)


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_nlj_matches_per_outer_loop_oracle(omega):
    # Repeated keys, dummies on both sides, outers whose key no inner row
    # holds, partly spent budgets, and caps that may exceed the cut (so an
    # outer can emit rows the cut drops).
    rng = np.random.default_rng(60 + omega)
    for trial in range(300):
        n1 = 0 if trial % 10 == 0 else int(rng.integers(0, 9))
        n2 = 0 if trial % 10 == 1 else int(rng.integers(0, 9))
        t1, t2 = (padded(rng, n, lambda i: rec(base + i, key=int(rng.integers(1, hi)),
                                                flag=int(rng.integers(9))))
                  for n, base, hi in ((n1, 0, 6), (n2, 100, 4)))
        b = int(rng.integers(omega, 3 * omega + 1))
        spent = {t.seq: int(rng.integers(0, b + 1)) for t in t1 + t2}
        cap = omega + 2 * int(rng.integers(2))
        caps, want_caps = (spent_caps((t1, t2), b, spent, cap) for _ in range(2))
        seqs, want_seqs = itertools.count(FRESH), itertools.count(FRESH)
        counter = [0]
        rows, slots = trans_truncate_nlj(t1, n1, t2, n2, omega, caps, seqs, 7, counter)
        want_rows, want_slots, want_compares = nlj_oracle(t1, n1, t2, n2, omega, want_caps,
                                                          want_seqs, 7)
        assert rows == want_rows
        assert slots == want_slots == omega * n1
        assert counter[0] == want_compares
        assert caps == want_caps
        assert next(seqs) == next(want_seqs)


def test_nlj_sorts_once_per_invocation(monkeypatch):
    calls = []

    def recording_sort(reals, key_of, n, counter, networks):
        calls.append((n, networks))
        return network_sort(reals, key_of, n, counter, networks)

    monkeypatch.setattr(transform, "network_sort", recording_sort)
    t2 = [rec(10 + i, key=i % 2) for i in range(5)]  # of 6 slots
    for t1, n1 in (([], 0), ([rec(0, key=0)], 1),
                   ([rec(0, key=0), rec(1, key=1), rec(2, key=0)], 4)):
        calls.clear()
        counter = [0]
        nlj(t1, t2, b=2, counter=counter, n1=n1, n2=6)
        assert calls == [(6, n1)]
        assert counter[0] == n1 * network_comparison_count(6)  # 0 for no t1


# ---------------------------------------------------------------------------
# Truncation stability (single-row deletions).

def _instance(rng, omega):
    """Random join instance whose per-record multiplicity stays within omega.

    Group dimensions are capped at omega on both sides; an over-cap group
    forces any bounded operator to switch surviving pairs under deletion, so
    the per-row guarantee is only attainable in this regime.
    """
    t1, t2 = [], []
    seq = 0
    for key in range(1, int(rng.integers(2, 6))):
        d1 = int(rng.integers(0, omega + 1))
        d2 = int(rng.integers(0, omega + 1))
        for _ in range(d1):
            t1.append(rec(seq, key))
            seq += 1
        for _ in range(d2):
            t2.append(rec(1000 + seq, key))
            seq += 1
        if len(t1) >= 10 or len(t2) >= 10:
            break
    return t1[:10], t2[:10]


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_smj_single_deletion_stability(omega):
    rng = np.random.default_rng(100 + omega)
    for _ in range(70):
        t1, t2 = _instance(rng, omega)
        base = set(real_pairs(smj(t1, t2, omega)))
        for side, table in ((0, t1), (1, t2)):
            for i in range(len(table)):
                d1 = t1[:i] + t1[i + 1:] if side == 0 else t1
                d2 = t2[:i] + t2[i + 1:] if side == 1 else t2
                dropped = set(real_pairs(smj(d1, d2, omega)))
                assert len(base ^ dropped) <= omega


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_nlj_single_deletion_stability(omega):
    rng = np.random.default_rng(200 + omega)
    for _ in range(40):
        t1, t2 = _instance(rng, omega)
        base = set(real_pairs(nlj(t1, t2, omega)))
        for side, table in ((0, t1), (1, t2)):
            for i in range(len(table)):
                d1 = t1[:i] + t1[i + 1:] if side == 0 else t1
                d2 = t2[:i] + t2[i + 1:] if side == 1 else t2
                dropped = set(real_pairs(nlj(d1, d2, omega)))
                assert len(base ^ dropped) <= omega


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_smj_count_stability_unrestricted(omega):
    # When caps bind, the surviving pair set may switch, but the real-output
    # cardinality still moves by at most omega per deleted row.
    rng = np.random.default_rng(300 + omega)
    for _ in range(40):
        n1, n2 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        t1 = [rec(i, key=int(rng.integers(1, 3))) for i in range(n1)]
        t2 = [rec(100 + i, key=int(rng.integers(1, 3))) for i in range(n2)]
        base = len(real_pairs(smj(t1, t2, omega)))
        for i in range(n1):
            n = len(real_pairs(smj(t1[:i] + t1[i + 1:], t2, omega)))
            assert abs(base - n) <= omega
        for i in range(n2):
            n = len(real_pairs(smj(t1, t2[:i] + t2[i + 1:], omega)))
            assert abs(base - n) <= omega


# ---------------------------------------------------------------------------
# transform_step.

def make_state(operator, c_r, omega=1, b=2):
    config = ExperimentConfig(operator=operator, omega=omega, b=b, c_r=c_r)
    return TransformState(config, itertools.count(10_000))


def step(t, batches, cache, counter, state, rand):
    return transform_step(t, batches, cache, counter, state, rand, Transcript(), [0])


def test_initial_counter_recovers_zero():
    rand = ServerRandomness(1)
    counter = transform_init(rand)
    assert recover(counter) == 0


def test_counter_increases_by_real_count():
    rand = ServerRandomness(2)
    state = make_state(OperatorKind.FILTER, 5)
    counter = transform_init(rand)
    cache = SecureCache()
    batch = [rec(0, 1, flag=1), rec(1, 2, flag=1), rec(2, 3, flag=1), rec(3, 4, flag=0)]
    cache, counter = step(1, [batch], cache, counter, state, rand)
    assert recover(counter) == 3
    assert cache.real_count() == 3  # plaintext recount agrees
    assert len(cache) == 5  # the filter charges the c_r slots of the upload


def test_counter_fidelity_across_steps():
    rand = ServerRandomness(3)
    state = make_state(OperatorKind.FILTER, 5)  # flag 1: every record is selected
    counter = transform_init(rand)
    cache = SecureCache()
    rng = np.random.default_rng(0)
    total = 0
    for t in range(1, 12):
        n_real = int(rng.integers(0, 4))
        batch = [rec(100 * t + i, key=i) for i in range(n_real)]
        cache, counter = step(t, [batch], cache, counter, state, rand)
        total += n_real
        assert recover(counter) == total == cache.real_count()


def test_retirement_after_budget_exhaustion():
    # b=4, omega=2: a record is scanned in exactly two invocations.
    rand = ServerRandomness(4)
    state = make_state(OperatorKind.SMJ, 2, omega=2, b=4)
    counter = transform_init(rand)
    cache = SecureCache()
    lead = rec(0, key=9)  # arrives in step 1 on side A
    batches = [
        ([lead], []),
        ([], [rec(12, key=9)]),   # 2 of 2 slots left
        ([], [rec(22, key=9)]),   # lead evicted
    ]
    for t, (ba, bb) in enumerate(batches, start=1):
        cache, counter = step(t, [ba, bb], cache, counter, state, rand)
    assert all(lead not in batch for batch in state.retained[0])
    joined_with_lead = [row for row in state.produced_rows if 0 in row.sources]
    assert len(joined_with_lead) == 1  # only the step-2 partner
    # Step-3 partner found no surviving counterpart.
    assert not any(22 in row.sources for row in state.produced_rows)


def test_invocation_count_matches_retention():
    # omega 3 does not divide b 10: the target holds 3 slots in each of its
    # first three invocations and the last unit of b in its fourth.
    assert retention_steps(ExperimentConfig(omega=3, b=10)) == 4  # ceil(10/3)
    target = rec(0, key=1)
    for operator in (OperatorKind.SMJ, OperatorKind.NLJ):
        rand = ServerRandomness(5)
        state = make_state(operator, 3, omega=3, b=10)
        counter = transform_init(rand)
        cache = SecureCache()
        for t in range(1, 7):
            ba = [target] if t == 1 else []
            bb = [rec(100 * t + 3 + i, key=1) for i in range(3)]  # 3 new partners
            cache, counter = step(t, [ba, bb], cache, counter, state, rand)
        joins = [sum(1 for row in state.produced_rows
                     if row.timestamp == t and 0 in row.sources) for t in range(1, 7)]
        assert joins == [3, 3, 3, 1, 0, 0], operator


class LedgerModel:
    """Join steps under a per-record lifetime ledger, kept as a test model.

    b is registered on a record's first scan; each invocation gives a record
    min(omega, remaining) join slots and then charges omega to every scanned
    real, whatever it joined. Every past batch is scanned again, since a
    record whose budget is spent joins nothing, so the model needs neither
    the retention window nor the age rule of `transform_step`.
    """

    def __init__(self, operator, omega, b):
        self.join = trans_truncate_smj if operator is OperatorKind.SMJ else trans_truncate_nlj
        self.omega, self.b = omega, b
        self.remaining = {}
        self.old = ([], [])
        self.seqs = itertools.count(10_000)
        self.rows = []

    def step(self, t, new1, new2):
        old1, old2 = self.old
        for tup in new1 + new2:
            self.remaining[tup.seq] = self.b
        scanned = [tup.seq for tup in new1 + new2 + old1 + old2]
        caps = {rid: min(self.omega, self.remaining[rid]) for rid in scanned}
        for left, right in ((new1, old2 + new2), (old1, new2)):
            self.rows += self.join(left, len(left), right, len(right), self.omega, caps,
                                   self.seqs, t, [0])[0]
        for rid in scanned:
            self.remaining[rid] = max(0, self.remaining[rid] - self.omega)
        old1 += new1
        old2 += new2


@pytest.mark.parametrize("operator", [OperatorKind.SMJ, OperatorKind.NLJ])
@pytest.mark.parametrize("omega", [1, 2, 3])
def test_transform_step_matches_ledger_model(operator, omega):
    # Hot keys make records outlive their slots; b runs from omega to
    # 3 omega + 1, so omega does not always divide b.
    rng = np.random.default_rng(80 + omega)
    for b in range(omega, 3 * omega + 2):
        for trial in range(4):
            rand = ServerRandomness(trial)
            state = make_state(operator, 3, omega=omega, b=b)
            model = LedgerModel(operator, omega, b)
            counter, cache = transform_init(rand), SecureCache()
            seq = iter(range(10_000))
            for t in range(1, 13):
                ba, bb = ([rec(next(seq), key=int(rng.integers(1, 4)))
                           for _ in range(int(rng.integers(0, 4)))] for _ in range(2))
                cache, counter = step(t, [ba, bb], cache, counter, state, rand)
                model.step(t, ba, bb)
            assert [(r.seq, r.sources, r.timestamp) for r in state.produced_rows] == \
                [(r.seq, r.sources, r.timestamp) for r in model.rows]
            assert next(state.seqs) == next(model.seqs)


def test_output_sizes_match_public_formula():
    # transform_step counts its slots from the c_r-slot uploads and the
    # retained batches; expected_output_size is the audit's own formula.
    for op in OperatorKind:
        rand = ServerRandomness(7)
        state = make_state(op, 3, omega=2, b=4)
        counter = transform_init(rand)
        cache = SecureCache()
        rng = np.random.default_rng(9)
        prev_len = 0
        for t in range(1, 6):
            ba = [rec(1000 * t + i, key=int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(0, 3)))]
            bb = [rec(2000 * t + i, key=int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(0, 3)))]
            cache, counter = step(t, [ba, bb], cache, counter, state, rand)
            delta_len = len(cache) - prev_len
            prev_len = len(cache)
            assert delta_len == expected_output_size(state.config, t)


def test_lifetime_budget_never_exceeded_small_run():
    rand = ServerRandomness(8)
    state = make_state(OperatorKind.SMJ, 2, omega=2, b=4)
    counter = transform_init(rand)
    cache = SecureCache()
    rng = np.random.default_rng(21)
    seq = 0
    for t in range(1, 30):
        ba, bb = [], []
        for _ in range(2):
            ba.append(rec(seq, key=int(rng.integers(1, 3)))); seq += 1
            bb.append(rec(seq, key=int(rng.integers(1, 3)))); seq += 1
        cache, counter = step(t, [ba, bb], cache, counter, state, rand)
    contributions: dict[int, int] = {}
    for row in state.produced_rows:
        for rid in row.sources:
            contributions[rid] = contributions.get(rid, 0) + 1
    assert contributions, "run produced no joins"
    assert max(contributions.values()) <= 4


def test_step_records_sizes_shares_and_compares():
    # Both servers see each step's padded output size and a fresh counter
    # share; the compare count is that of the two merge networks per step.
    rand = ServerRandomness(9)
    state = make_state(OperatorKind.SMJ, 2, omega=1, b=2)
    counter = transform_init(rand)
    cache = SecureCache()
    transcript, compares = Transcript(), [0]
    ba = [rec(0, key=4)]  # each of 2 slots
    bb = [rec(2, key=4)]
    cache, counter = transform_step(1, [ba, bb], cache, counter, state, rand,
                                    transcript, compares)
    assert len(cache) == expected_output_size(state.config, 1)
    for server in (0, 1):
        [out] = transcript.by_kind(TranscriptKind.TRANSFORM_OUTPUT, server)
        assert (out.time, out.size) == (1, len(cache))
        [share] = transcript.by_kind(TranscriptKind.SHARE_RECEIVED, server)
        assert share.share_value == counter[server]
    assert recover(counter) == 1
    # new1 against old2 + new2 (2 + 2 records), then old1 against new2 (0 + 2).
    assert compares[0] == 6 + 1
