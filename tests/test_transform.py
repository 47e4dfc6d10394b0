import itertools
from collections import Counter, defaultdict

import numpy as np
import pytest

from dpviewsim import harness, obliv, transform
from dpviewsim.harness import ExperimentConfig, Protocol, RunState, run_experiment
from dpviewsim.obliv import (SecureTuple, network_comparison_count, network_sort,
                             network_sort_keys)
from dpviewsim.randomness import ServerRandomness
from dpviewsim.sharing import recover
from dpviewsim.shrink import zero_counter
from dpviewsim.transcript import Transcript, TranscriptKind
from dpviewsim.transform import (OperatorKind, retention_steps, step_sizes,
                                 trans_truncate_filter, trans_truncate_nlj,
                                 trans_truncate_smj, transform_step)
from test_golden import hot_key_config


def rec(seq, key, flag=1):
    return SecureTuple(key=key, attrs=(flag,), seq=seq)


def padded(rng, n, make):
    """The reals of an n-slot padded input: make(i) for each slot i that is
    not padding, which a slot is with probability 1/4."""
    return [make(i) for i in range(n) if rng.random() >= 0.25]


# Seq stamps minted by the transforms start past every input seq.
FRESH = 1 << 20


JOIN_NETWORKS = ((trans_truncate_smj, lambda n1, n2: network_comparison_count(n1 + n2)),
                 (trans_truncate_nlj, lambda n1, n2: n1 * network_comparison_count(n2)))


def charge_joins(mp, charge, sorted_outside):
    """Pass `charge` the compare count of each join call's networks, from the
    padded (n1, n2) it was called with: the SMJ's one (n1 + n2)-slot network,
    the NLJ's n1 n2-slot ones. A join sorts only when a real can join, so
    whether it sorts depends on the data; a sort it does run must be the
    networks it is charged for. Sorts outside a join pass their count, as
    `network_sort_keys` returns it, to `sorted_outside`. The joins are
    wrapped where `transform_step` resolves them."""
    in_join = []  # the open join call's count, then the counts of its sorts

    def counting(keys, n, networks):
        perm, count = network_sort_keys(keys, n, networks)
        (in_join.append if in_join else sorted_outside)(count)
        return perm, count

    def charging(join, networks_of):
        def charged(t1, n1, t2, n2, *rest):
            in_join[:] = [networks_of(n1, n2)]
            rows = join(t1, n1, t2, n2, *rest)
            count, *ran = in_join
            in_join.clear()
            assert ran in ([], [count])
            charge(count)
            return rows
        return charged

    mp.setattr(obliv, "network_sort_keys", counting)
    for join, networks_of in JOIN_NETWORKS:
        mp.setattr(transform, join.__name__, charging(join, networks_of))


@pytest.fixture
def compares(monkeypatch):
    """The compare count of every join call's networks and of every other
    sort, in order (see `charge_joins`); the `smj` and `nlj` helpers call
    the joins where it wraps them."""
    counts = []
    charge_joins(monkeypatch, counts.append, counts.append)
    return counts


def budgets(tables, omega):
    """Join slots of omega for every real record, as a new record holds."""
    return {tup.seq: omega for table in tables for tup in table}


def filt(batch):
    return trans_truncate_filter(batch, itertools.count(FRESH), 0)


def nlj(t1, t2, b, n1=None, n2=None):
    """The NLJ of reals t1 and t2, padded to n1 and n2 slots (default: none),
    called where the `compares` fixture wraps it."""
    return transform.trans_truncate_nlj(t1, len(t1) if n1 is None else n1,
                                        t2, len(t2) if n2 is None else n2,
                                        budgets((t1, t2), b), itertools.count(FRESH), 0)


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


def real_pairs(rows):
    """Source pairs of a join's rows; every row is real."""
    return [row.sources for row in rows]


# ---------------------------------------------------------------------------
# Filter.

def test_filter_all_true():
    batch = [rec(i, key=i) for i in range(5)]  # flag 1: every record is selected
    rows = filt(batch)
    assert len(rows) == 5
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
    assert len(rows) == expected
    # kept rows stay in input order
    assert [r.sources for r in rows] == [(t.seq,) for t in batch if pred(t)]


def test_filter_keeps_payload():
    batch = [rec(3, key=9, flag=7)]
    [row] = filt(batch)
    assert row.key == 9 and row.attrs == (7,)
    assert row.sources == (3,)


def test_selected_keeps_a_batch_s_flagged_reals_in_order():
    batch = [rec(0, 1), rec(1, 2, flag=0), SecureTuple(3, (), 2), rec(3, 4, flag=-2)]
    assert transform.selected(batch) == [batch[0], batch[3]]
    assert transform.selected([]) == []


@pytest.mark.parametrize("protocol", [Protocol.DP_ANT, Protocol.NM])
def test_the_filter_predicate_runs_once_per_step(protocol, monkeypatch):
    # The Filter's transform and NM's truth count each call `selected` once
    # per step on the step's batch, never once per real.
    batches = []
    real = transform.selected
    spy = lambda batch: batches.append(len(batch)) or real(batch)
    monkeypatch.setattr(transform, "selected", spy)
    monkeypatch.setattr(harness, "selected", spy)
    run_experiment(ExperimentConfig(protocol=protocol, operator=OperatorKind.FILTER,
                                    horizon=50, seed=1))
    assert len(batches) == 50 and sum(batches) > 50


# ---------------------------------------------------------------------------
# Sort-merge join.

def smj(t1, t2, omega, n1=None, n2=None):
    """The SMJ of reals t1 and t2, padded to n1 and n2 slots (default: none),
    called where the `compares` fixture wraps it."""
    return transform.trans_truncate_smj(t1, len(t1) if n1 is None else n1,
                                        t2, len(t2) if n2 is None else n2,
                                        budgets((t1, t2), omega), itertools.count(FRESH), 0)


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


def test_smj_disjoint_keys_all_dummy():
    t1 = [rec(0, key=1), rec(1, key=2)]
    t2 = [rec(2, key=3), rec(3, key=4)]
    out = smj(t1, t2, omega=2)
    assert real_pairs(out) == []


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


def test_smj_respects_a_record_s_slots():
    # A record holding one slot joins at most once even when omega allows
    # more, and the join takes that slot.
    t1 = [rec(0, key=1)]
    t2 = [rec(1, key=1), rec(2, key=1)]
    caps = {0: 1, 1: 2, 2: 2}
    out = trans_truncate_smj(t1, 1, t2, 2, caps, itertools.count(FRESH), 0)
    assert real_pairs(out) == [(0, 1)]
    assert caps == {0: 0, 1: 1, 2: 2}


def test_smj_output_size_data_independent(compares):
    t1a = [rec(i, key=1) for i in range(4)]
    t2a = [rec(10 + i, key=1) for i in range(4)]
    t1b = [rec(i, key=i) for i in range(4)]
    t2b = [rec(10 + i, key=50 + i) for i in range(4)]
    assert len(smj(t1a, t2a, 2)) == 8 and smj(t1b, t2b, 2) == []
    assert compares == [24, 24]  # one network over the 8 merged records each


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
        rows = trans_truncate_smj(t1, n1, t2, n2, caps, itertools.count(FRESH), 0)
        big_rows = trans_truncate_smj(
            [shifted(t) for t in t1], n1, [shifted(t) for t in t2], n2, big_caps,
            itertools.count(FRESH + shift), 0)
        assert big_rows == [shifted(r) for r in rows]
        assert big_caps == {s + shift: c for s, c in caps.items()}
        joined += len(rows)
    assert joined


def test_smj_counts_omega_slots_per_input_slot(compares):
    # Input padding joins nothing, and the sort runs the network of all four
    # input slots.
    out = smj([rec(0, key=1)], [rec(1, key=1)], omega=2, n1=2, n2=2)
    assert real_pairs(out) == [(0, 1)]
    assert compares == [network_comparison_count(4)]


def smj_oracle(t1, n1, t2, n2, caps, seqs, timestamp):
    """The full merge: every real of both inputs is sorted and scanned."""
    tagged = [(0, t) for t in t1] + [(1, t) for t in t2]
    merged = network_sort(tagged, lambda it: (it[1].key, it[0], it[1].seq), n1 + n2,
                          networks=1)
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
    return out


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
        for inputs in ((new1, m1, old2 + new2, k2 + m2), (old1, k1, new2, m2)):
            rows = trans_truncate_smj(*inputs, caps, seqs, 7)
            want_rows = smj_oracle(*inputs, want_caps, want_seqs, 7)
            assert [r.sources for r in rows] == [r.sources for r in want_rows]
            assert rows == want_rows  # same seqs, payloads and timestamps
        assert caps == want_caps
        assert next(seqs) == next(want_seqs)


@pytest.mark.parametrize("more_reals", ["t1", "t2", "neither"])
def test_smj_keys_either_input_as_the_full_merge_does(more_reals):
    # The SMJ keys the input with fewer reals (t1 on a tie) and scans the
    # other once, so each case keys a different side. Each input is two seq
    # runs, the later one first, as old2 + new2 is in a step; keys 2 and 3
    # are held by several records on both sides, key 1 by t1 alone and key 4
    # by t2 alone.
    reals, seed = {"t1": ((9, 5), 81), "t2": ((5, 9), 82), "neither": ((7, 7), 83)}[more_reals]
    rng = np.random.default_rng(seed)
    joined = hot = 0
    for _ in range(200):
        seq = iter(range(10_000))

        def table(k, lo):
            early, late = ([rec(next(seq), key=int(rng.integers(lo, lo + 3)),
                                flag=int(rng.integers(9))) for _ in range(m)]
                           for m in (k // 2, k - k // 2))
            return late + early

        t1, t2 = table(reals[0], 1), table(reals[1], 2)
        n1, n2 = (len(t) + int(rng.integers(0, 3)) for t in (t1, t2))
        b = int(rng.integers(2, 7))
        spent = {t.seq: int(rng.integers(0, b + 1)) for t in t1 + t2}
        caps, want_caps = (spent_caps((t1, t2), b, spent, 2) for _ in range(2))
        seqs, want_seqs = itertools.count(FRESH), itertools.count(FRESH)
        rows = trans_truncate_smj(t1, n1, t2, n2, caps, seqs, 7)
        assert rows == smj_oracle(t1, n1, t2, n2, want_caps, want_seqs, 7)
        assert caps == want_caps
        assert next(seqs) == next(want_seqs)
        joined += len(rows)
        held = [Counter(t.key for t in side) for side in (t1, t2)]
        hot += any(held[0][k] > 1 and held[1][k] > 1 for k in (2, 3))
    assert joined and hot > 100, (joined, hot)


def test_smj_with_no_shared_key_sorts_and_spends_nothing(monkeypatch):
    # Reals on both sides, but no key on both: no rows, no sort, no cap read
    # or spent and no seq drawn, whichever side has more reals.
    sorts = []

    def recording(keys, n, networks):
        sorts.append((keys, n, networks))
        return network_sort_keys(keys, n, networks)

    monkeypatch.setattr(obliv, "network_sort_keys", recording)
    ones = [rec(3, key=1), rec(0, key=2), rec(1, key=2)]
    twos = [rec(7, key=3), rec(5, key=4)]
    for t1, t2 in ((ones, twos), (twos, ones), (ones, []), ([], twos), ([], [])):
        caps = defaultdict(lambda: 2)  # as transform_step builds them
        seqs = itertools.count(FRESH)
        assert trans_truncate_smj(t1, len(t1) + 2, t2, len(t2) + 1, caps, seqs, 0) == []
        assert caps == {} and next(seqs) == FRESH
    assert sorts == []


def test_smj_sorts_once_per_invocation(monkeypatch, compares):
    calls = []

    def recording_sort(reals, key_of, n, networks):
        calls.append(([t.seq for t in reals], n, networks))
        return network_sort(reals, key_of, n, networks)

    monkeypatch.setattr(transform, "network_sort", recording_sort)
    t2 = [rec(10, key=1), rec(11, key=3), rec(12, key=1), rec(13, key=4)]  # of 5 slots
    cases = (([], 0, [], 0, []),
             ([], 0, t2, 5, []),
             ([rec(0, key=2)], 2, t2, 5, []),
             ([rec(0, key=1), rec(1, key=2), rec(2, key=4)], 4, t2, 5, [10, 12, 13]))
    for t1, n1, right, n2, joinable in cases:
        calls.clear()
        compares.clear()
        smj(t1, right, omega=2, n1=n1, n2=n2)
        # Only the accessing t2 reals go to the sort, one network of the whole
        # padded input's n1 + n2 slots; no shared key, no sort.
        assert calls == ([(joinable, n1 + n2, 1)] if joinable else [])
        assert compares == [network_comparison_count(n1 + n2)]


# ---------------------------------------------------------------------------
# Nested-loop join.

def test_nlj_hand_trace(compares):
    # One outer row, four matching inner rows, bound 2: the inner scan joins
    # until the outer's 2 slots are spent, so its caps alone keep 2 rows.
    t1 = [rec(0, key=7)]
    t2 = [rec(i + 1, key=7) for i in range(4)]
    out = nlj(t1, t2, b=2)
    assert real_pairs(out) == [(0, 1), (0, 2)]
    assert compares == [6]  # one network over the outer's 4 probes


def test_nlj_large_bound_equals_brute_force():
    rng = np.random.default_rng(19)
    t1 = [rec(i, key=int(rng.integers(1, 4))) for i in range(6)]
    t2 = [rec(100 + i, key=int(rng.integers(1, 4))) for i in range(6)]
    out = nlj(t1, t2, b=50)
    assert sorted(real_pairs(out)) == sorted(brute_force_pairs(t1, t2))


def test_nlj_empty_inner_all_dummy(compares):
    t1 = [rec(i, key=1) for i in range(3)]
    assert nlj(t1, [], b=2) == []
    assert compares == [0]  # a 0-slot network has no compare-exchanges


def test_nlj_dummy_outer_pads_and_still_sorts_its_row(compares):
    t2 = [rec(1, key=1), rec(2, key=1)]  # of 3 slots
    out = nlj([rec(0, key=1)], t2, b=2, n1=2, n2=3)
    assert real_pairs(out) == [(0, 1), (0, 2)]
    assert compares == [2 * network_comparison_count(3)]  # the padding outer's too


def test_nlj_consumes_both_sides():
    # Two outers sharing one inner with bound 1: the inner's budget is spent
    # by the first outer.
    t1 = [rec(0, key=1), rec(1, key=1)]
    t2 = [rec(2, key=1)]
    out = nlj(t1, t2, b=1)
    assert real_pairs(out) == [(0, 2)]


def nlj_oracle(t1, n1, t2, n2, omega, caps, seqs, timestamp):
    """The paper's per-outer nested loop: (rows, compares).

    Every real outer scans all of t2 in order; its row is sorted by seq on its
    own and cut to omega, and each of the n1 outer slots' n2-slot networks is
    charged. The join has no cut of its own: its caps, at most omega, are it.
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
    return out, n1 * network_comparison_count(n2)


@pytest.mark.parametrize("omega", [1, 2, 3])
def test_nlj_matches_per_outer_loop_oracle(omega, compares):
    # Repeated keys, dummies on both sides, outers whose key no inner row
    # holds and partly spent budgets. Caps are at most omega, as a run builds
    # them, so the oracle's omega cut drops no row the caps let through.
    rng = np.random.default_rng(60 + omega)
    for trial in range(300):
        n1 = 0 if trial % 10 == 0 else int(rng.integers(0, 9))
        n2 = 0 if trial % 10 == 1 else int(rng.integers(0, 9))
        t1, t2 = (padded(rng, n, lambda i: rec(base + i, key=int(rng.integers(1, hi)),
                                                flag=int(rng.integers(9))))
                  for n, base, hi in ((n1, 0, 6), (n2, 100, 4)))
        b = int(rng.integers(omega, 3 * omega + 1))
        spent = {t.seq: int(rng.integers(0, b + 1)) for t in t1 + t2}
        caps, want_caps = (spent_caps((t1, t2), b, spent, omega) for _ in range(2))
        seqs, want_seqs = itertools.count(FRESH), itertools.count(FRESH)
        compares.clear()
        rows = transform.trans_truncate_nlj(t1, n1, t2, n2, caps, seqs, 7)
        want_rows, want_compares = nlj_oracle(t1, n1, t2, n2, omega, want_caps, want_seqs, 7)
        assert rows == want_rows
        assert compares == [want_compares]
        assert caps == want_caps
        assert next(seqs) == next(want_seqs)


def test_nlj_sorts_once_per_invocation(monkeypatch, compares):
    calls = []

    def recording_sort(reals, key_of, n, networks):
        calls.append((n, networks))
        return network_sort(reals, key_of, n, networks)

    monkeypatch.setattr(transform, "network_sort", recording_sort)
    t2 = [rec(10 + i, key=i % 2) for i in range(5)]  # of 6 slots
    for t1, n1 in (([], 0), ([rec(0, key=0)], 1),
                   ([rec(0, key=0), rec(1, key=1), rec(2, key=0)], 4)):
        calls.clear()
        compares.clear()
        rows = nlj(t1, t2, b=2, n1=n1, n2=6)
        assert calls == ([(6, n1)] if rows else [])  # no rows, no sort
        assert compares == [n1 * network_comparison_count(6)]  # 0 for no t1


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

def make_state(operator, c_r, rand, omega=1, b=2):
    config = ExperimentConfig(operator=operator, omega=omega, b=b, c_r=c_r)
    return RunState(config, itertools.count(10_000), rand, Transcript(), zero_counter(rand))


def step(t, batches, state):
    transform_step(t, batches, state)


def test_initial_counter_recovers_zero():
    rand = ServerRandomness(1)
    counter = zero_counter(rand)
    assert recover(counter) == 0


def test_counter_increases_by_real_count():
    rand = ServerRandomness(2)
    state = make_state(OperatorKind.FILTER, 5, rand)
    batch = [rec(0, 1, flag=1), rec(1, 2, flag=1), rec(2, 3, flag=1), rec(3, 4, flag=0)]
    step(1, [batch], state)
    assert recover(state.counter) == 3
    assert state.cache.real_count() == 3  # plaintext recount agrees
    assert len(state.cache) == 5  # the filter charges the c_r slots of the upload


def test_counter_fidelity_across_steps():
    rand = ServerRandomness(3)
    state = make_state(OperatorKind.FILTER, 5, rand)  # flag 1: every record is selected
    rng = np.random.default_rng(0)
    total = 0
    for t in range(1, 12):
        n_real = int(rng.integers(0, 4))
        batch = [rec(100 * t + i, key=i) for i in range(n_real)]
        step(t, [batch], state)
        total += n_real
        assert recover(state.counter) == total == state.cache.real_count()


def test_retirement_after_budget_exhaustion():
    # b=4, omega=2: a record is scanned in exactly two invocations.
    rand = ServerRandomness(4)
    state = make_state(OperatorKind.SMJ, 2, rand, omega=2, b=4)
    lead = rec(0, key=9)  # arrives in step 1 on side A
    batches = [
        ([lead], []),
        ([], [rec(12, key=9)]),   # 2 of 2 slots left
        ([], [rec(22, key=9)]),   # lead evicted
    ]
    for t, (ba, bb) in enumerate(batches, start=1):
        step(t, [ba, bb], state)
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
        state = make_state(operator, 3, rand, omega=3, b=10)
        for t in range(1, 7):
            ba = [target] if t == 1 else []
            bb = [rec(100 * t + 3 + i, key=1) for i in range(3)]  # 3 new partners
            step(t, [ba, bb], state)
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
            self.rows += self.join(left, len(left), right, len(right), caps, self.seqs, t)
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
            state = make_state(operator, 3, rand, omega=omega, b=b)
            model = LedgerModel(operator, omega, b)
            seq = iter(range(10_000))
            for t in range(1, 13):
                ba, bb = ([rec(next(seq), key=int(rng.integers(1, 4)))
                           for _ in range(int(rng.integers(0, 4)))] for _ in range(2))
                step(t, [ba, bb], state)
                model.step(t, ba, bb)
            assert [(r.seq, r.sources, r.timestamp) for r in state.produced_rows] == \
                [(r.seq, r.sources, r.timestamp) for r in model.rows]
            assert next(state.seqs) == next(model.seqs)


def test_output_sizes_match_public_formula():
    # Each step's padded output, counted here from the c_r-slot uploads and
    # the batches retained before the step: omega slots per scanned record
    # for the SMJ, per outer record for the NLJ, c_r for the Filter.
    for op in OperatorKind:
        rand = ServerRandomness(7)
        state = make_state(op, 3, rand, omega=2, b=4)
        rng = np.random.default_rng(9)
        prev_len = 0
        for t in range(1, 6):
            ba = [rec(1000 * t + i, key=int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(0, 3)))]
            bb = [rec(2000 * t + i, key=int(rng.integers(1, 4)))
                  for i in range(int(rng.integers(0, 3)))]
            old = 3 * len(state.retained[0])  # both owners retain as many slots
            want = {OperatorKind.FILTER: 3, OperatorKind.SMJ: 2 * (3 + old + 3 + old + 3),
                    OperatorKind.NLJ: 2 * (3 + old)}[op]
            step(t, [ba, bb], state)
            delta_len = len(state.cache) - prev_len
            prev_len = len(state.cache)
            assert delta_len == step_sizes(state.config, t).slots == want


@pytest.mark.parametrize("operator", list(OperatorKind))
def test_step_sizes_depend_on_t_only_through_the_retained_depth(operator):
    # Retention 3 (b 5) and 5 (b 9) at omega 2: a step's sizes stop changing
    # once t reaches the retention.
    short, long = (ExperimentConfig(operator=operator, c_r=3, omega=2, b=b) for b in (5, 9))
    assert step_sizes(short, 3) == step_sizes(short, 9) == step_sizes(long, 3)
    assert step_sizes(long, 5) == step_sizes(long, 9)
    assert (step_sizes(long, 5) == step_sizes(long, 3)) == (operator is OperatorKind.FILTER)
    wider = ExperimentConfig(operator=operator, c_r=3, omega=3, b=9)  # retention 3 too
    assert ((step_sizes(wider, 3).slots == step_sizes(short, 3).slots)
            == (operator is OperatorKind.FILTER))


@pytest.mark.parametrize("config", [
    ExperimentConfig(operator=OperatorKind.NLJ, omega=2, b=9, horizon=40, f=20),  # retention 5
    ExperimentConfig(operator=OperatorKind.FILTER, b=10, horizon=6)])  # retention 10
def test_run_computes_step_sizes_once_per_retained_depth(config, monkeypatch):
    calls = []

    def counted(config, t):
        calls.append(t)
        return step_sizes(config, t)

    monkeypatch.setattr(transform, "step_sizes", counted)
    result = run_experiment(config)
    depths = min(config.horizon, retention_steps(config))
    assert calls == list(range(1, depths + 1))
    # The sizes kept after the last call are the ones each later step charges.
    assert [e.size for e in result.transcript.by_kind(TranscriptKind.TRANSFORM_OUTPUT, 0)] == \
        [step_sizes(config, t).slots for t in range(1, config.horizon + 1)]


def test_lifetime_budget_never_exceeded_small_run():
    rand = ServerRandomness(8)
    state = make_state(OperatorKind.SMJ, 2, rand, omega=2, b=4)
    rng = np.random.default_rng(21)
    seq = 0
    for t in range(1, 30):
        ba, bb = [], []
        for _ in range(2):
            ba.append(rec(seq, key=int(rng.integers(1, 3)))); seq += 1
            bb.append(rec(seq, key=int(rng.integers(1, 3)))); seq += 1
        step(t, [ba, bb], state)
    contributions: dict[int, int] = {}
    for row in state.produced_rows:
        for rid in row.sources:
            contributions[rid] = contributions.get(rid, 0) + 1
    assert contributions, "run produced no joins"
    assert max(contributions.values()) <= 4


@pytest.mark.parametrize("operator", [OperatorKind.SMJ, OperatorKind.NLJ])
@pytest.mark.parametrize("omega", [1, 2, 3])
def test_real_runs_bound_each_record_per_step_and_per_lifetime(operator, omega, tmp_path):
    # Both contribution bounds, on real runs over hot-key streams, where the
    # caps bind: an input record feeds at most omega rows of any one step and
    # at most b rows over the run. b = omega scans a record once, and
    # b = 2 omega + 1 three times, the last with one slot.
    for b in (omega, 2 * omega + 1):
        for seed in (12, 13):
            config = hot_key_config(ExperimentConfig(operator=operator, omega=omega, b=b,
                                                     horizon=40, f=20, s=5, seed=seed),
                                    tmp_path)
            rows = run_experiment(config).produced_rows
            per_step = Counter((row.timestamp, rid) for row in rows for rid in row.sources)
            lifetime = Counter(rid for row in rows for rid in row.sources)
            assert max(per_step.values()) == omega, (b, seed)  # reached, never passed
            assert max(lifetime.values()) <= b, (b, seed)


def test_step_records_sizes_shares_and_compares(compares):
    # Both servers see each step's padded output size and a fresh counter
    # share; the compare count is that of the two merge networks per step.
    rand = ServerRandomness(9)
    state = make_state(OperatorKind.SMJ, 2, rand, omega=1, b=2)
    ba = [rec(0, key=4)]  # each of 2 slots
    bb = [rec(2, key=4)]
    sizes = transform_step(1, [ba, bb], state)
    assert sizes == step_sizes(state.config, 1)
    assert len(state.cache) == sizes.slots
    for server in (0, 1):
        [out] = state.transcript.by_kind(TranscriptKind.TRANSFORM_OUTPUT, server)
        assert (out.time, out.size) == (1, len(state.cache))
        [share] = state.transcript.by_kind(TranscriptKind.SHARE_RECEIVED, server)
        assert share.share_value == state.counter[server]
    assert recover(state.counter) == 1
    # new1 against old2 + new2 (2 + 2 records), then old1 against new2 (0 + 2).
    assert compares == [6, 1]
    assert sizes.compares == 6 + 1 and sizes.joins == ((2, 2), (0, 2))
