"""Half (b) of the DP argument, checked on real runs.

DPTimer and DPANT calibrate their noise to b: one logical update may move
the produced-row stream by at most b rows over the whole run. Each case runs
EP (the transformation does not depend on the sync protocol) on random
hot-key streams, deletes every record in turn, and bounds the L1 change of
the per-step produced-row counts. A failure is a privacy finding: the
assertion names the seed, the stream and the deleted record.
"""

import random
from collections import Counter

import pytest

from dpviewsim.harness import ExperimentConfig, Protocol, run_experiment
from dpviewsim.transform import OperatorKind

HORIZON = 14
C_R = 3  # 0-3 arrivals per owner and step
SEEDS = (0, 1)


def hot_stream(rng: random.Random) -> list[tuple[int, int, int]]:
    """(t, key, flag) records, keys from {1, 2, 3} so that caps bind."""
    return [(t, rng.randint(1, 3), rng.randint(0, 1))
            for t in range(1, HORIZON + 1) for _ in range(rng.randint(0, C_R))]


def write(path, records) -> str:
    path.write_text("t,key,flag\n" + "".join(f"{t},{k},{f}\n" for t, k, f in records))
    return str(path)


def produced_per_step(path_a: str, path_b: str | None, operator: OperatorKind,
                      omega: int, b: int) -> Counter:
    result = run_experiment(ExperimentConfig(
        protocol=Protocol.EP, operator=operator, omega=omega, b=b, c_r=C_R,
        horizon=HORIZON, stream_a=path_a, stream_b=path_b))
    return Counter(row.timestamp for row in result.produced_rows)


def l1(a: Counter, b: Counter) -> int:
    return sum(abs(a[t] - b[t]) for t in a.keys() | b.keys())


def worst_neighbour(tmp_path, seed, operator, omega, b) -> int:
    rng = random.Random(seed)
    streams = [hot_stream(rng), hot_stream(rng)]
    joins = operator is not OperatorKind.FILTER
    paths = [write(tmp_path / f"a{seed}.csv", streams[0]),
             write(tmp_path / f"b{seed}.csv", streams[1]) if joins else None]
    base = produced_per_step(*paths, operator, omega, b)
    worst = 0
    for side in (0, 1) if joins else (0,):
        for i in range(len(streams[side])):
            nb = list(paths)
            nb[side] = write(tmp_path / "neighbour.csv",
                             streams[side][:i] + streams[side][i + 1:])
            moved = l1(base, produced_per_step(*nb, operator, omega, b))
            assert moved <= b, (f"seed {seed}: deleting record {i} "
                                f"{streams[side][i]} of stream {'ab'[side]} moved "
                                f"{moved} > b = {b} produced rows")
            worst = max(worst, moved)
    return worst


@pytest.mark.parametrize("omega,b", [(1, 3), (2, 3), (3, 3), (2, 6)])
@pytest.mark.parametrize("operator", [OperatorKind.SMJ, OperatorKind.NLJ])
def test_one_record_moves_the_produced_rows_by_at_most_b(tmp_path, operator, omega, b):
    worst = max(worst_neighbour(tmp_path, seed, operator, omega, b) for seed in SEEDS)
    assert worst > 0  # the streams do join


def test_filter_moves_the_produced_rows_by_at_most_one(tmp_path):
    # A Filter record yields at most one row, so b = 1 bounds it.
    assert max(worst_neighbour(tmp_path, seed, OperatorKind.FILTER, 1, 1)
               for seed in SEEDS) == 1
