"""Every target the benchmark's tracer requires fires on its workload.

`bench/tracing.py` wraps package functions by name and fails a traced
benchmark run when a target it requires on a workload records no span. Which
targets fire can depend on the data: a join sorts its rows only when a real
can join. So each workload's config is run here, traced, at a shortened
horizon with its flush interval f dividing the horizon, so that syncs and
flushes both happen. The bench modules are imported as they are, and every
attribute the tracer replaces is restored afterwards.
"""

import dataclasses
import functools
import sys
from pathlib import Path

import pytest

from dpviewsim import harness, leakage, obliv, randomness, shrink, transform

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
from workloads import WORKLOADS, config_values  # noqa: E402

MODULES = {"harness": harness, "transform": transform, "obliv": obliv, "shrink": shrink,
           "randomness": randomness, "leakage": leakage}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_required_trace_target_fires(workload, monkeypatch, tmp_path):
    config = harness.coerce_config(config_values(workload, 1))
    config = dataclasses.replace(config, horizon=config.horizon // 10,
                                 f=config.horizon // 20)
    for target in tracing.TARGETS:
        head, *rest = target.owner.split(".")
        owner = functools.reduce(getattr, rest, MODULES[head])
        monkeypatch.setattr(owner, target.attr, getattr(owner, target.attr))  # restored after
    tracer = tracing.Tracer()
    tracing.install(tracer, MODULES)
    # The calls the benchmark's worker makes for a config.
    if config.trials > 1:
        results = harness.run_trials(config, config.trials)
    else:
        results = [harness.run_experiment(config)]
    harness.emit_metrics([rec for res in results for rec in res.metrics],
                         str(tmp_path / "metrics.jsonl"))
    assert any(res.sync_reports for res in results) == (config.protocol is not harness.Protocol.EP)
    assert tracing.unfired(tracer.spans, workload) == []
