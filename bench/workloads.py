"""The benchmark's workloads, as the key=value overrides the CLI would take.

Every field the simulation depends on is spelled out, so a later change to
the defaults of `ExperimentConfig` cannot silently change a workload. The
workload seed is added at run time. Why each workload exists is in README.md.
"""

from __future__ import annotations

_DEFAULTS = {"epsilon": "1.5", "b": "10", "omega": "1", "T": "10",
             "theta": "30", "s": "15", "query_interval": "1"}

WORKLOADS: dict[str, dict[str, str]] = {
    # Cache-sort hot path: ~25k mostly-dummy entries sorted on every sync.
    # Horizon = two flush cycles of f = 250.
    "timer-smj": {**_DEFAULTS, "protocol": "DPTimer", "operator": "SMJ",
                  "profile": "Standard", "c_r": "5", "f": "250",
                  "horizon": "500", "trials": "1"},
    # Bypasses the cache and sync: EP never sorts the cache, draws no noise
    # and never flushes. Stresses many tiny row sorts and the growing view.
    "ep-nlj": {**_DEFAULTS, "protocol": "EP", "operator": "NLJ",
               "profile": "Standard", "c_r": "5", "horizon": "500",
               "trials": "1"},
    # Data-dependent syncs of a medium cache under on/off bursts; two trials
    # through run_trials' thread pool. Horizon = two flush cycles of f = 500.
    "ant-filter-sweep": {**_DEFAULTS, "protocol": "DPANT", "operator": "Filter",
                         "profile": "Burst", "c_r": "12", "f": "500",
                         "horizon": "1000", "trials": "2"},
}


def config_values(workload: str, seed: int) -> dict[str, str]:
    """The override dict handed to `coerce_config` for one workload run."""
    return {**WORKLOADS[workload], "seed": str(seed)}
