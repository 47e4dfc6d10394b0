"""One benchmark repetition in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --mode plain|traced|setup \
        --spawn-ns NS --out DIR [--heap-pad BYTES]

`--spawn-ns` is CLOCK_MONOTONIC in ns just before the parent started this
process, so setup_s covers interpreter start, importing numpy and dpviewsim,
and `coerce_config`. Mode `setup` then times `calibrate_imports()` and
stops. Mode `plain` holds the heap pad, times `calibrate()`, makes the calls
`dpviewsim.cli.main` makes (`run_experiment` or `run_trials`, then
`emit_metrics`), times `calibrate()` again and checks the run. Mode `traced`
does the same under the layer trace. Prints one JSON object on stdout.
"""

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from dpviewsim import harness  # noqa: E402
from dpviewsim.leakage import (AuditExpectation, TranscriptKind,  # noqa: E402
                               transcript_audit)

from workloads import WORKLOADS, config_values  # noqa: E402


@dataclass(frozen=True, slots=True)
class _Item:
    key: int
    attrs: tuple
    real: bool
    seq: int


def calibrate() -> float:
    """Wall time of a fixed task that shares no code with dpviewsim: short-
    lived slotted objects and dict updates in the interpreter, then scatters
    on a numpy array the size of the largest cache sort. It keeps no memory.

    On a shared host each process runs at its own speed, which varies by tens
    of percent; run.py divides it out of run times with this figure, taken
    in the same process.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    total = 0
    for i in range(150_000):
        item = _Item(i & 1023, (i, i & 7), i % 20 == 0, i)
        if item.real:
            counts[item.key] = counts.get(item.key, 0) + 1
        total += item.attrs[1]
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 1 << 40, 1 << 15)
    perm = rng.permutation(1 << 15)
    for _ in range(600):
        buf[perm] = buf[::-1]
    return time.perf_counter() - t0


# Standard-library packages that neither numpy nor dpviewsim imports.
# Loading them is the same kind of work as set-up: finding, reading and
# executing bytecode and loading extension modules.
IMPORT_CALIBRATION = ("asyncio", "sqlite3", "email.mime.multipart",
                      "xml.etree.ElementTree", "http.client", "unittest",
                      "logging.handlers", "tarfile")


def calibrate_imports(names: tuple[str, ...] = IMPORT_CALIBRATION) -> float:
    """Wall time to import `names`, which must not be imported yet; run.py
    divides set-up times by it, as it divides run times by calibrate()."""
    loaded = [name for name in names if name in sys.modules]
    if loaded:
        raise RuntimeError(f"import calibration modules already imported: {loaded}")
    t0 = time.perf_counter()
    for name in names:
        importlib.import_module(name)
    return time.perf_counter() - t0


def audit_expectation(config: harness.ExperimentConfig) -> AuditExpectation:
    """Sizes fixed by the public config: owner uploads are c_r, transform
    outputs are padded, DP flushes move s rows every f steps, and EP syncs
    the whole padded transform output."""
    dp = config.protocol in (harness.Protocol.DP_TIMER, harness.Protocol.DP_ANT)
    return AuditExpectation(
        owner_batch=config.c_r,
        transform_size=harness.expected_transform_size(config),
        flush_interval=config.f if dp else None,
        flush_size=config.s if dp else None,
        sync_equals_transform=config.protocol is harness.Protocol.EP)


def check_results(results: list) -> list[str]:
    """Correctness gate for one run's ExperimentResults; [] when it passes."""
    problems = []
    for i, res in enumerate(results):
        cfg = res.config
        report = transcript_audit(res.transcript, audit_expectation(cfg))
        problems += [f"trial {i}: audit: {v}" for v in report.violations[:5]]
        if cfg.protocol in (harness.Protocol.DP_TIMER, harness.Protocol.DP_ANT):
            flushes = [e.time for e in res.transcript.by_kind(
                TranscriptKind.FLUSH_BATCH, server=0)]
            if flushes != list(range(cfg.f, cfg.horizon + 1, cfg.f)):
                problems.append(f"trial {i}: flushes at {flushes[:5]}, "
                                f"expected every {cfg.f} steps")
        want = cfg.horizon // cfg.query_interval
        if len(res.metrics) != want:
            problems.append(f"trial {i}: {len(res.metrics)} metrics records, expected {want}")
        bad = [r.time for r in res.metrics if r.view_rows_real > r.view_rows_total]
        if bad:
            problems.append(f"trial {i}: view_rows_real > view_rows_total at t={bad[0]}")
    return problems


def run_workload(config: harness.ExperimentConfig, metrics_path: Path) -> list:
    """The calls `dpviewsim.cli.main` makes for this config."""
    if config.trials > 1:
        results = harness.run_trials(config, config.trials)
    else:
        results = [harness.run_experiment(config)]
    harness.emit_metrics([rec for res in results for rec in res.metrics],
                         str(metrics_path))
    return results


def traced_modules() -> dict:
    from dpviewsim import leakage, obliv, randomness, shrink, transform
    return {"harness": harness, "transform": transform, "obliv": obliv,
            "shrink": shrink, "randomness": randomness, "leakage": leakage}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--heap-pad", type=int, default=0,
                        help="bytes to hold on the heap before the run")
    args = parser.parse_args(argv)

    config = harness.coerce_config(config_values(args.workload, args.seed))
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9
    out = {"mode": args.mode, "setup_s": setup_s, "problems": []}
    if args.mode == "setup":
        out["import_calib_s"] = calibrate_imports()
        print(json.dumps(out))
        return 0

    heap_pad = bytearray(args.heap_pad)  # noqa: F841  (held for the whole run)
    calib_before = calibrate()

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, traced_modules())
    metrics_path = args.out / f"metrics-{args.mode}.jsonl"
    try:
        with tracer.span("bench.run") if tracer else nullcontext():
            t0 = time.perf_counter_ns()
            results = run_workload(config, metrics_path)
            t1 = time.perf_counter_ns()
    except Exception:
        out["problems"].append("run raised:\n" + traceback.format_exc())
        print(json.dumps(out))
        return 0
    out["run_s"] = (t1 - t0) / 1e9
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["calib_s"] = (calib_before + calibrate()) / 2

    records = [rec for res in results for rec in res.metrics]
    out["sha256"] = hashlib.sha256(metrics_path.read_bytes()).hexdigest()
    out["mean_l1_error"] = statistics.fmean(r.l1_error for r in records)
    out["mean_cost_proxy"] = statistics.fmean(r.cost_proxy for r in records)
    a0 = time.perf_counter()
    out["problems"] += check_results(results)
    audit_s = time.perf_counter() - a0

    if tracer is not None:
        spans = tracer.spans
        out["problems"] += [f"trace target {site} did not fire"
                            for site in tracing.unfired(spans, args.workload)]
        out["problems"] += tracing.self_time_problems(
            spans, threading.get_ident(), t1 - t0)
        try:
            out["layers"] = tracing.layer_metrics(spans, results, audit_s)
        except ValueError as exc:
            out["problems"].append(f"layer metrics: {exc}")
        with open(args.out / "spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
