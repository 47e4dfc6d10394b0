"""Benchmark command for dpviewsim.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) again and again for about
S seconds, each repetition in a fresh interpreter (worker.py) that imports
the package from ./src. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics. It prints a table of every metric by name and unit, the
sha256 of the run's metrics JSONL, and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.

Exits 2 without a result when ./src/dpviewsim is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Simulation outputs: exact for a seed, so they are guarded by the sha256.
FIDELITY = (("mean_l1_error", "rows"), ("mean_cost_proxy", "cost"))

# Times are reported at a reference host speed: measured time x reference /
# calibration time in the same process. Run times use worker.calibrate()
# (reference 0.3 s), set-up times worker.calibrate_imports() (0.05 s). On a
# shared host each process runs at its own speed, which varies by tens of
# percent.
SCALING = {"run_s": ("calib_s", 0.3), "setup_s": ("import_calib_s", 0.05)}
HEAP_PAD_STEP = 40_961  # bytes
HEAP_PAD_RANGE = 1 << 18
MIN_REPS = 3  # per mode; medians need at least three
REP_TIMEOUT_S = 150


def spawn(workload: str, seed: int, mode: str, out_dir: Path, pad: int = 0) -> dict:
    """Run worker.py once in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", str(out_dir),
           "--heap-pad", str(pad)]
    cmd += ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "problems": [f"worker timed out after {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError
        return json.loads(lines[-1])
    except ValueError:
        return {"mode": mode, "problems": [
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """(set-up-only reports, experiment reports) of one benchmark run."""
    out_dir = ROOT / ".bench_out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    spawn(workload, seed, "setup", out_dir)  # writes bytecode caches; not counted
    start = time.perf_counter()
    modes = ("plain", "traced") if trace else ("plain",)
    setups: list[dict] = []
    reps: list[dict] = []
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        enough = all(sum(r["mode"] == m for r in reps) >= MIN_REPS for m in modes)
        if enough and elapsed + last > seconds:
            break
        t0 = time.perf_counter()
        # Each repetition gets its own heap pad: peak RSS and speed depend on
        # the allocator's layout, so the repetitions sample several layouts.
        pad = len(reps) * HEAP_PAD_STEP % HEAP_PAD_RANGE
        setups.append(spawn(workload, seed, "setup", out_dir))
        reps.append(spawn(workload, seed, modes[len(reps) % len(modes)], out_dir, pad))
        last = time.perf_counter() - t0
    return setups, reps


def count_failures(reps: list[dict]) -> int:
    """Repetitions that raised, failed a check, or whose metrics JSONL is not
    byte-identical to the first untraced repetition's."""
    reference = next((r["sha256"] for r in reps
                      if r["mode"] == "plain" and "sha256" in r), None)
    return sum(1 for r in reps if r["problems"] or r.get("sha256") != reference)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def at_reference_speed(reports: list[dict], key: str) -> list[float]:
    """Each report's time `key` scaled by reference / its own calibration."""
    calib, reference = SCALING[key]
    return [r[key] * reference / r[calib] for r in reports if key in r and r.get(calib)]


def median_of(reports: list[dict], key: str) -> float:
    values = [r[key] for r in reports if key in r]
    return statistics.median(values) if values else 0.0


def recorded_sha(workload: str, seed: int) -> str | None:
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    hashes = json.loads(path.read_text()).get("metrics_sha256", {})
    return hashes.get(workload, {}).get(str(seed))


def report_fidelity(workload: str, seed: int, reps: list[dict]) -> None:
    first = next((r for r in reps if "sha256" in r), None)
    if first is None:
        return
    for name, unit in FIDELITY:
        print(f"  {name:<40} {first[name]:>14.6f} {unit}")
    sha = first["sha256"]
    print(f"  metrics_sha256 {sha}")
    want = recorded_sha(workload, seed)
    if want is None:
        print(f"  (no recorded sha256 for {workload} at seed {seed})")
    elif want != sha:
        warning = (f"!!! METRICS DRIFT: {workload} seed {seed} metrics JSONL sha256 "
                   f"{sha} != recorded {want}. The simulation's output changed. !!!")
        print(warning)
        print(warning, file=sys.stderr)
    else:
        print("  metrics_sha256 matches the recorded baseline")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpviewsim" / "__init__.py").is_file():
        print(f"error: no dpviewsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups, reps = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    failed = count_failures(reps)
    correct = failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up only")
    for r in reps + setups:
        for problem in r["problems"]:
            print(f"  FAILED ({r['mode']}): {problem}")

    metrics = {}
    if args.trace:
        for name, unit, _ in LAYER_METRICS:
            layers = [r["layers"] for r in traced if "layers" in r]
            metrics[name] = {"value": median_of(layers, name), "unit": unit}
        untraced_s = statistics.median(at_reference_speed(plain, "run_s") or [0.0])
        traced_s = statistics.median(at_reference_speed(traced, "run_s") or [0.0])
        overhead = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        metrics["trace.overhead_frac"]["value"] = overhead
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6f} {m['unit']}")
    else:
        for name, reports in (("run_s", plain), ("setup_s", setups)):
            wall = [r[name] for r in reports if name in r]
            scaled = at_reference_speed(reports, name)
            q1, med, q3 = quartiles(scaled) if scaled else (0.0, 0.0, 0.0)
            metrics[name] = {"value": med, "unit": "s"}
            print(f"  {name:<40} {med:>14.6f} s        median of {len(scaled)} at "
                  f"reference speed, quartiles {q1:.6f} .. {q3:.6f}; "
                  f"wall median {statistics.median(wall) if wall else 0.0:.6f}")
        rss = [r["peak_rss_mb"] for r in plain if "peak_rss_mb" in r]
        metrics["peak_rss_mb"] = {"value": max(rss, default=0.0), "unit": "MiB"}
        print(f"  {'peak_rss_mb':<40} {max(rss, default=0.0):>14.6f} MiB      "
              f"largest of {len(rss)}, smallest {min(rss, default=0.0):.6f}")
        for name, (calib, reference) in SCALING.items():
            reports = setups if name == "setup_s" else plain
            print(f"  {calib:<40} {median_of(reports, calib):>14.6f} s        "
                  f"median; {name} is scaled to the reference {reference} s")
    report_fidelity(args.workload, args.seed, reps)
    print(f"  {'error_rate':<40} {failed / len(reps):>14.6f} fraction "
          f"({failed} of {len(reps)} repetitions failed)")
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
