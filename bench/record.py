"""Record the benchmark's baseline and check how steady it is.

    python3 bench/record.py [--seeds 1-10] [--workloads NAME ...] [--write]

Runs `run.py --trace 0` once per seed on each workload, then prints, for
every end-to-end metric, the median and quartiles of the per-run values and
their spread, (q3 - q1) / median, next to a third of the metric's bound in
BENCHMARK.json. With --write it also makes one traced run per workload at
the first seed and stores everything, with the sha256 of each run's metrics
JSONL, in bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import BENCH, ROOT

SHA = re.compile(r"^  metrics_sha256 ([0-9a-f]{64})$", re.M)
WALL = re.compile(r"^  run_s .* wall median ([0-9.]+)$", re.M)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """(result JSON, stdout) of one run.py invocation."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    baseline = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                "end_to_end": {}, "per_layer": {}, "metrics_sha256": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        values["run_wall_s"] = []
        hashes = baseline["metrics_sha256"][workload] = {}
        for seed in args.seeds:
            result, stdout = bench_run(workload, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT {result}")
                steady = False
            hashes[str(seed)] = SHA.search(stdout).group(1)
            for name in spec["end_to_end"]:
                values[name["name"]].append(result["metrics"][name["name"]]["value"])
            values["run_wall_s"].append(float(WALL.search(stdout).group(1)))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)
        q1, med, q3 = statistics.quantiles(values["run_wall_s"], n=4)
        print(f"  {workload:<17} run_wall_s   median {med:10.4f} s    unscaled spread "
              f"{(q3 - q1) / med:.4f}")
        rows = baseline["end_to_end"][workload] = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / med
            ok = spread <= m["bound"] / 3
            steady &= ok or m["name"] == "setup_s"
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"],
                               "spread": spread, "runs": len(values[m["name"]])}
            print(f"  {workload:<17} {m['name']:<12} median {med:10.4f} {m['unit']:<4} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}", flush=True)
        if args.write:
            traced, _ = bench_run(workload, args.seeds[0], spec["run_seconds"], 1)
            baseline["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()}

    if args.write:
        import numpy
        baseline["info"] = {"nproc": os.cpu_count(), "machine": platform.machine(),
                            "python": platform.python_version(),
                            "numpy": numpy.__version__, "src_lines": src_lines()}
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
