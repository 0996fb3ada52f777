"""Run the benchmark over seeds 1-10, twice, and record a BENCH_<label>.json.

    python3 bench/baseline.py --label seed --machine "shared 2-CPU VM"

For each workload of BENCHMARK.json it runs ``run.py --trace 0`` once per
seed, for ``run_seconds``, one run at a time; then it does the same again, so
the two sets of runs of the same code can be compared; then ``run.py --trace
1`` once with seed 1.  It records, per set, each end-to-end metric's values,
median, quartiles and quartile spread (the distance between the first and
third quartile over the median), and the second set's median over the
first's.  It also records the per-layer metrics, the workload properties, the
Python version, the CPU count and the given machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
SETS = 2


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    tagged = {}
    for line in lines:
        tag, sep, rest = line.partition(": ")
        if sep and tag in ("properties", "per_layer_printed_only"):
            tagged[tag] = json.loads(rest)
    return result, tagged


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--machine", default="", help="free-text description of the machine")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    out = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": args.machine,
        "load": "closed loop, one client process, one thread",
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        attempted = failed = 0
        for k in range(SETS):
            values: dict = {}
            for seed in SEEDS:
                result, tagged = _run(workload, seed, seconds, 0)
                if k == 0 and seed == SEEDS[0]:
                    timed_props = tagged["properties"]
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                print(workload, k + 1, seed, {n: round(v[-1], 4) for n, v in values.items()},
                      flush=True)
            sets.append({name: dict(unit=units[name], **_summary(v)) for name, v in values.items()})
        traced, tagged = _run(workload, SEEDS[0], seconds, 1)
        agreement = {name: sets[1][name]["median"] / sets[0][name]["median"] for name in sets[0]}
        out["workloads"][workload] = {
            "end_to_end": sets[0],
            "end_to_end_second_set": sets[1],
            "second_over_first_median": agreement,
            "failed_ratio": failed / attempted,
            "commands_attempted": attempted,
            "properties": {
                f"timed_run_seed_{SEEDS[0]}": timed_props,
                f"traced_rounds_seed_{SEEDS[0]}": tagged["properties"],
            },
            f"per_layer_seed_{SEEDS[0]}": {n: m["value"] for n, m in traced["metrics"].items()},
            f"per_layer_printed_only_seed_{SEEDS[0]}": tagged["per_layer_printed_only"],
        }
        for name in sets[0]:
            print(f"  {workload} {name}: medians {sets[0][name]['median']:.4f} "
                  f"{sets[1][name]['median']:.4f} (ratio {agreement[name]:.4f}), spreads "
                  f"{sets[0][name]['spread']:.4f} {sets[1][name]['spread']:.4f}", flush=True)
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
