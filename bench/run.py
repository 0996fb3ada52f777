"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the engine is imported
from ``src/``, nothing is installed.  With ``--trace 0`` it measures the
end-to-end metrics: one client process running the workload as a closed loop
(one client, one thread) for ``--seconds``, and ``setup_s`` from fresh
interpreters run before and after it.  With ``--trace 1`` it alternates untraced and traced client
processes over the workload's first few rounds and reports the per-layer
metrics and the tracing overhead.  Every command's output is checked.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every command's output checked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from client import calibration_ns
from workloads import HIGH_DIM_POOL, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPANS_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 24

# rounds per pass of the traced run: enough for tensors to repeat across
# commands, few enough that an untraced and a traced pass fit in one run
TRACE_ROUNDS = {"scan-grid": 2, "high-dim": 3, "audit-tables": 2}

# what every CLI invocation pays before its command runs; the client does the
# same before its first command
SETUP_CODE = (
    "import astheno.cli as cli, astheno.fixtures as fx\n"
    "cli.build_parser()\n"
    "fx._raw(); fx._equations()\n"
    "for i in fx.table_ids(): fx.load_table(i)\n"
)

# calibration kernels run in a row before and after each set-up (about 0.1 s
# on the baseline machine): one 1 ms kernel is too short against a 0.2 s
# set-up
SETUP_KERNEL_CALLS = 100


def _env() -> dict:
    # color off keeps stdout byte-identical to the golden digests; a fixed
    # hash seed makes the traced counters repeat exactly
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), ASTHENO_COLOR="off",
                PYTHONHASHSEED="0")


def _interpreter_ns(code: str) -> int:
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter_ns() - start


def _kernel_ns() -> float:
    return sum(calibration_ns() for _ in range(SETUP_KERNEL_CALLS)) / SETUP_KERNEL_CALLS


def setup_probes(count: int) -> tuple:
    """Times of ``count`` fresh interpreters doing the CLI set-up, in
    reference seconds (see client.py) and in wall seconds."""
    ref, raw = [], []
    before = _kernel_ns()
    for _ in range(count):
        elapsed = _interpreter_ns(SETUP_CODE)
        after = _kernel_ns()
        raw.append(elapsed / 1e9)
        ref.append(elapsed / ((before + after) / 2) / 1e3)
        before = after
    return ref, raw


def client(workload: str, seed: int, *, seconds: float = 0.0, rounds=None,
           trace: bool = False, spans=None) -> dict:
    argv = [sys.executable, str(BENCH / "client.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True,
                          timeout=seconds + 150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark client exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list) -> tuple:
    """The highest nearest-rank percentile with at least ten samples beyond
    it: (value, percentile, samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    _interpreter_ns(SETUP_CODE)  # compiles bytecode; users run warm
    ref, raw = setup_probes(SETUP_PROBES // 2)
    res = client(workload, seed, seconds=seconds)
    # the other half after the client: a noisy phase of a shared machine
    # then shifts at most half of the probes, not their median
    more_ref, more_raw = setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
    setup, raw_setup = statistics.median(ref + more_ref), statistics.median(raw + more_raw)
    tail_ms, pct, n = tail(res["latency_ms"])
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(res["round_s"]), "s"),
        "cmd_ms_p50": (statistics.median(res["latency_ms"]), "ms"),
        "cmd_ms_tail": (tail_ms, "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    per_round = len(res["latency_ms"]) // res["rounds"]
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, half before and half "
                   f"after the client; wall {raw_setup:.4f} s",
        "wall_s": f"median of {res['rounds']} rounds of {per_round} commands; "
                  f"wall {statistics.median(res['raw_round_s']):.4f} s",
        "cmd_ms_p50": f"{n} samples; wall {statistics.median(res['raw_latency_ms']):.4f} ms",
        "cmd_ms_tail": f"p{pct:.1f}, {min(10, n)} of {n} samples beyond; "
                       f"wall {tail(res['raw_latency_ms'])[0]:.4f} ms",
        "peak_rss_mib": "client process high-water mark",
    }
    print("  times in reference units (wall time / calibration kernel time), wall time beside")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<13} {value:12.4f} {unit:<4} ({notes[name]})")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':<13} {ratio:12.4f} 1    "
          f"({res['failed']} of {res['attempted']} commands, each checked against its golden digest)")
    print("properties: " + json.dumps(res["properties"]))
    if workload == "high-dim" and res["properties"]["tensor_repeat_share_argv"]:
        print(f"  note: more than {HIGH_DIM_POOL} rounds ran, so the high-dim pools wrapped "
              "and tensors repeat; a cross-call cache would gain here")
    return metrics, [res]


def per_layer(workload: str, seed: int, seconds: float, wanted: dict) -> tuple:
    rounds = TRACE_ROUNDS[workload]
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(client(workload, seed, rounds=rounds))
        traced.append(client(workload, seed, rounds=rounds, trace=True, spans=spans))

    def wall(res):
        return sum(res["round_s"])

    first = traced[0]["per_layer"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    repeat = all(
        {k: v for k, v in res["per_layer"].items() if not k.endswith("_s")} == counts
        for res in traced
    )
    values = dict(first)
    for name in first:
        if name.endswith("_s"):
            values[name] = statistics.median(res["per_layer"][name] for res in traced)
    values["trace.overhead_ratio"] = (statistics.median(map(wall, traced))
                                      / statistics.median(map(wall, untraced)))
    layer_self = {k: statistics.median(res["layer_self_s"].get(k, 0.0) for res in traced)
                  for k in traced[0]["layer_self_s"]}
    print(f"  {len(traced)} traced and {len(untraced)} untraced passes of {rounds} rounds; "
          f"spans of the last traced pass in {spans.relative_to(ROOT)}")
    print(f"  traced wall {statistics.median(map(wall, traced)):.4f} s; layer self seconds: "
          + ", ".join(f"{k} {v:.4f}" for k, v in sorted(layer_self.items())))
    for name, value in values.items():
        unit = wanted.get(name, {}).get("unit", "s" if name.endswith("_s") else "")
        flag = "" if name in wanted else "  (printed only: a time, exactly 0 where never reached)"
        print(f"  {name:<30} {value:14.6g} {unit}{flag}")
    props = dict(traced[0]["properties"])
    props["calculus.tensor_repeat_share"] = first["calculus.tensor_repeat_share"]
    print("properties: " + json.dumps(props))
    print("per_layer_printed_only: "
          + json.dumps({k: v for k, v in values.items() if k not in wanted}))
    if not repeat:
        print("  counters differ between traced passes of one seed")
    metrics = {name: (values[name], spec["unit"]) for name, spec in wanted.items()}
    return metrics, untraced + traced, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "astheno" / "cli.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src' / 'astheno'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, one client process, one thread")
    repeat = True
    if args.trace:
        wanted = {m["name"]: m for m in spec["per_layer"]}
        metrics, runs, repeat = per_layer(args.workload, args.seed, args.seconds, wanted)
    else:
        metrics, runs = end_to_end(args.workload, args.seed, args.seconds)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for res in runs:
        for problem in res["problems"]:
            print("FAILED " + json.dumps(problem))
    correct = failed == 0 and repeat
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
