"""One benchmark client: a single process and thread running one workload.

It imports the engine, pays the CLI set-up once, then runs the workload's
rounds as a closed loop: each command is a call of ``astheno.cli.main(argv)``
with stdout and stderr captured, and the next command starts when the previous
one returns.  It stops at the first round boundary after ``--seconds``, or
after ``--rounds`` rounds when that is given.  Outputs are checked after each
round, outside the timed region.  It prints one JSON object on stdout.

The CPU speed of a shared machine drifts by up to 2x in phases of seconds,
which would swamp any engine change.  So a fixed pure-Python kernel runs
between commands, and each latency is also reported in reference time: wall
time divided by the mean kernel time just before and just after the command,
in milliseconds of a machine on which the kernel takes exactly 1 ms.

Run by ``run.py``; by hand:

    PYTHONPATH=src python3 bench/client.py --workload high-dim --seed 1 --seconds 5
    PYTHONPATH=src python3 bench/client.py --workload high-dim --seed 1 --seconds 0 --rounds 2
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden.json"
# about 1 ms on one vCPU of a 2.1 GHz Intel Xeon
KERNEL_STEPS = 150


def calibration_ns() -> int:
    """Wall time of a fixed pure-Python kernel: the machine's current speed.

    Fraction arithmetic with growing numerators and tuple-keyed dict updates,
    the engine's own mix, track its speed across the machine's phases more
    closely than plain integer loops do.
    """
    start = perf_counter_ns()
    table = {}
    x = Fraction(1, 3)
    for i in range(KERNEL_STEPS):
        key = (i & 7, i & 3, 0, 1)
        x = x * Fraction(i + 1, 7) + Fraction(1, i + 2)
        table[key] = table.get(key, 0) + x.numerator.bit_length()
    return perf_counter_ns() - start


def run_command(main, argv: list):
    """Exit code of one CLI call and its captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed command, not a failed run
        code = traceback.format_exc(limit=-2)
    return code, out.getvalue()


def warm_fixtures(fixtures) -> None:
    fixtures._raw()
    fixtures._equations()
    for table_id in fixtures.table_ids():
        fixtures.load_table(table_id)


def run(workload: str, seed: int, seconds: float, max_rounds, trace: bool, spans_path=None) -> dict:
    from astheno import cli, fixtures

    from checks import GRADED_DISCREPANCIES, Checker
    from tracer import Tracer, per_layer_metrics
    from workloads import properties, rounds

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.setup("fixtures.load", lambda: warm_fixtures(fixtures))
    else:
        warm_fixtures(fixtures)
    cli.build_parser()
    checker = Checker(json.loads(GOLDEN.read_text(encoding="utf-8")))

    round_s, raw_round_s, latencies, raw_latencies = [], [], [], []
    commands, problems = [], []
    attempted = failed = bytes_out = 0
    deadline = perf_counter() + seconds
    for r, argvs in enumerate(rounds(workload, seed, ROOT)):
        if max_rounds is not None:
            if r >= max_rounds:
                break
        elif r and perf_counter() >= deadline:
            break
        results, raw_ns, ref_ms = [], [], []
        before = calibration_ns()
        for argv in argvs:
            c0 = perf_counter_ns()
            if tracer is None:
                results.append(run_command(cli.main, argv))
            else:
                tracer.begin(attempted + len(results))
                results.append(tracer.span("client.command", run_command, cli.main, argv))
                tracer.end()
            elapsed = perf_counter_ns() - c0
            after = calibration_ns()
            raw_ns.append(elapsed)
            ref_ms.append(elapsed / ((before + after) / 2))
            before = after
        latencies.extend(ref_ms)
        raw_latencies.extend(ns / 1e6 for ns in raw_ns)
        round_s.append(sum(ref_ms) / 1e3)
        raw_round_s.append(sum(raw_ns) / 1e9)

        bad = {}
        for i, (argv, (code, out)) in enumerate(zip(argvs, results)):
            found = checker.command(argv, code, out)
            if found:
                bad[i] = found
        for i in checker.round(argvs, [out for _, out in results]):
            bad.setdefault(i, []).append(
                f"graded tables do not total {GRADED_DISCREPANCIES} discrepancy rows")
        for i, found in sorted(bad.items()):
            if len(problems) < 10:
                problems.append({"argv": argvs[i], "problems": found})
        attempted += len(argvs)
        failed += len(bad)
        bytes_out += sum(len(out.encode("utf-8")) for _, out in results)
        commands.extend(argvs)

    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(round_s),
        "round_s": round_s,
        "raw_round_s": raw_round_s,
        "latency_ms": latencies,
        "raw_latency_ms": raw_latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "properties": properties(commands),
    }
    if tracer is not None:
        # per-layer seconds in the same reference time as the latencies
        summary = tracer.summary(scale=sum(round_s) / sum(raw_round_s))
        metrics = per_layer_metrics(summary)
        metrics["cli.bytes_out"] = bytes_out
        report.update(per_layer=metrics, layer_self_s=summary["layer_self_s"],
                      bindings=tracer.bindings())
        if spans_path:
            tracer.write_spans(spans_path)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds, ignoring --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the spans here (gzip TSV)")
    args = parser.parse_args()
    report = run(args.workload, args.seed, args.seconds, args.rounds,
                 bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
