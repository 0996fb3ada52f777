"""Regenerate bench/golden.json from the engine under src/.

The golden file maps every command that any seed of any workload can run
(``workloads.pool_commands``, keyed by a hash of its argv) to
"<exit code>:<sha256 of stdout>".  The benchmark checks every command against
it, so a run of any seed, at any engine speed, is checked command by command.
Regenerate it only from an engine whose output is known to be right; the
committed file was made from the initial engine, and a later engine must
reproduce it byte for byte.  It takes about ten minutes.

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import os
import sys

from client import GOLDEN, ROOT, run_command
from run import DEFAULT_SEED


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["ASTHENO_COLOR"] = "off"
    from astheno import cli

    from checks import Checker, argv_key, stdout_digest
    from workloads import WORKLOADS, pool_commands, rounds

    checker = Checker(None)
    golden = {}
    for workload in WORKLOADS:
        outs = {}
        for argv in pool_commands(workload, ROOT):
            code, out = run_command(cli.main, argv)
            problems = checker.command(argv, code, out)
            if problems:
                print(f"refusing to record {argv}: {problems}", file=sys.stderr)
                return 1
            golden[argv_key(argv)] = f"{code}:{stdout_digest(out)}"
            outs[argv_key(argv)] = out
        argvs = next(rounds(workload, DEFAULT_SEED, ROOT))
        if checker.round(argvs, [outs[argv_key(argv)] for argv in argvs]):
            print(f"refusing to record {workload}: table totals", file=sys.stderr)
            return 1
        print(f"{workload}: {len(outs)} commands, {len(golden)} digests so far", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
