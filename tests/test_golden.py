"""Printed output of the benchmark's commands against its golden digests.

``bench/golden.json`` holds the exit code and the stdout sha256 of every
command the benchmark workloads can run.  This test runs through
``cli.main`` the ones that print forms (every ``table``, every ``eval`` in
text or LaTeX, every ``check --format latex``) and every ``scan``, and
compares, so a printer change or a change of a scan's tensors that moves one
byte fails here and not only under the benchmark.  The helpers are imported
from ``bench/`` and used as they are.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from checks import argv_key, stdout_digest  # noqa: E402
from client import run_command  # noqa: E402
from workloads import WORKLOADS, pool_commands  # noqa: E402

from astheno import cli  # noqa: E402


def _format(argv: list) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "text"


def _pinned(argv: list) -> bool:
    if argv[0] in ("table", "scan"):
        return True
    if argv[0] == "eval":
        return _format(argv) in ("text", "latex")
    return argv[0] == "check" and _format(argv) == "latex"


def test_printed_output_matches_golden_digests():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    commands = [
        argv
        for workload in WORKLOADS
        for argv in pool_commands(workload, ROOT)
        if _pinned(argv)
    ]
    assert {argv[0] for argv in commands} == {"table", "eval", "check", "scan"}
    mismatched = []
    for argv in commands:
        code, out = run_command(cli.main, argv)
        if golden.get(argv_key(argv)) != f"{code}:{stdout_digest(out)}":
            mismatched.append(argv)
    assert not mismatched, f"{len(mismatched)} of {len(commands)} differ, first {mismatched[0]}"
