"""Printed output of the benchmark's commands against its golden digests.

``bench/golden.json`` holds the exit code and the stdout sha256 of every
command the benchmark workloads can run.  This test runs each of them
through ``cli.main`` (about 3900 commands, some 10 seconds) and compares, so
a change that moves one printed byte or one exit code of any pool command
fails here and not only under the benchmark.  The helpers are imported from
``bench/`` and used as they are.
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


def test_printed_output_matches_golden_digests(monkeypatch):
    monkeypatch.setenv("ASTHENO_COLOR", "off")
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    commands = {
        argv_key(argv): argv
        for workload in WORKLOADS
        for argv in pool_commands(workload, ROOT)
    }
    assert set(commands) == set(golden)
    mismatched = []
    for key, argv in commands.items():
        code, out = run_command(cli.main, argv)
        if golden.get(key) != f"{code}:{stdout_digest(out)}":
            mismatched.append(argv)
    assert not mismatched, f"{len(mismatched)} of {len(commands)} differ, first {mismatched[0]}"


# `scan --format text` (exit code and stdout sha256) for grids and options the
# benchmark pool does not print as text, recorded before scan cells became
# named tuples
TEXT_SCANS = {
    "--max-m1 4 --max-m2 4 --condition astheno --convention graded":
        "0:ebf64918aa5f62ea8bc0f20a93319e4d6fac7bbd16120517833ec223811bac93",
    "--max-m1 4 --max-m2 4 --condition astheno --convention ungraded":
        "0:2d4df2dbe8dde230ca95e692d4e873364e97a996ead86110a006feeedd72af31",
    "--max-m1 6 --max-m2 6 --condition astheno --convention graded":
        "0:cb6870f79a5fe62378a21c12e90e98f846385f837371e767dede9a107ee20d9a",
    "--max-m1 6 --max-m2 6 --condition astheno --convention ungraded":
        "0:b88b6a9bb3678a9123e8b351134504ba77a85d87af5049c1358bfb89955ab4fb",
    "--max-m1 5 --max-m2 5 --condition gauduchon --convention ungraded":
        "0:bddec34b3ecacc72a4223b58a038a9ff6d345b1393613dfe647eb3f0068e9e01",
    "--max-m1 3 --max-m2 7 --condition skt --convention graded --no-ring-reduce":
        "0:ce8f44cb9c3bd52a723bf9545a48156e4253785d8b3ddfe408404d1d7c004116",
}


def test_text_scans_match_their_digests():
    for args, expected in TEXT_SCANS.items():
        code, out = run_command(cli.main, ["scan", *args.split()])
        assert f"{code}:{stdout_digest(out)}" == expected, args
