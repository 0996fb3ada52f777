"""Self-test of the traced run; stdlib only, about 15 seconds.

    python3 bench/test_trace.py

Runs one traced round of each workload twice with one seed, each in a fresh
client process as the benchmark does.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import client  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# layer self times must cover the traced round wall up to the harness's own
# bookkeeping between commands
SLACK = 0.02

# Every wrapped binding, with a workload that must reach it.  A binding that
# stays at zero is a call path the wrappers miss, such as a name imported into
# another module and wrapped only where it is defined.
EXPECTED = {
    "algebra.Form.power": "high-dim",
    "algebra.Form.substitute": "scan-grid",
    "algebra.Form.wedge": "high-dim",
    "audit.analyze_residual": "audit-tables",
    "audit.astheno_expansion": "audit-tables",
    "audit.d_c": "audit-tables",
    "audit.equation_form": "audit-tables",
    "audit.exterior_d": "audit-tables",
    "audit.kahler_form": "audit-tables",
    "audit.print_text": "audit-tables",
    "audit.pure_pair": "audit-tables",
    "audit.random_form": "audit-tables",
    "audit.reproduce_table": "audit-tables",
    "audit.scan": "audit-tables",
    "audit.table_ids": "audit-tables",
    "audit.wedge_identity_check": "audit-tables",
    "calculus.astheno_expansion": "high-dim",
    # audit imports condition_tensor inside a function, at call time
    "calculus.condition_tensor": "audit-tables",
    "calculus.d_c": "high-dim",
    "calculus.exterior_d": "high-dim",
    "calculus.j_action": "high-dim",
    "calculus.kahler_form": "high-dim",
    "classify.Relation.apply": "scan-grid",
    "classify.analyze_residual": "scan-grid",
    "classify.candidate_relations": "scan-grid",
    "classify.condition_tensor": "high-dim",
    "classify.pure_pair": "scan-grid",
    "cli.build_parser": "high-dim",
    "cli.classify": "high-dim",
    "cli.cmd_check": "high-dim",
    "cli.cmd_eval": "audit-tables",
    "cli.cmd_scan": "scan-grid",
    "cli.cmd_table": "audit-tables",
    "cli.cmd_verify": "audit-tables",
    "cli.d_c": "audit-tables",
    "cli.exterior_d": "audit-tables",
    "cli.j_action": "audit-tables",
    "cli.main": "high-dim",
    "cli.parse": "audit-tables",
    "cli.print_latex": "audit-tables",
    "cli.print_text": "high-dim",
    "cli.reproduce_table": "audit-tables",
    "cli.run_audit": "audit-tables",
    "cli.scan": "scan-grid",
    "cli.table_ids": "audit-tables",
    "cli.to_record": "high-dim",
    "fixtures.equation_form": "audit-tables",
    "fixtures.load_table": "audit-tables",
    "fixtures.parse": "high-dim",
    "fixtures.table_ids": "audit-tables",
    "scalars.Scalar.__add__": "high-dim",
    "scalars.Scalar.__mul__": "high-dim",
    "scalars.Scalar.__rmul__": "audit-tables",
}

# Wrapped bindings that no benchmark command calls, and why.  Most are the
# defining module's own name for a function other modules import by name.
UNREACHED = {
    "audit.run_audit": "called through the cli binding",
    "calculus.wedge_identity_check": "called through the audit binding",
    "classify.classify": "called through the cli binding",
    "classify.reproduce_table": "called through the cli and audit bindings",
    "classify.scan": "called through the cli and audit bindings",
    "exprio.parse": "called through the cli and fixtures bindings",
    "exprio.print_latex": "called through the cli binding",
    "exprio.print_text": "called through the cli and audit bindings",
    "exprio.to_record": "called through the cli binding",
    "exprio.from_record": "the CLI never reads a record",
    "fixtures.all_tables": "no caller",
    "fixtures.equation_source": "no caller",
    "scalars.Scalar.__radd__": "no engine code adds a Scalar to a plain number",
}


def _counts(run: dict) -> dict:
    return {k: v for k, v in run["per_layer"].items() if not k.endswith("_s")}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {
            workload: [client(workload, SEED, rounds=1, trace=True) for _ in range(2)]
            for workload in WORKLOADS
        }

    def test_wrapped_bindings_are_classified(self):
        wrapped = set(self.runs["scan-grid"][0]["bindings"])
        self.assertEqual(wrapped, set(EXPECTED) | set(UNREACHED))
        self.assertFalse(set(EXPECTED) & set(UNREACHED))

    def test_every_binding_fires_where_expected(self):
        for binding, workload in EXPECTED.items():
            with self.subTest(binding=binding):
                self.assertGreater(self.runs[workload][0]["bindings"][binding], 0)

    def test_unreached_bindings_stay_unreached(self):
        for binding in UNREACHED:
            with self.subTest(binding=binding):
                fired = sum(runs[0]["bindings"][binding] for runs in self.runs.values())
                self.assertEqual(fired, 0)

    def test_counters_repeat_exactly(self):
        for workload, (first, second) in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(_counts(first), _counts(second))
                self.assertEqual(first["bindings"], second["bindings"])

    def test_layer_self_times_add_up_to_wall(self):
        for workload, runs in self.runs.items():
            for run in runs:
                with self.subTest(workload=workload):
                    wall = sum(run["round_s"])
                    covered = sum(run["layer_self_s"].values())
                    self.assertLessEqual(covered, wall)
                    self.assertGreaterEqual(covered, (1 - SLACK) * wall)

    def test_outputs_check(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                self.assertEqual(runs[0]["failed"], 0, runs[0]["problems"])


if __name__ == "__main__":
    unittest.main()
