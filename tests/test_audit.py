"""Shape and stability of the self-audit report."""

from dataclasses import replace

from astheno.audit import _finding_table_rows, run_audit
from astheno.calculus import Convention
from astheno.classify import reproduce_table
from astheno.fixtures import table_ids

CHECK_NAMES = (
    "d-squared-reduced",
    "d-squared-residual",
    "j-automorphism",
    "reference-d-omega",
    "reference-dc-omega",
    "reference-ddc-omega",
    "reference-d-wedge-dc",
    "reference-ddc-wedge-omega",
    "expansion-identity",
    "printed-zero-rows",
    "scan-propositions",
)

FINDING_NAMES = ("wedge-identity", "table-rows", "kenmotsu-pair-conditional")


def test_audit_passes_and_is_complete():
    report = run_audit(trials=40)
    assert report.ok
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
    assert tuple(f.name for f in report.findings) == FINDING_NAMES


def test_audit_payload_is_stable():
    first = run_audit(trials=30).to_payload()
    second = run_audit(trials=30).to_payload()
    assert first == second
    assert first["ok"] is True


def test_conditional_finding_contents():
    report = run_audit(trials=10)
    finding = next(f for f in report.findings if f.name == "kenmotsu-pair-conditional")
    assert finding.payload["confirmed"] is True
    cases = finding.payload["cases"]
    assert len(cases) == 6  # three geometries, two conventions
    for case in cases:
        assert case["single_annihilators"] == []
        assert case["pair_annihilators"] == ["b1=0 & b2=0"]


def test_table_finding_lists_both_conventions():
    report = run_audit(trials=10)
    finding = next(f for f in report.findings if f.name == "table-rows")
    assert set(finding.payload) == {"graded", "ungraded"}
    for tables in finding.payload.values():
        assert len(tables) == 10
        assert sum(len(t["rows"]) for t in tables) == 90


def test_table_finding_summary_follows_the_reports():
    conventions = (Convention.GRADED, Convention.UNGRADED)
    reports = {c: tuple(reproduce_table(t, c) for t in table_ids()) for c in conventions}
    assert _finding_table_rows(reports).summary == (
        "90 rows reproduced; 19 carry a genuine discrepancy "
        "(same set under both conventions), each annotated in the fixture"
    )

    def edited(conv, edit):
        """reports with the first discrepant row under conv passed through edit"""
        first = next(r for r in reports[conv] if r.discrepancies)
        rows = tuple(edit(row) if row.row == first.discrepancies[0] else row for row in first.rows)
        tables = tuple(replace(r, rows=rows) if r is first else r for r in reports[conv])
        return {**reports, conv: tables}

    settled = edited(Convention.UNGRADED, lambda row: replace(row, status="exact"))
    assert _finding_table_rows(settled).summary == (
        "90 rows reproduced; 19 carry a genuine discrepancy "
        "(not the same set under both conventions), each annotated in the fixture"
    )
    unnoted = edited(Convention.GRADED, lambda row: replace(row, note=None))
    assert _finding_table_rows(unnoted).summary.endswith(", 1 not annotated in the fixture")
    first, *rest = reports[Convention.UNGRADED]
    short = {**reports, Convention.UNGRADED: (replace(first, rows=first.rows[1:]), *rest)}
    summary = _finding_table_rows(short).summary
    assert summary.startswith("90 graded and 89 ungraded rows reproduced;")
