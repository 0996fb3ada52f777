"""Self-audit: engine invariants, reference reproduction, and anomaly census.

Results come in two tiers.  Checks are hard invariants (a derivation
squaring to zero, exact reproduction of the bundled displays, the printed
zero rows); any failed check fails the audit.  Findings are informational:
per-row reproduction statuses for the ten tables, the graded/ungraded
sensitivity of the two wedge identities, and the unconstrained analysis of
the kenmotsu-pair residual.  Findings never fail the audit, because known
transcription anomalies live there by design.

Everything is deterministic: randomized checks draw from a seeded PRNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import ETA1, ETA2, Form, Monomial, ProductGeometry
from .calculus import (
    Condition,
    Convention,
    _displays,
    astheno_expansion,
    d_c,
    exterior_d,
    kahler_form,
    wedge_identity_check,
)
from .classify import analyze_residual, pure_pair, reproduce_table, scan
from .exprio import print_text
from .fixtures import EQUATION_NAMES, equation_form, table_ids
from .scalars import A1, A2, B1, B2, Scalar

DEFAULT_SEED = 314159
DEFAULT_TRIALS = 200


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditFinding:
    name: str
    summary: str
    payload: dict = field(compare=False)


@dataclass(frozen=True)
class AuditReport:
    seed: int
    checks: tuple
    findings: tuple

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "findings": [
                {"name": f.name, "summary": f.summary, "payload": f.payload}
                for f in self.findings
            ],
        }


def _random_scalar(rng: random.Random) -> Scalar:
    total = Scalar.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        total = total + Scalar({exps: coeff})
    return total


def random_form(rng: random.Random) -> Form:
    total = Form.zero()
    for _ in range(rng.randint(1, 4)):
        mono = Monomial(
            rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 3), rng.randint(0, 3)
        )
        total = total + Form.monomial(mono, _random_scalar(rng))
    return total


def _check_d_squared_reduced(rng: random.Random, trials: int) -> AuditCheck:
    bad = 0
    for _ in range(trials):
        form = random_form(rng)
        square = exterior_d(exterior_d(form, Convention.GRADED), Convention.GRADED)
        if not square.reduce().is_zero:
            bad += 1
    return AuditCheck(
        "d-squared-reduced",
        bad == 0,
        f"d(d(form)) reduces to 0 on {trials} random forms ({bad} failures)",
    )


def _check_d_squared_residual() -> AuditCheck:
    # before quotienting by (a1*b1, a2*b2) the square of d is exactly the
    # ideal generator on each contact form
    expected = {
        "eta1": Form.monomial(Monomial(1, 0, 1, 0), 2 * A1 * B1),
        "eta2": Form.monomial(Monomial(0, 1, 0, 1), 2 * A2 * B2),
    }
    got = {
        "eta1": exterior_d(exterior_d(ETA1)),
        "eta2": exterior_d(exterior_d(ETA2)),
    }
    passed = got == expected
    return AuditCheck(
        "d-squared-residual",
        passed,
        "unreduced d(d(eta_i)) equals 2*a_i*b_i * eta_i /\\ Phi_i exactly",
    )


def _check_j_automorphism(rng: random.Random, trials: int) -> AuditCheck:
    from .calculus import j_action

    bad = 0
    for _ in range(trials):
        x, y = random_form(rng), random_form(rng)
        if j_action(x.wedge(y)) != j_action(x).wedge(j_action(y)):
            bad += 1
    return AuditCheck(
        "j-automorphism",
        bad == 0,
        f"J(x /\\ y) = J(x) /\\ J(y) on {trials} random pairs ({bad} failures)",
    )


def _check_reference_display(name: str, engine: Form) -> AuditCheck:
    diff = equation_form(name) - engine
    return AuditCheck(
        f"reference-{name.replace('_', '-')}",
        diff.is_zero,
        "ungraded engine matches the bundled display exactly"
        if diff.is_zero
        else f"diff (fixture - engine): {print_text(diff)}",
    )


def _check_expansion_identity() -> AuditCheck:
    # d d_c Omega^k = k [d d_c Omega /\ Omega + (k-1) d Omega /\ d_c Omega]
    #                   /\ Omega^(k-2), untruncated, graded
    omega = kahler_form()
    bad = []
    for k in (2, 3, 4):
        direct = exterior_d(d_c(omega.power(k, None), Convention.GRADED), Convention.GRADED)
        if direct != astheno_expansion(k, Convention.GRADED):
            bad.append(k)
    return AuditCheck(
        "expansion-identity",
        not bad,
        "direct and expanded d d_c Omega^k agree for k = 2, 3, 4"
        if not bad
        else f"mismatch at k = {bad}",
    )


def _check_printed_zero_rows(graded: tuple) -> AuditCheck:
    mismatches = []
    for report in graded:
        for row in report.rows:
            if row.printed_zero != row.engine_zero_truncated:
                mismatches.append(f"table {report.table_id} row {row.row}")
    return AuditCheck(
        "printed-zero-rows",
        not mismatches,
        "a row prints 0 exactly when the truncated engine value is 0"
        if not mismatches
        else "printed/engine zero disagree: " + ", ".join(mismatches),
    )


def _check_scan_propositions() -> AuditCheck:
    report = scan(max_m1=4, max_m2=4, condition=Condition.ASTHENO)
    failed = [p.name for p in report.propositions if not p.holds]
    return AuditCheck(
        "scan-propositions",
        not failed,
        "both structure propositions hold on the 1..4 x 1..4 range"
        if not failed
        else "failed: " + ", ".join(failed),
    )


def _finding_wedge_identity() -> AuditFinding:
    payload = {}
    matched_by_conv = {}
    for conv in (Convention.UNGRADED, Convention.GRADED):
        rows = []
        for name, matched, diff in wedge_identity_check(conv):
            rows.append(
                {
                    "name": name,
                    "matched": matched,
                    "diff": None if matched else print_text(diff),
                }
            )
        payload[conv.value] = rows
        matched_by_conv[conv.value] = all(r["matched"] for r in rows)
    summary = (
        "both wedge displays match under the ungraded rule: "
        f"{matched_by_conv['ungraded']}; under the graded rule: "
        f"{matched_by_conv['graded']}"
    )
    return AuditFinding("wedge-identity", summary, payload)


def _finding_table_rows(reports: dict) -> AuditFinding:
    payload, sizes, found, bare = {}, [], [], set()  # bare: discrepant rows with no note
    for conv in (Convention.GRADED, Convention.UNGRADED):
        tables = []
        for report in reports[conv]:
            rows = []
            for row in report.rows:
                entry = {
                    "row": row.row,
                    "factors": f"{row.factor1} x {row.factor2}",
                    "status": row.status,
                }
                if row.note:
                    entry["note"] = row.note
                if row.status == "discrepancy":
                    entry["diff"] = print_text(row.diff)
                    if not row.note:
                        bare.add((report.table_id, row.row))
                rows.append(entry)
            tables.append(
                {
                    "table": report.table_id,
                    "geometry": f"({report.m1},{report.m2})",
                    "rows": rows,
                    "discrepancies": list(report.discrepancies),
                }
            )
        payload[conv.value] = tables
        sizes.append(sum(len(t["rows"]) for t in tables))
        found.append({(t["table"], row) for t in tables for row in t["discrepancies"]})
    (g, u), (graded, ungraded) = sizes, found
    count = f"{g}" if g == u else f"{g} graded and {u} ungraded"
    same = "same" if graded == ungraded else "not the same"
    noted = f"{len(bare)} not annotated" if bare else "each annotated"
    summary = (
        f"{count} rows reproduced; {len(graded)} carry a genuine discrepancy "
        f"({same} set under both conventions), {noted} in the fixture"
    )
    return AuditFinding("table-rows", summary, payload)


def _finding_kenmotsu_pair() -> AuditFinding:
    from .calculus import condition_tensor

    pair = pure_pair("kenmotsu", "kenmotsu")
    cases = []
    confirmed = True
    for m1, m2 in ((1, 1), (1, 2), (2, 1)):
        geom = ProductGeometry(m1, m2)
        for conv in (Convention.GRADED, Convention.UNGRADED):
            tensor = condition_tensor(Condition.ASTHENO, geom, conv).reduce()
            residual = tensor.substitute(pair.assignment())
            analysis = analyze_residual(residual)
            single_hits = [label for label, ok in analysis.singles if ok]
            case_ok = not single_hits and analysis.pairs == ("b1=0 & b2=0",)
            confirmed = confirmed and case_ok
            cases.append(
                {
                    "geometry": f"({m1},{m2})",
                    "convention": conv.value,
                    "single_annihilators": single_hits,
                    "pair_annihilators": list(analysis.pairs),
                }
            )
    summary = (
        "kenmotsu x kenmotsu residual needs both beta parameters killed: "
        "no single pin or tie annihilates it, only b1=0 & b2=0"
        if confirmed
        else "kenmotsu-pair structure varies across the checked geometries"
    )
    return AuditFinding(
        "kenmotsu-pair-conditional", summary, {"confirmed": confirmed, "cases": cases}
    )


def run_audit(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> AuditReport:
    rng = random.Random(seed)
    checks = [
        _check_d_squared_reduced(rng, trials),
        _check_d_squared_residual(),
        _check_j_automorphism(rng, max(1, trials // 4)),
    ]
    # the bundled displays were derived with the ungraded rule
    displays = _displays(Convention.UNGRADED)
    checks.extend(_check_reference_display(name, displays[name]) for name in EQUATION_NAMES)
    checks.append(_check_expansion_identity())
    tables = {
        conv: tuple(reproduce_table(table_id, conv) for table_id in table_ids())
        for conv in (Convention.GRADED, Convention.UNGRADED)
    }
    checks.append(_check_printed_zero_rows(tables[Convention.GRADED]))
    checks.append(_check_scan_propositions())
    findings = (
        _finding_wedge_identity(),
        _finding_table_rows(tables),
        _finding_kenmotsu_pair(),
    )
    return AuditReport(seed, tuple(checks), findings)
