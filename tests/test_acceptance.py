"""Acceptance run: one test per release criterion, one printed line each.

All equalities are exact (rational arithmetic, no tolerances).  Randomized
criteria use fixed seeds so the run is reproducible bit for bit.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from astheno.algebra import ETA1, ETA2, Form, Monomial, ProductGeometry
from astheno.audit import random_form, run_audit
from astheno.calculus import (
    Condition,
    Convention,
    astheno_expansion,
    d_c,
    exterior_d,
    j_action,
    kahler_form,
)
from astheno.classify import classify, pure_pair, reproduce_table
from astheno.exprio import (
    ParseError,
    RecordError,
    from_record,
    parse,
    print_text,
    to_record,
)
from astheno.fixtures import equation_form, load_table, table_ids
from astheno.scalars import A1, A2, B1, B2, PARAMS

from oracle import GrassmannOracle

PRINTED_ZERO_ROWS = {
    1: {1, 3, 7, 9},
    2: {3, 9},
    3: {7, 9},
    4: {3, 9},
    5: {9},
    6: {7, 9},
    7: {3, 9},
    8: {9},
    9: {9},
    10: {7, 9},
}


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def _random_params(rng: random.Random) -> dict:
    return {
        name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in PARAMS
    }


def test_reference_d_omega():
    with criterion("d-omega reproduction (ungraded, exact)"):
        engine = exterior_d(kahler_form(), Convention.UNGRADED)
        assert engine == equation_form("d_omega")


def test_reference_dc_omega():
    with criterion("dc-omega reproduction (ungraded, exact)"):
        engine = d_c(kahler_form(), Convention.UNGRADED)
        assert engine == equation_form("dc_omega")


def test_reference_ddc_omega():
    with criterion("ddc-omega reproduction (ungraded skt tensor, untruncated)"):
        from astheno.calculus import condition_tensor

        geom = ProductGeometry(1, 1).untruncated()
        engine = condition_tensor(Condition.SKT, geom, Convention.UNGRADED)
        assert engine == equation_form("ddc_omega")


def test_expansion_identity():
    with criterion("closed-form expansion of ddc Omega^k (graded, k=2..4)"):
        omega = kahler_form()
        for k in (2, 3, 4):
            direct = exterior_d(d_c(omega.power(k), Convention.GRADED), Convention.GRADED)
            assert direct == astheno_expansion(k, Convention.GRADED), k


def test_printed_zero_rows():
    with criterion("19 printed-zero rows vanish, 71 others stay nonzero"):
        zero_count = 0
        for table_id in table_ids():
            table = load_table(table_id)
            printed = {r.row for r in table.rows if r.is_printed_zero}
            assert printed == PRINTED_ZERO_ROWS[table_id], table_id
            zero_count += len(printed)
            for row in table.rows:
                report = classify(
                    Condition.ASTHENO,
                    table.geometry,
                    pure_pair(row.factor1, row.factor2),
                    Convention.GRADED,
                )
                if row.is_printed_zero:
                    assert report.verdict == "identically-zero", (table_id, row.row)
                else:
                    assert report.verdict != "identically-zero", (table_id, row.row)
        assert zero_count == 19


def test_engine_invariants():
    with criterion("d squared, its unreduced residual, J laws, algebra laws"):
        rng = random.Random(2718)
        for _ in range(200):
            form = random_form(rng)
            assert exterior_d(exterior_d(form)).reduce().is_zero
        assert exterior_d(exterior_d(ETA1)) == Form.monomial(
            Monomial(1, 0, 1, 0), 2 * A1 * B1
        )
        assert exterior_d(exterior_d(ETA2)) == Form.monomial(
            Monomial(0, 1, 0, 1), 2 * A2 * B2
        )
        omega = kahler_form()
        assert j_action(omega) == omega
        assert j_action(ETA1) == ETA2 and j_action(ETA2) == -1 * ETA1
        for _ in range(50):
            x, y, z = random_form(rng), random_form(rng), random_form(rng)
            assert j_action(x.wedge(y)) == j_action(x).wedge(j_action(y))
            assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
        for _ in range(50):
            m1 = Monomial(rng.randint(0, 1), rng.randint(0, 1),
                          rng.randint(0, 2), rng.randint(0, 2))
            m2 = Monomial(rng.randint(0, 1), rng.randint(0, 1),
                          rng.randint(0, 2), rng.randint(0, 2))
            x, y = Form.monomial(m1), Form.monomial(m2)
            sign = -1 if (m1.degree() % 2) and (m2.degree() % 2) else 1
            assert x.wedge(y) == sign * y.wedge(x)


def test_oracle_equivalence():
    with criterion("symbolic wedge and power map onto the concrete model"):
        rng = random.Random(1618)
        samples = 0
        for m1 in (1, 2, 3):
            for m2 in (1, 2, 3):
                geom = ProductGeometry(m1, m2)
                oracle = GrassmannOracle(geom)
                for _ in range(10):
                    x, y = random_form(rng), random_form(rng)
                    params = _random_params(rng)
                    lhs = oracle.realize(x.wedge(y, geom), params)
                    rhs = oracle.multiply(
                        oracle.realize(x, params), oracle.realize(y, params)
                    )
                    assert lhs == rhs, (m1, m2)
                    samples += 1
                for k in (2, 3):
                    x = random_form(rng)
                    params = _random_params(rng)
                    lhs = oracle.realize(x.power(k, geom), params)
                    rhs = oracle.power(oracle.realize(x, params), k)
                    assert lhs == rhs, (m1, m2, k)
                    samples += 1
        assert samples >= 100


def test_volume_normalization():
    with criterion("Omega^m collapses onto the volume word, oracle-confirmed"):
        omega = kahler_form()
        for m1 in (1, 2, 3):
            for m2 in (1, 2, 3):
                geom = ProductGeometry(m1, m2)
                m = geom.m
                coeff = Fraction(-2 * factorial(m), factorial(m1) * factorial(m2))
                expected = coeff * ETA1.wedge(ETA2).wedge(
                    Form.monomial(Monomial(0, 0, m1, m2))
                )
                top = omega.power(m, geom)
                assert top == expected, (m1, m2)
                oracle = GrassmannOracle(geom)
                params = _random_params(random.Random(100 * m1 + m2))
                assert oracle.realize(top, params) == oracle.power(
                    oracle.realize(omega, params), m
                )


def test_structure_scan():
    with criterion("vanishing pattern across pure pairs and half-dimensions"):
        kinds = ("sasakian", "kenmotsu", "cosymplectic")
        for m1 in (2, 3):
            for m2 in (2, 3):
                geom = ProductGeometry(m1, m2)
                for k1 in kinds:
                    for k2 in kinds:
                        report = classify(
                            Condition.ASTHENO, geom, pure_pair(k1, k2)
                        )
                        if k1 == k2 == "cosymplectic":
                            assert report.vanishes, (m1, m2)
                        else:
                            assert not report.vanishes, (m1, m2, k1, k2)
        for m2 in (1, 2, 3, 4):
            report = classify(
                Condition.ASTHENO,
                ProductGeometry(1, m2),
                pure_pair("sasakian", "cosymplectic"),
            )
            assert report.vanishes, m2


def test_conditional_audit_finding():
    with criterion("beta-tie audit finding is emitted and run-stable"):
        first = run_audit(trials=20)
        second = run_audit(trials=20)
        finding = next(
            f for f in first.findings if f.name == "kenmotsu-pair-conditional"
        )
        conventions = {case["convention"] for case in finding.payload["cases"]}
        assert conventions == {"graded", "ungraded"}
        for case in finding.payload["cases"]:
            assert case["pair_annihilators"], case
        assert first.to_payload() == second.to_payload()


NEGATIVE_TEXTS = (
    "",
    "eta1 +",
    "eta3",
    "Phi1^",
    "Phi1^-2",
    "(eta1",
    "eta1)",
    "1/0",
    "a1 a2",
    r"/\eta1",
    "eta1 @ eta2",
    "2**eta1",
)

NEGATIVE_RECORDS = (
    {},
    {"terms": {}},
    {"terms": [], "extra": 1},
    {"terms": [{"eta1": 0, "eta2": 0, "phi1": 0, "phi2": 0}]},
    {"terms": [{"eta1": 2, "eta2": 0, "phi1": 0, "phi2": 0, "coeff": []}]},
    {"terms": [{"eta1": 0, "eta2": 0, "phi1": 0, "phi2": 0, "coeff": []}]},
    {
        "terms": [
            {
                "eta1": 0, "eta2": 0, "phi1": 0, "phi2": 0,
                "coeff": [{"a1": 0, "b1": 0, "a2": 0, "b2": 0, "num": 1, "den": 0}],
            }
        ]
    },
    {
        "terms": [
            {
                "eta1": 0, "eta2": 0, "phi1": 1, "phi2": 0,
                "coeff": [{"a1": 0, "b1": 0, "a2": 0, "b2": 0, "num": 1}],
            }
        ]
    },
)


def test_round_trips():
    with criterion("parser/printer and record codec round-trip, rejections hold"):
        rng = random.Random(4242)
        for _ in range(200):
            form = random_form(rng)
            assert parse(print_text(form)) == form
            assert from_record(to_record(form)) == form
        for text in NEGATIVE_TEXTS:
            try:
                parse(text)
            except ParseError:
                continue
            raise AssertionError(f"parser accepted {text!r}")
        for record in NEGATIVE_RECORDS:
            try:
                from_record(record)
            except RecordError:
                continue
            raise AssertionError(f"codec accepted {record!r}")
