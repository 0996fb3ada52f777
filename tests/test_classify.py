"""Structure pairs, verdicts, table reproduction, and the range scan."""

import sys
from fractions import Fraction
from typing import NamedTuple

import pytest

from astheno import fixtures
from astheno.algebra import Form, Monomial, ProductGeometry
from astheno.calculus import Condition, Convention, condition_tensor
from astheno.classify import (
    KINDS,
    PURE_KINDS,
    VERDICT_CONDITIONAL,
    VERDICT_NONZERO,
    VERDICT_ZERO,
    FactorStructure,
    Relation,
    ScanCell,
    StructurePair,
    VanishingAnalysis,
    _propositions,
    _verdicts,
    analyze_residual,
    candidate_relations,
    classify,
    pure_pair,
    reproduce_table,
    scan,
)
from astheno.fixtures import all_tables, table_ids
from astheno.scalars import A1, A2, B1, B2

# rows that genuinely disagree with the engine, identical under both
# conventions; every one carries a note in the fixture data
EXPECTED_DISCREPANCIES = {
    1: (6, 8),
    2: (1,),
    3: (4, 5, 6),
    4: (5,),
    5: (5,),
    6: (5,),
    7: (2,),
    8: (2, 5),
    9: (1, 2, 3, 5),
    10: (1, 2, 3),
}


def test_factor_structure_validation():
    FactorStructure("sasakian", alpha=Fraction(2))
    FactorStructure("kenmotsu", beta=Fraction(-1, 3))
    FactorStructure("trans-sasakian", alpha=1, beta=2)
    with pytest.raises(ValueError):
        FactorStructure("mystery")
    with pytest.raises(ValueError):
        FactorStructure("sasakian", beta=1)  # beta is pinned to zero
    with pytest.raises(ValueError):
        FactorStructure("sasakian", alpha=0)  # alpha must stay nonzero
    with pytest.raises(ValueError):
        FactorStructure("cosymplectic", alpha=1)
    with pytest.raises(ValueError):
        FactorStructure("kenmotsu", beta=0)
    for value in (True, False, 0.5, 1.0):  # pins are ints (not bools) or Fractions
        with pytest.raises(TypeError):
            FactorStructure("sasakian", alpha=value)
        with pytest.raises(TypeError):
            FactorStructure("trans-sasakian", beta=value)


def test_structure_pair_assignment():
    pair = StructurePair(
        FactorStructure("sasakian", alpha=Fraction(3)),
        FactorStructure("kenmotsu"),
    )
    assign = pair.assignment()
    assert assign == {
        "a1": Fraction(3),
        "b1": Fraction(0),
        "a2": Fraction(0),
    }
    assert pair.forbidden_zero_params() == frozenset({"a1", "b2"})


def test_pure_pair_round_trip():
    pair = pure_pair("cosymplectic", "sasakian")
    assert pair.factor1.kind == "cosymplectic"
    assert pair.factor2.kind == "sasakian"
    assert pair.assignment() == {
        "a1": Fraction(0),
        "b1": Fraction(0),
        "b2": Fraction(0),
    }


def test_verdicts_on_reference_pairs():
    rep = classify(
        Condition.ASTHENO, ProductGeometry(1, 2), pure_pair("sasakian", "cosymplectic")
    )
    assert rep.verdict == "identically-zero"
    assert rep.vanishes

    rep = classify(
        Condition.ASTHENO, ProductGeometry(2, 2), pure_pair("kenmotsu", "kenmotsu")
    )
    assert rep.verdict == "nonzero"
    assert not rep.analysis.annihilating

    rep = classify(
        Condition.SKT, ProductGeometry(1, 1), pure_pair("cosymplectic", "cosymplectic")
    )
    assert rep.verdict == "identically-zero"


def test_conditional_verdict_for_free_parameters():
    pair = StructurePair(
        FactorStructure("trans-sasakian"), FactorStructure("trans-sasakian")
    )
    rep = classify(Condition.ASTHENO, ProductGeometry(1, 1), pair)
    assert rep.verdict == "conditionally-zero"
    assert rep.conditions == ("b1=0 & b2=0",)


def test_forbidden_params_filter_candidates():
    geom = ProductGeometry(2, 1)
    tensor = condition_tensor(Condition.ASTHENO, geom).reduce()
    residual = tensor.substitute(pure_pair("sasakian", "cosymplectic").assignment())
    assert not residual.is_zero
    labels = [r.label for r in candidate_relations(residual, frozenset({"a1"}))]
    assert "a1=0" not in labels
    unfiltered = [r.label for r in candidate_relations(residual, frozenset())]
    assert "a1=0" in unfiltered


def test_candidate_relations_read_the_support():
    # the parameters a residual carries, and nothing it does not
    labels = [r.label for r in candidate_relations(Form.monomial(Monomial(1, 0, 1, 0), A1 * 4))]
    assert labels == ["a1=0"]
    residual = Form.monomial(Monomial(0, 0, 1, 1), A1 * A2 - B1) + Form.monomial(
        Monomial(1, 1, 0, 0), B2)
    labels = [r.label for r in candidate_relations(residual)]
    assert labels == ["a1=0", "b1=0", "a2=0", "b2=0", "a1=a2", "a1=-a2", "b1=b2", "b1=-b2"]
    assert candidate_relations(Form.from_scalar(3)) == ()
    assert candidate_relations(Form.zero()) == ()


def test_kenmotsu_pair_needs_both_betas_killed():
    pair = pure_pair("kenmotsu", "kenmotsu")
    for geom in (ProductGeometry(1, 1), ProductGeometry(1, 2), ProductGeometry(2, 1)):
        for conv in Convention:
            tensor = condition_tensor(Condition.ASTHENO, geom, conv).reduce()
            residual = tensor.substitute(pair.assignment())
            analysis = analyze_residual(residual)
            assert not [label for label, ok in analysis.singles if ok]
            assert analysis.pairs == ("b1=0 & b2=0",)


def test_tie_relations_lean_on_the_quotient():
    # b1 -> b2 maps the legal cross word a2*b1 onto the reducible a2*b2,
    # so the tie annihilates only when reduction reruns afterwards
    residual = Form.monomial(Monomial(1, 1, 1, 0), A2 * B1) + Form.monomial(
        Monomial(1, 1, 0, 1), B1 - B2
    )
    with_quotient = analyze_residual(residual)
    assert ("b1=b2", True) in with_quotient.singles
    without = analyze_residual(residual, ring_reduce=False)
    assert ("b1=b2", False) in without.singles


def test_a_relation_maps_its_scalar_operation():
    # the relation is checked once per form, then mapped over every coefficient
    form = Form.monomial(Monomial(1, 1, 1, 0), A2 * B1 - B1 * B1) + Form.monomial(
        Monomial(0, 0, 0, 2), A1 + 3 * B2)
    rels = candidate_relations(form)
    assert len(rels) == 8
    for rel in rels:
        if rel.dst is None:
            expected = form.map_scalars(lambda s: s.substitute({rel.src: 0}))
        else:
            expected = form.map_scalars(lambda s: s.identify(rel.src, rel.dst, rel.sign))
        assert rel.apply(form) == expected, rel.label
    # and checked even on a form with no coefficient to map
    for bad, match in ((Relation("a1=2a2", "a1", "a2", 2), "sign must be"),
                       (Relation("a1=zz", "a1", "zz"), "unknown parameter 'zz'"),
                       (Relation("zz=0", "zz"), "unknown parameter 'zz'")):
        for target in (form, Form.zero()):
            with pytest.raises(ValueError, match=match):
                bad.apply(target)


def test_reproduce_table_statuses():
    for conv in Convention:
        for table_id in table_ids():
            report = reproduce_table(table_id, conv)
            assert report.discrepancies == EXPECTED_DISCREPANCIES[table_id], (
                table_id,
                conv,
            )
            for row in report.rows:
                assert row.status in (
                    "exact",
                    "modulo-truncation",
                    "modulo-convention",
                    "modulo-convention-truncation",
                    "discrepancy",
                )
                if row.status == "discrepancy":
                    assert row.note, (table_id, row.row)
                    assert not row.diff.is_zero
                elif row.status == "exact":
                    assert row.fixture == row.engine


def test_printed_zero_rows_match_engine():
    expected_zero = {
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
    for table in all_tables():
        printed = {r.row for r in table.rows if r.is_printed_zero}
        assert printed == expected_zero[table.table_id]
    for table_id in table_ids():
        report = reproduce_table(table_id, Convention.GRADED)
        for row in report.rows:
            assert row.printed_zero == row.engine_zero_truncated, (table_id, row.row)


def test_header_flags_match_the_kind_pins():
    # reproduce_table pins each row by its kinds; the printed 0/1 header flags,
    # kept verbatim in the data, must name the same zero parameters
    rows = [(t["id"], row) for t in fixtures._raw()["tables"] for row in t["rows"]]
    assert len(rows) == 90
    for table_id, row in rows:
        flags = {"a1": row["alpha1"], "a2": row["alpha2"], "b1": row["beta1"], "b2": row["beta2"]}
        assert set(flags.values()) <= {0, 1}, (table_id, row["row"])
        pins = pure_pair(row["factor1"], row["factor2"]).assignment()
        zeros = {name for name, value in pins.items() if value == 0}
        assert {name for name, printed in flags.items() if not printed} == zeros, (
            table_id, row["row"])


def test_tables_print_the_astheno_power():
    # reproduce_table always judges the astheno tensor, d d_c Omega^(m1 + m2 - 1)
    tables = fixtures._raw()["tables"]
    assert len(tables) == 10
    for table in tables:
        assert table["power"] == table["m1"] + table["m2"] - 1, table["id"]


def test_cosymplectic_rows_reproduce_exactly():
    # the all-zero structure kills every parameter, so row 9 of each table
    # must be exact under either convention
    for table_id in table_ids():
        report = reproduce_table(table_id, Convention.UNGRADED)
        row9 = next(r for r in report.rows if r.row == 9)
        assert row9.status == "exact"


def test_scan_matrix_and_propositions():
    report = scan(max_m1=3, max_m2=3)
    assert len(report.cells) == 81
    verdicts = {
        (c.m1, c.m2, c.factor1, c.factor2): c.verdict for c in report.cells
    }
    # once both half-dimensions pass 1, only the cosymplectic pair dies
    for m1 in (2, 3):
        for m2 in (2, 3):
            for k1 in ("sasakian", "kenmotsu", "cosymplectic"):
                for k2 in ("sasakian", "kenmotsu", "cosymplectic"):
                    verdict = verdicts[(m1, m2, k1, k2)]
                    if k1 == k2 == "cosymplectic":
                        assert verdict == "identically-zero"
                    else:
                        assert verdict != "identically-zero"
    assert all(p.holds for p in report.propositions)
    assert report.ok


@pytest.mark.parametrize("ring_reduce", [True, False])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("condition", list(Condition))
def test_scan_cells_match_classify(condition, convention, ring_reduce):
    # 4 x 5 holds the m_i = 1 rows, whose tensors differ from the rest
    report = scan(4, 5, condition, convention, ring_reduce)
    assert len(report.cells) == 4 * 5 * 9
    for cell in report.cells:
        rep = classify(
            condition, ProductGeometry(cell.m1, cell.m2),
            pure_pair(cell.factor1, cell.factor2), convention, ring_reduce,
        )
        assert (cell.verdict, cell.conditions) == (rep.verdict, rep.conditions), cell


def _defined_verdict(tensor, assignment, forbidden, ring_reduce):
    """A verdict by its definition: reduce, substitute the pins, analyse the residual."""
    residual = (tensor.reduce() if ring_reduce else tensor).substitute(assignment)
    if residual.is_zero:
        return VERDICT_ZERO, VanishingAnalysis((), ())
    analysis = analyze_residual(residual, forbidden, ring_reduce)
    return (VERDICT_CONDITIONAL if analysis.annihilating else VERDICT_NONZERO), analysis


@pytest.mark.parametrize("ring_reduce", [True, False])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("condition", list(Condition))
def test_scan_matches_a_reference_loop_over_condition_tensor(condition, convention, ring_reduce):
    # scan builds its tensors from closed forms and judges them on their
    # support; the reference judges every geometry's condition_tensor afresh
    # by the definition
    pairs = [pure_pair(kind1, kind2) for kind1 in PURE_KINDS for kind2 in PURE_KINDS]
    cells = []
    for m1 in range(1, 7):
        for m2 in range(1, 7):
            tensor = condition_tensor(condition, ProductGeometry(m1, m2), convention)
            for pair in pairs:
                verdict, analysis = _defined_verdict(
                    tensor, pair.assignment(), pair.forbidden_zero_params(), ring_reduce
                )
                cells.append(ScanCell(
                    m1, m2, pair.factor1.kind, pair.factor2.kind, verdict, analysis.annihilating,
                ))
    report = scan(6, 6, condition, convention, ring_reduce)
    assert report.cells == tuple(cells)
    expected = _propositions(cells) if condition is Condition.ASTHENO else ()
    assert report.propositions == expected


def _pinned(kind1, pins1, kind2, pins2):
    return StructurePair(FactorStructure(kind1, **pins1), FactorStructure(kind2, **pins2))


# every ordered pair of kinds, then explicit pins of zero and nonzero values
_JUDGED_PAIRS = [pure_pair(kind1, kind2) for kind1 in KINDS for kind2 in KINDS] + [
    _pinned("sasakian", {"alpha": 2}, "kenmotsu", {"beta": Fraction(-1, 3)}),
    _pinned("trans-sasakian", {"alpha": 0}, "trans-sasakian", {"beta": 0}),
    _pinned("trans-sasakian", {"alpha": 1}, "trans-sasakian", {"alpha": -1}),
    _pinned("trans-sasakian", {"alpha": 1, "beta": 0}, "sasakian", {}),
    _pinned("cosymplectic", {}, "trans-sasakian", {"alpha": 0, "beta": 2}),
    _pinned("kenmotsu", {"beta": 3}, "trans-sasakian", {"beta": 3}),
]


@pytest.mark.parametrize("ring_reduce", [True, False])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("condition", list(Condition))
def test_verdicts_match_their_definition(condition, convention, ring_reduce):
    # _verdicts takes zero pins only, on a tensor already reduced
    zero_pinned = [pair for pair in _JUDGED_PAIRS if not any(pair.assignment().values())]
    assert len(zero_pinned) == 17
    pins = [(frozenset(pair.assignment()), pair.forbidden_zero_params()) for pair in zero_pinned]
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            tensor = condition_tensor(condition, ProductGeometry(m1, m2), convention)
            reduced = tensor.reduce() if ring_reduce else tensor
            judged = list(_verdicts(reduced, pins, ring_reduce))
            for pair, (verdict, analysis) in zip(zero_pinned, judged, strict=True):
                expected = _defined_verdict(
                    tensor, pair.assignment(), pair.forbidden_zero_params(), ring_reduce)
                assert (verdict, analysis) == expected, (m1, m2, pair)


@pytest.mark.parametrize("ring_reduce", [True, False])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("condition", list(Condition))
def test_classify_matches_its_definition(condition, convention, ring_reduce):
    # every pair, the nonzero pins included, which only classify substitutes
    for m1 in range(1, 6):
        for m2 in range(1, 6):
            geom = ProductGeometry(m1, m2)
            tensor = condition_tensor(condition, geom, convention)
            for pair in _JUDGED_PAIRS:
                rep = classify(condition, geom, pair, convention, ring_reduce)
                expected = _defined_verdict(
                    tensor, pair.assignment(), pair.forbidden_zero_params(), ring_reduce)
                assert (rep.verdict, rep.analysis) == expected, (m1, m2, pair)


class _Pins(NamedTuple):
    """Stands in for a StructurePair: the two things classify reads of one."""

    pins: dict
    forbidden: frozenset

    def assignment(self):
        return dict(self.pins)

    def forbidden_zero_params(self):
        return self.forbidden


@pytest.mark.parametrize("forbidden", [frozenset(), frozenset({"b2"}), frozenset({"a2"})])
def test_a_nonzero_pin_that_cancels_terms_is_substituted_first(monkeypatch, forbidden):
    # a1*b2 - b2 carries a1 and b2 on its own, yet a1 = 1 cancels it, which
    # no zero pin can do: the support alone would call it nonzero
    cancelled = Form.monomial(Monomial(0, 0, 1, 1), A1 * B2 - B2)
    survivor = cancelled + Form.monomial(Monomial(0, 0, 2, 0), A2)
    module = sys.modules[classify.__module__]
    geom = ProductGeometry(1, 1)

    def judged(tensor, assignment, ring_reduce):
        monkeypatch.setattr(module, "condition_tensor", lambda *args: tensor)
        rep = classify(Condition.ASTHENO, geom, _Pins(assignment, forbidden), ring_reduce=ring_reduce)
        return rep.verdict, rep.analysis

    for ring_reduce in (True, False):
        assert judged(cancelled, {"a1": 1}, ring_reduce) == (VERDICT_ZERO, VanishingAnalysis((), ()))
        for assignment in ({"a1": 1}, {"a1": 1, "b1": 0}):
            verdict = judged(survivor, assignment, ring_reduce)
            assert verdict == _defined_verdict(survivor, assignment, forbidden, ring_reduce)
            assert verdict[0] == (VERDICT_NONZERO if forbidden == {"a2"} else VERDICT_CONDITIONAL)


def test_classify_substitutes_a_nonzero_pin_once(monkeypatch):
    real, calls = Form.substitute, []

    def substitute(form, assign):
        calls.append(dict(assign))
        return real(form, assign)

    monkeypatch.setattr(Form, "substitute", substitute)
    # every parameter pinned: no relation to try, so the one substitution
    # is the whole assignment's
    pair = _pinned("sasakian", {"alpha": 2}, "kenmotsu", {"beta": Fraction(-1, 3)})
    rep = classify(Condition.ASTHENO, ProductGeometry(2, 3), pair)
    assert rep.verdict == VERDICT_NONZERO
    assert calls == [pair.assignment()]
    # a pinned pair with relations to try: the later substitutions are the
    # analysis's own zero pins
    pair = _pinned("trans-sasakian", {"alpha": 1}, "trans-sasakian", {})
    calls.clear()
    rep = classify(Condition.ASTHENO, ProductGeometry(1, 1), pair)
    assert rep.analysis.singles
    assert calls[0] == pair.assignment()
    assert calls[1:] and all(set(c.values()) == {0} and len(c) == 1 for c in calls[1:])


def test_scan_builds_residuals_only_where_a_relation_must_be_tried(monkeypatch):
    # a pure pair pins only zeros, so its residual is built only when it has
    # a candidate relation: the a1 = +-a2 and b1 = +-b2 ties of like kinds
    from astheno.algebra import Form

    module = sys.modules[scan.__module__]
    pairs = {
        frozenset(pair.assignment()): pair
        for pair in (pure_pair(kind1, kind2) for kind1 in PURE_KINDS for kind2 in PURE_KINDS)
    }
    real_substitute, real_verdicts = Form.substitute, module._verdicts
    built, judged = [], []

    def substitute(form, assign):
        residual = real_substitute(form, assign)
        built.append((pairs[frozenset(assign)], residual))
        return residual

    def verdicts(tensor, pins, ring_reduce):
        judged.append(tensor)
        return real_verdicts(tensor, pins, ring_reduce)

    monkeypatch.setattr(Form, "substitute", substitute)
    monkeypatch.setattr(module, "_verdicts", verdicts)
    scan(4, 4)
    assert len(judged) == 16
    assert 0 < len(built) <= 2 * len(judged)
    for pair, residual in built:
        assert (pair.factor1.kind, pair.factor2.kind) in (
            ("sasakian", "sasakian"), ("kenmotsu", "kenmotsu"))
        assert candidate_relations(residual, pair.forbidden_zero_params())


@pytest.mark.parametrize(
    "max_m1, max_m2, condition, judged",
    [(6, 6, Condition.SKT, 4), (4, 4, Condition.ASTHENO, 16)],
)
def test_scan_judges_each_distinct_tensor_once(monkeypatch, max_m1, max_m2, condition, judged):
    # the skt tensor changes only where an m_i leaves 1; astheno differs everywhere
    module = sys.modules[scan.__module__]  # the package's classify names the function
    real, calls = module._verdicts, []

    def counting(tensor, pins, ring_reduce):
        calls.append(tensor)
        return real(tensor, pins, ring_reduce)

    monkeypatch.setattr(module, "_verdicts", counting)
    report = scan(max_m1, max_m2, condition)
    assert len(calls) == judged
    assert len(report.cells) == max_m1 * max_m2 * 9


def test_each_proposition_reports_exactly_its_breaking_cells():
    # hand-made verdicts that break the propositions, in both factor orders,
    # among the cells of a scan where both hold
    breaking = (
        ScanCell(2, 2, "cosymplectic", "cosymplectic", VERDICT_NONZERO, ()),
        ScanCell(3, 2, "sasakian", "kenmotsu", VERDICT_ZERO, ()),
        ScanCell(2, 3, "kenmotsu", "sasakian", VERDICT_ZERO, ()),
        ScanCell(1, 4, "sasakian", "cosymplectic", VERDICT_NONZERO, ()),
        ScanCell(4, 1, "cosymplectic", "sasakian", VERDICT_NONZERO, ()),
        ScanCell(2, 3, "sasakian", "cosymplectic", VERDICT_ZERO, ()),
        ScanCell(3, 2, "cosymplectic", "sasakian", VERDICT_ZERO, ()),
    )
    holding = scan(3, 3).cells
    assert all(p.holds for p in _propositions(holding))
    cells = holding[:40] + breaking[:3] + holding[40:50] + breaking[3:] + holding[50:]
    cosymplectic_only, unit_sasakian = _propositions(cells)
    assert cosymplectic_only.name == "cosymplectic-only"
    assert not cosymplectic_only.holds
    assert cosymplectic_only.counterexamples == breaking[:3] + breaking[5:]
    assert unit_sasakian.name == "unit-sasakian-cosymplectic"
    assert not unit_sasakian.holds
    assert unit_sasakian.counterexamples == breaking[3:]


def test_scan_without_propositions_for_other_conditions():
    report = scan(max_m1=1, max_m2=1, condition=Condition.GAUDUCHON)
    assert report.propositions == ()
    assert report.ok


def test_kind_names_are_stable():
    assert KINDS == ("sasakian", "kenmotsu", "cosymplectic", "trans-sasakian")
