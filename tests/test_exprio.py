"""Parser, printers, and the JSON record codec."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astheno.algebra import ETA1, Form, Monomial
from astheno.audit import random_form
from astheno.exprio import (
    MAX_NESTING,
    MAX_WORK,
    ParseError,
    RecordError,
    from_record,
    parse,
    print_latex,
    print_text,
    to_record,
)
from astheno.scalars import Scalar

from conftest import forms


@given(forms())
@settings(max_examples=80)
def test_parse_print_round_trip(x):
    assert parse(print_text(x)) == x


@given(forms())
@settings(max_examples=80)
def test_record_round_trip(x):
    assert from_record(to_record(x)) == x


def test_round_trip_on_seeded_corpus():
    rng = random.Random(99)
    for _ in range(50):
        x = random_form(rng)
        assert parse(print_text(x)) == x
        assert from_record(to_record(x)) == x


def test_wedge_spellings_agree():
    assert parse(r"2*eta1/\eta2") == parse("2*eta1 /\\ eta2") == parse("2 * eta1 * eta2")


def test_parse_examples():
    assert parse("0").is_zero
    assert parse(r"eta1/\eta1").is_zero
    omega = parse(r"Phi1 + Phi2 - 2*eta1/\eta2")
    assert {m.degree() for m in omega.terms} == {2}
    assert parse("(a1 - b2)*Phi1^2") == parse(r"a1*Phi1/\Phi1 - b2*Phi1^2")
    assert parse("-1/2*eta2") == parse("(-1/2)*eta2")


def test_print_text_golden():
    from astheno.calculus import kahler_form

    assert print_text(Form.zero()) == "0"
    assert print_text(kahler_form()) == r"Phi2 + Phi1 - 2*eta1/\eta2"
    assert print_text(-1 * ETA1) == "-1*eta1"
    from fractions import Fraction

    half = Form.monomial(Monomial(0, 0, 2, 0), Scalar({(1, 0, 0, 0): Fraction(1, 2)}))
    assert print_text(half) == "1/2*a1*Phi1^2"


def test_print_latex_golden():
    from astheno.calculus import kahler_form

    assert print_latex(Form.zero()) == "0"
    assert (
        print_latex(kahler_form())
        == r"\Phi_2 + \Phi_1 - 2\,\eta_1\wedge\eta_2"
    )
    mixed = Form.monomial(Monomial(1, 1, 1, 0), Scalar({(0, 2, 0, 1): 3}))
    assert print_latex(mixed) == r"3\beta_1^2\beta_2\,\eta_1\wedge\eta_2\wedge\Phi_1"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "eta1 +",
        "eta3",
        "Phi1^",
        "Phi1^-2",
        "2**eta1",
        "(eta1",
        "eta1)",
        "1/0",
        "a1 a2",
        r"/\eta1",
        "eta1 @ eta2",
        "-(1/2)*eta2",  # signs belong to rationals, not groups
        "²",  # digits are ASCII only
        "Phi1^²",
        "1/²",
        "١",
        pytest.param("1" * 5000, id="long-numerator"),
        pytest.param("1/" + "1" * 5000, id="long-denominator"),
        pytest.param("Phi1^" + "1" * 5000, id="long-exponent"),
    ],
)
def test_parse_rejects_bad_text(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_takes_huge_exponents():
    n = 9999999
    start = time.perf_counter()
    assert parse(f"Phi1^{n}") == Form.monomial(Monomial(0, 0, n, 0))
    assert parse(f"a1^{n}") == Form.from_scalar(Scalar({(n, 0, 0, 0): 1}))
    assert parse(f"eta2^{n}").is_zero
    assert time.perf_counter() - start < 1.0


def test_parse_limits_nesting():
    deepest = "(" * MAX_NESTING + "eta1" + ")" * MAX_NESTING
    assert parse(deepest) == ETA1
    with pytest.raises(ParseError) as info:
        parse("(" + deepest + ")")
    assert info.value.col == 1 + MAX_NESTING


def test_parse_limits_work():
    # a coefficient of 200 words (2^12736 has 12737 bits) weighs 200 terms
    big = str(2**12736)
    fits = MAX_WORK // 200

    def product(terms):
        return f"{big}*(" + "+".join(f"b1^{i}" for i in range(1, terms + 1)) + ")"

    assert len(parse(product(fits)).terms[Monomial(0, 0, 0, 0)].terms) == fits
    with pytest.raises(ParseError) as info:
        parse(product(fits + 1))
    assert "expression too large" in str(info.value)
    assert info.value.col == len(big) + 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("eta1 + @")
    assert info.value.line == 1
    assert info.value.col == 8


@pytest.mark.parametrize(
    "record",
    [
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
        {
            "terms": [
                {
                    "eta1": True, "eta2": 0, "phi1": 0, "phi2": 0,
                    "coeff": [{"a1": 0, "b1": 0, "a2": 0, "b2": 0, "num": 1, "den": 1}],
                }
            ]
        },
        # records built in Python, which JSON text cannot express: unknown
        # keys of mixed types, and an int past the 4300-digit str limit
        {"terms": [], 1: 0, "x": 0},
        {
            "terms": [
                {
                    "eta1": 10**5000, "eta2": 0, "phi1": 0, "phi2": 0,
                    "coeff": [{"a1": 0, "b1": 0, "a2": 0, "b2": 0, "num": 1, "den": 1}],
                }
            ]
        },
        # binary floats and bools are not integers of the record schema
        *(
            {
                "terms": [
                    {
                        "eta1": 0, "eta2": 0, "phi1": 0, "phi2": 0,
                        "coeff": [{"a1": 0, "b1": 0, "a2": 0, "b2": 0, **bad}],
                    }
                ]
            }
            for bad in (
                {"num": 0.5, "den": 1},
                {"num": 1.0, "den": 1},
                {"num": True, "den": 1},
                {"num": 1, "den": 2.0},
                {"num": 1, "den": True},
            )
        ),
    ],
)
def test_from_record_rejects_bad_records(record):
    with pytest.raises(RecordError):
        from_record(record)


def test_record_error_reports_path():
    bad = {"terms": [{"eta1": 3, "eta2": 0, "phi1": 0, "phi2": 0, "coeff": []}]}
    with pytest.raises(RecordError) as info:
        from_record(bad)
    assert "$.terms[0]" in str(info.value)


# bounded fuzzing: any text, and any JSON value, ends in a result or the
# module's own error
_GRAMMAR_TEXT = st.text(alphabet="0123456789²١ ab12etaPhi+-*/\\^()", max_size=40)


@given(st.one_of(st.text(max_size=40), _GRAMMAR_TEXT))
@settings(max_examples=200)
def test_parse_is_total(text):
    try:
        assert isinstance(parse(text), Form)
    except ParseError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _slots(node):
    """Every (container, key) pair inside a record."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def _mutated_records(draw):
    record = to_record(draw(forms()))
    container, key = draw(st.sampled_from(list(_slots(record))))
    if draw(st.booleans()):
        container[key] = draw(_JSON)
    else:
        del container[key]
    if isinstance(container, dict) and draw(st.booleans()):
        container[draw(st.text(max_size=6))] = draw(_JSON)
    return record


@given(st.one_of(_JSON, _mutated_records()))
@settings(max_examples=200)
def test_from_record_is_total(value):
    try:
        assert isinstance(from_record(value), Form)
    except RecordError:
        pass
