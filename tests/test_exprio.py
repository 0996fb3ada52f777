"""Parser, printers, and the JSON record codec."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astheno.algebra import ETA1, ETA2, Form, Monomial
from astheno.audit import random_form
from astheno.calculus import kahler_form
from astheno.exprio import (
    MAX_NESTING,
    MAX_WORK,
    ParseError,
    RecordError,
    _tokenize,
    from_record,
    parse,
    print_latex,
    print_text,
    to_record,
)
from astheno.scalars import A1, A2, B1, B2, Scalar

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


_U = Monomial(0, 0, 0, 0)
_ETA1_PHI1 = Monomial(1, 0, 1, 0)

# (form, grammar text, LaTeX): one row per branch of the printers
_PRINTED = [
    pytest.param(Form.zero(), "0", "0", id="zero"),
    pytest.param(Form.one(), "1", "1", id="one"),
    pytest.param(Form.from_scalar(-1), "-1", "-1", id="minus-one"),
    pytest.param(Form.from_scalar(Fraction(-1, 2)), "-1/2", r"-\frac{1}{2}", id="minus-half"),
    pytest.param(ETA1, "eta1", r"\eta_1", id="unit-word"),
    pytest.param(-1 * ETA1, "-1*eta1", r"-\eta_1", id="minus-unit-word"),
    pytest.param(ETA2 - ETA1, "eta2 - 1*eta1", r"\eta_2 - \eta_1", id="minus-unit-joined"),
    pytest.param(Form.from_scalar(-A1), "-1*a1", r"-\alpha_1", id="minus-param"),
    pytest.param(
        Form.monomial(Monomial(0, 0, 1, 0), -A1 * B2),
        "-1*a1*b2*Phi1", r"-\alpha_1\beta_2\,\Phi_1", id="minus-param-word",
    ),
    pytest.param(
        Form.monomial(Monomial(0, 1, 0, 0), Fraction(-1, 2)),
        "-1/2*eta2", r"-\frac{1}{2}\,\eta_2", id="signed-fraction",
    ),
    pytest.param(
        Form.monomial(Monomial(0, 0, 2, 0), Scalar({(1, 0, 0, 0): Fraction(1, 2)})),
        "1/2*a1*Phi1^2", r"\frac{1}{2}\alpha_1\,\Phi_1^2", id="fraction-param",
    ),
    pytest.param(
        Form.monomial(Monomial(0, 0, 9, 0), Scalar({(0, 0, 9, 0): 1})),
        "a2^9*Phi1^9", r"\alpha_2^9\,\Phi_1^9", id="exponent-9",
    ),
    pytest.param(
        Form.monomial(Monomial(0, 0, 0, 10), Scalar({(10, 0, 0, 0): -3})),
        "-3*a1^10*Phi2^10", r"-3\alpha_1^{10}\,\Phi_2^{10}", id="exponent-10",
    ),
    pytest.param(
        Form.monomial(_ETA1_PHI1, -B2 + A1 - A1 * A2),
        r"(-1*b2 + a1 - 1*a1*a2)*eta1/\Phi1",
        r"\left(-\beta_2 + \alpha_1 - \alpha_1\alpha_2\right)\,\eta_1\wedge\Phi_1",
        id="group-negative-first",
    ),
    pytest.param(
        Form({_U: A1 - B1 * B1, Monomial(0, 0, 1, 0): 1, Monomial(1, 1, 0, 0): Fraction(-2, 3)}),
        r"(-1*b1^2 + a1) + Phi1 - 2/3*eta1/\eta2",
        r"\left(-\beta_1^2 + \alpha_1\right) + \Phi_1 - \frac{2}{3}\,\eta_1\wedge\eta_2",
        id="group-constant",
    ),
    pytest.param(
        kahler_form(), r"Phi2 + Phi1 - 2*eta1/\eta2", r"\Phi_2 + \Phi_1 - 2\,\eta_1\wedge\eta_2",
        id="kahler",
    ),
    pytest.param(
        Form.monomial(Monomial(1, 1, 1, 0), Scalar({(0, 2, 0, 1): 3})),
        r"3*b1^2*b2*eta1/\eta2/\Phi1",
        r"3\beta_1^2\beta_2\,\eta_1\wedge\eta_2\wedge\Phi_1",
        id="mixed",
    ),
]


@pytest.mark.parametrize("form, text, latex", _PRINTED)
def test_print_text_golden(form, text, latex):
    assert print_text(form) == text
    assert parse(text) == form


@pytest.mark.parametrize("form, text, latex", _PRINTED)
def test_print_latex_golden(form, text, latex):
    assert print_latex(form) == latex


@pytest.mark.parametrize(
    "value, text",
    [
        pytest.param(
            Form({_U: A1 - B1 * B1, _ETA1_PHI1: Fraction(-1, 2) * A2}),
            r"Form((-1*b1^2 + a1) - 1/2*a2*eta1/\Phi1)",
            id="Form",
        ),
        pytest.param(A1 - Fraction(1, 3) * B2 * B2, "Scalar((-1/3*b2^2 + a1))", id="Scalar"),
    ],
)
def test_repr_is_grammar_text(value, text):
    assert repr(value) == text
    inner = text[text.index("(") + 1 : -1]
    assert parse(inner) == (value if isinstance(value, Form) else Form.from_scalar(value))


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(Form({_ETA1_PHI1: Fraction(1, 10**5000) * A1}), id="Form"),
        pytest.param(Scalar({(0, 0, 0, 0): 10**5000}), id="Scalar"),
    ],
)
def test_repr_survives_the_int_digit_limit(value):
    # print_text raises ValueError past the interpreter's int-to-str limit
    with pytest.raises(ValueError):
        print_text(value if isinstance(value, Form) else Form.from_scalar(value))
    assert repr(value) == f"<{type(value).__name__} too long to print>"


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


@pytest.mark.parametrize("summand", ["a1^{}", "Phi1^{}"])
def test_parse_long_sums_in_linear_time(summand):
    # 30 000 summands, about 0.25-0.3 MB: one coefficient of 30 000 terms, or
    # 30 000 words.  Linear time is about 1 s on 2 shared vCPUs; quadratic
    # time, one copy of the running total per summand, is 7-10 s there
    n = 30_000
    text = "+".join(summand.format(i) for i in range(1, n + 1))
    start = time.perf_counter()
    form = parse(text)
    assert time.perf_counter() - start < 3.0
    assert sum(len(scalar.terms) for scalar in form.terms.values()) == n
    assert parse(f"{text} - ({text})").is_zero
    assert parse("a1 - a1 + 2*b1*eta1 - 3*b1*eta1 - eta1") == parse("-1*(b1 + 1)*eta1")


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


_WHITESPACE = " \t\r\n"


@given(st.one_of(st.text(max_size=40),
                 st.text(alphabet="0123456789²١é_ \t\r\nab12etaPhi+-*/\\^()", max_size=40)))
@settings(max_examples=300)
def test_tokens_locate_their_text(text):
    lines = text.split("\n")
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        # the first character that is neither whitespace nor part of a token
        offset = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.col - 1
        assert text[offset] not in _WHITESPACE
        _tokenize(text[:offset])
        with pytest.raises(ParseError):
            _tokenize(text[offset])
        return
    assert "".join(tok.text for tok in tokens) == "".join(
        ch for ch in text if ch not in _WHITESPACE
    )
    for tok in tokens[:-1]:
        assert lines[tok.line - 1][tok.col - 1:].startswith(tok.text)
        # a name starts with a letter, and a number is ASCII digits
        assert tok.text[0].isalpha() if tok.kind == "IDENT" else tok.text.isascii()
    assert tokens[-1][1:] == ("", len(lines), len(lines[-1]) + 1)


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
