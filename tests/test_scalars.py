"""Coefficient-ring laws and the quotient/substitution operations."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from astheno.algebra import UNIT_MONOMIAL, Form
from astheno.exprio import parse, print_text, to_record
from astheno.scalars import A1, A2, B1, B2, PARAMS, ZERO, Scalar

from conftest import param_values, rationals, scalars


@given(scalars(), scalars(), scalars())
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars())
def test_additive_inverse(x):
    assert x - x == ZERO
    assert x + (-x) == ZERO
    assert -(-x) == x


@given(scalars(), rationals)
def test_mixed_rational_arithmetic(x, c):
    assert x * c == x * Scalar.rational(c)
    assert x + c == x + Scalar.rational(c)
    assert c - x == Scalar.rational(c) - x


@given(scalars())
def test_reduce_idempotent_and_kills_mixed(x):
    reduced = x.reduce()
    assert reduced.reduce() == reduced
    for exps in reduced.terms:
        assert not (exps[0] and exps[1])
        assert not (exps[2] and exps[3])


def test_reduce_examples():
    assert (A1 * B1).reduce() == ZERO
    assert (A2 * B2 * A1).reduce() == ZERO
    # cross products survive
    assert (A1 * B2).reduce() == A1 * B2
    assert (A2 * B1).reduce() == A2 * B1


@given(scalars(), scalars())
def test_reduce_is_a_ring_map(x, y):
    # the ideal is monomial, so reducing before or after multiplying agrees
    assert (x * y).reduce() == (x.reduce() * y.reduce()).reduce()
    assert (x + y).reduce() == x.reduce() + y.reduce()


@given(scalars(), param_values)
def test_substitute_total_matches_evaluate(x, values):
    assert x.substitute(values) == x.evaluate(values)


@given(scalars(), rationals)
def test_substitute_partial_then_rest(x, v):
    part = x.substitute({"a1": v})
    assert "a1" not in part.params_present()
    rest = {name: Fraction(1) for name in PARAMS}
    assert part.evaluate(rest) == x.evaluate({**rest, "a1": v})


# zero pins take the filter path, nonzero integer and p/q pins multiply
_PINS = st.dictionaries(
    st.sampled_from(PARAMS), st.one_of(st.just(0), st.integers(-3, 3), rationals)
)


@given(scalars(max_terms=5), _PINS, param_values)
def test_substitute_mixed_pins_then_evaluate(x, pins, values):
    rest = {name: v for name, v in values.items() if name not in pins}
    assert x.substitute(pins).evaluate(rest) == x.evaluate({**pins, **rest})


def test_integral_coefficients_are_stored_as_int():
    exps = (1, 0, 0, 2)
    assert type(Scalar({exps: Fraction(4, 2)}).terms[exps]) is int
    assert type(Scalar({exps: Fraction(1, 2)}).terms[exps]) is Fraction
    assert type((Scalar({exps: Fraction(1, 2)}) * 2).terms[exps]) is int


@pytest.mark.parametrize(
    "text, printed, num, den", [("1/2", "1/2", 1, 2), ("-3", "-3", -3, 1), ("4/2", "2", 2, 1)]
)
def test_rational_literals_print_and_record_unchanged(text, printed, num, den):
    form = parse(text)
    [coeff] = form.terms[UNIT_MONOMIAL].terms.values()
    assert type(coeff) is (int if den == 1 else Fraction)
    assert print_text(form) == printed
    assert parse(printed) == form
    [entry] = to_record(form)["terms"][0]["coeff"]
    assert (entry["num"], entry["den"]) == (num, den)


@pytest.mark.parametrize(
    "key",
    [(0.5, -1), (1, 2), (0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0.5, 0), (True, 0, 0, 0),
     (0, -1, 0, 0), (0, 0, 0, Fraction(1)), "a1b1"],
)
def test_constructor_rejects_malformed_keys(key):
    with pytest.raises((TypeError, ValueError)):
        Scalar({key: 1})


@pytest.mark.parametrize("value", [0.1, 0.0, 2.0, True, False, "1", None])
def test_constructor_rejects_non_rational_coefficients(value):
    # a binary float would enter the ring as its exact expansion, a bool as 0 or 1
    with pytest.raises(TypeError):
        Scalar({(0, 0, 0, 0): value})
    with pytest.raises(TypeError):
        Scalar.rational(value)
    for op in (lambda: A1 + value, lambda: A1 - value, lambda: A1 * value, lambda: value * A1):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("value", [0.1, 0.0, 2.0, True, False, 0.5, "1/2"])
def test_substitute_rejects_non_rational_pins(value):
    with pytest.raises(TypeError):
        A1.substitute({"a1": value})
    with pytest.raises(TypeError):
        (A1 * B2).substitute({"a1": 1, "b2": value})
    # a form checks its pins once, whether or not it has a coefficient to pin
    for form in (Form.zero(), Form.from_scalar(A1 * B2)):
        with pytest.raises(TypeError):
            form.substitute({"a1": 1, "b2": value})
    # evaluate keeps its own arithmetic but follows the same pin policy
    with pytest.raises(TypeError):
        (A1 * A1 + B1).evaluate({"a1": value, "b1": 1})


def test_substitute_takes_int_and_fraction_pins():
    assert A1.substitute({"a1": Fraction(1, 2)}) == Fraction(1, 2)
    assert A1.substitute({"a1": Fraction(4, 2)}).terms == {(0, 0, 0, 0): 2}
    assert (A1 + B2).substitute({"a1": 0}) == B2


def test_substitute_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        A1.substitute({"gamma": 1})
    for form in (Form.zero(), Form.from_scalar(A1)):
        with pytest.raises(ValueError, match="unknown parameter 'zz'"):
            form.substitute({"zz": 1})
    with pytest.raises(ValueError, match="unknown parameter 'zz'"):
        (A1 * A1 + B1).evaluate({"a1": 1, "b1": 1, "zz": 1})
    with pytest.raises(ValueError, match="unknown parameter 'zz'"):
        A1.identify("a1", "zz")
    with pytest.raises(ValueError, match="unknown parameter 'zz'"):
        A1.identify("zz", "a1")


def test_evaluate_requires_present_params():
    with pytest.raises(ValueError):
        (A1 * B2).evaluate({"a1": 1})


@given(scalars(), param_values)
def test_identify_matches_substitution(x, values):
    # imposing b1 = -b2 then evaluating equals evaluating at b1 := -b2
    tied = x.identify("b1", "b2", -1)
    assert "b1" not in tied.params_present()
    pinned = dict(values)
    pinned["b1"] = -pinned["b2"]
    assert tied.evaluate(values) == x.evaluate(pinned)


def test_identify_rejects_same_param():
    with pytest.raises(ValueError):
        A1.identify("a1", "a1")
    # a sign other than the int 1 or -1 would put a float in the ring or tie a1 = 2*a2
    for sign in (0.5, 2, -2, 0, True, False, 1.0, Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError, match="sign must be"):
            (A1 * A1).identify("a1", "a2", sign)


@given(scalars())
def test_zero_detection_consistent(x):
    assert x.is_zero == (not bool(x)) == (x == ZERO)


def test_degrees_and_params_present():
    s = 2 * A1 * A1 * B2 + B1
    assert s.params_present() == {"a1", "b2", "b1"}
    assert {sum(exps) for exps in s.terms} == {3, 1}
    assert ZERO.params_present() == frozenset()
