"""Graded-commutative algebra laws, truncation, and geometry bookkeeping."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from astheno import algebra
from astheno.algebra import (
    ETA1,
    ETA2,
    PHI1,
    PHI2,
    Form,
    Monomial,
    ProductGeometry,
)
from astheno.scalars import A1, Scalar

from conftest import exponent_tuples, forms, monomials, nonzero_rationals, scalars

GEOMETRIES = [ProductGeometry(m1, m2) for m1 in (1, 2, 3) for m2 in (1, 2, 3)]


def test_monomial_degree_and_validation():
    assert Monomial(1, 1, 2, 3).degree() == 12
    assert Monomial(0, 0, 0, 0).degree() == 0
    with pytest.raises(ValueError):
        Monomial(2, 0, 0, 0).validate()
    with pytest.raises(ValueError):
        Monomial(0, 0, -1, 0).validate()
    for key in ((0, 0, 0.5, 0), (True, 0, 0, 0), (0, 0, 1.0, 0)):
        with pytest.raises(TypeError):
            Form({key: 1})


def test_geometry_validation():
    with pytest.raises(ValueError):
        ProductGeometry(0, 1)
    with pytest.raises(ValueError):
        ProductGeometry(1, 0)
    # a float half-dimension would make m a float and fail deep in math.comb
    for m1, m2 in ((1.5, 2), (2.0, 2), (True, 2), (2, False), ("2", 2)):
        with pytest.raises(TypeError):
            ProductGeometry(m1, m2)
    # a non-bool switch would truncate by its truthiness
    for truncate in ("no", 1, 0, None):
        with pytest.raises(TypeError):
            ProductGeometry(1, 1, truncate)
    geom = ProductGeometry(2, 3)
    assert geom.m == 6
    assert geom.untruncated().truncate is False


def test_admits_keeps_volume_form():
    geom = ProductGeometry(1, 2)
    assert geom.admits(Monomial(1, 1, 1, 2))
    assert not geom.admits(Monomial(0, 0, 2, 0))
    assert not geom.admits(Monomial(0, 0, 0, 3))
    free = geom.untruncated()
    assert free.admits(Monomial(0, 0, 9, 9))


def test_odd_generators_square_to_zero():
    assert ETA1.wedge(ETA1).is_zero
    assert ETA2.wedge(ETA2).is_zero
    assert not PHI1.wedge(PHI1).is_zero


@given(monomials(max_pq=2), monomials(max_pq=2), scalars(), scalars())
def test_graded_commutativity(m1, m2, s1, s2):
    x = Form.monomial(m1, s1)
    y = Form.monomial(m2, s2)
    sign = -1 if (m1.degree() % 2) and (m2.degree() % 2) else 1
    assert x.wedge(y) == sign * y.wedge(x)


@given(forms(max_monos=2, max_pq=2), forms(max_monos=2, max_pq=2),
       forms(max_monos=2, max_pq=2))
def test_wedge_associative_and_bilinear(x, y, z):
    assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
    assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)


@given(forms())
def test_unit_and_zero(x):
    assert Form.one().wedge(x) == x
    assert x.wedge(Form.one()) == x
    assert Form.zero().wedge(x).is_zero


def test_form_times_form_raises():
    with pytest.raises(TypeError):
        ETA1 * ETA2  # wedge is deliberately not spelled *


@pytest.mark.parametrize("value", [A1 - 2, Scalar.rational(3), ETA1 - PHI1, Form.from_scalar(A1)])
def test_sparse_core_keeps_the_receivers_class(value):
    # a subclass that forgets __slots__ = () gives every coefficient a __dict__
    assert not hasattr(value, "__dict__")
    cls = type(value)
    for made in (cls._of(dict(value.terms)), cls.zero(), -value):
        assert type(made) is cls
    assert cls._of(dict(value.terms)) == value
    assert cls.zero() == cls() and not cls.zero() and cls.zero().is_zero
    assert -(-value) == value and (value + -value).is_zero


@given(forms(max_monos=2, max_pq=2), st.integers(0, 4))
def test_power_matches_repeated_wedge(x, k):
    expected = Form.one()
    for _ in range(k):
        expected = expected.wedge(x)
    assert x.power(k) == expected


@st.composite
def words(draw):
    """One canonical word with a one-term coefficient: power's fast path."""
    scalar = Scalar({draw(exponent_tuples): draw(nonzero_rationals)})
    return Form.monomial(draw(monomials(max_pq=2)), scalar)


@given(words(), st.integers(0, 6), st.sampled_from([None] + GEOMETRIES))
def test_word_power_matches_repeated_wedge(x, k, geom):
    expected = Form.one()
    for _ in range(k):
        expected = expected.wedge(x, geom)
    assert x.power(k, geom) == expected


def test_word_power_takes_huge_exponents():
    n = 10**7
    start = time.perf_counter()
    assert PHI1.power(n) == Form.monomial(Monomial(0, 0, n, 0))
    assert Form.from_scalar(A1).power(n) == Form.from_scalar(Scalar({(n, 0, 0, 0): 1}))
    assert ETA1.power(n).is_zero
    assert PHI2.power(n, ProductGeometry(3, 3)).is_zero
    assert time.perf_counter() - start < 1.0


def test_power_loop_is_bounded():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="power too large"):
        (PHI1 + PHI2).power(10**6)
    # one word whose coefficient grows is charged as well
    with pytest.raises(ValueError, match="power too large"):
        Form.from_scalar(A1 + 1).power(10**6)
    # a power that reaches zero stops there
    assert (ETA1 + ETA2).power(10**9).is_zero
    assert time.perf_counter() - start < 1.0


def test_word_power_charges_coefficient_growth(monkeypatch):
    three = Form.from_scalar(Scalar.rational(3))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="power too large"):
        three.power(10**7)
    with pytest.raises(ValueError, match="power too large"):
        (PHI1 * Fraction(1, 3)).power(10**7)
    assert three.power(10**6) == Form.from_scalar(Scalar.rational(3**10**6))
    # coefficients 1 and -1 do not grow
    assert (PHI1 * -1).power(10**9 + 1) == Form.monomial(Monomial(0, 0, 10**9 + 1, 0), -1)
    assert Form.from_scalar(Scalar.rational(-1)).power(10**9) == Form.one()
    assert time.perf_counter() - start < 1.0
    # both sides of the bound: 3 is 2 + 1 bits of numerator and denominator,
    # so 3^k is charged 3k // 64 words
    monkeypatch.setattr(algebra, "MAX_WORK", 100)
    assert three.power(2154) == Form.from_scalar(Scalar.rational(3**2154))
    with pytest.raises(ValueError, match="power too large"):
        three.power(2155)


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        PHI1.power(-1)


def test_power_takes_only_int_exponents():
    # True would act as 1, 2.0 would fail later on the exponent keys
    for exponent in (True, False, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match="exponent must be an int"):
            PHI1.power(exponent)


@given(forms(), st.sampled_from(GEOMETRIES))
def test_truncate_projects_and_is_idempotent(x, geom):
    cut = x.truncate(geom)
    assert cut.truncate(geom) == cut
    for mono in cut.terms:
        assert geom.admits(mono)


@given(forms(max_monos=2, max_pq=2), forms(max_monos=2, max_pq=2),
       st.sampled_from(GEOMETRIES))
def test_truncation_ideal_absorbs_products(x, y, geom):
    # wedging inside the geometry equals wedging freely then projecting
    assert x.wedge(y, geom) == x.wedge(y).truncate(geom)


@given(forms())
def test_reduce_matches_scalar_reduce(x):
    reduced = x.reduce()
    for mono, coeff in reduced.terms.items():
        assert coeff == x.terms[mono].reduce()


def test_degree_bookkeeping():
    omega = PHI1 + PHI2 - 2 * ETA1.wedge(ETA2)
    assert {m.degree() for m in omega.terms} == {2}
    mixed = ETA1 + PHI1
    assert {m.degree() for m in mixed.terms} == {1, 2}


def test_a_zero_pin_drops_its_terms():
    form = Form.monomial(Monomial(1, 0, 1, 0), A1 * 4)
    pinned = form.substitute({"a1": 0})
    assert pinned.is_zero


@given(forms(), scalars())
def test_scalar_multiplication_distributes(x, s):
    lifted = Form.from_scalar(s)
    assert lifted.wedge(x) == x.map_scalars(lambda c: s * c)
