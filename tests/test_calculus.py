"""Differential rules, the rotation J, and the condition tensors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from astheno import calculus
from astheno.algebra import ETA1, ETA2, PHI1, PHI2, Form, Monomial, ProductGeometry
from astheno.calculus import (
    Condition,
    Convention,
    InternalInconsistencyError,
    _ddc,
    _displays,
    _kahler_power,
    _tensor,
    astheno_expansion,
    condition_tensor,
    d_c,
    exterior_d,
    j_action,
    kahler_form,
    wedge_identity_check,
)
from astheno.scalars import A1, A2, B1, B2, PARAMS, Scalar
from astheno import fixtures
from astheno.classify import scan
from astheno.cli import MAX_HALF_DIM
from astheno.exprio import parse

from conftest import forms, monomials, param_values, rationals, scalars


def test_generator_rules():
    assert exterior_d(ETA1) == Form.monomial(Monomial(0, 0, 1, 0), A1)
    assert exterior_d(ETA2) == Form.monomial(Monomial(0, 0, 0, 1), A2)
    assert exterior_d(PHI1) == Form.monomial(Monomial(1, 0, 1, 0), 2 * B1)
    assert exterior_d(PHI2) == Form.monomial(Monomial(0, 1, 0, 1), 2 * B2)
    # generator rules are convention-independent
    for gen in (ETA1, ETA2, PHI1, PHI2):
        assert exterior_d(gen) == exterior_d(gen, Convention.UNGRADED)


@given(monomials(max_pq=2), monomials(max_pq=2), scalars(), scalars())
def test_graded_leibniz(m1, m2, s1, s2):
    x = Form.monomial(m1, s1)
    y = Form.monomial(m2, s2)
    sign = -1 if m1.degree() % 2 else 1
    lhs = exterior_d(x.wedge(y))
    rhs = exterior_d(x).wedge(y) + sign * x.wedge(exterior_d(y))
    assert lhs == rhs


@given(forms(max_monos=3, max_pq=3))
@settings(max_examples=60)
def test_d_squared_vanishes_after_reduction(x):
    assert exterior_d(exterior_d(x)).reduce().is_zero


def test_d_squared_residual_is_the_ideal():
    assert exterior_d(exterior_d(ETA1)) == Form.monomial(
        Monomial(1, 0, 1, 0), 2 * A1 * B1
    )
    assert exterior_d(exterior_d(ETA2)) == Form.monomial(
        Monomial(0, 1, 0, 1), 2 * A2 * B2
    )


def test_d_respects_truncation():
    # d(eta1 /\ Phi1) = a1 * Phi1^2 overflows the p <= 1 bound
    geom = ProductGeometry(1, 1)
    form = Form.monomial(Monomial(1, 0, 1, 0))
    free = exterior_d(form)
    assert not free.is_zero
    assert exterior_d(form, geom=geom) == free.truncate(geom)
    assert exterior_d(form, geom=geom).is_zero


def test_j_generator_action_and_involution():
    assert j_action(ETA1) == ETA2
    assert j_action(ETA2) == -1 * ETA1
    assert j_action(PHI1) == PHI1
    assert j_action(PHI2) == PHI2
    assert j_action(j_action(ETA1)) == -1 * ETA1
    assert j_action(ETA1.wedge(ETA2)) == ETA1.wedge(ETA2)


@given(forms(max_monos=2, max_pq=2), forms(max_monos=2, max_pq=2))
def test_j_is_an_algebra_automorphism(x, y):
    assert j_action(x.wedge(y)) == j_action(x).wedge(j_action(y))
    assert j_action(x + y) == j_action(x) + j_action(y)


def test_j_fixes_the_fundamental_form():
    omega = kahler_form()
    assert j_action(omega) == omega


@given(forms(max_monos=2, max_pq=2))
def test_dc_is_rotation_of_d(x):
    for conv in Convention:
        assert d_c(x, conv) == j_action(exterior_d(x, conv))


@pytest.mark.parametrize("convention", list(Convention))
def test_displays_are_built_once_and_read_only(convention):
    first = _displays(convention)
    assert _displays(convention) is first
    assert dict(_displays(Convention(convention.value))) == dict(first)
    with pytest.raises(TypeError):
        first["d_omega"] = Form.zero()


def test_reference_displays_reproduce_ungraded():
    omega = kahler_form()
    conv = Convention.UNGRADED
    d_omega = exterior_d(omega, conv)
    dc_omega = d_c(omega, conv)
    assert d_omega == fixtures.equation_form("d_omega")
    assert dc_omega == fixtures.equation_form("dc_omega")
    assert exterior_d(dc_omega, conv) == fixtures.equation_form("ddc_omega")
    assert d_omega.wedge(dc_omega) == fixtures.equation_form("d_wedge_dc")
    assert exterior_d(dc_omega, conv).wedge(omega) == fixtures.equation_form(
        "ddc_wedge_omega"
    )


def test_wedge_identity_check_by_convention():
    ungraded = wedge_identity_check(Convention.UNGRADED)
    assert all(matched for _, matched, _ in ungraded)
    graded = wedge_identity_check(Convention.GRADED)
    assert not all(matched for _, matched, _ in graded)
    for _, matched, diff in graded + ungraded:
        assert matched == diff.is_zero


def test_expansion_identity_graded():
    for k in (2, 3, 4):
        omega_k = kahler_form().power(k)
        direct = exterior_d(d_c(omega_k, Convention.GRADED), Convention.GRADED)
        assert direct == astheno_expansion(k, Convention.GRADED), k


def test_expansion_rejects_small_power():
    with pytest.raises(ValueError):
        astheno_expansion(1, Convention.GRADED)


def test_condition_tensor_dispatch():
    geom = ProductGeometry(1, 1)
    omega = kahler_form()
    skt = condition_tensor(Condition.SKT, geom)
    assert skt == exterior_d(d_c(omega, geom=geom), geom=geom)
    # m = 3: astheno and skt coincide, gauduchon is one power higher
    assert condition_tensor(Condition.ASTHENO, geom) == skt
    gauduchon = condition_tensor(Condition.GAUDUCHON, geom)
    assert gauduchon == exterior_d(
        d_c(omega.power(2, geom), geom=geom), geom=geom
    )


def test_condition_tensor_accepts_strings():
    geom = ProductGeometry(2, 1)
    assert condition_tensor("skt", geom, "ungraded") == condition_tensor(
        Condition.SKT, geom, Convention.UNGRADED
    )
    with pytest.raises(ValueError):
        condition_tensor("pluriclosed-ish", geom)


def _wedge_expansion(k, convention, geom=None):
    """The expansion identity as one wedge, the reference for astheno_expansion."""
    displays = _displays(convention)
    bracket = displays["ddc_wedge_omega"] + (k - 1) * displays["d_wedge_dc"]
    return (k * bracket).wedge(_kahler_power(k - 2, geom), geom)


def _reference_tensor(kind, geom, convention):
    """A condition tensor by a route other than the builder's: d d_c Omega^k
    directly, except astheno under the ungraded rule, which the expansion
    defines, taken here as one wedge."""
    k = {Condition.SKT: 1, Condition.ASTHENO: geom.m - 2, Condition.GAUDUCHON: geom.m - 1}[kind]
    if kind is Condition.ASTHENO and k >= 2 and convention is Convention.UNGRADED:
        return _wedge_expansion(k, convention, geom)
    return _ddc(_kahler_power(k, geom), convention, geom)


def test_astheno_ungraded_takes_the_expansion_route():
    geom = ProductGeometry(2, 2).untruncated()
    tensor = condition_tensor(Condition.ASTHENO, geom, Convention.UNGRADED)
    assert tensor == _wedge_expansion(geom.m - 2, Convention.UNGRADED, geom)
    # the ungraded rule is no derivation: the direct value is another form
    assert tensor != _ddc(_kahler_power(geom.m - 2, geom), Convention.UNGRADED, geom)


@pytest.mark.parametrize("convention", list(Convention))
def test_expansion_matches_the_wedge_at_every_power(convention):
    for m1 in range(1, 9):
        for m2 in range(1, 9):
            for geom in (ProductGeometry(m1, m2), ProductGeometry(m1, m2, False), None):
                for k in range(2, m1 + m2 + 3):
                    expected = _wedge_expansion(k, convention, geom)
                    assert astheno_expansion(k, convention, geom) == expected, (geom, k)


def test_guard_fires_when_the_routes_disagree(monkeypatch):
    geom = ProductGeometry(3, 3)
    extra = Form.monomial(Monomial(0, 0, 3, 3), A1)
    expansion = calculus.astheno_expansion

    def patched(k, convention, geom=None):
        return expansion(k, convention, geom) + extra

    monkeypatch.setattr(calculus, "astheno_expansion", patched)
    with pytest.raises(InternalInconsistencyError):
        condition_tensor(Condition.ASTHENO, geom)
    ungraded = condition_tensor(Condition.ASTHENO, geom, Convention.UNGRADED)
    assert ungraded == expansion(geom.m - 2, Convention.UNGRADED, geom) + extra
    # scan takes the builder without the guard
    scan(3, 3)


@pytest.mark.parametrize("truncate", (True, False))
def test_kahler_power_closed_form_matches_repeated_wedge(truncate):
    omega = kahler_form()
    for m1 in range(1, 9):
        for m2 in range(1, 9):
            geom = ProductGeometry(m1, m2, truncate)
            for k in range(m1 + m2 + 3):
                assert _kahler_power(k, geom) == omega.power(k, geom), (geom, k)
    for k in range(10):
        assert _kahler_power(k) == omega.power(k), k


# printed by the engine that built Omega^k with Form.power, at m1 = m2 = 50
_TENSORS_AT_50 = {
    ("skt", "graded"): (
        r"2*a2^2*Phi2^2 + (2*b1*a2 - 2*a1*b2)*Phi1/\Phi2 + 2*a1^2*Phi1^2"
        r" + 4*b2^2*eta1/\eta2/\Phi2 + 4*b1^2*eta1/\eta2/\Phi1"
    ),
    ("skt", "ungraded"): (
        r"-2*a2^2*Phi2^2 + (2*b1*a2 - 2*a1*b2)*Phi1/\Phi2 + 2*a1^2*Phi1^2"
        r" - 4*b2^2*eta1/\eta2/\Phi2 - 4*b1^2*eta1/\eta2/\Phi1"
    ),
    ("astheno", "graded"): (
        r"(4943675882732645473405812365544*a2^2"
        r" + 5044567227278209666740624862800*b1*a2"
        r" - 5044567227278209666740624862800*a1*b2"
        r" + 4943675882732645473405812365544*a1^2)*Phi1^50/\Phi2^50"
        r" + (504456722727820966674062486280000*b2^2"
        r" + 494367588273264547340581236554400*b1*a2"
        r" + 484480236507799256393769611823312*b1^2"
        r" - 494367588273264547340581236554400*a1*b2)"
        r"*eta1/\eta2/\Phi1^49/\Phi2^50"
        r" + (484480236507799256393769611823312*b2^2"
        r" + 494367588273264547340581236554400*b1*a2"
        r" + 504456722727820966674062486280000*b1^2"
        r" - 494367588273264547340581236554400*a1*b2)"
        r"*eta1/\eta2/\Phi1^50/\Phi2^49"
    ),
    ("astheno", "ungraded"): (
        r"(-4943675882732645473405812365544*a2^2"
        r" + 5044567227278209666740624862800*b1*a2"
        r" - 5044567227278209666740624862800*a1*b2"
        r" + 4943675882732645473405812365544*a1^2)*Phi1^50/\Phi2^50"
        r" + (484278453818708128007099986828800*b2^2"
        r" + 988735176546529094681162473108800*a2^2"
        r" - 1483102764819793642021743709663200*b1*a2"
        r" + 464705532976868674500146362361136*b1^2"
        r" - 494367588273264547340581236554400*a1*b2)"
        r"*eta1/\eta2/\Phi1^49/\Phi2^50"
        r" + (464705532976868674500146362361136*b2^2"
        r" + 949185769484667930893915974184448*a2^2"
        r" - 1483102764819793642021743709663200*b1*a2"
        r" + 484278453818708128007099986828800*b1^2"
        r" - 494367588273264547340581236554400*a1*b2)"
        r"*eta1/\eta2/\Phi1^50/\Phi2^49"
    ),
    ("gauduchon", "graded"): (
        r"(1008913445455641933348124972560000*b2^2"
        r" + 1008913445455641933348124972560000*b1*a2"
        r" + 1008913445455641933348124972560000*b1^2"
        r" - 1008913445455641933348124972560000*a1*b2)"
        r"*eta1/\eta2/\Phi1^50/\Phi2^50"
    ),
    ("gauduchon", "ungraded"): (
        r"(-1008913445455641933348124972560000*b2^2"
        r" + 1008913445455641933348124972560000*b1*a2"
        r" - 1008913445455641933348124972560000*b1^2"
        r" + 1008913445455641933348124972560000*a1*b2)"
        r"*eta1/\eta2/\Phi1^50/\Phi2^50"
    ),
}


@pytest.mark.parametrize("kind, convention", sorted(_TENSORS_AT_50))
def test_condition_tensors_at_fifty(kind, convention):
    geom = ProductGeometry(50, 50)
    expected = parse(_TENSORS_AT_50[kind, convention])
    assert condition_tensor(kind, geom, convention) == expected


# every small geometry, then the square, lopsided and prime ones far out, then
# untruncated ones
_CLOSED_FORM_GEOMETRIES = [
    ProductGeometry(m1, m2) for m1 in range(1, 17) for m2 in range(1, 17)
] + [
    ProductGeometry(m1, m2)
    for m1, m2 in ((200, 200), (2048, 1), (1, 2048), (2048, 2048), (37, 3))
] + [ProductGeometry(m1, m2, False) for m1 in range(1, 5) for m2 in range(1, 5)]


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("kind", list(Condition))
def test_closed_tensor_matches_condition_tensor(kind, convention):
    for geom in _CLOSED_FORM_GEOMETRIES:
        expected = _reference_tensor(kind, geom, convention)
        assert _tensor(kind, geom, convention) == expected, geom
        assert condition_tensor(kind, geom, convention) == expected, geom


@given(
    st.sampled_from(list(Condition)), st.sampled_from(list(Convention)),
    st.integers(1, MAX_HALF_DIM), st.integers(1, MAX_HALF_DIM),
)
@settings(max_examples=40)
def test_closed_tensor_at_random_geometries(kind, convention, m1, m2):
    geom = ProductGeometry(m1, m2)
    closed = _tensor(kind, geom, convention)
    _assert_canonical(closed)
    assert closed == _reference_tensor(kind, geom, convention)


# Results built by Scalar._of and Form._of skip the constructors' validation,
# so every operation must hand them canonical dicts.
def _assert_canonical_scalar(x):
    for exps, coeff in x.terms.items():
        assert type(exps) is tuple and len(exps) == 4
        assert all(type(e) is int and e >= 0 for e in exps)
        # an int when integral, else a Fraction with denominator > 1
        assert coeff != 0
        assert type(coeff) is (Fraction if coeff.denominator > 1 else int)


def _assert_canonical(x):
    if isinstance(x, Scalar):
        _assert_canonical_scalar(x)
        return
    for mono, coeff in x.terms.items():
        assert type(mono) is Monomial and all(type(e) is int for e in mono)
        mono.validate()
        assert isinstance(coeff, Scalar) and coeff
        _assert_canonical_scalar(coeff)


_GEOMETRIES = st.sampled_from(
    [None] + [ProductGeometry(m1, m2) for m1 in (1, 2) for m2 in (1, 2)]
)


@given(
    scalars(), scalars(), rationals, param_values, st.sets(st.sampled_from(PARAMS)),
    st.permutations(PARAMS), st.sampled_from((-1, 1)),
)
def test_scalar_results_are_canonical(x, y, c, values, pinned, order, sign):
    partial = {name: values[name] for name in pinned}
    for result in (
        x + y, x - y, x - x, x + c, c - x, -x, x * y, x * c, c * x, x * 0,
        x.reduce(), x.substitute(partial), x.substitute(values),
        x.identify(order[0], order[1], sign),
    ):
        _assert_canonical(result)


@given(
    forms(max_monos=3, max_pq=2), forms(max_monos=3, max_pq=2), scalars(),
    st.integers(0, 3), _GEOMETRIES, param_values, st.sampled_from(list(Convention)),
)
def test_form_results_are_canonical(f, g, s, k, geom, values, convention):
    results = [
        f + g, f - g, f - f, -f, f * s, s * f, f * 0, f.wedge(g), f.wedge(g, geom),
        f.power(k), f.power(k, geom), f.reduce(), f.substitute(values),
        exterior_d(f, convention), exterior_d(f, convention, geom), j_action(f),
        d_c(f, convention, geom), _kahler_power(k, geom),
    ]
    if geom is not None:
        results.append(f.truncate(geom))
    for result in results:
        _assert_canonical(result)
