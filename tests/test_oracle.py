"""The explicit-basis Grassmann model against the symbolic layer."""

import random
from fractions import Fraction
from math import factorial

import pytest

from astheno.algebra import ETA1, ETA2, Form, Monomial, ProductGeometry
from astheno.calculus import kahler_form
from astheno.audit import random_form
from astheno.scalars import PARAMS

from oracle import GrassmannOracle


def _params(rng: random.Random) -> dict:
    return {
        name: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for name in PARAMS
    }


def test_rejects_large_half_dimension():
    with pytest.raises(ValueError):
        GrassmannOracle(ProductGeometry(4, 1))
    with pytest.raises(ValueError):
        GrassmannOracle(ProductGeometry(1, 4))


def test_generator_count():
    oracle = GrassmannOracle(ProductGeometry(2, 3))
    assert oracle.generator_count == 12


def test_blades_anticommute():
    oracle = GrassmannOracle(ProductGeometry(1, 1))
    e1, e2 = oracle.eta1, oracle.eta2
    assert oracle.multiply(e1, e2) == oracle.scale(oracle.multiply(e2, e1), -1)
    assert oracle.multiply(e1, e1) == {}


def test_phi_powers_truncate_automatically():
    geom = ProductGeometry(2, 1)
    oracle = GrassmannOracle(geom)
    assert oracle.power(oracle.phi1, 3) == {}
    assert oracle.power(oracle.phi2, 2) == {}
    assert oracle.power(oracle.phi1, 2) != {}


def test_realize_is_linear():
    rng = random.Random(7)
    geom = ProductGeometry(2, 2)
    oracle = GrassmannOracle(geom)
    params = _params(rng)
    x, y = random_form(rng), random_form(rng)
    lhs = oracle.realize(x + y, params)
    rhs = oracle.add(oracle.realize(x, params), oracle.realize(y, params))
    assert lhs == rhs


def test_wedge_maps_to_oracle_product():
    rng = random.Random(20)
    for m1 in (1, 2, 3):
        for m2 in (1, 2, 3):
            geom = ProductGeometry(m1, m2)
            oracle = GrassmannOracle(geom)
            for _ in range(4):
                x, y = random_form(rng), random_form(rng)
                params = _params(rng)
                direct = oracle.realize(x.wedge(y, geom), params)
                modelled = oracle.multiply(
                    oracle.realize(x, params), oracle.realize(y, params)
                )
                assert direct == modelled, (m1, m2)


def test_volume_normalization_against_oracle():
    # Omega^m collapses onto the single volume word with the predicted
    # rational coefficient
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
            params = _params(random.Random(m1 * 10 + m2))
            assert oracle.realize(top, params) == oracle.power(
                oracle.realize(omega, params), m
            )
