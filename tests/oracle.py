r"""Concrete exterior-algebra model used as an independent cross-check.

The symbolic algebra maps into the Grassmann algebra over an explicit
anticommuting basis: factor 1 contributes generators e_0 .. e_{2*m1}, factor 2
contributes f_0 .. f_{2*m2}.  The realisation sends

    eta1 -> e_0                 Phi1 -> sum_{j=1..m1} e_{2j-1} /\ e_{2j}
    eta2 -> f_0                 Phi2 -> sum_{j=1..m2} f_{2j-1} /\ f_{2j}

with the structure parameters evaluated at explicit rationals.  Basis blades
are bitmasks over the 2*(m1 + m2) + 2 generators and multiplication counts
transpositions directly, so none of the symbolic layer's sign or truncation
conventions are reused here.  In particular Phi_i^(m_i + 1) = 0 holds
automatically, which is what makes this model a genuine oracle for the
truncation rule.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from astheno.algebra import Form, ProductGeometry
from astheno.scalars import RationalLike

# dict blade-bitmask -> Fraction
Multivector = dict

MAX_HALF_DIM = 3


def _blade_mul(a: int, b: int) -> tuple:
    """Product of two basis blades: (blade, sign), sign 0 on a repeat."""
    if a & b:
        return 0, 0
    swaps = 0
    index = 0
    rest = b
    # each generator of b crosses every higher-indexed generator of a
    while rest:
        if rest & 1:
            swaps += (a >> (index + 1)).bit_count()
        rest >>= 1
        index += 1
    return a | b, -1 if swaps & 1 else 1


class GrassmannOracle:
    """Explicit-basis model of the product geometry, m1, m2 <= 3."""

    def __init__(self, geom: ProductGeometry):
        if geom.m1 > MAX_HALF_DIM or geom.m2 > MAX_HALF_DIM:
            raise ValueError(
                f"oracle supports half-dimensions up to {MAX_HALF_DIM}, got {geom}"
            )
        self.geom = geom
        n1 = 2 * geom.m1 + 1
        n2 = 2 * geom.m2 + 1
        self.generator_count = n1 + n2
        self.eta1: Multivector = {1 << 0: Fraction(1)}
        self.eta2: Multivector = {1 << n1: Fraction(1)}
        self.phi1: Multivector = {
            (1 << (2 * j - 1)) | (1 << (2 * j)): Fraction(1)
            for j in range(1, geom.m1 + 1)
        }
        self.phi2: Multivector = {
            (1 << (n1 + 2 * j - 1)) | (1 << (n1 + 2 * j)): Fraction(1)
            for j in range(1, geom.m2 + 1)
        }
        self._phi1_pows = [self.unit(), self.phi1]
        self._phi2_pows = [self.unit(), self.phi2]

    # -- multivector arithmetic --------------------------------------------

    @staticmethod
    def unit() -> Multivector:
        return {0: Fraction(1)}

    @staticmethod
    def add(x: Multivector, y: Multivector) -> Multivector:
        out = dict(x)
        for blade, coeff in y.items():
            acc = out.get(blade, 0) + coeff
            if acc:
                out[blade] = acc
            else:
                out.pop(blade, None)
        return out

    @staticmethod
    def scale(x: Multivector, factor: RationalLike) -> Multivector:
        factor = Fraction(factor)
        if not factor:
            return {}
        return {blade: coeff * factor for blade, coeff in x.items()}

    @staticmethod
    def multiply(x: Multivector, y: Multivector) -> Multivector:
        out: Multivector = {}
        for ba, ca in x.items():
            for bb, cb in y.items():
                blade, sign = _blade_mul(ba, bb)
                if not sign:
                    continue
                acc = out.get(blade, 0) + ca * cb * sign
                if acc:
                    out[blade] = acc
                else:
                    out.pop(blade, None)
        return out

    def power(self, x: Multivector, exponent: int) -> Multivector:
        out = self.unit()
        for _ in range(exponent):
            out = self.multiply(out, x)
        return out

    def _phi1_power(self, p: int) -> Multivector:
        while len(self._phi1_pows) <= p:
            self._phi1_pows.append(
                self.multiply(self._phi1_pows[-1], self.phi1)
            )
        return self._phi1_pows[p]

    def _phi2_power(self, q: int) -> Multivector:
        while len(self._phi2_pows) <= q:
            self._phi2_pows.append(
                self.multiply(self._phi2_pows[-1], self.phi2)
            )
        return self._phi2_pows[q]

    # -- realisation ---------------------------------------------------------

    def realize(self, form: Form, params: Mapping[str, RationalLike]) -> Multivector:
        """Image of a symbolic form at explicit parameter values."""
        out: Multivector = {}
        for mono, scalar in form.terms.items():
            value = scalar.evaluate(params)
            if not value:
                continue
            mv = self.unit()
            if mono.e1:
                mv = self.multiply(mv, self.eta1)
            if mono.e2:
                mv = self.multiply(mv, self.eta2)
            if mono.p:
                mv = self.multiply(mv, self._phi1_power(mono.p))
            if mono.q:
                mv = self.multiply(mv, self._phi2_power(mono.q))
            out = self.add(out, self.scale(mv, value))
        return out
