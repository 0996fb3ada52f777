r"""Graded-commutative wedge algebra on the generators eta1, eta2, Phi1, Phi2.

eta1 and eta2 are odd (degree 1): they square to zero and anticommute with
each other.  Phi1 and Phi2 are even (degree 2) and central.  Every element is
a Scalar-weighted sum of canonical words

    eta1^a /\ eta2^b /\ Phi1^p /\ Phi2^q      a, b in {0, 1},  p, q >= 0,

with all reordering signs folded into the coefficients; the only sign source
is the transposition of the two odd generators.

On a product of almost-contact factors of real dimensions 2*m1 + 1 and
2*m2 + 1 the fundamental 2-forms are nilpotent, Phi_i^(m_i + 1) = 0.  That
cutoff is the ``truncate`` flag of :class:`ProductGeometry`: monomials with
p > m1 or q > m2 are discarded, while the factor volume forms at p = m1,
q = m2 are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from .scalars import RationalLike, Scalar, _accumulate, _check_pins

ScalarLike = Union[Scalar, int, Fraction]

# a product costs about the product of its operands' sizes, and a parse or power
# whose products sum past MAX_WORK is refused.  A size counts scalar terms, each
# weighted by its coefficient's length in 64-bit words, so long literals count
# too.  The costliest accepted inputs found, products of short sums with
# fractional coefficients, take `eval` about 0.7 s (Python 3.11, 2-vCPU Xeon).
MAX_WORK = 300_000


def _size(form: "Form") -> int:
    size = 0
    for scalar in form.terms.values():
        for c in scalar.terms.values():
            size += 1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64
    return size


class Monomial(NamedTuple):
    e1: int  # exponent of eta1 (0 or 1)
    e2: int  # exponent of eta2 (0 or 1)
    p: int  # exponent of Phi1
    q: int  # exponent of Phi2

    def degree(self) -> int:
        return self.e1 + self.e2 + 2 * self.p + 2 * self.q

    def validate(self) -> "Monomial":
        if any(type(e) is not int for e in self):
            raise TypeError(f"exponents must be ints, got {self}")
        if self.e1 not in (0, 1) or self.e2 not in (0, 1):
            raise ValueError(f"odd exponents must be 0 or 1, got {self}")
        if self.p < 0 or self.q < 0:
            raise ValueError(f"negative even exponent in {self}")
        return self


UNIT_MONOMIAL = Monomial(0, 0, 0, 0)


@dataclass(frozen=True)
class ProductGeometry:
    """Half-dimensions of the two factors plus the truncation switch.

    Factor i has real dimension 2*m_i + 1; the product has real dimension
    2*m with m = m1 + m2 + 1.  Degenerate factors (m_i = 0, i.e. dimension 1)
    carry no fundamental 2-form and are rejected outright.
    """

    m1: int
    m2: int
    truncate: bool = True

    def __post_init__(self) -> None:
        if type(self.m1) is not int or type(self.m2) is not int:
            raise TypeError(f"half-dimensions must be ints, got m1={self.m1!r}, m2={self.m2!r}")
        if type(self.truncate) is not bool:
            raise TypeError(f"truncate must be a bool, got {self.truncate!r}")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError(
                f"factor half-dimensions must be >= 1, got m1={self.m1}, m2={self.m2}"
            )

    @property
    def m(self) -> int:
        return self.m1 + self.m2 + 1

    def admits(self, mono: Monomial) -> bool:
        return not self.truncate or (mono.p <= self.m1 and mono.q <= self.m2)

    def untruncated(self) -> "ProductGeometry":
        return replace(self, truncate=False)


def _coerce(value: ScalarLike) -> Scalar:
    if isinstance(value, Scalar):
        return value
    return Scalar.rational(value)


class Form:
    """Canonical element of the algebra: Monomial -> nonzero Scalar."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        data: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(mono, Monomial):
                    mono = Monomial(*mono)
                mono.validate()
                scalar = _coerce(coeff)
                if scalar:
                    data[mono] = scalar
        self.terms = data

    @classmethod
    def _of(cls, terms: dict) -> "Form":
        """Wrap a dict already in canonical form: Monomial keys, nonzero Scalars."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Form":
        return cls()

    @classmethod
    def one(cls) -> "Form":
        return cls({UNIT_MONOMIAL: 1})

    @classmethod
    def from_scalar(cls, scalar: ScalarLike) -> "Form":
        return cls({UNIT_MONOMIAL: _coerce(scalar)})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: ScalarLike = 1) -> "Form":
        return cls({mono: coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self.terms == other.terms

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(out, mono, coeff)
        return Form._of(out)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form._of({m: -c for m, c in self.terms.items()})

    def __mul__(self, scalar: ScalarLike) -> "Form":
        if isinstance(scalar, Form):
            raise TypeError("use Form.wedge for products of forms")
        scalar = _coerce(scalar)
        return self.map_scalars(lambda coeff: coeff * scalar)

    __rmul__ = __mul__

    # -- multiplicative structure -------------------------------------------

    def wedge(self, other: "Form", geom: ProductGeometry | None = None) -> "Form":
        out: dict[Monomial, Scalar] = {}
        for lhs, c1 in self.terms.items():
            for rhs, c2 in other.terms.items():
                if (lhs.e1 and rhs.e1) or (lhs.e2 and rhs.e2):
                    continue
                mono = Monomial(
                    lhs.e1 | rhs.e1, lhs.e2 | rhs.e2, lhs.p + rhs.p, lhs.q + rhs.q
                )
                if geom is not None and not geom.admits(mono):
                    continue
                coeff = c1 * c2
                if lhs.e2 and rhs.e1:
                    # eta2 from the left factor crosses eta1 from the right
                    coeff = -coeff
                _accumulate(out, mono, coeff)
        return Form._of(out)

    def power(self, exponent: int, geom: ProductGeometry | None = None) -> "Form":
        if type(exponent) is not int:
            raise TypeError(f"exponent must be an int, not {type(exponent)}")
        if exponent < 0:
            raise ValueError("negative exponent")
        work = 0
        if exponent and len(self.terms) == 1:
            [(mono, scalar)] = self.terms.items()
            if len(scalar.terms) == 1:
                # one word with a one-term coefficient: exponent arithmetic
                if exponent > 1 and (mono.e1 or mono.e2):
                    return Form.zero()
                mono = Monomial(mono.e1, mono.e2, mono.p * exponent, mono.q * exponent)
                if geom is not None and not geom.admits(mono):
                    return Form.zero()
                [(exps, c)] = scalar.terms.items()
                if c not in (1, -1):  # in _size's words, c grows by its own length per step
                    work = exponent * (c.numerator.bit_length() + c.denominator.bit_length()) // 64
                if work <= MAX_WORK:  # else the loop below refuses at its first step
                    return Form.monomial(
                        mono, Scalar({tuple(e * exponent for e in exps): c**exponent})
                    )
        out, size = Form.one(), _size(self)
        for _ in range(exponent):
            work += _size(out) * size
            if work > MAX_WORK:
                raise ValueError(f"power too large: its products pass {MAX_WORK} units of work")
            out = out.wedge(self, geom)
            if not out:  # and stays zero
                break
        return out

    # -- quotients and substitution -------------------------------------------

    def truncate(self, geom: ProductGeometry) -> "Form":
        if not geom.truncate:
            return self
        return Form._of({m: c for m, c in self.terms.items() if geom.admits(m)})

    def map_scalars(self, fn) -> "Form":
        out = {}
        for mono, coeff in self.terms.items():
            c = fn(coeff)
            if c:
                out[mono] = c
        return Form._of(out)

    def reduce(self) -> "Form":
        """Apply the a_i*b_i = 0 ring reduction to every coefficient."""
        return self.map_scalars(lambda s: s.reduce())

    def substitute(self, assign: Mapping[str, RationalLike]) -> "Form":
        _check_pins(assign)  # once, not per coefficient; a zero form checks them too
        return self.map_scalars(lambda s: s._substitute(assign))

    def __repr__(self) -> str:
        from .exprio import _repr  # call-time import: exprio imports this module

        return _repr("Form", self)


ETA1 = Form.monomial(Monomial(1, 0, 0, 0))
ETA2 = Form.monomial(Monomial(0, 1, 0, 0))
PHI1 = Form.monomial(Monomial(0, 0, 1, 0))
PHI2 = Form.monomial(Monomial(0, 0, 0, 1))
