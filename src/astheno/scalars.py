"""Exact rational polynomials in the four structure constants a1, b1, a2, b2.

These scalars are the coefficient ring for every differential form in the
engine.  (a_i, b_i) are the (alpha, beta) constants of the i-th factor
structure.  The quotient relations a1*b1 = 0 and a2*b2 = 0 (a trans-Sasakian
factor of dimension >= 5 is alpha-Sasakian, beta-Kenmotsu or cosymplectic,
so the product alpha*beta always vanishes) are applied only on demand through
:meth:`Scalar.reduce`, never implicitly.  A coefficient is an ``int`` when it
is integral, else a ``Fraction`` with denominator > 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

PARAMS = ("a1", "b1", "a2", "b2")

# exponent vector over (a1, b1, a2, b2)
Exps = tuple
RationalLike = Union[int, Fraction]
# the exact types of coefficients and pins: a binary float would enter the ring
# as its exact expansion, and a bool is no number
RATIONAL_TYPES = (int, Fraction)

_UNIT: Exps = (0, 0, 0, 0)


def _canon(c):
    """A Fraction with denominator 1 as int; any other value as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _accumulate(out: dict, key, coeff) -> None:
    """Add coeff into the sparse dict out at key; a zero sum drops the key.

    The one accumulation step of the engine, shared by Scalar (canonical
    int-or-Fraction coefficients) and Form (Scalar coefficients).  A new key
    takes coeff as it is, with no addition to a zero; a sum is canonical.
    """
    acc = out.get(key)
    coeff = coeff if acc is None else _canon(acc + coeff)
    if coeff:
        out[key] = coeff
    else:
        out.pop(key, None)


def _index(name: str) -> int:
    if name not in PARAMS:
        raise ValueError(f"unknown parameter {name!r}")
    return PARAMS.index(name)


def _check_pins(assign: Mapping) -> None:
    """The pin policy of substitute and evaluate: known names, exact values."""
    for name, value in assign.items():
        _index(name)  # raises on an unknown name
        if type(value) not in RATIONAL_TYPES:
            raise TypeError(f"pin {name} must be int or Fraction, not {type(value)}")


def _check_tie(src: str, dst: str, sign: int) -> tuple:
    """The tie policy of identify: distinct known names, a sign of int 1 or -1; their indices."""
    if src == dst:
        raise ValueError("src and dst must differ")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be the int 1 or -1, not {sign!r}")
    return _index(src), _index(dst)


def _is_mixed(exps: Exps) -> bool:
    # dropped by ring reduction: mixes a_i with b_i for the same factor
    return bool(exps[0] and exps[1]) or bool(exps[2] and exps[3])


class _Sparse:
    """The sparse-map core of Scalar and Form: ``terms`` is a canonical dict of
    nonzero values, which a subclass's ``__init__`` checks and ``_of`` wraps unchecked."""

    __slots__ = ("terms",)

    @classmethod
    def _of(cls, terms: dict):
        result = cls.__new__(cls)
        result.terms = terms
        return result

    @classmethod
    def zero(cls):
        return cls._of({})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self):
        return self._of({key: -value for key, value in self.terms.items()})

    def __repr__(self) -> str:
        from .exprio import _repr  # call-time import: exprio imports this module

        return _repr(self)


class Scalar(_Sparse):
    """Sparse polynomial: 4-tuple of non-negative int exponents -> nonzero coefficient."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Exps, RationalLike] | None = None):
        data: dict[Exps, RationalLike] = {}
        if terms:
            for exps, coeff in terms.items():
                if not (isinstance(exps, tuple) and len(exps) == 4
                        and all(type(e) is int and e >= 0 for e in exps)):
                    raise ValueError(f"exponent key must be 4 non-negative ints, got {exps!r}")
                if type(coeff) not in RATIONAL_TYPES:
                    raise TypeError(f"coefficient must be int or Fraction, not {type(coeff)}")
                c = _canon(coeff)
                if c:
                    data[tuple(exps)] = c
        self.terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, value: RationalLike) -> "Scalar":
        return cls({_UNIT: value})

    @classmethod
    def param(cls, name: str) -> "Scalar":
        exps = [0, 0, 0, 0]
        exps[_index(name)] = 1
        return cls({tuple(exps): 1})

    # -- predicates --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.terms == other.terms
        if type(other) in RATIONAL_TYPES:
            return self == Scalar.rational(other)
        return NotImplemented

    def params_present(self) -> frozenset:
        out = set()
        for exps in self.terms:
            for name, e in zip(PARAMS, exps):
                if e:
                    out.add(name)
        return frozenset(out)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        if type(other) in RATIONAL_TYPES:
            other = Scalar.rational(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            _accumulate(out, exps, coeff)
        return Scalar._of(out)

    __radd__ = __add__

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        if not isinstance(other, Scalar) and type(other) not in RATIONAL_TYPES:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return (-self) + other

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        if type(other) in RATIONAL_TYPES:
            if not other:
                return Scalar.zero()
            return Scalar._of({e: _canon(c * other) for e, c in self.terms.items()})
        if not isinstance(other, Scalar):
            return NotImplemented
        out: dict[Exps, RationalLike] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                _accumulate(out, exps, _canon(c1 * c2))
        return Scalar._of(out)

    __rmul__ = __mul__

    # -- ring reduction and substitution -----------------------------------

    def reduce(self) -> "Scalar":
        """Project onto the quotient by (a1*b1, a2*b2)."""
        return Scalar._of({e: c for e, c in self.terms.items() if not _is_mixed(e)})

    def substitute(self, assign: Mapping[str, RationalLike]) -> "Scalar":
        """Partially evaluate: pinned parameters get values, others stay.  A zero
        pin does no arithmetic: the terms it occurs in drop, the rest stay as is."""
        _check_pins(assign)
        return self._substitute(assign)

    def _substitute(self, assign: Mapping[str, RationalLike]) -> "Scalar":
        """substitute, for a caller that has checked the pins once already."""
        terms, pins = self.terms.items(), []
        for idx, name in enumerate(PARAMS):
            if assign.get(name, 0) != 0:
                pins.append((idx, _canon(assign[name])))
            elif name in assign:
                terms = [(e, c) for e, c in terms if not e[idx]]
        if not pins:
            return Scalar._of(dict(terms))
        out: dict[Exps, RationalLike] = {}
        for exps, coeff in terms:
            new_exps = list(exps)
            for idx, value in pins:
                if exps[idx]:
                    coeff = coeff * value ** exps[idx]
                    new_exps[idx] = 0
            _accumulate(out, tuple(new_exps), _canon(coeff))
        return Scalar._of(out)

    def identify(self, src: str, dst: str, sign: int = 1) -> "Scalar":
        """Impose src = sign*dst by eliminating src in favour of dst."""
        return self._identify(*_check_tie(src, dst, sign), sign)

    def _identify(self, si: int, di: int, sign: int) -> "Scalar":
        """identify by parameter indices, for a caller that has checked the tie once already."""
        out: dict[Exps, RationalLike] = {}
        for exps, coeff in self.terms.items():
            new_exps = list(exps)
            if exps[si]:
                coeff = coeff * sign ** exps[si]
                new_exps[di] += exps[si]
                new_exps[si] = 0
            _accumulate(out, tuple(new_exps), coeff)
        return Scalar._of(out)

    def evaluate(self, values: Mapping[str, RationalLike]) -> Fraction:
        """Total evaluation; every parameter that occurs must be given."""
        _check_pins(values)
        missing = self.params_present() - set(values)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
        vals = [Fraction(values.get(name, 0)) for name in PARAMS]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                if e:
                    term *= v**e
            total += term
        return total


ZERO = Scalar.zero()
A1 = Scalar.param("a1")
B1 = Scalar.param("b1")
A2 = Scalar.param("a2")
B2 = Scalar.param("b2")
