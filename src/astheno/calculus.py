r"""Exterior derivative, complex rotation, and the curvature-type condition
tensors on a product of two almost-contact metric factors.

Generator rules:

    d eta_i = a_i * Phi_i          d Phi_i = 2 * b_i * eta_i /\ Phi_i

extended to canonical words by a Leibniz rule.  Two conventions are
implemented:

* ``graded``   d(x /\ y) = dx /\ y + (-1)^deg(x) x /\ dy.  The honest
  exterior differential; all verdicts use it.
* ``ungraded`` d(x /\ y) = dx /\ y + x /\ dy, applied left-to-right across
  the canonical word.  Not a derivation of the algebra; kept as a forensic
  tool because the reference derivations were carried out this way.

The almost-complex rotation J fixes Phi1, Phi2 and acts by
J(eta1) = eta2, J(eta2) = -eta1; d_c = J o d.  The fundamental 2-form of the
product metric is Omega = Phi1 + Phi2 - 2 eta1 /\ eta2, and the three
conditions checked downstream are cast as single tensors:

    skt        d d_c Omega
    astheno    d d_c Omega^(m-2)
    gauduchon  d d_c Omega^(m-1)

The powers of Omega come in closed form rather than from repeated wedges:
eta1 /\ eta2 is even and squares to zero and Phi1, Phi2 are central, so

    Omega^k = sum_p C(k,p) Phi1^p Phi2^(k-p)
              - 2k sum_p C(k-1,p) eta1 /\ eta2 /\ Phi1^p Phi2^(k-1-p)

and truncation only bounds p.  One builder, ``_tensor``, serves ``scan`` and
``condition_tensor``: the ddc_omega display at k = 1, a one-word Gauduchon
formula, or ``astheno_expansion`` summed word by word.  ``condition_tensor``
adds the graded guard: the direct astheno tensor must equal the built one, or
it raises InternalInconsistencyError.  The audit still builds Omega^k with
``Form.power``, an independent check of this formula.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .algebra import ETA1, ETA2, PHI1, PHI2, Form, Monomial, ProductGeometry
from .scalars import _UNIT, A1, A2, B1, B2, Scalar, _accumulate


class Convention(str, Enum):
    GRADED = "graded"
    UNGRADED = "ungraded"


class Condition(str, Enum):
    ASTHENO = "astheno"
    SKT = "skt"
    GAUDUCHON = "gauduchon"


class InternalInconsistencyError(RuntimeError):
    """Two routes to the same tensor disagreed; the engine is broken."""


def exterior_d(
    form: Form,
    convention: Convention = Convention.GRADED,
    geom: ProductGeometry | None = None,
) -> Form:
    """Differentiate term by term; scalars are closed.

    Per canonical word eta1^a eta2^b Phi1^p Phi2^q the four generator slots
    contribute (signs already normalised to canonical order):

        a: +a1 * eta2^b Phi1^(p+1) Phi2^q
        b: (-1)^a|graded * a2 * eta1^a Phi1^p Phi2^(q+1)
        p: [a=0] 2p*b1 * (-1)^b|ungraded * eta1 eta2^b Phi1^p Phi2^q
        q: [b=0] 2q*b2 * (-1)^a|graded * eta1^a eta2 Phi1^p Phi2^q

    where "|graded" marks the sign present only under the graded rule
    (Leibniz prefactor (-1)^(a+b) with b = 0) and "|ungraded" the sign
    present only under the ungraded rule (there it is a word-reordering
    sign, not a Leibniz sign).
    """
    graded = Convention(convention) is Convention.GRADED
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in form.terms.items():
        a, b, p, q = mono
        if a:
            _accumulate(out, Monomial(0, b, p + 1, q), coeff * A1)
        if b:
            s = coeff * A2
            if graded and a:
                s = -s
            _accumulate(out, Monomial(a, 0, p, q + 1), s)
        if p and not a:
            s = coeff * B1 * (2 * p)
            if not graded and b:
                s = -s
            _accumulate(out, Monomial(1, b, p, q), s)
        if q and not b:
            s = coeff * B2 * (2 * q)
            if graded and a:
                s = -s
            _accumulate(out, Monomial(a, 1, p, q), s)
    result = Form._of(out)
    if geom is not None:
        result = result.truncate(geom)
    return result


def j_action(form: Form) -> Form:
    """Algebra automorphism induced by the product almost-complex structure."""
    out: dict[Monomial, Scalar] = {}
    for mono, coeff in form.terms.items():
        if mono.e1 and not mono.e2:
            _accumulate(out, Monomial(0, 1, mono.p, mono.q), coeff)
        elif mono.e2 and not mono.e1:
            _accumulate(out, Monomial(1, 0, mono.p, mono.q), -coeff)
        else:
            # even part, and eta1/\eta2 where the two signs cancel
            _accumulate(out, mono, coeff)
    return Form._of(out)


def d_c(
    form: Form,
    convention: Convention = Convention.GRADED,
    geom: ProductGeometry | None = None,
) -> Form:
    return j_action(exterior_d(form, convention, geom))


def kahler_form() -> Form:
    """Fundamental 2-form of the product metric."""
    return PHI1 + PHI2 - 2 * ETA1.wedge(ETA2)


def _kahler_power(k: int, geom: ProductGeometry | None = None) -> Form:
    """Omega^k from the closed form above; equals kahler_form().power(k, geom)."""
    truncate = geom is not None and geom.truncate
    terms: dict[Monomial, Scalar] = {}
    # (eta exponent, Phi degree n, scale): Phi1^p Phi2^(n-p) gets scale * C(n, p)
    for eta, n, scale in ((0, k, 1), (1, k - 1, -2 * k)):
        if n < 0:
            continue
        lo, hi = (max(0, n - geom.m2), min(n, geom.m1)) if truncate else (0, n)
        coeff = scale * comb(n, lo)
        for p in range(lo, hi + 1):
            terms[Monomial(eta, eta, p, n - p)] = Scalar._of({_UNIT: coeff})
            coeff = coeff * (n - p) // (p + 1)
    return Form._of(terms)


def _ddc(form: Form, convention: Convention, geom: ProductGeometry | None) -> Form:
    return exterior_d(d_c(form, convention, geom), convention, geom)


@lru_cache(maxsize=None)
def _displays(convention: Convention) -> MappingProxyType:
    """The five low-order displays, untruncated, keyed as in fixtures.EQUATION_NAMES;
    built once per convention and read-only, since every caller shares them."""
    omega = kahler_form()
    d_omega = exterior_d(omega, convention)
    dc_omega = d_c(omega, convention)
    ddc_omega = exterior_d(dc_omega, convention)
    return MappingProxyType({
        "d_omega": d_omega,
        "dc_omega": dc_omega,
        "ddc_omega": ddc_omega,
        "d_wedge_dc": d_omega.wedge(dc_omega),
        "ddc_wedge_omega": ddc_omega.wedge(omega),
    })


def astheno_expansion(
    k: int, convention: Convention, geom: ProductGeometry | None = None
) -> Form:
    r"""k * [d d_c Omega /\ Omega + (k-1) d Omega /\ d_c Omega] /\ Omega^(k-2).

    Closed-form route to d d_c Omega^k; provably equal to the direct value
    under the graded convention, and the route the reference tables took
    under the ungraded one.  Built word by word, with no wedge: each target
    word sums the degree-6 words of the two displays, each times the word of
    Omega^(k-2) that completes it; E = eta1 /\ eta2 below.
    """
    if k < 2:
        raise ValueError("expansion defined for k >= 2")
    # targets E^t Phi1^p Phi2^(k+1-t-p), lo <= p <= hi; truncating them and
    # Omega^(k-2) alone suffices, since d and wedge never lower a Phi exponent
    m1, m2 = (geom.m1, geom.m2) if geom is not None and geom.truncate else (k + 1, k + 1)
    spans = [(t, max(0, k + 1 - t - m2), min(k + 1 - t, m1)) for t in (0, 1)]
    omega_n = {(w.e1, w.p): c.terms[_UNIT] for w, c in _kahler_power(k - 2, geom).terms.items()}
    bracket: dict = {}  # (E exponent, Phi1 exponent) -> k D1 + k(k-1) D2, integral
    for name, weight in (("ddc_wedge_omega", k), ("d_wedge_dc", k * (k - 1))):
        for (e, _, wp, _), s in _displays(convention)[name].terms.items():
            acc = bracket.setdefault((e, wp), {})
            for exps, coeff in s.terms.items():
                _accumulate(acc, exps, coeff * weight)
    out: dict[Monomial, Scalar] = {}
    for t, lo, hi in spans:
        for tp in range(lo, hi + 1):
            acc = {}
            for (e, wp), s in bracket.items():
                c = omega_n.get((t - e, tp - wp))
                if c is None:  # E /\ E = 0, or Omega^(k-2) has no such word
                    continue
                for exps, coeff in s.items():
                    _accumulate(acc, exps, coeff * c)
            if acc:
                out[Monomial(t, t, tp, k + 1 - t - tp)] = Scalar._of(acc)
    return Form._of(out)


def _tensor(kind: Condition, geom: ProductGeometry, convention: Convention) -> Form:
    r"""The tensor of ``condition_tensor``, built without its guard; the route of
    ``scan``.  Where the geometry truncates it costs O(1) Scalar operations
    and at most two combs.

    Proof sketch.  A tensor has degree 2k + 2, and truncation keeps p <= m1,
    q <= m2.  With W = Phi1^p Phi2^q, E = eta1 /\ eta2 and s = 1 graded, -1
    ungraded, the generator rules give

        d d_c W  = 2p a2 b1 W Phi2 - 2q a1 b2 W Phi1 + 4s (p^2 b1^2 + q^2 b2^2) E W
        d d_c EW = -a1^2 W Phi1^2 - s a2^2 W Phi2^2 + 2s q a1 b2 EW Phi1 - 2p a2 b1 EW Phi2

    * skt, and astheno at m = 3: k = 1, no word of Omega is truncated and d
      never lowers a Phi exponent, so this is the ddc_omega display, truncated.
    * gauduchon: k = m1 + m2, and only E Phi1^m1 Phi2^m2 survives.  The rules
      summed against Omega^k, with k C(k-1, m1-1) = m1 C and k C(k-1, m1) = m2 C
      for C = C(k, m1), give 4C (s m1^2 b1^2 + s m2^2 b2^2 + m1 m2 (b1 a2 - s a1 b2)).
      An untruncated geometry takes d d_c Omega^k directly.
    * astheno, m >= 4: the expansion (graded: condition_tensor's guard makes
      the direct value equal it).  Truncated, only Phi1^m1 Phi2^m2,
      E Phi1^(m1-1) Phi2^m2 and E Phi1^m1 Phi2^(m2-1) survive.
    """
    m1, m2 = geom.m1, geom.m2
    if kind is Condition.SKT or (kind is Condition.ASTHENO and m1 + m2 < 3):
        return _displays(convention)["ddc_omega"].truncate(geom)
    if kind is Condition.ASTHENO:
        return astheno_expansion(m1 + m2 - 1, convention, geom)
    if not geom.truncate:
        return _ddc(_kahler_power(m1 + m2, geom), convention, geom)
    c = 4 * comb(m1 + m2, m1)
    signed = c if convention is Convention.GRADED else -c
    coeff = {(0, 2, 0, 0): signed * m1 * m1, (0, 0, 0, 2): signed * m2 * m2,
             (0, 1, 1, 0): c * m1 * m2, (1, 0, 0, 1): -signed * m1 * m2}
    return Form._of({Monomial(1, 1, m1, m2): Scalar._of(coeff)})


def condition_tensor(
    kind: Condition,
    geom: ProductGeometry,
    convention: Convention = Convention.GRADED,
) -> Form:
    """The obstruction form d d_c Omega^k whose vanishing defines the named
    condition: k = 1 for skt, m - 2 for astheno and m - 1 for gauduchon.

    Built by ``_tensor``, which takes the expansion for astheno with k >= 2
    (m >= 4).  Under the graded convention the direct value is computed too
    and must agree exactly (anything else is an engine bug); under the
    ungraded convention the expansion stands alone, because the ungraded
    "rule" is not a derivation, so only the expansion matches the route the
    reference tables were computed by.
    """
    kind = Condition(kind)
    convention = Convention(convention)
    tensor = _tensor(kind, geom, convention)
    if kind is Condition.ASTHENO and geom.m >= 4 and convention is Convention.GRADED:
        if _ddc(_kahler_power(geom.m - 2, geom), convention, geom) != tensor:
            raise InternalInconsistencyError(
                f"direct and expanded astheno tensors differ at {geom}")
    return tensor


def wedge_identity_check(convention: Convention = Convention.GRADED):
    r"""Diff engine values of d Omega /\ d_c Omega and d d_c Omega /\ Omega
    against their transcribed closed forms.  Returns a list of
    (name, matched, diff) with diff = fixture - engine, computed untruncated.
    """
    from . import fixtures  # local import: fixtures sits above calculus

    displays = _displays(Convention(convention))
    report = []
    for name in ("d_wedge_dc", "ddc_wedge_omega"):
        diff = fixtures.equation_form(name) - displays[name]
        report.append((name, diff.is_zero, diff))
    return report
