"""Structure-dependent vanishing verdicts, table reproduction, and scans.

A product factor is described by its structure kind; the kinds pin some of
the four parameters to zero and declare others structurally nonvanishing:

    sasakian        alpha != 0, beta = 0
    kenmotsu        alpha = 0,  beta != 0
    cosymplectic    alpha = 0,  beta = 0
    trans-sasakian  both free

Verdicts never report a vanishing condition that contradicts a structural
nonzero (a kenmotsu factor cannot have beta = 0): :func:`analyze_residual`
skips the ``forbidden`` zeros it is given, none when the audit calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import fixtures
from .algebra import Form, ProductGeometry
from .calculus import Condition, Convention, _tensor, condition_tensor
from .scalars import PARAMS, RATIONAL_TYPES, _check_tie

# kind -> what it forces on the factor's (alpha, beta): "zero", "nonzero" or nothing
_KIND_PARAMS = {
    "sasakian": ("nonzero", "zero"),
    "kenmotsu": ("zero", "nonzero"),
    "cosymplectic": ("zero", "zero"),
    "trans-sasakian": (None, None),
}
PURE_KINDS = ("sasakian", "kenmotsu", "cosymplectic")
KINDS = tuple(_KIND_PARAMS)

VERDICT_ZERO = "identically-zero"
VERDICT_NONZERO = "nonzero"
VERDICT_CONDITIONAL = "conditionally-zero"


def _slots(factors):
    """Each parameter as (name, slot, pin or None, what its kind forces), slots a1, b1, a2, b2."""
    for idx, factor in enumerate(factors, 1):
        for name, forced in zip(("alpha", "beta"), _KIND_PARAMS[factor.kind]):
            yield name, f"{name[0]}{idx}", getattr(factor, name), forced


@dataclass(frozen=True)
class FactorStructure:
    """One almost-contact factor: structure kind plus optional numeric pins."""

    kind: str
    alpha: Fraction | int | None = None
    beta: Fraction | int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        params = list(_slots((self,)))
        for name, _, value, _ in params:
            if value is not None and type(value) not in RATIONAL_TYPES:
                raise TypeError(f"{name} pin must be int or Fraction, not {type(value)}")
        for name, _, value, forced in params:
            if forced == "zero" and value is not None and value != 0:
                raise ValueError(f"{self.kind} forces {name} = 0, cannot pin {name} = {value}")
        for name, _, value, forced in params:
            if forced == "nonzero" and value == 0:
                raise ValueError(f"{self.kind} has {name} != 0, cannot pin {name} = 0")


@dataclass(frozen=True)
class StructurePair:
    factor1: FactorStructure
    factor2: FactorStructure

    def assignment(self) -> dict:
        """Numeric substitution implied by the kinds and any explicit pins."""
        pins = _slots((self.factor1, self.factor2))
        return {slot: 0 if value is None else value
                for _, slot, value, forced in pins if value is not None or forced == "zero"}

    def forbidden_zero_params(self) -> frozenset:
        """Parameters no conditional verdict may set to zero."""
        slots = _slots((self.factor1, self.factor2))
        return frozenset(slot for _, slot, _, forced in slots if forced == "nonzero")


def pure_pair(kind1: str, kind2: str) -> StructurePair:
    return StructurePair(FactorStructure(kind1), FactorStructure(kind2))


@dataclass(frozen=True)
class Relation:
    """One linear constraint on the parameters: src = 0 when dst is None,
    else src = sign*dst.  Checked once per form, applied scalar by scalar."""

    label: str
    src: str
    dst: str | None = None
    sign: int = 1

    @property
    def params(self) -> frozenset:
        return frozenset((self.src,) if self.dst is None else (self.src, self.dst))

    def apply(self, form: Form) -> Form:
        if self.dst is None:
            return form.substitute({self.src: 0})
        si, di = _check_tie(self.src, self.dst, self.sign)
        return form.map_scalars(lambda s: s._identify(si, di, self.sign))


def _masks(form: Form) -> set:
    """The distinct parameter sets of the form's coefficient terms (at most 16)."""
    exps = {e for scalar in form.terms.values() for e in scalar.terms}
    return {frozenset(p for p, n in zip(PARAMS, e) if n) for e in exps}


def _relations(present, forbidden) -> list:
    """Zero pins for the parameters present, then the proportionality ties."""
    rels = [Relation(f"{p}=0", p) for p in PARAMS if p in present and p not in forbidden]
    for src, dst in (("a1", "a2"), ("b1", "b2")):
        if src in present and dst in present:
            rels.append(Relation(f"{src}={dst}", src, dst, 1))
            rels.append(Relation(f"{src}=-{dst}", src, dst, -1))
    return rels


def candidate_relations(residual: Form, forbidden: frozenset = frozenset()) -> tuple:
    """The relations a residual's analysis tries, from the parameters it carries."""
    return tuple(_relations(frozenset().union(*_masks(residual)), forbidden))


@dataclass(frozen=True)
class VanishingAnalysis:
    """Every candidate relation tested against a nonzero residual.

    singles holds (label, annihilates) per candidate; pairs holds labels of
    minimal two-relation annihilators built from parameter-disjoint singles
    that both failed alone.
    """

    singles: tuple
    pairs: tuple

    @property
    def annihilating(self) -> tuple:
        hits = tuple(label for label, ok in self.singles if ok)
        return hits if hits else self.pairs


_NO_ANALYSIS = VanishingAnalysis((), ())  # of a residual with no relation to try


def analyze_residual(
    residual: Form,
    forbidden: frozenset = frozenset(),
    ring_reduce: bool = True,
) -> VanishingAnalysis:
    # ties can resurrect reducible words (b1 -> b2 maps a2*b1 onto a2*b2),
    # so reduction reruns after every application
    post = (lambda f: f.reduce()) if ring_reduce else (lambda f: f)
    singles = []
    failed = []
    for rel in candidate_relations(residual, forbidden):
        if post(rel.apply(residual)).is_zero:
            singles.append((rel.label, True))
        else:
            singles.append((rel.label, False))
            failed.append(rel)
    pairs = []
    for i, first in enumerate(failed):
        for second in failed[i + 1 :]:
            if first.params & second.params:
                continue
            if post(second.apply(first.apply(residual))).is_zero:
                pairs.append(f"{first.label} & {second.label}")
    return VanishingAnalysis(tuple(singles), tuple(pairs))


def _verdicts(reduced: Form, pins, ring_reduce: bool):
    """Judge a tensor already reduced (when ring_reduce) under each pair's zero
    pins (names pinned to zero, forbidden zero params): yields (verdict,
    analysis) per pair.

    A zero pin does no arithmetic: it drops the terms it occurs in, so nothing
    can cancel.  The residual's support is therefore the tensor's masks (each
    coefficient term's parameter set) that miss every zero pin; it vanishes
    exactly when none does, and its candidate relations, the parameters
    present and the ties between them, are read off the same masks.  So a
    residual is built and analysed only when some relation must be tried.
    A nonzero pin can merge terms and cancel them, so none comes here:
    ``classify`` substitutes it first and judges the residual with no pins.
    """
    masks = _masks(reduced)
    for zeros, forbidden in pins:
        live = [mask for mask in masks if mask.isdisjoint(zeros)]
        if not live or not _relations(frozenset().union(*live), forbidden):
            yield (VERDICT_NONZERO if live else VERDICT_ZERO), _NO_ANALYSIS
            continue
        residual = reduced.substitute(dict.fromkeys(zeros, 0)) if zeros else reduced
        analysis = analyze_residual(residual, forbidden, ring_reduce)
        yield (VERDICT_CONDITIONAL if analysis.annihilating else VERDICT_NONZERO), analysis


@dataclass(frozen=True)
class ClassificationReport:
    condition: Condition
    geometry: ProductGeometry
    pair: StructurePair
    convention: Convention
    ring_reduce: bool
    residual: Form
    verdict: str
    analysis: VanishingAnalysis

    @property
    def vanishes(self) -> bool:
        return self.verdict == VERDICT_ZERO

    @property
    def conditions(self) -> tuple:
        return self.analysis.annihilating


def classify(
    condition: Condition | str,
    geom: ProductGeometry,
    pair: StructurePair,
    convention: Convention | str = Convention.GRADED,
    ring_reduce: bool = True,
) -> ClassificationReport:
    """Verdict on the named vanishing condition for one structured product.

    The one place nonzero pins enter: the reduced tensor (so the quotient wins
    over a contradictory pin) takes the whole assignment once, and the
    residual, free of every pinned parameter, is judged with no pins."""
    condition = Condition(condition)
    convention = Convention(convention)
    tensor = condition_tensor(condition, geom, convention)
    residual = (tensor.reduce() if ring_reduce else tensor).substitute(pair.assignment())
    [(verdict, analysis)] = _verdicts(residual, [((), pair.forbidden_zero_params())], ring_reduce)
    return ClassificationReport(
        condition=condition,
        geometry=geom,
        pair=pair,
        convention=convention,
        ring_reduce=ring_reduce,
        residual=residual,
        verdict=verdict,
        analysis=analysis,
    )


@dataclass(frozen=True)
class RowReport:
    row: int
    factor1: str
    factor2: str
    status: str
    printed_zero: bool
    engine_zero_truncated: bool
    fixture: Form
    engine: Form
    engine_truncated: Form
    diff: Form
    note: str | None


@dataclass(frozen=True)
class TableReport:
    table_id: int
    m1: int
    m2: int
    power: int
    convention: Convention
    rows: tuple

    @property
    def discrepancies(self) -> tuple:
        return tuple(r.row for r in self.rows if r.status == "discrepancy")

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def _other(convention: Convention) -> Convention:
    return Convention.UNGRADED if convention is Convention.GRADED else Convention.GRADED


def reproduce_table(table_id: int, convention: Convention | str = Convention.GRADED) -> TableReport:
    """Recompute one bundled table and grade every printed row.

    Rows are compared untruncated against the requested convention first,
    then truncated, then against the other convention, so the status names
    exactly which lens (if any) makes the printed value an engine value.
    """
    convention = Convention(convention)
    table = fixtures.load_table(table_id)
    geom = table.geometry
    free = geom.untruncated()
    primary = condition_tensor(Condition.ASTHENO, free, convention)
    shadow = condition_tensor(Condition.ASTHENO, free, _other(convention))
    rows = []
    for fixture_row in table.rows:
        sub = pure_pair(fixture_row.factor1, fixture_row.factor2).assignment()
        engine = primary.substitute(sub)
        other = shadow.substitute(sub)
        expected = fixture_row.form
        engine_cut, expected_cut = engine.truncate(geom), expected.truncate(geom)
        if expected == engine:
            status = "exact"
        elif expected_cut == engine_cut:
            status = "modulo-truncation"
        elif expected == other:
            status = "modulo-convention"
        elif expected_cut == other.truncate(geom):
            status = "modulo-convention-truncation"
        else:
            status = "discrepancy"
        rows.append(
            RowReport(
                row=fixture_row.row,
                factor1=fixture_row.factor1,
                factor2=fixture_row.factor2,
                status=status,
                printed_zero=fixture_row.is_printed_zero,
                engine_zero_truncated=engine_cut.is_zero,
                fixture=expected,
                engine=engine,
                engine_truncated=engine_cut,
                diff=expected - engine,
                note=fixture_row.note,
            )
        )
    return TableReport(table.table_id, table.m1, table.m2, table.power, convention, tuple(rows))


class ScanCell(NamedTuple):
    m1: int
    m2: int
    factor1: str
    factor2: str
    verdict: str
    conditions: tuple


@dataclass(frozen=True)
class Proposition:
    name: str
    statement: str
    holds: bool
    counterexamples: tuple


@dataclass(frozen=True)
class ScanReport:
    condition: Condition
    convention: Convention
    max_m1: int
    max_m2: int
    cells: tuple
    propositions: tuple

    @property
    def ok(self) -> bool:
        return all(p.holds for p in self.propositions)


# name, statement, the cells it covers, and when a covered cell must vanish
_PROPOSITIONS = (
    ("cosymplectic-only",
     "once both factors have half-dimension at least 2, the tensor "
     "vanishes identically only for a cosymplectic pair",
     lambda cell: cell.m1 >= 2 and cell.m2 >= 2,
     lambda cell: cell.factor1 == cell.factor2 == "cosymplectic"),
    ("unit-sasakian-cosymplectic",
     "a sasakian times cosymplectic product vanishes exactly when the "
     "sasakian factor has half-dimension 1",
     lambda cell: {cell.factor1, cell.factor2} == {"sasakian", "cosymplectic"},
     lambda cell: (cell.m1 if cell.factor1 == "sasakian" else cell.m2) == 1),
)


def _propositions(cells) -> tuple:
    """Each bundled proposition judged over the cells; its counterexamples are
    the covered cells whose vanishing differs from what it says."""
    out = []
    for name, statement, covers, vanishes in _PROPOSITIONS:
        bad = tuple(c for c in cells if covers(c) and vanishes(c) != (c.verdict == VERDICT_ZERO))
        out.append(Proposition(name, statement, not bad, bad))
    return tuple(out)


def scan(
    max_m1: int = 3,
    max_m2: int = 3,
    condition: Condition | str = Condition.ASTHENO,
    convention: Convention | str = Convention.GRADED,
    ring_reduce: bool = True,
) -> ScanReport:
    """Verdict matrix over the pure structure pairs and half-dimensions.

    The tensor is built once per geometry by ``calculus._tensor``, the
    builder of ``condition_tensor`` without its graded guard, in O(1) Scalar
    operations, and each distinct tensor is reduced and judged once, its
    verdict row reused by every geometry where it recurs (the skt tensor takes
    only four values over any grid).  The pure kinds pin only zeros, the
    only pins ``_verdicts`` takes (nonzero pins enter only in ``classify``),
    so each pair is judged on the reduced tensor's support, and a residual
    is built only where a relation must be tried: the ties of the sasakian x
    sasakian and kenmotsu x kenmotsu pairs.  The two bundled propositions
    are evaluated over the scanned range when the condition is astheno;
    other conditions carry no propositions.
    """
    condition = Condition(condition)
    convention = Convention(convention)
    kinds = [(kind1, kind2) for kind1 in PURE_KINDS for kind2 in PURE_KINDS]
    pairs = [pure_pair(kind1, kind2) for kind1, kind2 in kinds]
    pins = [(frozenset(pair.assignment()), pair.forbidden_zero_params()) for pair in pairs]
    rows: dict = {}  # tensor content -> (verdict, annihilating) per pair
    cells = []
    for m1 in range(1, max_m1 + 1):
        for m2 in range(1, max_m2 + 1):
            tensor = _tensor(condition, ProductGeometry(m1, m2), convention)
            key = frozenset((mono, frozenset(s.terms.items())) for mono, s in tensor.terms.items())
            row = rows.get(key)
            if row is None:
                reduced = tensor.reduce() if ring_reduce else tensor
                row = rows[key] = [
                    (verdict, analysis.annihilating)
                    for verdict, analysis in _verdicts(reduced, pins, ring_reduce)
                ]
            for (kind1, kind2), (verdict, conditions) in zip(kinds, row):
                cells.append(ScanCell(m1, m2, kind1, kind2, verdict, conditions))
    cells = tuple(cells)
    propositions = _propositions(cells) if condition is Condition.ASTHENO else ()
    return ScanReport(condition, convention, max_m1, max_m2, cells, propositions)
