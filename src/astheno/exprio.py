r"""Text grammar and JSON records for forms.

Grammar (whitespace insensitive)::

    form   := term (('+' | '-') term)*
    term   := atom (('*' | '/\') atom)*
    atom   := rational | param ('^' nat)? | generator ('^' nat)? | '(' form ')'

with params ``a1 b1 a2 b2``, generators ``eta1 eta2 Phi1 Phi2`` and rationals
``p/q`` (optional sign, no decimals).  ``*`` and ``/\`` are the same graded
product; scalars are degree-0 forms, so ``2*b1*a2*Phi2/\Phi1`` parses to the
canonical ``2*b1*a2*Phi1/\Phi2``.  Parentheses nest at most
``MAX_NESTING`` deep, and the products of one parse do at most ``MAX_WORK``
(from ``algebra``) units of work.

Printing is deterministic (terms ordered by degree then exponent word,
coefficient monomials by exponent vector) and round-trips exactly:
``parse(print_text(f)) == f`` and ``from_record(to_record(f)) == f``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import MAX_WORK, Form, Monomial, _size
from .scalars import _UNIT, PARAMS, Scalar, _accumulate

GENERATORS = ("eta1", "eta2", "Phi1", "Phi2")

_GENERATOR_MONOMIALS = {
    "eta1": Monomial(1, 0, 0, 0),
    "eta2": Monomial(0, 1, 0, 0),
    "Phi1": Monomial(0, 0, 1, 0),
    "Phi2": Monomial(0, 0, 0, 1),
}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class RecordError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# one alternative per token kind, tried in order; SPACE and NEWLINE are dropped.
# [0-9], not \d: \d also admits other scripts' decimal digits, such as '١'
_LEXEME = re.compile(r"""
    (?P<NUMBER>[0-9]+) | (?P<IDENT>[^\W\d_][^\W_]*) | (?P<WEDGE>/\\) | (?P<SLASH>/)
  | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<CARET>\^) | (?P<LPAREN>\() | (?P<RPAREN>\))
  | (?P<SPACE>[ \t\r]+) | (?P<NEWLINE>\n) | (?P<BAD>.)
""", re.S | re.X)


def _tokenize(text: str) -> list:
    tokens = []
    line, start = 1, 0  # start: the offset where the current line begins
    for m in _LEXEME.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        # [^\W\d_] also admits numerics such as '²'; a name starts with a letter
        if kind == "BAD" or kind == "IDENT" and not text[m.start()].isalpha():
            raise ParseError(f"unexpected character {text[m.start()]!r}", line, col)
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
        elif kind != "SPACE":
            tokens.append(_Token(kind, m.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser

# parentheses nest by recursion, three frames a level; deeper input is
# refused with a ParseError rather than left to exhaust the stack
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.work = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek()
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise ParseError(f"{message}, found {what}", tok.line, tok.col)

    def expect(self, kind: str, message: str) -> _Token:
        if self.peek().kind != kind:
            self.fail(message)
        return self.advance()

    def parse(self) -> Form:
        form = self.form()
        if self.peek().kind != "EOF":
            self.fail("unexpected trailing input")
        return form

    def form(self) -> Form:
        # every signed summand accumulates into one word -> coefficient-terms
        # map, so a sum costs linear time; adding Forms copies the running total
        words: dict = {}
        sign = 1
        while True:
            for mono, scalar in self.term().terms.items():
                acc = words.setdefault(mono, {})
                for exps, coeff in scalar.terms.items():
                    _accumulate(acc, exps, sign * coeff)
            if self.peek().kind not in ("PLUS", "MINUS"):
                return Form._of({m: Scalar._of(acc) for m, acc in words.items() if acc})
            sign = 1 if self.advance().kind == "PLUS" else -1

    def term(self) -> Form:
        value = self.atom()
        while self.peek().kind in ("STAR", "WEDGE"):
            op = self.advance()
            rhs = self.atom()
            self.work += _size(value) * _size(rhs)
            if self.work > MAX_WORK:
                raise ParseError("expression too large", op.line, op.col)
            value = value.wedge(rhs)
        return value

    def atom(self) -> Form:
        tok = self.peek()
        if tok.kind in ("MINUS", "PLUS"):
            sign = -1 if tok.kind == "MINUS" else 1
            self.advance()
            if self.peek().kind != "NUMBER":
                self.fail("expected a number after sign")
            return self.rational(sign)
        if tok.kind == "NUMBER":
            return self.rational(1)
        if tok.kind == "IDENT":
            return self.symbol()
        if tok.kind == "LPAREN":
            open_tok = self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}",
                    open_tok.line, open_tok.col,
                )
            value = self.form()
            self.depth -= 1
            if self.peek().kind != "RPAREN":
                raise ParseError(
                    "unbalanced parenthesis", open_tok.line, open_tok.col
                )
            self.advance()
            return value
        self.fail("expected a rational, parameter, generator or '('")

    def number(self, message: str) -> int:
        tok = self.expect("NUMBER", message)
        try:
            return int(tok.text)
        except ValueError:
            # past the interpreter's limit on int-from-str digits
            raise ParseError("number too long", tok.line, tok.col) from None

    def rational(self, sign: int) -> Form:
        num = self.number("expected a number")
        value = Fraction(sign * num)
        if self.peek().kind == "SLASH":
            slash = self.advance()
            den = self.number("expected a denominator")
            if den == 0:
                raise ParseError("zero denominator", slash.line, slash.col)
            value = Fraction(sign * num, den)
        return Form.from_scalar(value)

    def symbol(self) -> Form:
        tok = self.advance()
        name = tok.text
        if name in PARAMS:
            base = Form.from_scalar(Scalar.param(name))
        elif name in GENERATORS:
            base = Form.monomial(_GENERATOR_MONOMIALS[name])
        else:
            raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
        if self.peek().kind == "CARET":
            caret = self.advance()
            if self.peek().kind == "MINUS":
                raise ParseError("negative exponent", caret.line, caret.col)
            base = base.power(self.number("expected an exponent"))
        return base


def parse(text: str) -> Form:
    """Parse grammar text into a canonical form."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printers


def _sorted_monomials(form: Form) -> list:
    return sorted(form.terms, key=lambda m: (m.degree(), m))


def _join_signed(entries: list) -> str:
    """Join rendered terms with + and -, folding a leading minus into the operator."""
    out = entries[0]
    for entry in entries[1:]:
        out += f" - {entry[1:]}" if entry.startswith("-") else f" + {entry}"
    return out


class _Style(NamedTuple):
    """What one output format writes for each part of a form; _render does the rest."""

    params: tuple  # names of a1, b1, a2, b2
    generators: tuple  # names of eta1, eta2, Phi1, Phi2
    exponent: Callable  # suffix for an exponent > 1
    rational: Callable  # writes a nonzero coefficient
    times: str  # between a number and the parameters of a coefficient term, and between those
    wedge: str  # between the generators of a word
    scale: str  # between a coefficient and its word
    group: str  # wraps a coefficient of several terms
    units: dict  # coefficient -> the bare sign it is written as before a symbol


def _latex_rational(value) -> str:
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


_TEXT = _Style(
    params=PARAMS,
    generators=GENERATORS,
    exponent=lambda e: f"^{e}",
    rational=str,
    times="*",
    wedge="/\\",
    scale="*",
    group="({})",
    units={1: ""},
)

_LATEX = _Style(
    params=(r"\alpha_1", r"\beta_1", r"\alpha_2", r"\beta_2"),
    generators=(r"\eta_1", r"\eta_2", r"\Phi_1", r"\Phi_2"),
    exponent=lambda e: f"^{e}" if e < 10 else f"^{{{e}}}",
    rational=_latex_rational,
    times="",
    wedge=r"\wedge",
    scale=r"\,",
    group=r"\left({}\right)",
    units={1: "", -1: "-"},
)


def _symbols(style: _Style, names: tuple, exps, sep: str) -> str:
    return sep.join([n if e == 1 else n + style.exponent(e) for n, e in zip(names, exps) if e])


def _scaled(style: _Style, coeff, body: str, sep: str) -> str:
    """A number before a symbol string, a unit number as its bare sign."""
    if not body:
        return style.rational(coeff)
    # a Fraction is never a unit (denominator > 1), and hashing one is slow
    if type(coeff) is int and coeff in style.units:
        return style.units[coeff] + body
    return style.rational(coeff) + sep + body


def _render(style: _Style, form: Form) -> str:
    if form.is_zero:
        return "0"
    rendered = []
    for mono in _sorted_monomials(form):
        terms = form.terms[mono].terms
        word = _symbols(style, style.generators, mono, style.wedge)
        if len(terms) == 1 and _UNIT in terms:
            rendered.append(_scaled(style, terms[_UNIT], word, style.scale))
            continue
        coeff = _join_signed([
            _scaled(style, c, _symbols(style, style.params, exps, style.times), style.times)
            for exps, c in sorted(terms.items())
        ])
        if len(terms) > 1:
            coeff = style.group.format(coeff)
        rendered.append(coeff + style.scale + word if word else coeff)
    return _join_signed(rendered)


def print_text(form: Form) -> str:
    """Deterministic grammar text; parse(print_text(f)) == f."""
    return _render(_TEXT, form)


def print_latex(form: Form) -> str:
    return _render(_LATEX, form)


def _repr(name: str, form: Form) -> str:
    """``name(<grammar text>)``, the repr of a Form or Scalar; it must not raise."""
    try:
        return f"{name}({print_text(form)})"
    except ValueError:
        # a coefficient past the interpreter's int-to-str digit limit
        return f"<{name} too long to print>"


# ---------------------------------------------------------------------------
# JSON records


def to_record(form: Form) -> dict:
    """Lossless plain-dict encoding, deterministic field and term order."""
    terms = []
    for mono in _sorted_monomials(form):
        scalar = form.terms[mono]
        coeff = [
            {
                "a1": exps[0],
                "b1": exps[1],
                "a2": exps[2],
                "b2": exps[3],
                "num": scalar.terms[exps].numerator,
                "den": scalar.terms[exps].denominator,
            }
            for exps in sorted(scalar.terms)
        ]
        terms.append(
            {
                "eta1": mono.e1,
                "eta2": mono.e2,
                "phi1": mono.p,
                "phi2": mono.q,
                "coeff": coeff,
            }
        )
    return {"terms": terms}


def _show(value) -> str:
    """repr of a record value for an error message, which must not raise."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        # an int past the interpreter's int-to-str digit limit, a container
        # holding one, or a container nested past the recursion limit
        return f"<{type(value).__name__} too long to print>"


def _require_int(value, path: str, minimum: int | None = 0, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecordError(f"expected an integer, got {_show(value)}", path)
    if minimum is not None and value < minimum:
        raise RecordError(f"expected >= {minimum}, got {_show(value)}", path)
    if maximum is not None and value > maximum:
        raise RecordError(f"expected <= {maximum}, got {_show(value)}", path)
    return value


def _require_keys(obj: dict, keys: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise RecordError(f"expected an object, got {type(obj).__name__}", path)
    extra = set(obj) - keys
    if extra:
        # keys of a record built in Python need not be str, so sort their reprs
        raise RecordError(f"unknown fields [{', '.join(sorted(map(_show, extra)))}]", path)
    missing = keys - set(obj)
    if missing:
        raise RecordError(f"missing fields {sorted(missing)}", path)


def from_record(record: dict) -> Form:
    _require_keys(record, {"terms"}, "$")
    terms = record["terms"]
    if not isinstance(terms, list):
        raise RecordError("expected a list", "$.terms")
    out: dict[Monomial, Scalar] = {}
    for i, term in enumerate(terms):
        path = f"$.terms[{i}]"
        _require_keys(term, {"eta1", "eta2", "phi1", "phi2", "coeff"}, path)
        mono = Monomial(
            _require_int(term["eta1"], f"{path}.eta1", maximum=1),
            _require_int(term["eta2"], f"{path}.eta2", maximum=1),
            _require_int(term["phi1"], f"{path}.phi1"),
            _require_int(term["phi2"], f"{path}.phi2"),
        )
        if mono in out:
            raise RecordError("duplicate monomial", path)
        coeff_entries = term["coeff"]
        if not isinstance(coeff_entries, list) or not coeff_entries:
            raise RecordError("expected a non-empty list", f"{path}.coeff")
        scalar_terms: dict = {}
        for j, entry in enumerate(coeff_entries):
            cpath = f"{path}.coeff[{j}]"
            _require_keys(entry, {"a1", "b1", "a2", "b2", "num", "den"}, cpath)
            exps = tuple(
                _require_int(entry[name], f"{cpath}.{name}") for name in PARAMS
            )
            if exps in scalar_terms:
                raise RecordError("duplicate exponent vector", cpath)
            num = _require_int(entry["num"], f"{cpath}.num", minimum=None)
            if num == 0:
                raise RecordError("zero coefficient is not stored", f"{cpath}.num")
            den = _require_int(entry["den"], f"{cpath}.den", minimum=1)
            scalar_terms[exps] = Fraction(num, den)
        out[mono] = Scalar(scalar_terms)
    return Form(out)
