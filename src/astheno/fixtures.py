"""Bundled reference expressions: ten case tables plus five derivation displays.

Everything in data/reference_tables.json is transcribed verbatim, typos
included; anomalies carry a descriptive ``note``, and the rows' printed 0/1
header flags are kept but not loaded. :mod:`astheno.classify` decides how
each row relates to the engine output, so nothing is silently corrected here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .algebra import Form, ProductGeometry
from .exprio import parse

EQUATION_NAMES = ("d_omega", "dc_omega", "ddc_omega", "d_wedge_dc", "ddc_wedge_omega")


@dataclass(frozen=True)
class RowFixture:
    table_id: int
    row: int
    factor1: str
    factor2: str
    expr: str
    form: Form = field(compare=False)
    note: str | None = None

    @property
    def is_printed_zero(self) -> bool:
        return self.expr.strip() == "0"


@dataclass(frozen=True)
class TableFixture:
    table_id: int
    m1: int
    m2: int
    power: int  # the tensor is d(d_c(omega^power))
    rows: tuple

    @property
    def geometry(self) -> ProductGeometry:
        return ProductGeometry(self.m1, self.m2)


@lru_cache(maxsize=1)
def _raw() -> dict:
    payload = resources.files("astheno.data").joinpath("reference_tables.json")
    return json.loads(payload.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def _equations() -> dict:
    out = {}
    for name, entry in _raw()["equations"].items():
        out[name] = parse(entry["expr"])
    return out


def equation_form(name: str) -> Form:
    """Parsed reference display by name; see EQUATION_NAMES for valid ids."""
    table = _equations()
    if name not in table:
        raise KeyError(f"unknown reference equation {name!r}")
    return table[name]


def equation_source(name: str) -> str:
    entry = _raw()["equations"].get(name)
    if entry is None:
        raise KeyError(f"unknown reference equation {name!r}")
    return entry["expr"]


@lru_cache(maxsize=1)
def _tables() -> dict:
    out = {}
    for entry in _raw()["tables"]:
        rows = []
        for row in entry["rows"]:
            rows.append(
                RowFixture(
                    table_id=entry["id"],
                    row=row["row"],
                    factor1=row["factor1"],
                    factor2=row["factor2"],
                    expr=row["expr"],
                    form=parse(row["expr"]),
                    note=row.get("note"),
                )
            )
        out[entry["id"]] = TableFixture(
            table_id=entry["id"],
            m1=entry["m1"],
            m2=entry["m2"],
            power=entry["power"],
            rows=tuple(rows),
        )
    return out


def table_ids() -> tuple:
    return tuple(sorted(_tables()))


def load_table(table_id: int) -> TableFixture:
    tables = _tables()
    if table_id not in tables:
        raise KeyError(f"no bundled table with id {table_id}")
    return tables[table_id]


def all_tables() -> tuple:
    return tuple(_tables()[i] for i in table_ids())
