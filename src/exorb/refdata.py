"""Machine-readable reference tables used as the verification oracle.

The tables live in data/orbit_tables.json (documented field by field in
docs/refdata.md).  Checks key on diagrams and invariants, never on orbit
names; the rank-2 naming ambiguity is carried as an alt_label.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .roots import TypeRank

__all__ = [
    "OrbitRecord",
    "ExceptionRecord",
    "RefData",
    "load_tables",
    "REFDATA_ENV",
]

REFDATA_ENV = "EXORB_REFDATA"
EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


@dataclass(frozen=True)
class OrbitRecord:
    type_rank: TypeRank
    label: str
    diagram: tuple[int, ...]
    reachable: bool
    strongly_reachable: bool
    rigid: bool
    rigid_source: str
    dim_ce: int
    ce_weights: tuple[int, ...]
    alt_label: str | None = None


@dataclass(frozen=True)
class ExceptionRecord:
    type_rank: TypeRank
    label: str
    diagram: tuple[int, ...]
    sheet_rank: int
    dim_ce: int


RIGID_SOURCES = ("reachable-table", "exception-list", "complement")
_SOURCE_MESSAGE = "rigid_source is not one of " + ", ".join(RIGID_SOURCES)


def _is_int(x: object) -> bool:
    return type(x) is int  # a bool is an int to Python, not to the tables


def _require(ok: bool, row: dict, kind: str, message: str) -> None:
    """Raise `ValueError` naming the row unless ok; messages are formatted
    only then, so a good table costs no formatting."""
    if not ok:
        raise ValueError(f"{kind} row {row.get('label')!r}: {message}")


def _object(row: object, kind: str) -> dict:
    if not isinstance(row, dict):
        raise ValueError(f"{kind} row {row!r} is not an object")
    return row


def _diagram(row: dict, tr: TypeRank, kind: str) -> tuple[int, ...]:
    """The row's diagram: a list of labels in {0, 1, 2}, one per simple root."""
    d = row["diagram"]
    if not (
        isinstance(d, list)
        and len(d) == tr.rank
        and all(_is_int(v) and v in (0, 1, 2) for v in d)
    ):
        _require(False, row, kind, f"diagram {d!r} is not {tr.rank} labels in {{0, 1, 2}}")
    return tuple(d)


def _orbit_record(row: dict, tr: TypeRank, kind: str) -> OrbitRecord:
    """An orbit row of type tr, checked against the field table of docs/refdata.md."""
    row = _object(row, kind)
    alt, weights = row.get("alt_label"), row["ce_weights"]
    _require(isinstance(row["label"], str), row, kind, "label is not a string")
    _require(alt is None or isinstance(alt, str), row, kind, "alt_label is not a string")
    for flag in ("reachable", "strongly_reachable", "rigid"):
        _require(type(row[flag]) is bool, row, kind, f"{flag} is not a boolean")
    _require(row["rigid_source"] in RIGID_SOURCES, row, kind, _SOURCE_MESSAGE)
    _require(
        isinstance(weights, list) and all(_is_int(w) for w in weights),
        row,
        kind,
        "ce_weights is not a list of ints",
    )
    _require(
        _is_int(row["dim_ce"]) and row["dim_ce"] == len(weights),
        row,
        kind,
        "dim_ce is not an int equal to the number of ce_weights",
    )
    return OrbitRecord(
        type_rank=tr,
        label=row["label"],
        diagram=_diagram(row, tr, kind),
        reachable=row["reachable"],
        strongly_reachable=row["strongly_reachable"],
        rigid=row["rigid"],
        rigid_source=row["rigid_source"],
        dim_ce=row["dim_ce"],
        ce_weights=tuple(weights),
        alt_label=alt,
    )


def _exception_record(row: dict) -> ExceptionRecord:
    """An exception row, checked against the field table of docs/refdata.md."""
    kind = "exception"
    row = _object(row, kind)
    _require(row["type"] in EXCEPTIONAL, row, kind, "type is no exceptional type")
    _require(isinstance(row["label"], str), row, kind, "label is not a string")
    _require(_is_int(row["sheet_rank"]), row, kind, "sheet_rank is not an int")
    _require(_is_int(row["dim_ce"]), row, kind, "dim_ce is not an int")
    tr = TypeRank.from_string(row["type"])
    return ExceptionRecord(
        type_rank=tr,
        label=row["label"],
        diagram=_diagram(row, tr, kind),
        sheet_rank=row["sheet_rank"],
        dim_ce=row["dim_ce"],
    )


class RefData:
    """Loaded reference tables with diagram-keyed access.

    Every field of every row is checked against docs/refdata.md on loading,
    no two rows of a type may share a diagram, a label or an alt_label, and
    no two exception rows may share a type and a diagram or a type and a
    label; a file that breaks the table raises `ValueError` as a whole.
    """

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or doc.get("schema") != "exorb.orbit-tables/1":
            raise ValueError("unrecognized reference-table schema")
        types, exceptions = doc["types"], doc["exceptions"]
        if not isinstance(types, dict) or any(
            t not in EXCEPTIONAL or not isinstance(rows, list) for t, rows in types.items()
        ):
            raise ValueError("types must map exceptional type names to lists of rows")
        if not isinstance(exceptions, list):
            raise ValueError("exceptions must be a list of rows")
        self._by_type: dict[str, tuple[OrbitRecord, ...]] = {}
        self._by_diagram: dict[tuple[str, tuple[int, ...]], OrbitRecord] = {}
        for tname, rows in types.items():
            tr = TypeRank.from_string(tname)
            records = tuple(_orbit_record(row, tr, tname) for row in rows)
            seen: set[tuple[str, object]] = set()
            for row, rec in zip(rows, records):
                keys = ("diagram", rec.diagram), ("label", rec.label), ("alt_label", rec.alt_label)
                for key in keys:
                    if key in seen:
                        message = f"repeats the {key[0]} {key[1]!r} of an earlier row"
                        _require(False, row, tname, message)
                    if key[1] is not None:
                        seen.add(key)
                self._by_diagram[(tname, rec.diagram)] = rec
            self._by_type[tname] = records
        self._exceptions = tuple(_exception_record(row) for row in exceptions)
        seen = set()
        for row, rec in zip(exceptions, self._exceptions):
            for key in ("diagram", rec.diagram), ("label", rec.label):
                if (rec.type_rank, *key) in seen:
                    message = f"repeats the type and {key[0]} {key[1]!r} of an earlier row"
                    _require(False, row, "exception", message)
                seen.add((rec.type_rank, *key))

    def orbits(self, t: TypeRank | str) -> tuple[OrbitRecord, ...]:
        name = str(t) if isinstance(t, TypeRank) else t
        try:
            return self._by_type[name]
        except KeyError:
            raise ValueError(f"no reference tables for type {name}") from None

    def lookup(self, t: TypeRank | str, diagram: tuple[int, ...]) -> OrbitRecord:
        name = str(t) if isinstance(t, TypeRank) else t
        try:
            return self._by_diagram[(name, tuple(diagram))]
        except KeyError:
            raise ValueError(f"unknown diagram {diagram} for type {name}") from None

    def by_label(self, t: TypeRank | str, label: str) -> OrbitRecord:
        records = self.orbits(t)
        for rec in records:
            if rec.label == label:
                return rec
        for rec in records:
            if rec.alt_label == label:
                return rec
        raise ValueError(f"unknown orbit label {label!r} for type {t}")

    def rigid_flags(self, t: TypeRank | str) -> dict[tuple[int, ...], bool]:
        return {rec.diagram: rec.rigid for rec in self.orbits(t)}

    def exceptions(self) -> tuple[ExceptionRecord, ...]:
        return self._exceptions


def _default_path() -> str | None:
    return os.environ.get(REFDATA_ENV)


@lru_cache(maxsize=None)
def _load_cached(path: str | None) -> RefData:
    if path is None:
        text = (
            resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return RefData(json.loads(text))


def load_tables(path: str | None = None) -> RefData:
    """Load reference tables from `path`, $EXORB_REFDATA, or the bundled file."""
    return _load_cached(path if path is not None else _default_path())
