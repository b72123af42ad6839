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
    "lookup",
    "exceptions",
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


def _diagram(row: dict, tr: TypeRank) -> tuple[int, ...]:
    """The row's diagram: a list of labels in {0, 1, 2}, one per simple root."""
    d = row["diagram"]
    if not (
        isinstance(d, list)
        and len(d) == tr.rank
        and all(type(v) is int and v in (0, 1, 2) for v in d)
    ):
        raise ValueError(
            f"{tr} row {row.get('label')!r}: diagram {d!r} is not a list of "
            f"{tr.rank} labels in {{0, 1, 2}}"
        )
    return tuple(d)


class RefData:
    """Loaded reference tables with diagram-keyed access."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or doc.get("schema") != "exorb.orbit-tables/1":
            raise ValueError("unrecognized reference-table schema")
        self._by_type: dict[str, tuple[OrbitRecord, ...]] = {}
        self._by_diagram: dict[tuple[str, tuple[int, ...]], OrbitRecord] = {}
        for tname, rows in doc["types"].items():
            tr = TypeRank.from_string(tname)
            records = []
            for row in rows:
                rec = OrbitRecord(
                    type_rank=tr,
                    label=row["label"],
                    diagram=_diagram(row, tr),
                    reachable=row["reachable"],
                    strongly_reachable=row["strongly_reachable"],
                    rigid=row["rigid"],
                    rigid_source=row["rigid_source"],
                    dim_ce=row["dim_ce"],
                    ce_weights=tuple(row["ce_weights"]),
                    alt_label=row.get("alt_label"),
                )
                records.append(rec)
                self._by_diagram[(tname, rec.diagram)] = rec
            self._by_type[tname] = tuple(records)
        self._exceptions = tuple(
            ExceptionRecord(
                type_rank=TypeRank.from_string(row["type"]),
                label=row["label"],
                diagram=_diagram(row, TypeRank.from_string(row["type"])),
                sheet_rank=row["sheet_rank"],
                dim_ce=row["dim_ce"],
            )
            for row in doc["exceptions"]
        )

    def types(self) -> tuple[str, ...]:
        return tuple(self._by_type)

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


def lookup(t: TypeRank | str, diagram: tuple[int, ...]) -> OrbitRecord:
    return load_tables().lookup(t, diagram)


def exceptions() -> tuple[ExceptionRecord, ...]:
    return load_tables().exceptions()
