"""Command-line front end: classify, analyze, table, verify.

Exit codes: 0 success, 1 usage error, 2 verification mismatch, 3 internal
failure.  JSON output is canonical (sorted keys, compact separators, only
integers/strings/booleans), so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass
from functools import lru_cache

from .algebra import LieAlgebra, build_lie_algebra
from .orbits import (
    DEFAULT_TRIALS,
    NilpotentOrbit,
    WeightedDynkinDiagram,
    _orbit_dim,
    enumerate_orbits,
    orbit,
)
from .reach import OrbitAnalysis, analyze
from .refdata import EXCEPTIONAL, REFDATA_ENV, OrbitRecord, RefData, load_tables
from .roots import TypeRank

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INTERNAL = 3

FORMATS = ("text", "csv", "json")
# `classify` sweeps 3^rank label vectors; A10's 3^10 take a few seconds, and
# every further rank triples the time.
MAX_SWEEP = 3**10


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    type: TypeRank
    orbit: str | None = None
    seed: int = 1
    format: str = "text"
    trials: int = DEFAULT_TRIALS
    kind: str = "quotient"
    refdata_path: str | None = None


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _tables(cfg: RunConfig) -> RefData:
    """The reference tables; a missing or malformed file is a usage error."""
    try:
        return load_tables(cfg.refdata_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        where = cfg.refdata_path or os.environ.get(REFDATA_ENV) or "the bundled file"
        raise UsageError(f"cannot load reference tables from {where}: {exc}") from None


def _record(tables: RefData, t: TypeRank, labels: tuple[int, ...]) -> OrbitRecord | None:
    """The table row of an orbit, or None where the tables have none."""
    try:
        return tables.lookup(t, labels)
    except ValueError:
        return None


def _cell(value) -> str:
    """A JSON value as a text or CSV cell: None is "-", a list is comma-joined."""
    if value is None:
        return "-"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def _render(cfg: RunConfig, columns, records: list[dict], payload) -> str:
    """`payload` as JSON, or one row per record of (header, key, cell) columns."""
    if cfg.format == "json":
        return _canonical_json(payload)
    header = [h for h, _, _ in columns]
    rows = [[cell(r[key]) for _, key, cell in columns] for r in records]
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max([len(h), *(len(r[c]) for r in rows)]) for c, h in enumerate(header)]
    return "".join(
        "  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip() + "\n"
        for r in [header, *rows]
    )


def _cmd_classify(cfg: RunConfig) -> tuple[int, str]:
    count = 3**cfg.type.rank
    if count > MAX_SWEEP:
        raise UsageError(
            f"classify {cfg.type} would sweep {count:,} label vectors, "
            f"more than the limit of {MAX_SWEEP:,} (3^10)"
        )
    L = build_lie_algebra(cfg.type)
    tables = _tables(cfg)
    orbits = enumerate_orbits(L, seed=cfg.seed, trials=cfg.trials)
    records = [
        {
            "label": getattr(_record(tables, cfg.type, o.diagram.labels), "label", None),
            "diagram": list(o.diagram.labels),
            "dim_orbit": _orbit_dim(L, o.diagram.labels),
        }
        for o in orbits
    ]
    payload = {
        "schema": "exorb.classify/1",
        "type": str(cfg.type),
        "seed": cfg.seed,
        "orbit_count": len(orbits),
        "orbits": records,
    }
    columns = [(k, k, _cell) for k in ("label", "diagram", "dim_orbit")]
    return EXIT_OK, _render(cfg, columns, records, payload)


def _resolve_orbit(cfg: RunConfig, L: LieAlgebra, tables: RefData) -> NilpotentOrbit:
    selector = cfg.orbit
    if not selector:
        raise UsageError("analyze requires --orbit")
    if any(ch.isdigit() for ch in selector) and all(
        ch.isdigit() or ch in ", " for ch in selector
    ):
        try:
            d = WeightedDynkinDiagram.from_string(selector)
        except ValueError:
            raise UsageError(
                f"bad diagram {selector!r}: expected {L.rank} labels in {{0, 1, 2}}"
            ) from None
        if len(d.labels) != L.rank:
            raise UsageError(f"diagram has {len(d.labels)} labels, expected {L.rank}")
    else:
        if str(cfg.type) not in EXCEPTIONAL:
            raise UsageError("orbit labels need reference tables for this type")
        try:
            d = WeightedDynkinDiagram(tables.by_label(cfg.type, selector).diagram)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    o = orbit(L, d, cfg.seed, cfg.trials)
    if o is None:
        raise UsageError(f"not a weighted Dynkin diagram for {cfg.type}: {d}")
    return o


def _cmd_analyze(cfg: RunConfig) -> tuple[int, str]:
    L = build_lie_algebra(cfg.type)
    tables = _tables(cfg)
    o = _resolve_orbit(cfg, L, tables)
    a = analyze(L, o)
    rec = _record(tables, cfg.type, o.diagram.labels)
    payload = {
        "schema": "exorb.analysis/1",
        "type": str(cfg.type),
        "label": getattr(rec, "label", None),
        "diagram": list(o.diagram.labels),
        "dim_orbit": L.dim - a.dim_ge,
        "dim_ge": a.dim_ge,
        "dim_derived": a.dim_derived,
        "reachable": a.reachable,
        "strongly_reachable": a.strongly_reachable,
        "panyushev_generated": a.panyushev_generated,
        "dim_ce": a.dim_ce,
        "ce_weights": list(a.ce_weights),
        "rigid": getattr(rec, "rigid", None),
    }
    names = "type label diagram dim_orbit dim_ge dim_derived reachable strongly_reachable"
    columns = [(k, k, _cell) for k in names.split()]
    columns += [
        ("panyushev", "panyushev_generated", _cell),
        ("dim_ce", "dim_ce", _cell),
        ("ce_weights", "ce_weights", lambda v: _cell(v) or "-"),
        ("rigid", "rigid", _cell),
    ]
    if cfg.format == "text":
        return EXIT_OK, "".join(f"{h:<18} {cell(payload[k])}\n" for h, k, cell in columns)
    return EXIT_OK, _render(cfg, columns, [payload], payload)


def _sweep(L: LieAlgebra, seed: int, trials: int) -> list[OrbitAnalysis]:
    return [analyze(L, o) for o in enumerate_orbits(L, seed=seed, trials=trials)]


def _cmd_table(cfg: RunConfig) -> tuple[int, str]:
    if str(cfg.type) not in EXCEPTIONAL:
        raise UsageError("tables are defined for the exceptional types only")
    tables = _tables(cfg)
    L = build_lie_algebra(cfg.type)
    reachable = cfg.kind == "reachable"
    records = []
    for a in _sweep(L, cfg.seed, cfg.trials):
        if reachable and not a.reachable:
            continue
        labels = a.orbit.diagram.labels
        rec = _record(tables, cfg.type, labels)
        row = {"label": getattr(rec, "label", None), "diagram": list(labels)}
        if not reachable:
            row.update(dim_ce=a.dim_ce, ce_weights=list(a.ce_weights))
        elif rec is None:
            raise UsageError(
                "the reference tables cannot serve this run: "
                f"unknown diagram {labels} for type {cfg.type}"
            )
        else:
            row.update(strongly_reachable=a.strongly_reachable, rigid=rec.rigid)
        records.append(row)
    payload = {
        "schema": "exorb.table/1",
        "type": str(cfg.type),
        "kind": cfg.kind,
        "seed": cfg.seed,
        "rows": records,
    }
    columns = [("label", "label", _cell), ("diagram", "diagram", _cell)]
    if reachable:
        columns += [
            (h, k, lambda v: "x" if v else "")
            for h, k in (("strong", "strongly_reachable"), ("rigid", "rigid"))
        ]
    else:
        columns += [("dim_ce", "dim_ce", _cell), ("weights", "ce_weights", _cell)]
    return EXIT_OK, _render(cfg, columns, records, payload)


def _verify_type(cfg: RunConfig, tables: RefData, tname: str) -> tuple[int, list[dict]]:
    L = build_lie_algebra(tname)
    try:
        records = {rec.diagram: rec for rec in tables.orbits(tname)}
    except ValueError as exc:
        raise UsageError(f"the reference tables cannot serve this run: {exc}") from None
    analyses = {
        a.orbit.diagram.labels: a for a in _sweep(L, cfg.seed, cfg.trials)
    }
    mismatches: list[dict] = []

    def bad(diagram, field, computed, expected) -> None:
        computed, expected = (
            list(v) if isinstance(v, tuple) else v for v in (computed, expected)
        )
        mismatches.append(
            {
                "diagram": list(diagram),
                "field": field,
                "computed": computed,
                "expected": expected,
            }
        )

    for diagram in sorted(set(records) | set(analyses)):
        rec = records.get(diagram)
        a = analyses.get(diagram)
        if rec is None:
            bad(diagram, "classified", True, False)
            continue
        if a is None:
            bad(diagram, "classified", False, True)
            continue
        for field in ("reachable", "strongly_reachable", "dim_ce", "ce_weights"):
            if getattr(a, field) != getattr(rec, field):
                bad(diagram, field, getattr(a, field), getattr(rec, field))
        if a.panyushev_generated != a.reachable:
            bad(diagram, "panyushev_generated", a.panyushev_generated, a.reachable)
        if a.strongly_reachable != (a.reachable and rec.rigid):
            bad(diagram, "strong_iff_reachable_and_rigid", a.strongly_reachable, a.reachable and rec.rigid)
    for ex in tables.exceptions():
        if str(ex.type_rank) != tname:
            continue
        a = analyses.get(ex.diagram)
        if a is None or a.dim_ce != ex.dim_ce:
            bad(ex.diagram, "exception_dim_ce", None if a is None else a.dim_ce, ex.dim_ce)
        if ex.sheet_rank == ex.dim_ce:
            bad(ex.diagram, "exception_sheet_rank", ex.sheet_rank, ex.dim_ce)
    return len(analyses), mismatches


def _cmd_verify(cfg: RunConfig, type_names: list[str]) -> tuple[int, str]:
    if cfg.format == "csv":
        raise UsageError("verify reports in text or json")
    tables = _tables(cfg)
    report_types = {}
    total_mismatches = 0
    for tname in type_names:
        checked, mismatches = _verify_type(cfg, tables, tname)
        total_mismatches += len(mismatches)
        report_types[tname] = {
            "orbits_checked": checked,
            "mismatches": mismatches,
        }
    payload = {
        "schema": "exorb.verify/1",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "status": "ok" if total_mismatches == 0 else "mismatch",
        "types": report_types,
    }
    status = EXIT_OK if total_mismatches == 0 else EXIT_MISMATCH
    if cfg.format == "json":
        return status, _canonical_json(payload)
    lines = []
    for tname in type_names:
        entry = report_types[tname]
        lines.append(
            f"{tname}: {entry['orbits_checked']} orbits checked, "
            f"{len(entry['mismatches'])} mismatches"
        )
        for m in entry["mismatches"]:
            lines.append(
                f"  {_cell(m['diagram'])} {m['field']}: "
                f"computed={m['computed']} expected={m['expected']}"
            )
    lines.append("status: " + payload["status"])
    return status, "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2)
        raise UsageError(message)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing does not change it."""
    parser = _Parser(prog="exorb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("type", help="simple type, e.g. G2, F4, E6, E7, E8, A2")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--trials",
            type=int,
            default=DEFAULT_TRIALS,
            help="draws per label vector before the search gives up with exit 3",
        )
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--refdata", default=None, help="path to reference tables")

    common(sub.add_parser("classify", help="list all nonzero nilpotent orbits"))
    p = sub.add_parser("analyze", help="analyze a single orbit")
    common(p)
    p.add_argument("--orbit", required=True, help="diagram '0,1,0,...' or orbit label")
    p = sub.add_parser("table", help="render a reference table from live computation")
    common(p)
    p.add_argument("--kind", choices=("reachable", "quotient"), default="quotient")
    p = sub.add_parser("verify", help="recompute everything and diff against tables")
    common(p)
    return parser


def run(cfg: RunConfig, type_names: list[str] | None = None) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output)."""
    if cfg.trials < 1:
        raise UsageError("--trials must be a positive integer")
    if cfg.command == "classify":
        return _cmd_classify(cfg)
    if cfg.command == "analyze":
        return _cmd_analyze(cfg)
    if cfg.command == "table":
        return _cmd_table(cfg)
    if cfg.command == "verify":
        return _cmd_verify(cfg, type_names or [str(cfg.type)])
    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        type_names: list[str] | None = None
        if ns.command == "verify" and ns.type.lower() == "all":
            type_names = list(EXCEPTIONAL)
            type_arg = TypeRank.from_string("G2")
        else:
            try:
                type_arg = TypeRank.from_string(ns.type)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        if ns.command in ("verify", "table") and type_names is None:
            if str(type_arg) not in EXCEPTIONAL:
                raise UsageError(f"{ns.command} supports the exceptional types only")
        cfg = RunConfig(
            command=ns.command,
            type=type_arg,
            orbit=getattr(ns, "orbit", None),
            seed=ns.seed,
            format=ns.format,
            trials=ns.trials,
            kind=getattr(ns, "kind", "quotient"),
            refdata_path=ns.refdata,
        )
        status, output = run(cfg, type_names)
        sys.stdout.write(output)
        return status
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
