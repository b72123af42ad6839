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
from .refdata import EXCEPTIONAL, REFDATA_ENV, RefData, load_tables
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


def _diagram_str(labels: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in labels)


def _tables(cfg: RunConfig) -> RefData:
    """The reference tables; a missing or malformed file is a usage error."""
    try:
        return load_tables(cfg.refdata_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        where = cfg.refdata_path or os.environ.get(REFDATA_ENV) or "the bundled file"
        raise UsageError(f"cannot load reference tables from {where}: {exc}") from None


def _label_for(tables: RefData, t: TypeRank, labels: tuple[int, ...]) -> str | None:
    if str(t) not in EXCEPTIONAL:
        return None
    try:
        return tables.lookup(t, labels).label
    except ValueError:
        return None


def _render_rows(cfg: RunConfig, header: list[str], rows: list[list[str]], payload) -> str:
    if cfg.format == "json":
        return _canonical_json(payload)
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _analysis_payload(
    t: TypeRank,
    L: LieAlgebra,
    a: OrbitAnalysis,
    label: str | None,
    rigid: bool | None,
) -> dict:
    return {
        "schema": "exorb.analysis/1",
        "type": str(t),
        "label": label,
        "diagram": list(a.orbit.diagram.labels),
        "dim_orbit": L.dim - a.dim_ge,
        "dim_ge": a.dim_ge,
        "dim_derived": a.dim_derived,
        "reachable": a.reachable,
        "strongly_reachable": a.strongly_reachable,
        "panyushev_generated": a.panyushev_generated,
        "dim_ce": a.dim_ce,
        "ce_weights": list(a.ce_weights),
        "rigid": rigid,
    }


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
    rows = []
    payload_orbits = []
    for o in orbits:
        labels = o.diagram.labels
        label = _label_for(tables, cfg.type, labels)
        dim = _orbit_dim(L, labels)
        rows.append([label or "-", _diagram_str(labels), str(dim)])
        payload_orbits.append(
            {"label": label, "diagram": list(labels), "dim_orbit": dim}
        )
    payload = {
        "schema": "exorb.classify/1",
        "type": str(cfg.type),
        "seed": cfg.seed,
        "orbit_count": len(orbits),
        "orbits": payload_orbits,
    }
    return EXIT_OK, _render_rows(cfg, ["label", "diagram", "dim_orbit"], rows, payload)


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
    label = _label_for(tables, cfg.type, o.diagram.labels)
    rigid = None
    if str(cfg.type) in EXCEPTIONAL:
        try:
            rigid = tables.lookup(cfg.type, o.diagram.labels).rigid
        except ValueError:
            rigid = None
    payload = _analysis_payload(cfg.type, L, a, label, rigid)
    fields = [
        ("type", payload["type"]),
        ("label", label or "-"),
        ("diagram", _diagram_str(o.diagram.labels)),
        ("dim_orbit", payload["dim_orbit"]),
        ("dim_ge", a.dim_ge),
        ("dim_derived", a.dim_derived),
        ("reachable", a.reachable),
        ("strongly_reachable", a.strongly_reachable),
        ("panyushev", a.panyushev_generated),
        ("dim_ce", a.dim_ce),
        ("ce_weights", ",".join(map(str, a.ce_weights)) or "-"),
        ("rigid", "-" if rigid is None else rigid),
    ]
    if cfg.format == "text":
        return EXIT_OK, "".join(f"{k:<18} {v}\n" for k, v in fields)
    header = [k for k, _ in fields]
    return EXIT_OK, _render_rows(cfg, header, [[str(v) for _, v in fields]], payload)


def _sweep(L: LieAlgebra, seed: int, trials: int) -> list[OrbitAnalysis]:
    return [analyze(L, o) for o in enumerate_orbits(L, seed=seed, trials=trials)]


def _cmd_table(cfg: RunConfig) -> tuple[int, str]:
    if str(cfg.type) not in EXCEPTIONAL:
        raise UsageError("tables are defined for the exceptional types only")
    tables = _tables(cfg)
    L = build_lie_algebra(cfg.type)
    analyses = _sweep(L, cfg.seed, cfg.trials)
    rows = []
    payload_rows = []
    if cfg.kind == "reachable":
        header = ["label", "diagram", "strong", "rigid"]
        for a in analyses:
            if not a.reachable:
                continue
            labels = a.orbit.diagram.labels
            label = _label_for(tables, cfg.type, labels)
            try:
                rigid = tables.lookup(cfg.type, labels).rigid
            except ValueError as exc:  # a table without the row
                raise UsageError(f"the reference tables cannot serve this run: {exc}") from None
            rows.append(
                [
                    label or "-",
                    _diagram_str(labels),
                    "x" if a.strongly_reachable else "",
                    "x" if rigid else "",
                ]
            )
            payload_rows.append(
                {
                    "label": label,
                    "diagram": list(labels),
                    "strongly_reachable": a.strongly_reachable,
                    "rigid": rigid,
                }
            )
    else:
        header = ["label", "diagram", "dim_ce", "weights"]
        for a in analyses:
            labels = a.orbit.diagram.labels
            label = _label_for(tables, cfg.type, labels)
            rows.append(
                [
                    label or "-",
                    _diagram_str(labels),
                    str(a.dim_ce),
                    ",".join(map(str, a.ce_weights)),
                ]
            )
            payload_rows.append(
                {
                    "label": label,
                    "diagram": list(labels),
                    "dim_ce": a.dim_ce,
                    "ce_weights": list(a.ce_weights),
                }
            )
    payload = {
        "schema": "exorb.table/1",
        "type": str(cfg.type),
        "kind": cfg.kind,
        "seed": cfg.seed,
        "rows": payload_rows,
    }
    return EXIT_OK, _render_rows(cfg, header, rows, payload)


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
        if a.reachable != rec.reachable:
            bad(diagram, "reachable", a.reachable, rec.reachable)
        if a.strongly_reachable != rec.strongly_reachable:
            bad(diagram, "strongly_reachable", a.strongly_reachable, rec.strongly_reachable)
        if a.dim_ce != rec.dim_ce:
            bad(diagram, "dim_ce", a.dim_ce, rec.dim_ce)
        if a.ce_weights != rec.ce_weights:
            bad(diagram, "ce_weights", list(a.ce_weights), list(rec.ce_weights))
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
                f"  {_diagram_str(tuple(m['diagram']))} {m['field']}: "
                f"computed={m['computed']} expected={m['expected']}"
            )
    lines.append("status: " + payload["status"])
    return status, "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2)
        raise UsageError(message)


def _build_parser() -> _Parser:
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
