"""Correctness checks the benchmark applies to every operation's output.

The expected values come from two places only: the published tables
(`src/exorb/data/orbit_tables.json`, read here with plain `json` after its
sha256 is matched against the checksum recorded in `docs/refdata.md`) and
properties that the mathematics forces (sl2 relations, grading, parity,
dimension identities).  None of them is a copy of the program's output.
Each check raises `CheckFailed` with a message naming what went wrong.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from exorb.algebra import bracket

REFDATA = Path("src/exorb/data/orbit_tables.json")
REFDATA_DOC = Path("docs/refdata.md")

# Numbers of nonzero nilpotent orbits (the paper's classification).
PAPER_COUNTS = {"G2": 4, "F4": 15, "E6": 20, "E7": 44, "E8": 69}

# `exorb verify` runs with the CLI's default number of diagram-test trials.
VERIFY_TRIALS = 25


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Oracle:
    """The published tables, keyed by type and diagram."""

    def __init__(self, doc: dict):
        self.rows: dict[str, dict[tuple[int, ...], dict]] = {}
        self.by_label: dict[str, dict[str, tuple[int, ...]]] = {}
        for tname, rows in doc["types"].items():
            self.rows[tname] = {tuple(r["diagram"]): r for r in rows}
            self.by_label[tname] = {r["label"]: tuple(r["diagram"]) for r in rows}

    def diagrams(self, tname: str) -> set[tuple[int, ...]]:
        return set(self.rows[tname])

    def row(self, tname: str, diagram: tuple[int, ...]) -> dict:
        try:
            return self.rows[tname][tuple(diagram)]
        except KeyError:
            raise CheckFailed(f"{tname}: diagram {diagram} is not in the tables") from None


def recorded_checksum(doc_text: str) -> str:
    found = re.findall(r"^\s+([0-9a-f]{64})\s*$", doc_text, flags=re.MULTILINE)
    if len(found) != 1:
        raise CheckFailed("docs/refdata.md does not record exactly one sha256")
    return found[0]


def load_oracle(root: Path) -> Oracle:
    """Read the tables after matching their sha256 to the documented one."""
    data = (root / REFDATA).read_bytes()
    want = recorded_checksum((root / REFDATA_DOC).read_text(encoding="utf-8"))
    got = hashlib.sha256(data).hexdigest()
    _require(got == want, f"refdata sha256 {got} differs from the recorded {want}")
    oracle = Oracle(json.loads(data))
    for tname, count in PAPER_COUNTS.items():
        # the chunked E6 sweep relies on this for the classification count
        _require(
            len(oracle.diagrams(tname)) == count,
            f"the tables list {len(oracle.diagrams(tname))} {tname} orbits, not {count}",
        )
    return oracle


# -- classify ----------------------------------------------------------------


def check_triple(L, labels: tuple[int, ...], triple) -> None:
    """h realizes the labels, e in g(2), f in g(-2), and the sl2 relations."""
    e, h, f = triple.e, triple.h, triple.f
    _require(
        tuple(L.cartan_values(h)) == tuple(labels),
        f"{labels}: h does not take the label values on the simple roots",
    )
    weights = L.basis_weights(labels)
    _require(not e.is_zero(), f"{labels}: e is zero")
    _require(all(weights[i] == 2 for i in e.support()), f"{labels}: e is not in g(2)")
    _require(all(weights[i] == -2 for i in f.support()), f"{labels}: f is not in g(-2)")
    _require(bracket(L, h, e) == 2 * e, f"{labels}: [h, e] != 2e")
    _require(bracket(L, h, f) == -2 * f, f"{labels}: [h, f] != -2f")
    _require(bracket(L, e, f) == h, f"{labels}: [e, f] != h")


def _check_orbits(L, tname: str, orbits) -> None:
    """Every triple is valid and every orbit dimension is even."""
    for o in orbits:
        labels = o.diagram.labels
        check_triple(L, labels, o.triple)
        weights = L.basis_weights(labels)
        dim_orbit = L.dim - sum(1 for w in weights if w in (0, 1))
        _require(dim_orbit % 2 == 0, f"{tname} {labels}: odd orbit dimension {dim_orbit}")


def check_classification(L, tname: str, orbits, oracle: Oracle) -> None:
    _require(
        len(orbits) == PAPER_COUNTS[tname],
        f"{tname}: {len(orbits)} orbits, the classification has {PAPER_COUNTS[tname]}",
    )
    found = {o.diagram.labels for o in orbits}
    _require(len(found) == len(orbits), f"{tname}: a diagram is listed twice")
    _require(
        found == oracle.diagrams(tname),
        f"{tname}: diagrams differ from the tables: "
        f"extra {sorted(found - oracle.diagrams(tname))}, "
        f"missing {sorted(oracle.diagrams(tname) - found)}",
    )
    _check_orbits(L, tname, orbits)


def check_diagram_chunk(L, tname: str, label_list, orbits, oracle: Oracle) -> None:
    """The orbits found among `label_list` are exactly the published ones."""
    found = [o.diagram.labels for o in orbits]
    _require(len(set(found)) == len(found), f"{tname}: a diagram is listed twice")
    want = oracle.diagrams(tname) & set(label_list)
    _require(
        set(found) == want,
        f"{tname}: diagrams differ from the tables: "
        f"extra {sorted(set(found) - want)}, missing {sorted(want - set(found))}",
    )
    _check_orbits(L, tname, orbits)


# -- analyze -----------------------------------------------------------------


def check_analysis(L, tname: str, a, oracle: Oracle) -> None:
    labels = a.orbit.diagram.labels
    row = oracle.row(tname, labels)
    where = f"{tname} {row['label']}"
    for field in ("reachable", "strongly_reachable", "dim_ce"):
        _require(
            getattr(a, field) == row[field],
            f"{where}: {field} = {getattr(a, field)}, tables say {row[field]}",
        )
    _require(
        list(a.ce_weights) == list(row["ce_weights"]),
        f"{where}: ce_weights = {list(a.ce_weights)}, tables say {row['ce_weights']}",
    )
    weights = L.basis_weights(labels)
    expected_ge = sum(1 for w in weights if w in (0, 1))
    _require(
        a.dim_ge == expected_ge,
        f"{where}: dim g_e = {a.dim_ge}, dim g(0) + dim g(1) = {expected_ge}",
    )
    _require(
        a.dim_derived == a.dim_ge - a.dim_ce,
        f"{where}: dim [g_e, g_e] = {a.dim_derived} != dim g_e - dim c_e",
    )
    _require(
        a.panyushev_generated == a.reachable,
        f"{where}: Panyushev-generated = {a.panyushev_generated}, reachable = {a.reachable}",
    )
    _require(all(w >= 0 for w in a.ce_weights), f"{where}: a negative c_e weight")


# -- verify ------------------------------------------------------------------


def expected_verify_json(seed: int, tname: str) -> str:
    """The canonical `verify --format json` document of a clean run."""
    return (
        '{"schema":"exorb.verify/1","seed":%d,"status":"ok","trials":%d,'
        '"types":{"%s":{"mismatches":[],"orbits_checked":%d}}}\n'
        % (seed, VERIFY_TRIALS, tname, PAPER_COUNTS[tname])
    )


def check_verify(seed: int, tname: str, status: int, output: str) -> None:
    _require(status == 0, f"verify {tname}: exit status {status}")
    _require(
        output == expected_verify_json(seed, tname),
        f"verify {tname}: output differs from the canonical clean report: {output!r}",
    )
