import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from exorb.refdata import load_tables

COUNTS = {"G2": 4, "F4": 15, "E6": 20, "E7": 44, "E8": 69}
REACHABLE_COUNTS = {"G2": 1, "F4": 4, "E6": 6, "E7": 8, "E8": 16}


def test_counts_per_type():
    tables = load_tables()
    data = json.loads(resources.files("exorb").joinpath("data/orbit_tables.json").read_text())
    assert set(data["types"]) == set(COUNTS)
    with pytest.raises(ValueError):
        tables.orbits("A2")
    for tname, count in COUNTS.items():
        records = tables.orbits(tname)
        assert len(records) == count
        assert sum(1 for r in records if r.reachable) == REACHABLE_COUNTS[tname]
        diagrams = [r.diagram for r in records]
        assert len(set(diagrams)) == len(diagrams)


def test_internal_consistency():
    tables = load_tables()
    for tname in COUNTS:
        for rec in tables.orbits(tname):
            assert len(rec.ce_weights) == rec.dim_ce
            if rec.strongly_reachable:
                assert rec.reachable
            assert rec.strongly_reachable == (rec.dim_ce == 0 and rec.reachable)
            assert rec.strongly_reachable == (rec.reachable and rec.rigid)
            assert len(rec.diagram) == rec.type_rank.rank
            assert all(v in (0, 1, 2) for v in rec.diagram)


def test_lookup_examples():
    tables = load_tables()
    rec = tables.lookup("F4", (0, 2, 0, 0))
    assert rec.label == "F4(a3)" and rec.dim_ce == 6
    assert rec.ce_weights == (2,) * 6
    rec = tables.lookup("E8", (0, 0, 0, 0, 2, 0, 0, 0))
    assert rec.label == "E8(a7)" and rec.dim_ce == 10
    assert rec.ce_weights == (2,) * 10
    with pytest.raises(ValueError):
        tables.lookup("E6", (1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        tables.orbits("B9")


def test_lookup_by_label_and_g2_alternates():
    tables = load_tables()
    rec = tables.by_label("E7", "A3+A2")
    assert rec.diagram == (0, 0, 0, 1, 0, 1, 0)
    assert rec.dim_ce == 2 and rec.ce_weights == (0, 2)
    a = tables.by_label("G2", "A1")
    assert a.diagram == (1, 0) and a.alt_label == "A1~"
    b = tables.by_label("G2", "A1~")
    assert b.diagram in ((1, 0), (0, 1))  # both conventions resolve


def test_exception_records():
    tables = load_tables()
    rows = tables.exceptions()
    assert len(rows) == 6
    as_tuples = {(str(r.type_rank), r.label, r.sheet_rank, r.dim_ce) for r in rows}
    assert as_tuples == {
        ("E6", "A3+A1", 1, 2),
        ("E7", "D6(a2)", 2, 3),
        ("E8", "D6(a2)", 1, 3),
        ("E8", "E6(a3)+A1", 1, 3),
        ("E8", "E7(a2)", 3, 4),
        ("F4", "C3(a1)", 1, 3),
    }
    for r in rows:
        assert r.sheet_rank != r.dim_ce
        rec = tables.lookup(r.type_rank, r.diagram)
        assert rec.dim_ce == r.dim_ce and rec.label == r.label


def test_rigid_flags_cover_every_orbit():
    tables = load_tables()
    rigid_counts = {"G2": 2, "F4": 5, "E6": 3, "E7": 7, "E8": 17}
    for tname in COUNTS:
        flags = tables.rigid_flags(tname)
        assert len(flags) == COUNTS[tname]
        assert sum(flags.values()) == rigid_counts[tname]


def test_transcription_checksum_matches_docs():
    data = resources.files("exorb").joinpath("data/orbit_tables.json").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    doc = Path(__file__).resolve().parents[1] / "docs" / "refdata.md"
    assert digest in doc.read_text()


def test_env_override_and_schema_check(tmp_path, monkeypatch):
    data = json.loads(
        resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
    )
    data["schema"] = "something-else"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_tables(str(bad))
    good = tmp_path / "good.json"
    data["schema"] = "exorb.orbit-tables/1"
    good.write_text(json.dumps(data))
    monkeypatch.setenv("EXORB_REFDATA", str(good))
    assert len(load_tables().orbits("G2")) == 4


@pytest.mark.parametrize(
    "extra, field",
    [
        # the A1 row again with a wrong dim_ce: the last row would win
        ({"label": "A1x", "alt_label": None, "dim_ce": 5, "ce_weights": [2] * 5}, "diagram"),
        ({"diagram": [2, 0], "label": "G2(a1)", "alt_label": None}, "label"),
        ({"diagram": [1, 1], "label": "X", "alt_label": "A1"}, "alt_label"),
    ],
    ids=["diagram", "label", "alt_label"],
)
def test_repeated_diagram_or_label_is_refused(tmp_path, capsys, extra, field):
    from exorb.cli import EXIT_USAGE, main

    data = json.loads(resources.files("exorb").joinpath("data/orbit_tables.json").read_text())
    data["types"]["G2"].insert(0, {**data["types"]["G2"][0], **extra})
    tables = tmp_path / "dup.json"
    tables.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"^G2 row .*: repeats the {field} "):
        load_tables(str(tables))
    assert main(["verify", "G2", "--refdata", str(tables)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err


@pytest.mark.parametrize(
    "change, field",
    [({"sheet_rank": 2}, "diagram"), ({"diagram": [1, 1, 1, 1]}, "label")],
    ids=["diagram", "label"],
)
def test_repeated_exception_row_is_refused(tmp_path, capsys, change, field):
    # A second exception row for F4's C3(a1), with another sheet rank or
    # another diagram, would give one orbit two sheet ranks.
    from exorb.cli import EXIT_USAGE, main

    data = json.loads(resources.files("exorb").joinpath("data/orbit_tables.json").read_text())
    row = next(r for r in data["exceptions"] if (r["type"], r["label"]) == ("F4", "C3(a1)"))
    data["exceptions"].append({**row, **change})
    tables = tmp_path / "dup.json"
    tables.write_text(json.dumps(data))
    message = rf"^exception row 'C3\(a1\)': repeats the type and {field} "
    with pytest.raises(ValueError, match=message):
        load_tables(str(tables))
    assert main(["verify", "F4", "--refdata", str(tables)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err
