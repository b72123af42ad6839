import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import exorb

from exorb import cli
from exorb.cli import (
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
from exorb.algebra import build_lie_algebra
from exorb.orbits import enumerate_orbits
from exorb.reach import analyze
from exorb.refdata import load_tables
from exorb.roots import TypeRank


def _cfg(command, type_name="G2", **kw):
    return RunConfig(command=command, type=TypeRank.from_string(type_name), **kw)


def test_classify_text_and_json():
    status, out = run(_cfg("classify"))
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["label", "diagram", "dim_orbit"]
    assert len(lines) == 5  # header + 4 orbits
    status, out = run(_cfg("classify", format="json"))
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == "exorb.classify/1"
    assert doc["orbit_count"] == 4
    assert [o["dim_orbit"] for o in doc["orbits"]] == [6, 8, 10, 12]


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_classify_orbit_dimensions_are_dim_minus_dim_ge(name):
    L = build_lie_algebra(name)
    status, out = run(_cfg("classify", name, format="json"))
    assert status == EXIT_OK
    dims = {tuple(o["diagram"]): o["dim_orbit"] for o in json.loads(out)["orbits"]}
    orbits = enumerate_orbits(L)
    assert len(dims) == len(orbits)
    for o in orbits:
        assert dims[o.diagram.labels] == L.dim - analyze(L, o).dim_ge


def test_classify_works_without_reference_labels():
    status, out = run(_cfg("classify", "A2", format="json"))
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["orbit_count"] == 2
    assert all(o["label"] is None for o in doc["orbits"])


def test_analyze_by_diagram_and_label():
    status, out = run(_cfg("analyze", orbit="0,1", format="json"))
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["strongly_reachable"] and doc["rigid"] and doc["dim_ce"] == 0
    status, out2 = run(_cfg("analyze", orbit="A1~", format="json"))
    assert status == EXIT_OK and json.loads(out2)["diagram"] == [0, 1]
    status, out = run(_cfg("analyze", orbit="G2(a1)", format="json"))
    doc = json.loads(out)
    assert doc["dim_ce"] == 3 and doc["ce_weights"] == [2, 2, 2]
    assert doc["reachable"] is False and doc["rigid"] is False


def test_analyze_csv_is_one_header_and_one_row():
    status, out = run(_cfg("analyze", orbit="G2", format="csv"))
    assert status == EXIT_OK
    assert out.splitlines() == [
        "type,label,diagram,dim_orbit,dim_ge,dim_derived,reachable,"
        "strongly_reachable,panyushev,dim_ce,ce_weights,rigid",
        'G2,G2,"2,2",12,2,0,False,False,False,2,"2,10",False',
    ]


def test_resolved_orbits_have_the_sweep_triples():
    L = build_lie_algebra("F4")
    tables = load_tables()
    for o in enumerate_orbits(L):
        cfg = _cfg("analyze", "F4", orbit=",".join(map(str, o.diagram.labels)))
        assert cli._resolve_orbit(cfg, L, tables).triple == o.triple


def test_analyze_rejects_bad_orbits():
    assert main(["analyze", "G2", "--orbit", "1,1"]) == EXIT_USAGE
    assert main(["analyze", "G2", "--orbit", "0,1,0"]) == EXIT_USAGE
    assert main(["analyze", "G2", "--orbit", "NoSuchOrbit"]) == EXIT_USAGE
    for selector in ("1,", "1,,0", "3,0"):
        assert main(["analyze", "G2", "--orbit", selector]) == EXIT_USAGE


def test_usage_errors():
    assert main(["frobnicate", "G2"]) == EXIT_USAGE
    assert main(["classify", "Z9"]) == EXIT_USAGE
    assert main(["classify", "G2", "--format", "yaml"]) == EXIT_USAGE
    assert main(["verify", "A2"]) == EXIT_USAGE  # no tables for type A
    assert main(["analyze", "G2"]) == EXIT_USAGE  # --orbit required


def test_table_quotient_and_reachable():
    status, out = run(_cfg("table", "F4", format="csv"))
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label,diagram,dim_ce,weights"
    assert len(lines) == 16  # header + 15 orbits
    assert any(line.startswith("F4(a3),") for line in lines)
    status, out = run(_cfg("table", "G2", kind="reachable", format="csv"))
    lines = out.strip().splitlines()
    assert lines == ["label,diagram,strong,rigid", 'A1~,"0,1",x,x']


def test_verify_ok_and_deterministic():
    first = run(_cfg("verify", format="json"))
    second = run(_cfg("verify", format="json"))
    assert first[0] == EXIT_OK
    assert first == second  # byte-identical output
    doc = json.loads(first[1])
    assert doc["status"] == "ok"
    assert doc["types"]["G2"]["orbits_checked"] == 4
    assert doc["types"]["G2"]["mismatches"] == []


def test_verify_text_format():
    status, out = run(_cfg("verify"))
    assert status == EXIT_OK
    assert "G2: 4 orbits checked, 0 mismatches" in out
    assert out.strip().endswith("status: ok")


def test_json_round_trip_is_canonical():
    _, out = run(_cfg("verify", format="json"))
    doc = json.loads(out)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out


def test_verify_detects_tampered_tables(tmp_path):
    data = json.loads(
        resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
    )
    row = data["types"]["G2"][2]
    row["dim_ce"] = row["dim_ce"] + 1
    row["ce_weights"] = row["ce_weights"] + [0]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    status, out = run(_cfg("verify", format="json", refdata_path=str(tampered)))
    assert status == EXIT_MISMATCH
    doc = json.loads(out)
    assert doc["status"] == "mismatch"
    fields = {m["field"] for m in doc["types"]["G2"]["mismatches"]}
    assert "dim_ce" in fields and "ce_weights" in fields


def test_main_prints_to_stdout(capsys):
    assert main(["classify", "G2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "diagram" in out and "12" in out


def test_analyze_e7_worked_example():
    status, out = run(
        _cfg("analyze", "E7", orbit="0,0,0,1,0,1,0", format="json")
    )
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["label"] == "A3+A2"
    assert doc["reachable"] is False
    assert doc["dim_ge"] == 35 and doc["dim_derived"] == 33
    assert doc["dim_ce"] == 2 and doc["ce_weights"] == [0, 2]


def test_nonpositive_trials_is_a_usage_error(capsys):
    assert main(["classify", "G2", "--trials", "0"]) == EXIT_USAGE
    assert main(["analyze", "G2", "--orbit", "0,1", "--trials", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and "--trials" in err


def test_missing_refdata_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["verify", "G2", "--refdata", str(missing)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err


def test_malformed_refdata_is_a_usage_error(tmp_path, capsys):
    malformed = tmp_path / "hostname"
    malformed.write_text("build-host\n")
    assert main(["classify", "G2", "--refdata", str(malformed)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err


def test_verify_output_is_unchanged_under_optimization():
    env = dict(os.environ, PYTHONPATH=str(Path(exorb.__file__).parents[1]))
    cmd = ["-m", "exorb", "verify", "G2", "--format", "json"]
    plain = subprocess.run([sys.executable, *cmd], env=env, capture_output=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *cmd], env=env, capture_output=True
    )
    assert plain.returncode == optimized.returncode == EXIT_OK
    assert plain.stdout and optimized.stdout == plain.stdout


def test_internal_error_keeps_the_traceback(monkeypatch, capsys):
    def broken(cfg, type_names=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", broken)
    assert main(["classify", "G2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first == "internal error: RuntimeError: boom"
    assert rest[0] == "Traceback (most recent call last):"
    assert any("in broken" in line for line in rest)
    assert rest[-1] == "RuntimeError: boom"


def test_exhausted_draws_exit_3_naming_the_label_vector(monkeypatch, capsys):
    from exorb import orbits

    # Every draw falls one short of full rank, so no label vector settles.
    monkeypatch.setattr(orbits, "_ranks_mod_p", lambda layout, a: (a.shape[1] - 1,) * 2)
    assert main(["classify", "G2", "--trials", "2"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    first = captured.err.splitlines()[0]
    assert first.startswith("internal error: RuntimeError: diagram ")
    assert first.endswith(": no surjective draw among 2")
