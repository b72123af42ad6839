import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_analyze_reads_a_diagram_separated_by_spaces():
    expected = run(_cfg("analyze", orbit="2,2", format="json"))
    assert expected[0] == EXIT_OK
    for selector in ("2 2", "22"):
        assert run(_cfg("analyze", orbit=selector, format="json")) == expected
    assert main(["analyze", "F4", "--orbit", "0 1 0 0"]) == EXIT_OK


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


def test_verify_refuses_csv_before_loading_the_tables(monkeypatch, capsys):
    def no_tables(cfg):
        raise AssertionError("tables loaded")

    monkeypatch.setattr(cli, "_tables", no_tables)
    assert main(["verify", "G2", "--format", "csv"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: verify reports in text or json\n"


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


@pytest.mark.parametrize(
    "table, diagram",
    [
        ("G2", "2,2"),  # not a list
        ("G2", [2, 2, 0]),  # one label too many
        ("G2", [3, 0]),  # a label outside {0, 1, 2}
        ("G2", [2, True]),  # a label that is no int
        ("exceptions", [0, 1, 1, 0, 1]),  # one label short for E6
    ],
    ids=["string", "three-labels", "label-3", "label-true", "exception-five-labels"],
)
def test_malformed_table_diagram_is_a_usage_error(tmp_path, capsys, table, diagram):
    data = json.loads(
        resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
    )
    row = data["exceptions"][0] if table == "exceptions" else data["types"][table][2]
    row["diagram"] = diagram
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(data))
    assert main(["verify", "G2", "--refdata", str(tables)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err and "diagram" in captured.err


def _set(path, value):
    """An edit of the bundled tables: set the field at `path` to `value`."""

    def edit(data):
        *keys, last = path
        target = data
        for k in keys:
            target = target[k]
        target[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(("types", "G2", 2, "dim_ce"), None),
        _set(("types", "G2", 2, "ce_weights", 0), 2.0),
        _set(("types", "G2"), {}),
        _set(("types", "A2"), []),
        _set(("types", "G2", 2, "label"), 7),
        _set(("types", "G2", 2, "alt_label"), ["G2(a1)"]),
        _set(("types", "G2", 2, "rigid"), 1),
        _set(("types", "G2", 2, "rigid_source"), "table"),
        _set(("types", "G2", 2, "dim_ce"), 5),
        _set(("exceptions", 0, "type"), "A2"),
        _set(("exceptions", 0, "sheet_rank"), "1"),
        _set(("exceptions", 0, "dim_ce"), True),
    ],
    ids=[
        "dim-ce-null",
        "float-weight",
        "types-row-object",
        "types-not-exceptional",
        "label-int",
        "alt-label-list",
        "flag-int",
        "rigid-source",
        "dim-ce-not-weight-count",
        "exception-type",
        "exception-sheet-rank-string",
        "exception-dim-ce-bool",
    ],
)
def test_malformed_table_field_is_a_usage_error(tmp_path, capsys, edit):
    data = json.loads(
        resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
    )
    edit(data)
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(data))
    assert main(["verify", "G2", "--refdata", str(tables)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot load reference tables" in captured.err


def test_classify_refuses_a_sweep_above_3_to_the_10(capsys, monkeypatch):
    # A11 has 3^11 = 177,147 label vectors; the refusal comes before any work.
    def no_work(*args):
        raise AssertionError("work done")

    monkeypatch.setattr(cli, "build_lie_algebra", no_work)
    monkeypatch.setattr(cli, "enumerate_orbits", no_work)
    for name, count in [("A11", "177,147"), ("A20", "3,486,784,401")]:
        assert main(["classify", name]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err and count in captured.err
    # A10, 3^10 label vectors, is let through to the (here failing) work
    assert main(["classify", "A10"]) == EXIT_INTERNAL
    assert "work done" in capsys.readouterr().err


def test_verify_output_is_unchanged_under_optimization():
    env = dict(os.environ, PYTHONPATH=str(Path(exorb.__file__).parents[1]))
    cmd = ["-m", "exorb", "verify", "G2", "--format", "json"]
    plain = subprocess.run([sys.executable, *cmd], env=env, capture_output=True)
    optimized = subprocess.run(
        [sys.executable, "-O", *cmd], env=env, capture_output=True
    )
    assert plain.returncode == optimized.returncode == EXIT_OK
    assert plain.stdout and optimized.stdout == plain.stdout


# The first 16 hex digits of sha256(f"{status}\n{stdout}") of each command
# line: every text, CSV and JSON output of classify, analyze, table and verify.
COMMAND_DIGESTS = {
    "classify G2 --format text": "bc25a44d19a48a60",
    "classify G2 --format csv": "669192b767804e59",
    "classify G2 --format json": "8a29ff4f266975cf",
    "classify A2 --format text": "98c6dd89e471d662",
    "classify A2 --format csv": "701a7431d24c5e88",
    "classify A2 --format json": "814bed1301a1213c",
    "analyze G2 --orbit 0,1 --format text": "104e8dcb28984b96",
    "analyze G2 --orbit 0,1 --format csv": "30fabf8383a0cb52",
    "analyze G2 --orbit 0,1 --format json": "b04c50a78f72648e",
    "analyze G2 --orbit G2(a1) --format text": "fd4fe1a035d9c4ef",
    "analyze G2 --orbit G2(a1) --format csv": "58c939f0ce8c4ffd",
    "analyze G2 --orbit G2(a1) --format json": "d19bfa82e6b9440c",
    "analyze G2 --orbit 0,0 --format text": "ee7f75e619584d27",
    "analyze G2 --orbit 0,0 --format csv": "12cc5f7cb196785e",
    "analyze G2 --orbit 0,0 --format json": "a55b7105749c8a3f",
    "table G2 --kind quotient --format text": "66286b615ae1fa06",
    "table G2 --kind quotient --format csv": "35ff4048576d52ec",
    "table G2 --kind quotient --format json": "f7999f81e51ad309",
    "table G2 --kind reachable --format text": "cca3c9a72a5560ef",
    "table G2 --kind reachable --format csv": "de91b96275e4c1fe",
    "table G2 --kind reachable --format json": "910e61b4c78d3731",
    "table F4 --kind quotient --format text": "31b7c547bca9ca72",
    "table F4 --kind quotient --format csv": "6fc1975a4dcd6478",
    "table F4 --kind quotient --format json": "1208f0410d20bb9e",
    "table F4 --kind reachable --format text": "dfabc7dc711af381",
    "table F4 --kind reachable --format csv": "0f7d6f2c63946874",
    "table F4 --kind reachable --format json": "7fcad4efc1e9055a",
    "verify G2 --format text": "af68397da6728125",
    "verify G2 --format json": "582e7624d3765831",
}


def test_command_outputs_are_pinned(capsys):
    digests = {}
    for argv in COMMAND_DIGESTS:
        status = main(argv.split())
        captured = capsys.readouterr()
        assert captured.err == "", (argv, captured.err)
        text = f"{status}\n{captured.out}"
        digests[argv] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == COMMAND_DIGESTS


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


# -- a generated-input test of the command line ------------------------------

_BUNDLED = json.loads(
    resources.files("exorb").joinpath("data/orbit_tables.json").read_text()
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-3, 3) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _without(path):
    """The bundled tables as JSON text, with the node at `path` deleted."""
    data = json.loads(json.dumps(_BUNDLED))
    *keys, last = path
    node = data
    for k in keys:
        node = node[k]
    del node[last]
    return json.dumps(data)


@st.composite
def _table_texts(draw):
    """The bundled tables, with one node set or deleted, or the text cut short.

    The node is a top-level entry, a type's rows, one row or one field of a
    row; G2 is drawn most, since most of the command lines run on it.
    """
    data = json.loads(json.dumps(_BUNDLED))
    level = draw(st.sampled_from(["truncate", "top", "type", "row", "field"]))
    if level == "truncate":
        text = json.dumps(data)
        return text[: draw(st.integers(0, len(text) - 1))]
    name = draw(st.sampled_from(["G2", "G2", "F4", "E6"]))
    if level == "top":
        target, key = data, draw(st.sampled_from(sorted(data)))
    elif level == "type":
        target, key = data["types"], name
    else:
        rows = data["types"][name] if draw(st.booleans()) else data["exceptions"]
        target, key = rows, draw(st.integers(0, len(rows) - 1))
        if level == "field":
            target = rows[key]
            key = draw(st.sampled_from(sorted(target) + ["extra"]))
    if draw(st.booleans()):
        target[key] = draw(_JSON_VALUES)
    elif isinstance(target, dict):
        target.pop(key, None)
    else:
        del target[key]
    return json.dumps(data)


def _selectors():
    labels = sorted({row["label"] for rows in _BUNDLED["types"].values() for row in rows})
    digits = st.lists(st.sampled_from("0120123a "), min_size=0, max_size=7)
    return st.one_of(
        st.lists(st.integers(0, 3), min_size=0, max_size=7).map(
            lambda xs: ",".join(map(str, xs))
        ),
        digits.map(",".join),
        st.sampled_from(labels + ["zz", "A1~", ""]),
    )


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["classify", "analyze", "table", "verify", "plot"]))
    # sweeps stay at rank <= 6; A11 and A20 meet classify's refusal only
    types = ["G2", "G2", "G2", "F4", "E6", "g2", "A1", "A3", "B3", "C3", "D4", "A6", "E9", "A0", "X2", "E", "all"]
    if command == "classify":
        types += ["A11", "A20"]
    argv = [command, draw(st.sampled_from(types))]
    if command == "analyze" or draw(st.integers(0, 9)) == 0:
        argv += ["--orbit", draw(_selectors())]
    if command == "table" or draw(st.integers(0, 9)) == 0:
        argv += ["--kind", draw(st.sampled_from(["quotient", "reachable", "rigid"]))]
    # mostly valid values, so that most command lines reach the work
    options = {
        "--format": st.sampled_from(["text", "csv", "json", "json", "xml"]),
        "--seed": st.sampled_from(["1", "2", "3", "0", "-3", str(10**20), "x"]),
        "--trials": st.sampled_from(["25", "25", "3", "1", "0", "-1", "2.5"]),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@given(argv=_argvs(), table=st.none() | _table_texts())
@example(argv=["verify", "G2"], table=_without(("types", "G2")))
@example(argv=["table", "G2", "--kind", "reachable"], table=_without(("types", "G2", 1)))
@settings(max_examples=40, deadline=None)
def test_generated_command_lines_exit_with_a_documented_code(tmp_path_factory, argv, table):
    # 0, 1 or 2, or 3 only when the draws run out; never a traceback
    # otherwise, and nothing on stdout with a usage error.
    import contextlib
    import io

    if table is not None:
        path = tmp_path_factory.mktemp("refdata") / "tables.json"
        path.write_text(table)
        argv = argv + ["--refdata", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if status == EXIT_INTERNAL:
        first = err.splitlines()[0]
        assert first.startswith("internal error: RuntimeError: diagram "), err
        assert ": no surjective draw among " in first, err
    else:
        assert status in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH), (status, err)
        assert "Traceback" not in err, err
    if status == EXIT_USAGE:
        assert out == "" and err.startswith("usage error: ")


def test_a_usage_error_between_two_runs_changes_nothing(capsys):
    # main() builds its parser once per process; neither a usage error nor
    # other options in between change a later call's output or exit status.
    argv = ["analyze", "G2", "--orbit", "1,0", "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr()
    for bad in (["analyze", "G2", "--orbit", "0,1", "--seed", "2", "--format", "xml"], ["verify"]):
        assert main(bad) == EXIT_USAGE
        assert capsys.readouterr().out == ""
    assert main(["analyze", "G2", "--orbit", "0,1", "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == first
    assert cli._build_parser() is cli._build_parser()
